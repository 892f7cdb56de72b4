"""Multiple-relaxation-time (MRT) collision for D3Q19.

Production hemodynamics codes (HARVEY included) offer MRT collision as a
higher-stability alternative to BGK at low viscosity: moments relax at
individual rates, so the ghost (non-hydrodynamic) modes can be damped
aggressively while the shear modes set the viscosity.

This implementation uses the standard d'Humières D3Q19 moment basis built
programmatically from the velocity set (density, momentum, energy, energy
squared, heat flux, stress, and ghost modes).  With every relaxation rate
set to ``1/tau`` it reduces exactly to BGK — the property the test suite
pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from ..core.errors import ConfigError
from ..core.kernels import (
    Workspace,
    _equilibrium_into,
    _guo_source_into,
    _moments_into,
    collide_tiled,
)
from ..core.lattice import D3Q19, Lattice

__all__ = ["MRTCollision", "build_moment_basis", "DEFAULT_GHOST_RATE"]

#: Relaxation rate applied to non-hydrodynamic (ghost) modes by default.
DEFAULT_GHOST_RATE = 1.2


def build_moment_basis(lat: Lattice = D3Q19) -> np.ndarray:
    """The d'Humières-style raw-moment basis for D3Q19, shape ``(19, 19)``.

    Rows (index: moment): 0 density, 1 energy, 2 energy^2, 3/5/7 momentum,
    4/6/8 heat flux, 9-14 stress components, 15-18 ghost modes.  Built
    from polynomial combinations of the velocity set so the basis is
    orthogonal under the uniform inner product (verified in tests).
    """
    if lat.q != 19:
        raise ConfigError("the MRT basis is defined for D3Q19")
    c = lat.cf
    cx, cy, cz = c[:, 0], c[:, 1], c[:, 2]
    sq = cx**2 + cy**2 + cz**2
    rows = [
        np.ones(19),                                # rho
        19 * sq - 30,                               # e (energy)
        (21 * sq**2 - 53 * sq + 24) / 2.0,          # epsilon
        cx,                                         # j_x
        (5 * sq - 9) * cx,                          # q_x
        cy,                                         # j_y
        (5 * sq - 9) * cy,                          # q_y
        cz,                                         # j_z
        (5 * sq - 9) * cz,                          # q_z
        3 * cx**2 - sq,                             # 3 p_xx
        (3 * sq - 5) * (3 * cx**2 - sq),            # 3 pi_xx
        cy**2 - cz**2,                              # p_ww
        (3 * sq - 5) * (cy**2 - cz**2),             # pi_ww
        cx * cy,                                    # p_xy
        cy * cz,                                    # p_yz
        cx * cz,                                    # p_xz
        (cy**2 - cz**2) * cx,                       # m_x (ghost)
        (cz**2 - cx**2) * cy,                       # m_y (ghost)
        (cx**2 - cy**2) * cz,                       # m_z (ghost)
    ]
    return np.array(rows)


#: Moment indices by physical role.
_CONSERVED = (0, 3, 5, 7)  # density + momentum: never relaxed
_SHEAR = (9, 11, 13, 14, 15)  # set the kinematic viscosity
_BULK = (1,)  # energy: bulk viscosity
_GHOST = (2, 4, 6, 8, 10, 12, 16, 17, 18)


@dataclass
class MRTCollision:
    """MRT collision with per-mode relaxation rates.

    Attributes
    ----------
    tau:
        Relaxation time of the shear modes (sets viscosity exactly as in
        BGK: ``nu = cs^2 (tau - 1/2)``).
    ghost_rate:
        Relaxation rate (1/tau units) of the non-hydrodynamic modes.
    bulk_rate:
        Relaxation rate of the energy mode (bulk viscosity); defaults to
        the shear rate.
    force:
        Optional uniform body force (applied in moment space with the
        same Guo construction as BGK).
    """

    tau: float
    ghost_rate: float = DEFAULT_GHOST_RATE
    bulk_rate: Optional[float] = None
    force: Optional[np.ndarray] = None
    _M: np.ndarray = field(default=None, repr=False)
    _Minv: np.ndarray = field(default=None, repr=False)
    _S: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.tau <= 0.5:
            raise ConfigError(
                f"tau must exceed 0.5 for stability, got {self.tau}"
            )
        if not 0.0 < self.ghost_rate < 2.0:
            raise ConfigError("ghost rate must be in (0, 2)")
        if self.force is not None:
            self.force = np.asarray(self.force, dtype=np.float64)
            if self.force.shape != (3,):
                raise ConfigError("force must be a 3-vector")
            if not np.any(self.force):
                self.force = None
        self._M = build_moment_basis()
        self._Minv = np.linalg.inv(self._M)
        shear = 1.0 / self.tau
        bulk = self.bulk_rate if self.bulk_rate is not None else shear
        if not 0.0 < bulk < 2.0:
            raise ConfigError("bulk rate must be in (0, 2)")
        rates = np.zeros(19)
        for i in _SHEAR:
            rates[i] = shear
        for i in _BULK:
            rates[i] = bulk
        for i in _GHOST:
            rates[i] = self.ghost_rate
        # Conserved moments relax at the shear rate.  Density is always
        # at equilibrium so its rate is irrelevant; momentum differs from
        # the force-shifted equilibrium by F/2 under Guo forcing, and
        # relaxing it at the shear rate is what completes the exact
        # momentum injection (and makes equal rates reduce to BGK).
        for i in _CONSERVED:
            rates[i] = shear
        self._S = rates

    @property
    def omega(self) -> float:
        """Shear relaxation rate (for viscosity accounting)."""
        return 1.0 / self.tau

    @property
    def viscosity(self) -> float:
        return (self.tau - 0.5) / 3.0

    def apply(
        self,
        lat: Lattice,
        f: np.ndarray,
        idx: np.ndarray,
        workspace: Optional[Workspace] = None,
    ) -> None:
        """Collide in place in moment space on nodes ``idx``.

        Runs in ``TILE``-node blocks through
        :func:`~repro.core.kernels.collide_tiled`.  With a
        :class:`~repro.core.kernels.Workspace` both basis projections run
        as ``matmul(..., out=)`` into reused block-wide buffers and the
        moment relaxation is fully in place; when ``idx`` covers every
        node the back-projection writes straight into ``f``.
        """
        collide_tiled(f, idx, workspace, partial(self._block_kernel, lat))

    def _block_kernel(
        self, lat: Lattice, fi: np.ndarray, ws: Workspace
    ) -> None:
        """MRT on one ``(q, b)`` block, in place."""
        q, num = fi.shape
        rho, u = _moments_into(lat, fi, self.force, ws)
        feq = ws.get("feq", (q, num))
        cu = _equilibrium_into(lat, rho, u, feq, ws)
        m = ws.get("m", (q, num))
        np.matmul(self._M, fi, out=m)
        meq = ws.get("meq", (q, num))
        np.matmul(self._M, feq, out=meq)
        np.subtract(m, meq, out=meq)
        meq *= self._S[:, None]
        m -= meq
        np.matmul(self._Minv, m, out=fi)
        if self.force is not None:
            src = ws.get("src", (q, num))
            _guo_source_into(lat, u, cu, self.force, src, ws)
            # the source relaxes with the shear rate, as in Guo's MRT form
            src *= 1.0 - 0.5 / self.tau
            fi += src
