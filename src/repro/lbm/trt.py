"""Two-relaxation-time (TRT) collision.

The TRT operator splits distributions into even and odd parts about the
opposite-direction pairing and relaxes them at separate rates.  It costs
barely more than BGK yet fixes BGK's viscosity-dependent wall slip: with
the "magic" parameter ``Lambda = 3/16`` the bounce-back wall sits exactly
half-way between nodes for Poiseuille flow at *any* tau — which is why
production LBM codes (HARVEY included) prefer TRT/MRT near walls.

``omega_plus = 1/tau`` sets the viscosity exactly as in BGK;
``omega_minus`` follows from Lambda:

    Lambda = (1/omega_plus - 1/2)(1/omega_minus - 1/2)
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
from ..core.lattice import Lattice

__all__ = ["TRTCollision", "MAGIC_LAMBDA"]

#: The "magic" value placing bounce-back walls exactly half-way.
MAGIC_LAMBDA = 3.0 / 16.0


@dataclass
class TRTCollision:
    """TRT collision with the magic-parameter formulation.

    Attributes
    ----------
    tau:
        Relaxation time of the even (viscous) modes.
    magic:
        The Lambda parameter; 3/16 gives viscosity-independent wall
        placement, 1/4 gives optimal stability.
    force:
        Optional uniform body force (Guo construction, split into even
        and odd parts like the distributions).
    """

    tau: float
    magic: float = MAGIC_LAMBDA
    force: Optional[np.ndarray] = None
    _omega_minus: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.tau <= 0.5:
            raise ConfigError(
                f"tau must exceed 0.5 for stability, got {self.tau}"
            )
        if self.magic <= 0:
            raise ConfigError("magic parameter must be positive")
        if self.force is not None:
            self.force = np.asarray(self.force, dtype=np.float64)
            if self.force.shape != (3,):
                raise ConfigError("force must be a 3-vector")
            if not np.any(self.force):
                self.force = None
        lam_plus = self.tau - 0.5  # 1/omega+ - 1/2
        lam_minus = self.magic / lam_plus
        self._omega_minus = 1.0 / (lam_minus + 0.5)
        if not 0.0 < self._omega_minus < 2.0:
            raise ConfigError(
                f"derived odd rate {self._omega_minus:.3f} outside (0, 2); "
                "adjust tau or magic"
            )

    @property
    def omega(self) -> float:
        """Even (viscosity-setting) rate, for accounting parity with BGK."""
        return 1.0 / self.tau

    @property
    def omega_minus(self) -> float:
        return self._omega_minus

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
        """Collide in place on nodes ``idx``.

        Runs in ``TILE``-node blocks through
        :func:`~repro.core.kernels.collide_tiled`.  With a
        :class:`~repro.core.kernels.Workspace` the even/odd split,
        equilibrium, and Guo source are computed allocation-free into
        reused block-wide buffers; when ``idx`` covers every node each
        block collides straight in ``f``.
        """
        collide_tiled(f, idx, workspace, partial(self._block_kernel, lat))

    def _block_kernel(
        self, lat: Lattice, fi: np.ndarray, ws: Workspace
    ) -> None:
        """TRT on one ``(q, b)`` block, in place."""
        opp = lat.opposite
        q, m = fi.shape
        rho, u = _moments_into(lat, fi, self.force, ws)
        feq = ws.get("feq", (q, m))
        cu = _equilibrium_into(lat, rho, u, feq, ws)
        f_opp = ws.get("f_opp", (q, m))
        np.take(fi, opp, axis=0, out=f_opp)
        feq_opp = ws.get("feq_opp", (q, m))
        np.take(feq, opp, axis=0, out=feq_opp)
        even = ws.get("even", (q, m))
        np.add(fi, f_opp, out=even)
        even *= 0.5
        odd = ws.get("odd", (q, m))
        np.subtract(fi, f_opp, out=odd)
        odd *= 0.5
        even_eq = ws.get("even_eq", (q, m))
        np.add(feq, feq_opp, out=even_eq)
        even_eq *= 0.5
        odd_eq = ws.get("odd_eq", (q, m))
        np.subtract(feq, feq_opp, out=odd_eq)
        odd_eq *= 0.5
        omega_p = 1.0 / self.tau
        np.subtract(even, even_eq, out=even)
        even *= omega_p
        np.subtract(odd, odd_eq, out=odd)
        odd *= self._omega_minus
        fi -= even
        fi -= odd
        if self.force is not None:
            src = ws.get("src", (q, m))
            _guo_source_into(lat, u, cu, self.force, src, ws)
            src_opp = ws.get("src_opp", (q, m))
            np.take(src, opp, axis=0, out=src_opp)
            src_even = ws.get("src_even", (q, m))
            np.add(src, src_opp, out=src_even)
            src_even *= 0.5
            src_odd = ws.get("src_odd", (q, m))
            np.subtract(src, src_opp, out=src_odd)
            src_odd *= 0.5
            src_even *= 1.0 - 0.5 * omega_p
            fi += src_even
            src_odd *= 1.0 - 0.5 * self._omega_minus
            fi += src_odd
