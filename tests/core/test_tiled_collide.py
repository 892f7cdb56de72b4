"""The cache-tiled collide: block bounds, tile-boundary bits, memory.

Every collision operator runs through :func:`repro.core.kernels.
collide_tiled`, which walks the node set in blocks of at most ``TILE``
columns.  These tests pin that the blocking changes no bits at the
widths that straddle a block boundary, that the gather path and the
in-place path agree, and that the scratch buffers are block wide.
"""

import numpy as np
import pytest

from repro.core.kernels import TILE, Workspace
from repro.core.lattice import D3Q19
from repro.lbm.bgk import BGKCollision
from repro.lbm.mrt import MRTCollision
from repro.lbm.trt import TRTCollision

LAT = D3Q19
FORCE = (1e-5, 2e-6, 0.0)
WIDTHS = [TILE - 1, TILE, TILE + 1, 2 * TILE + 17]
OPERATORS = {"bgk": BGKCollision, "trt": TRTCollision, "mrt": MRTCollision}


def make_collision(name, forced):
    return OPERATORS[name](tau=0.8, force=FORCE if forced else None)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    f = LAT.equilibrium(
        1.0 + 0.01 * rng.random(n), 0.01 * rng.random((n, 3))
    )
    return f + 1e-3 * rng.random(f.shape)


def collide_pieces(coll, f, bounds):
    """Collide each ``[s, e)`` of ``f`` as its own contiguous array."""
    out = f.copy()
    for s, e in bounds:
        piece = np.ascontiguousarray(f[:, s:e])
        coll.apply(LAT, piece, np.arange(e - s), workspace=Workspace())
        out[:, s:e] = piece
    return out


class TestTiles:
    @pytest.mark.parametrize("m", [0, 1, TILE - 1, TILE, TILE + 1,
                                   2 * TILE + 17, 11 * TILE - 3])
    def test_bounds_cover_range_in_balanced_blocks(self, m):
        bounds = Workspace().tiles(m)
        assert len(bounds) == -(-m // TILE)
        covered = [i for s, e in bounds for i in range(s, e)]
        assert covered == list(range(m))
        widths = {e - s for s, e in bounds}
        assert max(widths, default=0) <= TILE
        assert max(widths, default=0) - min(widths, default=0) <= 1
        if m > TILE:
            # no narrow tail: a one-column block would take BLAS gemv
            assert min(widths) >= TILE // 2

    def test_bounds_are_cached(self):
        ws = Workspace()
        assert ws.tiles(3 * TILE) is ws.tiles(3 * TILE)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("m", WIDTHS)
class TestTileBoundaryBits:
    def test_in_place_equals_independent_blocks(self, name, forced, m):
        """``f[:, :m]`` collided through a workspace is bit-equal to
        colliding each of its blocks as an independent array no wider
        than one block; columns past ``m`` are untouched."""
        coll = make_collision(name, forced)
        base = random_state(m + 5, seed=m)
        f = base.copy()
        coll.apply(LAT, f[:, :m], np.arange(m), workspace=Workspace())
        ref = collide_pieces(coll, base[:, :m], Workspace().tiles(m))
        assert np.array_equal(f[:, :m], ref)
        assert np.array_equal(f[:, m:], base[:, m:])

    def test_gather_path_equals_in_place_path(self, name, forced, m):
        coll = make_collision(name, forced)
        base = random_state(2 * m + 3, seed=m + 1)
        # a non-prefix, non-contiguous node set: every other column,
        # reversed, so each block gathers and scatters
        idx = np.arange(1, 2 * m + 1, 2, dtype=np.int64)[::-1].copy()
        f = base.copy()
        coll.apply(LAT, f, idx, workspace=Workspace())
        dense = np.ascontiguousarray(base[:, idx])
        coll.apply(LAT, dense, np.arange(m), workspace=Workspace())
        assert np.array_equal(f[:, idx], dense)
        untouched = np.setdiff1d(np.arange(base.shape[1]), idx)
        assert np.array_equal(f[:, untouched], base[:, untouched])


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("name", ["bgk", "trt"])
def test_bgk_trt_blocking_is_width_insensitive(name, forced):
    """BGK and TRT give the same bits under any split into blocks at
    least two columns wide, so the tiled collide equals the untiled one.

    MRT is not pinned here: BLAS computes its 19x19 moment products
    with edge kernels for the last few columns of an array, so a
    column's last bit depends on the array width (the distributed
    suite bands MRT for the same reason).
    """
    m = 2 * TILE + 17
    coll = make_collision(name, forced)
    base = random_state(m, seed=3)
    f = base.copy()
    coll.apply(LAT, f, np.arange(m), workspace=Workspace())
    split = [(s, min(s + 1000, m)) for s in range(0, m, 1000)]
    assert np.array_equal(f, collide_pieces(coll, base, split))


@pytest.mark.parametrize("gather", [False, True])
def test_workspace_buffers_are_block_wide(gather):
    """Scratch memory scales with ``TILE``, not with the node count."""
    m = 5 * TILE // 2
    f = random_state(2 * m if gather else m, seed=5)
    idx = (
        np.arange(0, 2 * m, 2, dtype=np.int64)
        if gather
        else np.arange(m, dtype=np.int64)
    )
    for forced in (False, True):
        for name in sorted(OPERATORS):
            ws = Workspace()
            make_collision(name, forced).apply(LAT, f, idx, workspace=ws)
            shapes = ws.buffer_shapes()
            assert shapes
            assert ("fi" in ws.buffer_names()) is gather
            for buf, shape in shapes:
                assert shape[-1] <= TILE, (name, buf, shape)
