"""Hilbert Curve, K-d Tree, Incremental Quadtree, Uniform Range."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkRef
from repro.core.hilbert_curve import HilbertCurvePartitioner
from repro.core.kd_tree import KdInner, KdTreePartitioner
from repro.core.quadtree import IncrementalQuadtreePartitioner
from repro.core.uniform_range import UniformRangePartitioner, build_leaves
from repro.errors import PartitioningError
from tests.oracles import Move, locate_key_scalar, place_scalar
from tests.helpers import columns, placements

GRID = Box((0, 0), (16, 16))
GRID3 = Box((0, 0, 0), (8, 16, 12))


def fill(p, n=120, grid=GRID, seed=3, skew=False):
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        key = tuple(
            int(rng.integers(lo, hi)) for lo, hi in zip(grid.lo, grid.hi)
        )
        if skew and rng.random() < 0.8:
            key = tuple(min(hi - 1, lo + int(abs(rng.normal(0, 1.2))))
                        for lo, hi in zip(grid.lo, grid.hi))
        size = float(rng.lognormal(2, 1)) if skew else 10.0
        items.append((ChunkRef("a", key), size))
    p.place_batch(*columns(items))
    return [ref for ref, _ in items]


class TestHilbertPartitioner:
    def test_contiguous_ranges_cover_space(self):
        p = HilbertCurvePartitioner([0, 1, 2], (16, 16))
        ranges = p.ranges()
        assert ranges[0][0] == 0
        assert ranges[-1][1] is None
        for (_, e0, _), (s1, _, _) in zip(ranges, ranges[1:]):
            assert e0 == s1

    def test_prepare_batch_fits_initial_bounds(self):
        p = HilbertCurvePartitioner([0, 1], (16, 16))
        batch = [
            (ChunkRef("a", (x, y)), 10.0)
            for x in range(4) for y in range(4)
        ]
        p.prepare_batch(*columns(batch))
        # Both nodes now own curve positions that occur in the batch.
        owners = {place_scalar(p, ref, size) for ref, size in batch}
        assert owners == {0, 1}

    def test_prepare_batch_noop_after_data_placed(self):
        p = HilbertCurvePartitioner([0, 1], (16, 16))
        p.place_batch([ChunkRef("a", (0, 0))], [10.0])
        before = p.ranges()
        p.prepare_batch([ChunkRef("a", (5, 5))], [10.0])
        assert p.ranges() == before

    def test_scale_out_splits_heaviest_at_median(self):
        p = HilbertCurvePartitioner([0, 1], (16, 16))
        fill(p, 200)
        loads = p.node_loads()
        heaviest = max(loads, key=loads.get)
        before = loads[heaviest]
        plan = p.scale_out([2])
        assert all(m.source == heaviest for m in Move.rows(plan))
        assert all(m.dest == 2 for m in Move.rows(plan))
        # roughly half the bytes moved
        moved = plan.total_bytes
        assert 0.2 * before < moved < 0.8 * before

    def test_co_located_arrays_never_split(self):
        # band1/band2 at the same key share a curve position; a split
        # must never separate them (the join-locality guarantee).
        p = HilbertCurvePartitioner([0, 1], (16, 16))
        p.place_batch(*columns([
            (ChunkRef(band, (x, y)), 10.0)
            for x in range(8) for y in range(4) for band in ("band1", "band2")
        ]))
        p.scale_out([2, 3])
        for x in range(8):
            for y in range(4):
                assert p.locate(ChunkRef("band1", (x, y))) == p.locate(
                    ChunkRef("band2", (x, y))
                )

    def test_unbounded_growth_keeps_working(self):
        p = HilbertCurvePartitioner([0, 1], (4, 4))
        p.place_batch([ChunkRef("a", (3, 3))], [10.0])
        node = place_scalar(p, ChunkRef("a", (40, 3)), 10.0)  # deep overflow
        assert node in p.nodes

    def test_repeated_scale_out_of_an_empty_table(self):
        # An empty donor may hand its whole range over and go rangeless;
        # a later empty split picking it must not index its no slots.
        p = HilbertCurvePartitioner([0, 1], (16, 16))
        for node in range(2, 6):
            assert Move.rows(p.scale_out([node])) == []
        fill(p, n=40)
        assert Move.rows(p.scale_out([6]))


class TestKdTree:
    def test_initial_volume_split(self):
        p = KdTreePartitioner([0, 1], GRID)
        leaf0, leaf1 = p.leaf_of(0), p.leaf_of(1)
        assert leaf0.box.volume + leaf1.box.volume == GRID.volume
        assert not leaf0.box.intersects(leaf1.box)

    def test_locate_descends_tree(self):
        p = KdTreePartitioner([0, 1], GRID)
        for key in [(0, 0), (15, 15), (8, 3)]:
            node = p.locate_key(key)
            assert p.leaf_of(node).box.contains(key)

    def test_storage_median_split(self):
        p = KdTreePartitioner([0], Box((0,), (10,)))
        # 90 bytes at coordinate 1, 10 bytes spread above
        p.place_batch(
            [ChunkRef("a", (x,)) for x in range(1, 10)],
            [90.0] + [10.0 / 8] * 8,
        )
        p.scale_out([1])
        # split point should isolate the heavy coordinate
        loads = p.node_loads()
        assert abs(loads[0] - loads[1]) < 90.0

    def test_split_order_prioritizes_listed_dims(self):
        p = KdTreePartitioner([0, 1, 2, 3], GRID3, split_order=(1, 2))
        # No split plane on dimension 0 (time) while space is splittable.
        def planes(node):
            if isinstance(node, KdInner):
                yield node.dim
                yield from planes(node.left)
                yield from planes(node.right)
        assert 0 not in set(planes(p._root))

    def test_fallback_to_unlisted_dim_when_exhausted(self):
        thin = Box((0, 0), (8, 1))  # dim 1 unsplittable
        p = KdTreePartitioner([0, 1], thin, split_order=(1,))
        # initial split had to fall back to dim 0
        assert isinstance(p._root, KdInner)
        assert p._root.dim == 0

    def test_grid_exhaustion_raises(self):
        tiny = Box((0,), (2,))
        p = KdTreePartitioner([0, 1], tiny)
        with pytest.raises(PartitioningError):
            p.scale_out([2])

    def test_invalid_split_order(self):
        with pytest.raises(PartitioningError):
            KdTreePartitioner([0], GRID, split_order=(0, 0))
        with pytest.raises(PartitioningError):
            KdTreePartitioner([0], GRID, split_order=(5,))

    def test_moves_follow_plane(self):
        p = KdTreePartitioner([0], GRID)
        placed = fill(p, 100)
        plan = p.scale_out([1])
        for m in Move.rows(plan):
            assert p.locate(m.ref) == 1
        # every chunk is located where the tree says
        for ref in placed:
            assert p.locate(ref) == p.locate_key(ref.key)


class TestQuadtree:
    def test_cells_tile_grid(self):
        p = IncrementalQuadtreePartitioner([0, 1, 2, 3], GRID)
        cells = [box for box, _ in p.all_cells()]
        assert sum(c.volume for c in cells) == GRID.volume
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                assert not cells[i].intersects(cells[j])

    def test_first_split_quarters(self):
        p = IncrementalQuadtreePartitioner([0], GRID)
        fill(p, 60)
        p.scale_out([1])
        # after the first split, cells are quarters of the grid
        cells0 = p.cells_of(0)
        cells1 = p.cells_of(1)
        assert len(cells0) + len(cells1) == 4
        assert all(c.volume == GRID.volume // 4 for c in cells0 + cells1)

    def test_transferred_cells_are_contiguous(self):
        p = IncrementalQuadtreePartitioner([0], GRID)
        fill(p, 80, skew=True)
        p.scale_out([1])
        given = p.cells_of(1)
        if len(given) == 2:
            assert given[0].face_adjacent(given[1])
        else:
            assert len(given) == 1

    def test_split_dims_restriction(self):
        p = IncrementalQuadtreePartitioner(
            [0], GRID3, split_dims=(1, 2)
        )
        fill(p, 60, grid=GRID3)
        p.scale_out([1, 2])
        for node in p.nodes:
            for cell in p.cells_of(node):
                # time dimension never subdivided
                assert cell.lo[0] == 0 and cell.hi[0] == GRID3.hi[0]

    def test_locate_clamps_out_of_grid_keys(self):
        p = IncrementalQuadtreePartitioner([0, 1], GRID3, split_dims=(1, 2))
        node = locate_key_scalar(p, (999, 3, 3))
        assert node in p.nodes
        assert p.locate_keys(np.array([[999, 3, 3]])).tolist() == [node]

    @pytest.mark.parametrize("split_dims", [None, (1, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_split_matches_per_chunk_oracle(self, oracles, seed, split_dims):
        """The masked split ≡ the per-chunk ``Box.contains`` split.

        A randomized ingest / scale-out sequence, with keys past the
        grid on every side, runs once on the production split and once
        on the oracle; every plan must list the same moves in order.
        """

        def run():
            rng = np.random.default_rng(seed)
            p = IncrementalQuadtreePartitioner(
                [0, 1], GRID3, split_dims=split_dims
            )
            plans = []
            for cycle in range(5):
                batch = []
                for _ in range(int(rng.integers(20, 80))):
                    key = tuple(
                        int(rng.integers(lo - 3, hi + 3))
                        for lo, hi in zip(GRID3.lo, GRID3.hi)
                    )
                    batch.append(
                        (ChunkRef("a", key), float(rng.lognormal(2, 1)))
                    )
                p.place_batch(*columns(batch))
                new = [p.node_count + i for i in range(cycle % 2 + 1)]
                plans.append([
                    (m.ref, m.source, m.dest, m.size_bytes)
                    for m in Move.rows(p.scale_out(new))
                ])
            return plans, p.assignment()

        plans, assignment = run()
        assert sum(len(moves) for moves in plans) > 0
        with oracles(IncrementalQuadtreePartitioner._try_split):
            assert run() == (plans, assignment)

    def test_moves_land_in_new_cells(self):
        p = IncrementalQuadtreePartitioner([0], GRID)
        fill(p, 100, skew=True)
        plan = p.scale_out([1])
        assert plan.chunk_count > 0
        for m in Move.rows(plan):
            clamped = p._clamp(m.ref.key)
            assert any(
                box.contains(clamped) for box in p.cells_of(1)
            )


BAD_DIMS = [(1.5,), (True,), (float("nan"),), ("1",)]


class TestBadSplitArguments:
    """Non-integral dimension indices and extents are rejected with the
    argument named, never truncated."""

    @pytest.mark.parametrize("dims", BAD_DIMS)
    def test_uniform_range_split_dims(self, dims):
        with pytest.raises(PartitioningError, match="split_dims"):
            UniformRangePartitioner([0], GRID3, split_dims=dims)
        with pytest.raises(PartitioningError, match="split_dims"):
            build_leaves(GRID3, height=2, split_dims=dims)

    @pytest.mark.parametrize("dims", BAD_DIMS)
    def test_quadtree_split_dims(self, dims):
        with pytest.raises(PartitioningError, match="split_dims"):
            IncrementalQuadtreePartitioner([0], GRID3, split_dims=dims)

    @pytest.mark.parametrize("order", BAD_DIMS)
    def test_kd_tree_split_order(self, order):
        with pytest.raises(PartitioningError, match="split_order"):
            KdTreePartitioner([0], GRID3, split_order=order)

    @pytest.mark.parametrize(
        "extent", [2.5, True, float("nan"), 0, "16"]
    )
    def test_hilbert_grid_extents(self, extent):
        with pytest.raises(PartitioningError, match="grid_extents"):
            HilbertCurvePartitioner([0], (16, extent))

    def test_dimension_zero_is_valid(self):
        assert UniformRangePartitioner(
            [0], GRID3, split_dims=(np.int64(0),)
        ).split_dims == (0,)
        assert KdTreePartitioner([0], GRID3, split_order=(0,)).split_order == (0,)


class TestUniformRange:
    def test_leaf_count(self):
        leaves = build_leaves(GRID, height=4)
        assert len(leaves) == 16
        assert sum(l.volume for l in leaves) == GRID.volume

    def test_leaves_exhaust_early_on_small_grids(self):
        leaves = build_leaves(Box((0, 0), (2, 2)), height=6)
        assert len(leaves) == 4  # can't go deeper than 2x2

    def test_split_dims_restriction(self):
        leaves = build_leaves(GRID3, height=4, split_dims=(1, 2))
        for leaf in leaves:
            assert leaf.lo[0] == 0 and leaf.hi[0] == GRID3.hi[0]

    def test_contiguous_blocks_per_node(self):
        p = UniformRangePartitioner([0, 1, 2], GRID, height=4)
        owners = p.leaf_owners()
        # owners must be non-decreasing in traversal order (blocks)
        order = [p.nodes.index(o) for o in owners]
        assert order == sorted(order)

    def test_leaf_lookup_matches_linear_scan(self):
        p = UniformRangePartitioner([0, 1, 2], GRID, height=4)
        leaves = p.leaves()
        for key in [(0, 0), (15, 15), (7, 9), (3, 12)]:
            idx = p.leaf_index_of(key)
            assert leaves[idx].contains(key)

    def test_scale_out_re_slices_globally(self):
        p = UniformRangePartitioner([0, 1], GRID, height=4)
        fill(p, 150)
        plan = p.scale_out([2])
        assert plan.chunk_count > 0
        # every chunk is now where the new slicing says
        for ref in p.assignment():
            assert p.locate(ref) == p.leaf_owners()[
                p.leaf_index_of(ref.key)
            ]

    def test_balanced_chunk_counts_on_uniform_data(self):
        p = UniformRangePartitioner([0, 1, 2, 3], GRID, height=6)
        p.place_batch(
            [ChunkRef("a", (x, y)) for x in range(16) for y in range(16)],
            [10.0] * 256,
        )
        loads = list(p.node_loads().values())
        assert max(loads) / min(loads) < 1.5

    def test_too_few_leaves_rejected(self):
        with pytest.raises(PartitioningError):
            UniformRangePartitioner(
                list(range(10)), Box((0, 0), (2, 2)), height=2
            )

    def test_invalid_height(self):
        with pytest.raises(PartitioningError):
            UniformRangePartitioner([0], GRID, height=0)

    @pytest.mark.parametrize(
        "height", [2.5, math.nan, math.inf, True, "4"],
        ids=["fraction", "nan", "inf", "bool", "str"],
    )
    def test_height_must_be_a_count(self, height):
        # 2.5 was silently truncated to 2; NaN and inf escaped as a
        # bare ValueError / OverflowError.
        with pytest.raises(PartitioningError, match="height"):
            UniformRangePartitioner([0], GRID, height=height)


def _per_ref_moves(p, new_nodes):
    """The per-ref re-slice loop Uniform Range's ``_extend`` replaced.

    Computed from the outside, before the scale-out: re-deal the leaves
    over the grown node list, then walk the chunks in (array, key)
    order descending once per ref.
    """
    nodes = list(p.nodes) + list(new_nodes)
    n, l = len(nodes), p.leaf_count
    moves = []
    for ref in sorted(p.assignment(), key=lambda r: (r.array, r.key)):
        i = p.leaf_index_of(ref.key)
        dest = nodes[min(i * n // l, n - 1)]
        if dest != p.locate(ref):
            moves.append((ref, p.locate(ref), dest, p.size_of(ref)))
    return moves


class TestUniformRangeLeafTable:
    """The painted leaf table ≡ the tree it was painted from."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_leaf_indices_match_scalar_and_contain_the_key(self, data):
        ndim = data.draw(st.integers(1, 3))
        lo = [data.draw(st.integers(-5, 5)) for _ in range(ndim)]
        extent = [data.draw(st.integers(1, 40)) for _ in range(ndim)]
        grid = Box(tuple(lo), tuple(l + e for l, e in zip(lo, extent)))
        split_dims = data.draw(st.one_of(
            st.none(),
            st.lists(
                st.integers(0, ndim - 1), min_size=1, max_size=ndim,
                unique=True,
            ),
        ))
        p = UniformRangePartitioner(
            [0], grid, height=data.draw(st.integers(1, 7)),
            split_dims=split_dims,
        )
        keys = np.array(data.draw(st.lists(
            st.tuples(*[
                st.integers(l - 6, l + e + 6) for l, e in zip(lo, extent)
            ]),  # up to six cells outside the grid on either side
            min_size=1, max_size=40,
        )), dtype=np.int64)
        batch = p.leaf_indices_of(keys)
        assert batch.tolist() == [p.leaf_index_of(k) for k in keys.tolist()]
        leaves = p.leaves()
        assert sorted(set(p._leaf_table.ravel().tolist())) == list(
            range(len(leaves))
        )
        for key, index in zip(keys.tolist(), batch.tolist()):
            clamped = [
                min(max(k, l), h - 1)
                for k, l, h in zip(key, grid.lo, grid.hi)
            ]
            assert leaves[index].contains(clamped)

    @pytest.mark.parametrize("split_dims", [None, (1, 2)])
    def test_extend_emits_the_per_ref_move_list(self, split_dims):
        p = UniformRangePartitioner(
            [0, 1], GRID3, height=5, split_dims=split_dims
        )
        rng = np.random.default_rng(8)
        items = []
        for i in range(400):
            key = (  # time runs past the grid's horizon
                int(rng.integers(0, 14)),
                int(rng.integers(0, 16)),
                int(rng.integers(0, 12)),
            )
            items.append(
                (ChunkRef("ab"[i % 2], key), float(rng.lognormal(2, 1)))
            )
        p.place_batch(*columns(items))
        for new_nodes in ([2, 3], [7], [4, 5, 6]):
            want = _per_ref_moves(p, new_nodes)
            plan = p.scale_out(new_nodes)
            got = [
                (m.ref, m.source, m.dest, m.size_bytes)
                for m in Move.rows(plan)
            ]
            assert got == want
            assert got  # a global re-slice moves something each time

    def test_keys_beyond_int64_take_the_scalar_path(self):
        huge = ChunkRef("a", (2**70, 3))
        items = [(ChunkRef("a", (x, x)), 1.0 + x) for x in range(16)]
        items.insert(5, (huge, 9.0))
        seq = UniformRangePartitioner([0, 1, 2], GRID, height=4)
        bat = UniformRangePartitioner([0, 1, 2], GRID, height=4)
        expected = {ref: place_scalar(seq, ref, size) for ref, size in items}
        assert placements(bat, items) == expected
        assert expected[huge] == seq.leaf_owners()[
            seq.leaf_index_of((15, 3))  # clamps onto the border cell
        ]
        want = _per_ref_moves(bat, [3])
        got = [
            (m.ref, m.source, m.dest, m.size_bytes)
            for m in Move.rows(bat.scale_out([3]))
        ]
        assert got == want

    def test_no_split_dims_is_one_leaf(self):
        p = UniformRangePartitioner([0], GRID, height=3, split_dims=())
        assert p.leaf_count == 1
        keys = np.array([[0, 0], [99, -4]])
        assert p.leaf_indices_of(keys).tolist() == [0, 0]
        assert p.leaf_index_of((3, 3)) == 0
