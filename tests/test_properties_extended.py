"""Deeper property tests: directory invariants, curve ranges, trees.

These cover internal invariants that the behavioural suites can't reach:
the extendible-hash directory algebra, Hilbert range bookkeeping, K-d
tree region disjointness, and quadtree tiling under randomized growth.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkRef
from repro.core.extendible_hash import ExtendibleHashPartitioner
from repro.core.hashing import hash_chunk_ref
from repro.core.hilbert_curve import HilbertCurvePartitioner
from repro.core.kd_tree import KdTreePartitioner
from repro.core.quadtree import IncrementalQuadtreePartitioner

GRID = Box((0, 0), (16, 16))


def _columns(chunks):
    """``(key, size)`` draws as ``place_batch``'s ref and size columns."""
    return [ChunkRef("a", key) for key, _ in chunks], [s for _, s in chunks]

workload_strategy = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        st.floats(1.0, 1000.0, allow_nan=False),
    ),
    min_size=5,
    max_size=80,
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=workload_strategy, growth=st.integers(1, 4))
def test_extendible_hash_directory_invariants(chunks, growth):
    """Directory algebra: every slot points at a bucket whose pattern
    matches the slot's low local-depth bits; local depth <= global."""
    p = ExtendibleHashPartitioner([0, 1])
    p.place_batch(*_columns(chunks))
    p.scale_out(list(range(2, 2 + growth)))

    for slot in range(p.directory_size):
        bucket = p._buckets[p._directory[slot]]
        assert bucket.local_depth <= p.global_depth
        mask = (1 << bucket.local_depth) - 1
        assert (slot & mask) == bucket.pattern
    # membership consistent with hashes
    for bucket in p.buckets():
        for ref in [r for r in p.assignment() if p.bucket_for(r) is bucket]:
            mask = (1 << bucket.local_depth) - 1
            assert (hash_chunk_ref(ref) & mask) == bucket.pattern


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=workload_strategy, growth=st.integers(1, 4))
def test_hilbert_ranges_sorted_and_exhaustive(chunks, growth):
    """Range boundaries stay strictly sorted; every index has an owner."""
    p = HilbertCurvePartitioner([0, 1], (16, 16))
    p.prepare_batch(*_columns(chunks))
    p.place_batch(*_columns(chunks))
    p.scale_out(list(range(2, 2 + growth)))

    bounds = [r[0] for r in p.ranges()]
    assert bounds == sorted(bounds)
    assert len(set(bounds)) == len(bounds)
    # ownership is total over the index space
    for key, _ in chunks:
        idx = p.curve_index(ChunkRef("a", key))
        assert p._owner_of_index(idx) in p.nodes
    # the assignment matches range ownership for all chunks
    for ref, node in p.assignment().items():
        assert p._owner_of_index(p.curve_index(ref)) == node


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=workload_strategy, growth=st.integers(1, 5))
def test_kd_tree_leaves_partition_grid(chunks, growth):
    """Leaves are pairwise disjoint and cover the grid exactly."""
    p = KdTreePartitioner([0, 1], GRID)
    p.place_batch(*_columns(chunks))
    p.scale_out(list(range(2, 2 + growth)))

    leaves = [p.leaf_of(n).box for n in p.nodes]
    assert sum(b.volume for b in leaves) == GRID.volume
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            assert not leaves[i].intersects(leaves[j])
    # tree structure is coherent: every leaf reachable by descent
    for node in p.nodes:
        box = p.leaf_of(node).box
        probe = box.lo
        assert p.locate_key(probe) == node


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=workload_strategy, growth=st.integers(1, 5))
def test_quadtree_cells_partition_grid(chunks, growth):
    """Host cells tile the grid after arbitrary growth."""
    p = IncrementalQuadtreePartitioner([0], GRID)
    p.place_batch(*_columns(chunks))
    p.scale_out(list(range(1, 1 + growth)))

    cells = [box for box, _ in p.all_cells()]
    assert sum(b.volume for b in cells) == GRID.volume
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            assert not cells[i].intersects(cells[j])
    # every node owns at least one cell
    for node in p.nodes:
        assert p.cells_of(node)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=workload_strategy)
def test_kd_depth_logarithmic(chunks):
    """Lookup cost stays logarithmic-ish: depth <= node count."""
    p = KdTreePartitioner([0, 1], GRID)
    p.place_batch(*_columns(chunks))
    for batch_start in (2, 4, 6):
        p.scale_out([batch_start, batch_start + 1])
    assert p.depth() <= p.node_count
