"""Property-based invariants every partitioner must uphold.

These are the contracts the paper's framework depends on:

1. every placed chunk is assigned to exactly one *known* node;
2. the byte ledger is conserved by placement and scale-out;
3. partitioners whose Table-1 row claims incremental scale-out move data
   exclusively to newly added nodes;
4. after any scale-out, lookups agree with the recorded assignment;
5. skew-aware schemes reduce (or at least never worsen) the maximum
   node load when they split the heaviest node.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkRef
from repro.core import ALL_PARTITIONERS, PAPER_TAXONOMY, make_partitioner
from tests.helpers import columns, placements
from tests.oracles import Move

GRID = Box((0, 0, 0), (8, 12, 10))


def build(name, nodes=(0, 1)):
    return make_partitioner(
        name,
        list(nodes),
        grid=GRID,
        node_capacity_bytes=5e4,
        spatial_dims=(1, 2),
    )


chunk_stream = st.lists(
    st.tuples(
        st.tuples(
            st.integers(0, 7), st.integers(0, 11), st.integers(0, 9)
        ),
        st.floats(min_value=1.0, max_value=5000.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=60,
)


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(chunks=chunk_stream, data=st.data())
def test_full_lifecycle_invariants(name, chunks, data):
    p = build(name)
    items = [(ChunkRef("arr", key), size) for key, size in chunks]
    for node in placements(p, items).values():
        assert node in p.nodes, f"{name} placed on unknown node"
    placed = {}
    for ref, size in items:
        placed[ref] = placed.get(ref, 0.0) + size

    total = sum(placed.values())
    assert p.total_bytes == pytest.approx(total)
    assert sum(p.node_loads().values()) == pytest.approx(total)

    # one or two scale-outs of varying widths
    next_id = 2
    for _ in range(data.draw(st.integers(1, 2))):
        width = data.draw(st.integers(1, 2))
        new_nodes = list(range(next_id, next_id + width))
        next_id += width
        plan = p.scale_out(new_nodes)

        if PAPER_TAXONOMY[name].incremental_scale_out:
            assert all(m.dest in new_nodes for m in Move.rows(plan)), (
                f"{name} claims incremental scale-out but moved data to "
                f"a preexisting node"
            )
        # ledger conservation across the move set
        assert sum(p.node_loads().values()) == pytest.approx(total)
        assert p.total_bytes == pytest.approx(total)

    # every chunk still assigned, to a real node
    for ref in placed:
        assert p.locate(ref) in p.nodes


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
def test_lookup_agrees_with_assignment_after_growth(name):
    p = build(name)
    rng = np.random.default_rng(7)
    items = []
    for _ in range(150):
        key = (
            int(rng.integers(0, 8)),
            int(rng.integers(0, 12)),
            int(rng.integers(0, 10)),
        )
        items.append((ChunkRef("arr", key), float(rng.lognormal(2, 1))))
    refs = [ref for ref, _ in items]
    p.place_batch(*columns(items))
    p.scale_out([2, 3])
    p.scale_out([4, 5])
    assignment = p.assignment()
    for ref in refs:
        assert p.locate(ref) == assignment[ref]

    # new placements after growth land where lookups say
    later = []
    for _ in range(30):
        key = (
            int(rng.integers(0, 8)),
            int(rng.integers(0, 12)),
            int(rng.integers(0, 10)),
        )
        later.append((ChunkRef("other", key), 5.0))
    for ref, node in placements(p, later).items():
        assert p.locate(ref) == node


@pytest.mark.parametrize(
    "name",
    [n for n in ALL_PARTITIONERS if PAPER_TAXONOMY[n].skew_aware],
)
def test_skew_aware_split_targets_heaviest(name):
    """Skew-aware schemes must take their split bytes from the most
    heavily burdened node (paper §4.1)."""
    p = build(name)
    rng = np.random.default_rng(11)
    items = []
    for _ in range(200):
        # heavy corner hotspot
        if rng.random() < 0.8:
            key = (int(rng.integers(0, 8)), 0, 0)
            size = float(rng.lognormal(4, 1))
        else:
            key = (
                int(rng.integers(0, 8)),
                int(rng.integers(0, 12)),
                int(rng.integers(0, 10)),
            )
            size = 5.0
        items.append((ChunkRef("arr", key), size))
    p.place_batch(*columns(items))
    loads = p.node_loads()
    heaviest = max(loads, key=loads.get)
    before_max = loads[heaviest]
    plan = p.scale_out([2])
    if Move.rows(plan):
        sources = {m.source for m in Move.rows(plan)}
        assert sources == {heaviest}
        assert max(p.node_loads().values()) <= before_max + 1e-9


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
def test_empty_database_scale_out(name):
    """Scaling out before any data exists must not crash or move data."""
    p = build(name)
    plan = p.scale_out([2])
    assert plan.is_empty()
    ref = ChunkRef("arr", (0, 0, 0))
    assert placements(p, [(ref, 10.0)])[ref] in p.nodes


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
def test_determinism_across_instances(name):
    """Two identically driven instances make identical decisions."""
    a, b = build(name), build(name)
    rng = np.random.default_rng(23)
    keys = [
        (
            int(rng.integers(0, 8)),
            int(rng.integers(0, 12)),
            int(rng.integers(0, 10)),
        )
        for _ in range(80)
    ]
    sizes = [float(rng.lognormal(2, 1)) for _ in range(80)]
    items = [(ChunkRef("arr", key), size) for key, size in zip(keys, sizes)]
    assert placements(a, items) == placements(b, items)
    plan_a = a.scale_out([2, 3])
    plan_b = b.scale_out([2, 3])
    assert [(m.ref, m.source, m.dest) for m in Move.rows(plan_a)] == [
        (m.ref, m.source, m.dest) for m in Move.rows(plan_b)
    ]


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
def test_traits_match_paper_table(name):
    from repro.core import PARTITIONER_CLASSES

    assert PARTITIONER_CLASSES[name].traits == PAPER_TAXONOMY[name]
