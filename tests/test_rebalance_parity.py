"""Column rebalance plans ≡ the per-move path they replaced.

A scheme's scale-out emits its moves as columns through one
``_relocate_many`` call per split or reshuffle, and the cluster prices
and executes the columns.  The per-move path is the specification
(``tests/oracles/rebalance.py``): one :class:`Move` and one ledger write
per chunk, and per-move loops for the NIC, fabric and write bytes.  For
every scheme, over random placements (with removals, so table ids are
recycled) and one to three scale-outs, this checks that

* the columnar ledger ends where a dict ledger replaying the plan move
  by move ends: the same assignment and bit-equal per-node loads;
* ``rebalance_time``, ``nic_bytes``, ``total_bytes`` and
  ``bytes_by_dest`` are bit-equal to the per-move loops;
* no plan changed: a digest of every ``(ref, source, dest, size)`` row
  on a fixed workload equals the one the per-move code produced.
"""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkRef
from repro.cluster import CostParameters, nic_bytes, rebalance_time
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.core.base import RebalancePlan
from repro.errors import PartitioningError
from tests.oracles import (
    DictChunkLedger,
    Move,
    bytes_by_dest_scalar,
    nic_bytes_scalar,
    rebalance_time_scalar,
    relocate_scalar,
    total_bytes_scalar,
)
from tests.helpers import columns, commit_row

GRID = Box((0, 0, 0), (24, 16, 12))
COSTS = (CostParameters(), CostParameters(fabric_concurrency=0.5))


def _make(name, nodes=(0, 1)):
    return make_partitioner(
        name, list(nodes), grid=GRID, node_capacity_bytes=4e3,
        spatial_dims=(1, 2),
    )


def _batch(rng, n):
    """``n`` random chunks, some past the grid, some repeated."""
    items = [
        (
            ChunkRef("ab"[i % 2], (
                int(rng.integers(0, 30)),
                int(rng.integers(0, 16)),
                int(rng.integers(0, 12)),
            )),
            float(rng.lognormal(3, 1)),
        )
        for i in range(n)
    ]
    return items + items[::7]


def _dict_twin(p):
    """A dict ledger holding exactly ``p``'s state, loads bit for bit."""
    twin = DictChunkLedger(p.nodes)
    for ref, node in p.assignment().items():
        commit_row(twin, ref, p.size_of(ref), node)
    twin._loads = p.node_loads()
    twin._total = p.total_bytes
    return twin


def _replay(twin, plan, new_nodes):
    """Apply ``plan`` to ``twin`` one :class:`Move` at a time."""
    for node in new_nodes:
        twin.add_node(node)
    for move in Move.rows(plan):
        assert twin.relocate(move.ref, move.dest) == (
            move.source, move.size_bytes
        )
    twin._settle_empty()


def _assert_priced_like_the_loops(plan):
    assert plan.total_bytes == total_bytes_scalar(plan)
    assert plan.chunk_count == len(Move.rows(plan))
    assert list(plan.bytes_by_dest().items()) == list(
        bytes_by_dest_scalar(plan).items()
    )
    assert list(nic_bytes(plan).items()) == list(
        nic_bytes_scalar(plan).items()
    )
    for costs in COSTS:
        assert rebalance_time(plan, costs) == rebalance_time_scalar(
            plan, costs
        )


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
@settings(max_examples=12)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 160), min_size=1, max_size=3),
    step=st.integers(1, 3),
)
def test_plans_replay_move_by_move(name, seed, sizes, step):
    rng = np.random.default_rng(seed)
    p = _make(name)
    for n in sizes:
        p.place_batch(*columns(_batch(rng, n)))
        live = sorted(p.assignment(), key=lambda r: (r.array, r.key))
        for ref in live[:: int(rng.integers(3, 12))]:
            p.remove(ref)
        twin = _dict_twin(p)
        new = [max(p.nodes) + 1 + i for i in range(step)]
        plan = p.scale_out(new)
        _replay(twin, plan, new)
        assert p.assignment() == twin.assignment()
        assert p.node_loads() == twin.node_loads()
        _assert_priced_like_the_loops(plan)


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
def test_chunks_twice_in_one_plan_price_like_the_loops(name):
    """Concatenated plans (a chunk moved twice) price per move too."""
    rng = np.random.default_rng(5)
    p = _make(name)
    p.place_batch(*columns(_batch(rng, 120)))
    plans = [p.scale_out([2]), p.scale_out([3, 4])]
    _assert_priced_like_the_loops(RebalancePlan.concat(plans))


def _relocation_twins(seed):
    rng = np.random.default_rng(seed)
    items = _batch(rng, 80)
    twins = [_make("round_robin", nodes=(0, 1, 2)) for _ in range(2)]
    for p in twins:
        p.place_batch(*columns(items))
        for node in (7, 8):
            p._nodes.append(node)
            p._ledger.add_node(node)
    refs = sorted(twins[0].assignment(), key=lambda r: (r.array, r.key))
    picked = [refs[int(i)] for i in rng.permutation(len(refs))[:30]]
    dests = rng.choice([7, 8], size=len(picked))
    return twins, picked, dests


@pytest.mark.parametrize("seed", range(3))
def test_relocate_many_equals_one_relocation_per_chunk(seed):
    (col, per), refs, dests = _relocation_twins(seed)
    plan = col._relocate_many(refs, dests)
    moves = [
        relocate_scalar(per, ref, int(d)) for ref, d in zip(refs, dests)
    ]
    assert Move.rows(plan) == moves
    assert plan.ids.tolist() == col.table.ids_of(refs).tolist()
    assert col.assignment() == per.assignment()
    assert col.node_loads() == per.node_loads()


def _first_error(call):
    with pytest.raises(PartitioningError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize(
    "dests, expected",
    [
        ([7, 8, 99, 42], "relocation to unknown node 99"),
        ([7, 8, 8, None], "degenerate move of"),
    ],
)
def test_relocate_many_raises_what_the_first_relocation_raised(
    dests, expected
):
    (col, per), refs, _ = _relocation_twins(0)
    dests = [col.locate(refs[3]) if d is None else d for d in dests]
    before = col.assignment()
    message = _first_error(lambda: col._relocate_many(refs[:4], dests))
    assert expected in message
    assert message == _first_error(
        lambda: [relocate_scalar(per, r, d) for r, d in zip(refs, dests)]
    )
    assert col.assignment() == before  # validated before applying


def test_relocate_many_rejects_repeats_and_strangers():
    (col, _), refs, _ = _relocation_twins(0)
    with pytest.raises(PartitioningError, match="twice in one call"):
        col._relocate_many([refs[0], refs[1], refs[0]], 7)
    stranger = ChunkRef("z", (0,))
    with pytest.raises(PartitioningError, match=re.escape(f"{stranger}")):
        col._relocate_many([stranger], 7)


def test_incremental_contract_names_the_first_stray_move():
    p = _make("kd_tree")
    p.place_batch(*columns(_batch(np.random.default_rng(1), 60)))
    first = sorted(p.chunks_on(0), key=lambda r: (r.array, r.key))[0]
    p._extend = lambda new: p._relocate_many([first], 1)
    with pytest.raises(
        PartitioningError,
        match=re.escape(f"moved {first} to preexisting node 1"),
    ):
        p.scale_out([2])


#: sha256[:16] of every scheme's plan rows on :func:`_pinned_digest`'s
#: workload, recorded from the per-move implementation.
PINNED = {
    "append": "453a39b98df63598",
    "consistent_hash": "1aec9016fc2476b3",
    "extendible_hash": "1c29975d2b7b3557",
    "hilbert_curve": "94b489e340dc1ef4",
    "incremental_quadtree": "69bf5fc3a9ad7431",
    "kd_tree": "8433ba48ea5d3406",
    "round_robin": "174c27f908718778",
    "uniform_range": "0d8bff3ce33fc9b6",
}


def _pinned_digest(name):
    rng = np.random.default_rng(20140622)
    p = _make(name)
    rows = []
    for step in range(4):
        p.place_batch(*columns([
            (
                ChunkRef("ab"[i % 2], (
                    int(rng.integers(0, 30)),
                    int(rng.integers(0, 16)),
                    int(rng.integers(0, 12)),
                )),
                float(rng.lognormal(3, 1)),
            )
            for i in range(150)
        ]))
        live = sorted(p.assignment(), key=lambda r: (r.array, r.key))
        for ref in live[step::9]:
            p.remove(ref)
        plan = p.scale_out([p.node_count + i for i in range(step % 3 + 1)])
        rows.append([
            (m.ref.array, m.ref.key, m.source, m.dest, m.size_bytes.hex())
            for m in Move.rows(plan)
        ])
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
def test_plans_are_the_per_move_plans(name):
    assert _pinned_digest(name) == PINNED[name]
