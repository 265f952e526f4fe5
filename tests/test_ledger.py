"""Array ledger ≡ dict ledger: the tentpole parity contract.

The array-backed chunk ledger (interned ref ids + numpy columns) must be
observationally identical to the dict ledger it replaced
(``tests/oracles/ledger.py``) through every public
partitioner operation — placement (sequential and batch, with
duplicates), merges, removals, relocation, and scale-out — for every
registered scheme.  Per-chunk state is bit-exact; per-node loads and the
running total agree up to float reassociation (the documented batch
contract).
"""

import numpy as np
import pytest

from repro.arrays import Box, ChunkRef
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.core.ledger import ArrayChunkLedger
from tests.oracles import DictChunkLedger, Move, place_scalar
from tests.helpers import columns, commit_row, placements, split_of

GRID = Box((0, 0, 0), (40, 29, 23))


def _batch(n, seed, arrays=("a", "b"), dup_every=9):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        key = (
            int(rng.integers(0, 50)),
            int(rng.integers(0, 29)),
            int(rng.integers(0, 23)),
        )
        items.append(
            (
                ChunkRef(arrays[i % len(arrays)], key),
                float(rng.lognormal(2, 1)),
            )
        )
    for i in range(0, n, dup_every):
        items.append(items[i])
    return items


def _make(name, mode, nodes=(0, 1, 2)):
    partitioner = make_partitioner(
        name, list(nodes), grid=GRID, node_capacity_bytes=1e12
    )
    if mode == "dict":
        # A fresh partitioner's ledger is empty: swapping in the oracle
        # before the first placement loses nothing.
        partitioner._ledger = DictChunkLedger(partitioner.nodes)
    return partitioner


def _assert_same_state(array_p, dict_p):
    assert array_p.assignment() == dict_p.assignment()
    assert array_p.chunk_count == dict_p.chunk_count
    for ref in dict_p.assignment():
        assert array_p.size_of(ref) == dict_p.size_of(ref)
    for node, load in dict_p.node_loads().items():
        assert array_p.load_of(node) == pytest.approx(load, rel=1e-12)
    assert array_p.total_bytes == pytest.approx(
        dict_p.total_bytes, rel=1e-12
    )


class TestLedgerSelection:
    def test_default_mode_is_array(self):
        for name in ALL_PARTITIONERS:
            assert isinstance(_make(name, "array")._ledger, ArrayChunkLedger)

    def test_unknown_mode_rejected(self):
        with pytest.raises(TypeError):
            make_partitioner("round_robin", [0], ledger="dict")


class TestLedgerParity:
    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_place_batch_parity(self, name):
        items = _batch(800, seed=hash(name) % 2**31)
        arr = _make(name, "array")
        dic = _make(name, "dict")
        assert placements(arr, items) == placements(dic, items)
        _assert_same_state(arr, dic)

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_mixed_op_sequence_parity(self, name):
        items = _batch(400, seed=7)
        arr = _make(name, "array")
        dic = _make(name, "dict")
        arr.place_batch(*columns(items[:250]))
        dic.place_batch(*columns(items[:250]))
        for ref, size in items[250:300]:
            assert place_scalar(arr, ref, size) == place_scalar(dic, ref, size)
        survivors = sorted(
            dic.assignment(), key=lambda r: (r.array, r.key)
        )
        for ref in survivors[::7]:
            assert arr.remove(ref) == dic.remove(ref)
        arr.place_batch(*columns(items[300:]))
        dic.place_batch(*columns(items[300:]))
        _assert_same_state(arr, dic)

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_scale_out_parity(self, name):
        items = _batch(500, seed=11)
        arr = _make(name, "array", nodes=(0, 1))
        dic = _make(name, "dict", nodes=(0, 1))
        arr.place_batch(*columns(items))
        dic.place_batch(*columns(items))
        plan_a = arr.scale_out([2, 3])
        plan_d = dic.scale_out([2, 3])
        moves_a = [(m.ref, m.source, m.dest) for m in Move.rows(plan_a)]
        moves_d = [(m.ref, m.source, m.dest) for m in Move.rows(plan_d)]
        assert moves_a == moves_d
        _assert_same_state(arr, dic)

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_chunks_on_parity(self, name):
        items = _batch(200, seed=3)
        arr = _make(name, "array")
        dic = _make(name, "dict")
        arr.place_batch(*columns(items))
        dic.place_batch(*columns(items))
        for node in arr.nodes:
            assert arr.chunks_on(node) == dic.chunks_on(node)


class TestArrayLedgerInternals:
    def _ledger(self, nodes=(0, 1)):
        return ArrayChunkLedger(nodes)

    def test_free_list_reuse(self):
        led = self._ledger()
        refs = [ChunkRef("a", (i, 0, 0)) for i in range(10)]
        for i, ref in enumerate(refs):
            commit_row(led, ref, float(i + 1), i % 2)
        hwm_before = led._hwm
        for ref in refs[:4]:
            led.remove(ref)
        assert len(led._free) == 4
        items = [(ChunkRef("b", (i, 0, 0)), 1.0) for i in range(4)]
        led.commit_batch(split_of(led, items), np.array([0, 1, 0, 1]))
        assert led._hwm == hwm_before  # dead slots were reused
        assert not led._free
        assert led.chunk_count == 10

    def test_totals_track_column_sum(self):
        led = self._ledger()
        rng = np.random.default_rng(5)
        refs = [ChunkRef("a", (i, 1, 2)) for i in range(50)]
        for ref in refs:
            commit_row(led, ref, float(rng.lognormal(2, 1)), 0)
        for ref in refs[::5]:
            commit_row(led, ref, 3.25, 0)  # a merge
        for ref in refs[1::9]:
            led.remove(ref)
        alive = [r for r in refs if led.contains(r)]
        assert led.total_bytes == pytest.approx(
            sum(led.size_of(r) for r in alive)
        )
        assert led.load_of(0) == pytest.approx(led.total_bytes)

    def test_key_column_and_mixed_arity_fallback(self):
        led = self._ledger()
        refs = [ChunkRef("a", (3, 4, 5)), ChunkRef("a", (6, 7, 8))]
        commit_row(led, refs[0], 1.0, 0)
        commit_row(led, refs[1], 1.0, 1)
        assert led.keys_of(led.ids_of(refs))[:, 1].tolist() == [4, 7]
        assert led._keys_ok
        # A ref with a different arity disables the dense key column
        # but bulk reads must still work through the tuple fallback.
        commit_row(led, ChunkRef("b", (1, 2)), 1.0, 0)
        assert not led._keys_ok
        assert led.keys_of(led.ids_of(refs))[:, 0].tolist() == [3, 6]

    @pytest.mark.parametrize("ledger", [ArrayChunkLedger, DictChunkLedger])
    def test_emptied_nodes_and_ledger_hold_exact_zeros(self, ledger):
        led = ledger((0, 1))
        refs = [ChunkRef("a", (i, 0, 0)) for i in range(3)]
        for ref, size in zip(refs, (0.1, 0.2, 0.3)):
            commit_row(led, ref, size, 0)
        assert 0.1 + 0.2 + 0.3 - 0.1 - 0.2 - 0.3 != 0.0  # float residue
        led.relocate_many(led.ids_of(refs), np.array([1, 1, 1]))
        assert led.load_of(0) == 0.0  # not the subtraction's residue
        for ref in refs:
            led.remove(ref)
        assert led.load_of(1) == 0.0
        assert led.total_bytes == 0.0

    def test_refs_on_matches_assignment(self):
        led = self._ledger()
        for i in range(20):
            commit_row(led, ChunkRef("a", (i, 0, 0)), 1.0, i % 2)
        on0 = set(led.refs_at(led.ids_on(0)).tolist())
        assert on0 == {
            r for r, n in led.assignment().items() if n == 0
        }

    def test_negative_node_ids_do_not_collide_with_free_sentinel(self):
        # Regression: the _node column stores load slots, so node id -1
        # must never be confused with the freed-slot marker.
        led = ArrayChunkLedger([-1, 0])
        refs = [ChunkRef("a", (i, 0, 0)) for i in range(3)]
        for i, ref in enumerate(refs):
            commit_row(led, ref, 1.0, -1 if i % 2 == 0 else 0)
        led.remove(refs[0])
        assert led.refs_at(led.ids_on(-1)).tolist() == [refs[2]]
        assert led.refs_at(led.ids_on(0)).tolist() == [refs[1]]
        assert led.node_of(refs[2]) == -1
        oracle = DictChunkLedger([-1, 0])
        for i, ref in enumerate(refs):
            commit_row(oracle, ref, 1.0, -1 if i % 2 == 0 else 0)
        oracle.remove(refs[0])
        assert led.assignment() == oracle.assignment()

    def test_commit_batch_unknown_node_is_atomic(self):
        led = self._ledger()
        with pytest.raises(KeyError):
            led.commit_batch(
                split_of(led, [(ChunkRef("a", (0, 0, 0)), 1.0)]),
                np.array([99]),
            )
        assert led.chunk_count == 0
        assert led.total_bytes == 0.0
