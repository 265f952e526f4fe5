"""Ledger compaction: observable state preserved, memory bounded.

Covers the ISSUE-3 compaction contract:

* property test — compaction at random points of a random op sequence
  (scalar/batch placement, merges, removals, size updates, scale-out)
  leaves every observable (assignment, sizes, key columns, loads,
  totals) identical to a never-compacted dict-ledger twin, for every
  registered partitioning scheme;
* column capacity actually shrinks and the free list empties;
* the cluster wires compaction into its reorganization cycle
  (:meth:`ElasticCluster.scale_out` / :meth:`ElasticCluster.remove_chunks`),
  so a churn-heavy staircase run keeps bounded ledger memory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkData, ChunkRef, parse_schema
from repro.cluster import ElasticCluster, GB
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.core.ledger import ArrayChunkLedger
from repro.errors import ClusterError, PartitioningError
from tests.oracles import DictChunkLedger

GRID = Box((0, 0, 0), (64, 16, 16))


def _items(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        key = (
            int(rng.integers(0, 64)),
            int(rng.integers(0, 16)),
            int(rng.integers(0, 16)),
        )
        out.append(
            (ChunkRef("ab"[i % 2], key), float(rng.lognormal(2, 1)))
        )
    return out


def _make(name, mode, nodes=(0, 1, 2)):
    partitioner = make_partitioner(
        name, list(nodes), grid=GRID, node_capacity_bytes=1e12
    )
    if mode == "dict":  # empty-ledger swap on a fresh partitioner
        partitioner._ledger = DictChunkLedger(partitioner.nodes)
    return partitioner


def _assert_same_observables(array_p, dict_p):
    assert array_p.assignment() == dict_p.assignment()
    assert array_p.chunk_count == dict_p.chunk_count
    refs = sorted(dict_p.assignment(), key=lambda r: (r.array, r.key))
    if refs:
        assert array_p.sizes_of(refs).tolist() == pytest.approx(
            dict_p.sizes_of(refs).tolist()
        )
        for dim in range(3):
            assert np.array_equal(
                array_p.key_column(refs, dim),
                dict_p.key_column(refs, dim),
            )
    for node, load in dict_p.node_loads().items():
        assert array_p.load_of(node) == pytest.approx(load, rel=1e-9)
    assert array_p.total_bytes == pytest.approx(
        dict_p.total_bytes, rel=1e-9
    )


class TestCompactionProperty:
    """Random op/compact interleavings preserve observable state."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        script=st.lists(
            st.sampled_from(
                ["batch", "place", "remove", "update", "grow",
                 "compact", "compact_hard"]
            ),
            min_size=4,
            max_size=14,
        ),
    )
    def test_interleaved_ops(self, name, seed, script):
        rng = np.random.default_rng(seed)
        arr = _make(name, "array", nodes=(0, 1))
        dic = _make(name, "dict", nodes=(0, 1))
        items = _items(300, seed)
        cursor = 0
        next_node = 2
        for op in script:
            if op == "batch":
                take = int(rng.integers(1, 60))
                part = items[cursor:cursor + take]
                cursor += take
                assert arr.place_batch(part) == dic.place_batch(part)
            elif op == "place":
                take = int(rng.integers(1, 10))
                for ref, size in items[cursor:cursor + take]:
                    assert arr.place(ref, size) == dic.place(ref, size)
                cursor += take
            elif op == "remove":
                refs = sorted(
                    dic.assignment(), key=lambda r: (r.array, r.key)
                )
                for ref in refs[:: max(1, len(refs) // 5)][:8]:
                    assert arr.remove(ref) == dic.remove(ref)
            elif op == "update":
                refs = sorted(
                    dic.assignment(), key=lambda r: (r.array, r.key)
                )
                for ref in refs[:5]:
                    arr.update_size(ref, 2.25)
                    dic.update_size(ref, 2.25)
            elif op == "grow":
                ids = [next_node]
                next_node += 1
                plan_a = arr.scale_out(ids)
                plan_d = dic.scale_out(ids)
                assert (
                    [(m.ref, m.source, m.dest) for m in plan_a.moves]
                    == [(m.ref, m.source, m.dest) for m in plan_d.moves]
                )
            elif op == "compact":
                arr.compact_ledger(0.25)
                dic.compact_ledger(0.25)  # no-op by contract
            else:  # compact_hard: reclaim whatever exists
                arr.compact_ledger(0.0)
            _assert_same_observables(arr, dic)
        # Ops after the final compaction must still work.
        tail = items[cursor:cursor + 40]
        assert arr.place_batch(tail) == dic.place_batch(tail)
        _assert_same_observables(arr, dic)


class TestArrayLedgerCompact:
    def _churned(self, n=200, remove_every=2):
        led = ArrayChunkLedger([0, 1])
        refs = [ChunkRef("a", (i, 0, 0)) for i in range(n)]
        for i, ref in enumerate(refs):
            led.commit_new(ref, float(i + 1), i % 2)
        removed = refs[::remove_every]
        for ref in removed:
            led.remove(ref)
        survivors = [r for r in refs if r not in set(removed)]
        return led, survivors

    def test_compact_shrinks_columns(self):
        led, survivors = self._churned()
        cap_before = led.column_capacity
        assert led.dead_slot_fraction > 0.5
        assert led.compact() is True
        assert led.column_capacity < cap_before
        assert led.column_capacity == max(
            led._INITIAL_CAPACITY, len(survivors)
        )
        assert not led._free
        assert led.dead_slot_fraction == pytest.approx(0.0)

    def test_compact_preserves_observables(self):
        led, survivors = self._churned()
        before = {
            "assignment": led.assignment(),
            "sizes": led.sizes_of(survivors).tolist(),
            "keys": led.key_column(survivors, 0).tolist(),
            "loads": led.node_loads(),
            "total": led.total_bytes,
        }
        assert led.compact() is True
        assert led.assignment() == before["assignment"]
        assert led.sizes_of(survivors).tolist() == before["sizes"]
        assert led.key_column(survivors, 0).tolist() == before["keys"]
        assert led.node_loads() == pytest.approx(before["loads"])
        assert led.total_bytes == pytest.approx(before["total"])

    def test_threshold_respected(self):
        led, _ = self._churned(n=100, remove_every=10)  # 10 % dead
        assert led.dead_slot_fraction < 0.5
        assert led.compact(min_dead_fraction=0.5) is False
        assert led.compact(min_dead_fraction=0.05) is True

    def test_dense_ledger_is_noop(self):
        led = ArrayChunkLedger([0])
        for i in range(10):
            led.commit_new(ChunkRef("a", (i,)), 1.0, 0)
        assert led.compact() is False  # nothing reclaimable
        assert led.chunk_count == 10

    def test_empty_ledger_is_noop(self):
        led = ArrayChunkLedger([0])
        assert led.compact() is False

    def test_reuse_after_compact(self):
        led, survivors = self._churned()
        led.compact()
        led.commit_new(ChunkRef("z", (999, 0, 0)), 5.0, 1)
        assert led.size_of(ChunkRef("z", (999, 0, 0))) == 5.0
        led.commit_batch(
            {ChunkRef("z", (1000 + i, 0, 0)): 1.0 for i in range(80)},
            [i % 2 for i in range(80)],
            [(survivors[0], 2.0)],
        )
        assert led.chunk_count == len(survivors) + 81

    def test_dict_ledger_compact_is_noop(self):
        led = DictChunkLedger([0])
        led.commit_new(ChunkRef("a", (1,)), 1.0, 0)
        led.remove(ChunkRef("a", (1,)))
        assert led.compact() is False
        assert led.dead_slot_fraction == 0.0
        assert led.column_capacity == 0


# ----------------------------------------------------------------------
# cluster-level churn: removal API + bounded ledger memory
# ----------------------------------------------------------------------
CHURN_SCHEMA = parse_schema("A<v:double>[t=0:*,1, x=0:63,1, y=0:63,1]")


def _chunk(t, x, y, size):
    return ChunkData(
        CHURN_SCHEMA, (t, x, y), np.array([[t, x, y]]),
        {"v": np.array([1.0])}, size_bytes=size,
    )


def _churn_cluster(ledger_compact_ratio):
    partitioner = make_partitioner(
        "hilbert_curve", [0, 1],
        grid=Box((0, 0, 0), (1000, 64, 64)),
        node_capacity_bytes=1000 * GB,
    )
    return ElasticCluster(
        partitioner, 1000 * GB,
        ledger_compact_ratio=ledger_compact_ratio,
    )


def _run_churn(cluster, cycles=24, retention=2):
    """Staircase churn: a heavy ingest spike, then smaller steady cycles;
    data beyond the retention window expires each cycle and the cluster
    periodically scales out.  Returns the final column capacity (the
    spike's ledger slots must eventually be reclaimed — or not, when
    compaction is disabled)."""
    rng = np.random.default_rng(7)
    window = []
    for cycle in range(cycles):
        per_cycle = 400 if cycle < 3 else 40  # holiday spike, then steady
        by_key = {}
        for _ in range(per_cycle):
            c = _chunk(
                cycle,
                int(rng.integers(0, 64)),
                int(rng.integers(0, 64)),
                float(rng.lognormal(20, 1)),
            )
            by_key[c.key] = c
        batch = list(by_key.values())
        cluster.ingest(batch)
        window.append([c.ref() for c in batch])
        if len(window) > retention:
            report = cluster.remove_chunks(window.pop(0))
            assert report.chunk_count > 0
            assert report.bytes_freed > 0
        if cycle % 8 == 7:
            cluster.scale_out(1)
        cluster.check_consistency()
    return cluster.partitioner.ledger_column_capacity


class TestClusterChurn:
    def test_remove_chunks_updates_stores_and_ledger(self):
        cluster = _churn_cluster(0.5)
        chunks = [_chunk(0, x, 0, 1e9) for x in range(10)]
        cluster.ingest(chunks)
        refs = [c.ref() for c in chunks[:4]]
        total_before = cluster.total_bytes
        report = cluster.remove_chunks(refs)
        assert report.chunk_count == 4
        assert report.bytes_freed == pytest.approx(4e9)
        assert report.elapsed_seconds > 0
        assert cluster.total_bytes == pytest.approx(total_before - 4e9)
        cluster.check_consistency()
        for ref in refs:
            with pytest.raises(PartitioningError):
                cluster.partitioner.locate(ref)

    def test_remove_unknown_chunk_raises(self):
        cluster = _churn_cluster(0.5)
        with pytest.raises(PartitioningError):
            cluster.remove_chunks([ChunkRef("A", (9, 9, 9))])

    def test_remove_batch_is_all_or_nothing(self):
        # A bad ref anywhere in the batch must leave every chunk in
        # place — no half-applied removal behind a raised exception.
        cluster = _churn_cluster(0.5)
        chunks = [_chunk(0, x, 0, 1e9) for x in range(6)]
        cluster.ingest(chunks)
        good = [c.ref() for c in chunks[:3]]
        total_before = cluster.total_bytes
        with pytest.raises(PartitioningError):
            cluster.remove_chunks([*good, ChunkRef("A", (9, 9, 9))])
        with pytest.raises(ClusterError):
            cluster.remove_chunks([good[0], good[1], good[0]])  # dup
        assert cluster.total_bytes == pytest.approx(total_before)
        for ref in good:
            assert cluster.partitioner.locate(ref) in cluster.nodes
        cluster.check_consistency()

    def test_bad_compact_ratio_rejected(self):
        partitioner = make_partitioner(
            "round_robin", [0], grid=GRID, node_capacity_bytes=1e12
        )
        with pytest.raises(ClusterError):
            ElasticCluster(partitioner, 1e12, ledger_compact_ratio=1.5)

    def test_churn_staircase_bounded_capacity(self):
        """The acceptance bound: after the ingest spike ages out, the
        ledger's column capacity tracks the live working set instead of
        the historical peak."""
        cluster = _churn_cluster(0.3)
        final_cap = _run_churn(cluster)
        live = cluster.partitioner.chunk_count
        assert final_cap <= max(64, 2 * live), (final_cap, live)

    def test_compaction_disabled_keeps_spike_capacity(self):
        """Control: without compaction the spike's slots are never
        reclaimed — exactly the unbounded-memory failure mode fixed."""
        compacted = _churn_cluster(0.3)
        unbounded = _churn_cluster(None)
        cap_c = _run_churn(compacted)
        cap_u = _run_churn(unbounded)
        assert cap_u > 2 * cap_c, (cap_u, cap_c)
        # The retired spike leaves dead slots behind when nothing
        # compacts: the final ledger is mostly corpses.
        assert unbounded.partitioner.ledger_dead_fraction > 0.5
        assert compacted.partitioner.ledger_dead_fraction < 0.5
