"""Ledger compaction: observable state preserved, memory bounded.

Covers the ISSUE-3 compaction contract:

* property test — compaction at random points of a random op sequence
  (sequential/batch placement, merges, removals, scale-out)
  leaves every observable (assignment, sizes, key columns, loads,
  totals) identical to a never-compacted dict-ledger twin, for every
  registered partitioning scheme;
* column capacity actually shrinks and the free list empties;
* the cluster wires compaction into its reorganization cycle
  (:meth:`ElasticCluster.scale_out` / :meth:`ElasticCluster.remove_chunks`),
  so a churn-heavy staircase run keeps bounded ledger memory.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkData, ChunkRef, parse_schema
from repro.cluster import ElasticCluster, GB
from repro.cluster.coordinator import execute_remove
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.core.ledger import ArrayChunkLedger
from repro.errors import ClusterError, PartitioningError
from repro.harness.runner import ExperimentRunner, RunConfig
from repro.workloads import ModisWorkload
from tests.oracles import DictChunkLedger, Move, place_scalar
from tests.helpers import commit_row, placements, split_of

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
        tables = array_p.table, dict_p.table
        sizes = [t.sizes_at(t.ids_of(refs)).tolist() for t in tables]
        assert sizes[0] == pytest.approx(sizes[1])
        keys = [t.keys_of(t.ids_of(refs)) for t in tables]
        assert np.array_equal(*keys)
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
                ["batch", "place", "remove", "grow", "compact",
                 "compact_hard"]
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
                assert placements(arr, part) == placements(dic, part)
            elif op == "place":
                take = int(rng.integers(1, 10))
                for ref, size in items[cursor:cursor + take]:
                    assert place_scalar(arr, ref, size) == place_scalar(
                        dic, ref, size
                    )
                cursor += take
            elif op == "remove":
                refs = sorted(
                    dic.assignment(), key=lambda r: (r.array, r.key)
                )
                for ref in refs[:: max(1, len(refs) // 5)][:8]:
                    assert arr.remove(ref) == dic.remove(ref)
            elif op == "grow":
                ids = [next_node]
                next_node += 1
                plan_a = arr.scale_out(ids)
                plan_d = dic.scale_out(ids)
                assert (
                    [(m.ref, m.source, m.dest) for m in Move.rows(plan_a)]
                    == [(m.ref, m.source, m.dest) for m in Move.rows(plan_d)]
                )
            elif op == "compact":
                arr.compact_ledger(0.25)
                dic.compact_ledger(0.25)  # no-op by contract
            else:  # compact_hard: reclaim whatever exists
                arr.compact_ledger(0.0)
            _assert_same_observables(arr, dic)
        # Ops after the final compaction must still work.
        tail = items[cursor:cursor + 40]
        assert placements(arr, tail) == placements(dic, tail)
        _assert_same_observables(arr, dic)


class TestArrayLedgerCompact:
    def _churned(self, n=200, remove_every=2):
        led = ArrayChunkLedger([0, 1])
        refs = [ChunkRef("a", (i, 0, 0)) for i in range(n)]
        for i, ref in enumerate(refs):
            commit_row(led, ref, float(i + 1), i % 2)
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
        def sizes():
            return led.sizes_at(led.ids_of(survivors)).tolist()

        def keys():
            return led.keys_of(led.ids_of(survivors))[:, 0].tolist()

        before = {
            "assignment": led.assignment(),
            "sizes": sizes(),
            "keys": keys(),
            "loads": led.node_loads(),
            "total": led.total_bytes,
        }
        assert led.compact() is True
        assert led.assignment() == before["assignment"]
        assert sizes() == before["sizes"]
        assert keys() == before["keys"]
        assert led.node_loads() == pytest.approx(before["loads"])
        assert led.total_bytes == pytest.approx(before["total"])

    def test_threshold_respected(self):
        led, _ = self._churned(n=100, remove_every=10)  # 10 % dead
        assert led.dead_slot_fraction < 0.5
        assert led.compact(min_dead_fraction=0.5) is False
        assert led.compact(min_dead_fraction=0.05) is True

    @pytest.mark.parametrize("fraction", [float("nan"), -1, 2])
    def test_bad_threshold_rejected(self, fraction):
        led, _ = self._churned()
        cap_before = led.column_capacity
        with pytest.raises(PartitioningError, match="^min_dead_fraction"):
            led.compact(fraction)
        assert led.column_capacity == cap_before

    def test_dense_ledger_is_noop(self):
        led = ArrayChunkLedger([0])
        for i in range(10):
            commit_row(led, ChunkRef("a", (i,)), 1.0, 0)
        assert led.compact() is False  # nothing reclaimable
        assert led.chunk_count == 10

    def test_empty_ledger_is_noop(self):
        led = ArrayChunkLedger([0])
        assert led.compact() is False

    def test_reuse_after_compact(self):
        led, survivors = self._churned()
        led.compact()
        commit_row(led, ChunkRef("z", (999, 0, 0)), 5.0, 1)
        assert led.size_of(ChunkRef("z", (999, 0, 0))) == 5.0
        items = [(ChunkRef("z", (1000 + i, 0, 0)), 1.0) for i in range(80)]
        led.commit_batch(
            split_of(led, items + [(survivors[0], 2.0)]),
            np.array([i % 2 for i in range(80)]),
        )
        assert led.chunk_count == len(survivors) + 81

    def test_dict_ledger_compact_is_noop(self):
        led = DictChunkLedger([0])
        commit_row(led, ChunkRef("a", (1,)), 1.0, 0)
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

    def test_remove_batch_names_its_first_bad_ref(self):
        cluster = _churn_cluster(0.5)
        chunks = [_chunk(0, x, y, 1e9) for x in range(8) for y in (0, 40)]
        cluster.ingest(chunks)
        good = [c.ref() for c in chunks]
        ghost = ChunkRef("A", (9, 9, 9))
        with pytest.raises(ClusterError, match=re.escape(f"{good[1]}")):
            cluster.remove_chunks([good[0], good[1], good[1], ghost])
        with pytest.raises(PartitioningError, match=re.escape(f"{ghost}")):
            cluster.remove_chunks([good[0], ghost, good[0]])
        # Node 1 missing from the mapping: its chunks are strays.
        on0 = [r for r in good if cluster.locate(r) == 0]
        on1 = [r for r in good if cluster.locate(r) == 1]
        only0 = {0: cluster.nodes[0]}
        for batch, error, named in [
            ([on0[0], on1[0], on0[0], ghost], ClusterError, on1[0]),
            ([on0[0], on0[0], on1[0]], ClusterError, on0[0]),
            ([on0[0], ghost, on1[0]], PartitioningError, ghost),
        ]:
            with pytest.raises(error, match=re.escape(f"{named} ")):
                execute_remove(
                    only0, cluster.partitioner, batch, cluster.costs,
                    cluster.catalog,
                )
        cluster.check_consistency()

    def test_remove_report_sums_per_ref_and_per_node(self):
        cluster = _churn_cluster(None)
        rng = np.random.default_rng(3)
        chunks = [
            _chunk(0, x % 64, x // 64, float(rng.lognormal(20, 2)))
            for x in range(300)
        ]
        cluster.ingest(chunks)
        cluster.scale_out(2)
        refs = [c.ref() for c in chunks[::3]][::-1]
        freed = {}
        for ref in refs:  # the per-ref accumulation the report keeps
            node = cluster.partitioner.locate(ref)
            freed[node] = freed.get(node, 0.0) + cluster.partitioner.size_of(
                ref
            )
        report = cluster.remove_chunks(refs)
        assert report.chunk_count == len(refs)
        assert report.bytes_freed == float(sum(freed.values()))
        assert report.touched_nodes == len(freed)
        assert report.elapsed_seconds == max(
            cluster.costs.io_time(b) for b in freed.values()
        )
        cluster.check_consistency()

    @pytest.mark.parametrize("scheme", ALL_PARTITIONERS)
    def test_expiring_every_chunk_leaves_exact_zeros(self, scheme):
        # Regression: the running byte counters kept float residue once
        # every chunk was gone, and the consistency check's tolerance is
        # relative to a total that is then ~0.
        workload = ModisWorkload(
            n_cycles=3, cells_per_band_per_cycle=300, target_total_gb=200.0
        )
        cluster = ExperimentRunner(
            workload, RunConfig(partitioner=scheme)
        ).cluster
        chunks = workload.batch(1).chunks
        cluster.ingest(chunks)
        cluster.remove_chunks([c.ref() for c in chunks])
        cluster.check_consistency()
        assert cluster.partitioner.total_bytes == 0.0
        assert set(cluster.partitioner.node_loads().values()) == {0.0}
        assert set(cluster.node_loads().values()) == {0.0}

    def test_bad_compact_ratio_rejected(self):
        partitioner = make_partitioner(
            "round_robin", [0], grid=GRID, node_capacity_bytes=1e12
        )
        with pytest.raises(ClusterError):
            ElasticCluster(partitioner, 1e12, ledger_compact_ratio=1.5)

    @pytest.mark.parametrize("ratio", ["0.5", True, float("nan")])
    def test_non_real_compact_ratio_rejected(self, ratio):
        partitioner = make_partitioner(
            "round_robin", [0], grid=GRID, node_capacity_bytes=1e12
        )
        with pytest.raises(ClusterError, match="ledger_compact_ratio"):
            ElasticCluster(partitioner, 1e12, ledger_compact_ratio=ratio)

    @pytest.mark.parametrize("fraction", [float("nan"), -1, 2])
    def test_bad_threshold_rejected_on_both_paths(self, fraction):
        cluster = _churn_cluster(None)
        chunks = [_chunk(0, x % 64, x // 64, 1e9) for x in range(100)]
        cluster.ingest(chunks)
        cluster.remove_chunks([c.ref() for c in chunks[::2]])
        cap_before = cluster.partitioner.ledger_column_capacity
        for compact in (cluster.partitioner.compact_ledger,
                        cluster.catalog.compact):
            with pytest.raises(PartitioningError,
                               match="^min_dead_fraction"):
                compact(fraction)
        assert cluster.partitioner.ledger_column_capacity == cap_before
        cluster.check_consistency()

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
