"""The cluster-wide chunk catalog: parity, epochs, cache invalidation.

Covers the catalog contract:

* catalog reads ≡ the store walks of ``tests/oracles/cluster.py``, on
  every scheme: the ``tests/test_cluster_machine.py`` machine run on
  the catalog's rules, and one fixed ingest/grow/expire lifecycle
  driven through it;
* the grouped rebalance executor is physically equivalent to the
  per-move oracle, including chained moves;
* :class:`ChunkStore`'s batch APIs and the dirty-bit sorted-ref cache;
* the one compaction (the table's ids and the catalog's views in one
  call) preserves every observable;
* the columnar publish (``put_batch`` / ``remove_batch``) equals the
  per-chunk loops in ``tests/oracles/catalog.py`` column for column, in
  view order and delta-log row for row — in-batch duplicates, merges,
  same-handle re-puts, two arrays, in-memory and tiered clusters — and
  a view orders new keys exactly as the packed void sort;
* the gather (``concat_payload``) walks runs of adjacent arena extents
  and equals the per-chunk oracle (``tests/oracles/catalog.py``) element
  for element and dtype for dtype, never aliasing an arena;
* a dropped catalog is freed by reference counting alone.
"""

import gc
import os
import re
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkData, ChunkRef, parse_schema
from repro.arrays.array import chunk_cells
from repro.arrays.storage import ChunkStore
from repro.arrays.coords import pack_rows_void
from repro.cluster import (
    CostParameters,
    ElasticCluster,
    GB,
    TieredStorage,
    execute_rebalance,
)
from repro.cluster.node import Node
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.core.base import RebalancePlan
from repro.core.catalog import ChunkCatalog, concat_payload
from repro.core.ledger import ArrayChunkLedger
from repro.errors import (
    ChunkError,
    ClusterError,
    StorageError,
)
from tests.oracles import (
    array_payload_scan,
    concat_payload_per_chunk,
    execute_rebalance_scalar,
    put_batch_per_chunk,
    remove_batch_per_chunk,
)
from tests.helpers import columns, commit_rows, read_of

from test_cluster_machine import lifecycle, replay, run_focused

GRID = Box((0, 0, 0), (10_000, 16, 16))
SCHEMAS = {
    "A": parse_schema("A<v:double>[t=0:*,1, x=0:15,1, y=0:15,1]"),
    "B": parse_schema("B<v:double>[t=0:*,1, x=0:15,1, y=0:15,1]"),
}


def _chunk(array, t, x, y, size, value=1.0):
    return ChunkData(
        SCHEMAS[array], (t, x, y),
        np.array([[t, x, y]], dtype=np.int64),
        {"v": np.array([float(value)])},
        size_bytes=float(size),
    )


def _publish(partitioner, catalog, chunks):
    """Place ``chunks`` (the table gives them ids), then publish them."""
    partitioner.place_batch(
        [c.ref() for c in chunks], [c.size_bytes for c in chunks]
    )
    catalog.put_batch(chunks)


def _unpublish(partitioner, catalog, refs):
    """Unpublish ``refs``, then free their table ids."""
    catalog.remove_batch(catalog.table.ids_of(refs))
    for ref in refs:
        partitioner.remove(ref)


def _make_cluster(name, nodes=2):
    partitioner = make_partitioner(
        name, list(range(nodes)), grid=GRID,
        node_capacity_bytes=1000 * GB,
    )
    return ElasticCluster(
        partitioner, 1000 * GB, costs=CostParameters(),
        ledger_compact_ratio=0.3,
    )


class TestCatalogParityProperty:
    """The cluster machine on the catalog's rules: reads ≡ store walks."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_interleaved_ops(self, name):
        run_focused(
            name,
            ("ingest", "expire", "scale_out", "compact", "read_twice"),
            ("consistent", "reads_equal_store_walks"),
        )


class TestAllSchemesParity:
    """Deterministic ingest/grow/expire cycle, every registered scheme."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_fixed_lifecycle(self, name):
        replay(name, lifecycle(3, cycles=5, size=12),
               ("consistent", "reads_equal_store_walks"))


class TestPayloadCache:
    def test_cache_hit_between_mutations(self):
        cluster = _make_cluster("round_robin")
        cluster.ingest([_chunk("A", 0, x, 0, 10.0) for x in range(8)])
        hits = cluster.catalog.payload_hits
        first = cluster.session().array_payload("A", ["v"], ndim=3)
        again = cluster.session().array_payload("A", ["v"], ndim=3)
        assert again[0] is first[0]
        assert cluster.catalog.payload_hits == hits + 1

    def test_session_repeats_count_as_hits(self):
        # N reads at one payload epoch are 1 miss and N-1 hits whether
        # the snapshot's memo or the catalog LRU answers the repeats.
        cluster = _make_cluster("round_robin")
        cluster.ingest([_chunk("A", 0, x, 0, 10.0) for x in range(8)])
        catalog = cluster.catalog
        session = cluster.session()
        for _ in range(5):
            session.array_payload("A", ["v"], ndim=3)
        assert (catalog.payload_misses, catalog.payload_hits) == (1, 4)
        cluster.session().array_payload("A", ["v"], ndim=3)
        assert (catalog.payload_misses, catalog.payload_hits) == (1, 5)
        region = Box((0, 0, 0), (1, 4, 1))
        for _ in range(3):
            session.payload_in_region("A", region, ["v"], ndim=3)
        assert (catalog.payload_misses, catalog.payload_hits) == (2, 7)

    @pytest.mark.parametrize(
        "mutate",
        ["ingest", "scale_out", "remove", "merge"],
    )
    def test_every_mutation_invalidates(self, mutate):
        cluster = _make_cluster("round_robin")
        chunks = [_chunk("A", 0, x, 0, 10.0) for x in range(8)]
        cluster.ingest(chunks)
        stale = cluster.session().array_payload("A", ["v"], ndim=3)
        epoch = cluster.catalog.epoch_of("A")
        if mutate == "ingest":
            cluster.ingest([_chunk("A", 1, 0, 0, 5.0)])
        elif mutate == "scale_out":
            cluster.scale_out(1)
        elif mutate == "remove":
            cluster.remove_chunks([chunks[0].ref()])
        else:  # merge into an existing chunk
            cluster.ingest([_chunk("A", 0, 0, 0, 5.0, value=9.0)])
        assert cluster.catalog.epoch_of("A") > epoch
        fresh = cluster.session().array_payload("A", ["v"], ndim=3)
        oracle = array_payload_scan(cluster, "A", ["v"], ndim=3)
        assert np.array_equal(fresh[0], oracle[0])
        assert np.array_equal(fresh[1]["v"], oracle[1]["v"])
        if mutate != "scale_out":
            # the stale concatenation is genuinely different data
            assert not (
                stale[0].shape == fresh[0].shape
                and np.array_equal(stale[0], fresh[0])
                and np.array_equal(stale[1]["v"], fresh[1]["v"])
            )

    def test_relocation_preserves_cache(self):
        # A rebalance moves ownership, not cell contents: the epoch
        # advances (placement views are new) but the payload epoch and
        # the cached concatenation survive untouched.
        cluster = _make_cluster("round_robin")
        cluster.ingest([_chunk("A", 0, x, 0, 10.0) for x in range(12)])
        before = cluster.session().array_payload("A", ["v"], ndim=3)
        epoch = cluster.catalog.epoch_of("A")
        payload_epoch = cluster.catalog.payload_epoch_of("A")
        report = cluster.scale_out(1)
        assert report.chunks_moved > 0
        assert cluster.catalog.epoch_of("A") > epoch
        assert cluster.catalog.payload_epoch_of("A") == payload_epoch
        after = cluster.session().array_payload("A", ["v"], ndim=3)
        assert after[0] is before[0]

    def test_stale_entries_freed_on_epoch_bump(self):
        # A mutation must drop the touched array's cached payloads
        # immediately — not leave them pinned until the same query
        # recurs (which for an expired array is never).
        cluster = _make_cluster("round_robin")
        chunks = [_chunk("A", 0, x, 0, 10.0) for x in range(8)]
        cluster.ingest(chunks)
        cluster.session().array_payload("A", ["v"], ndim=3)
        assert cluster.catalog._payload_cache
        cluster.remove_chunks([c.ref() for c in chunks])
        assert not cluster.catalog._payload_cache

    def test_scan_mode_never_caches(self):
        cluster = _make_cluster("round_robin")
        cluster.ingest([_chunk("A", 0, x, 0, 10.0) for x in range(4)])
        first = array_payload_scan(cluster, "A", ["v"], ndim=3)
        again = array_payload_scan(cluster, "A", ["v"], ndim=3)
        assert first[0] is not again[0]
        assert np.array_equal(first[0], again[0])

    def test_empty_array_payload_shape(self):
        cluster = _make_cluster("round_robin")
        coords, values = cluster.session().array_payload("A", ["v"], ndim=3)
        assert coords.shape == (0, 3)
        assert values["v"].shape == (0,)

    def test_permuted_attrs_share_one_entry(self, table_partitioner):
        # The cache key normalizes the attr list (sorted, deduplicated):
        # querying the same subset in any order — or with repeats — hits
        # the one cached concatenation instead of caching it per
        # permutation.
        schema = parse_schema(
            "C<u:double, v:double>[t=0:*,1, x=0:15,1, y=0:15,1]"
        )
        partitioner = table_partitioner()
        catalog = ChunkCatalog(partitioner.table)
        chunks = [
            ChunkData(
                schema, (0, x, 0),
                np.array([[0, x, 0]], dtype=np.int64),
                {"u": np.array([1.0]), "v": np.array([2.0])},
                size_bytes=10.0,
            )
            for x in range(4)
        ]
        _publish(partitioner, catalog, chunks)
        first = catalog.payload_of_array("C", ["u", "v"], ndim=3)
        misses = catalog.payload_misses
        for attrs in (["v", "u"], ["u", "v"], ["v", "u", "v"]):
            again = catalog.payload_of_array("C", attrs, ndim=3)
            assert again[0] is first[0]
            assert again[1]["u"] is first[1]["u"]
            assert again[1]["v"] is first[1]["v"]
        assert catalog.payload_misses == misses  # every permutation hit
        assert len(catalog._payload_cache) == 1

    def test_cache_is_bounded_lru(self):
        # Attr subsets (here: ndim variants, the other key component)
        # that stop being queried age out of the small LRU instead of
        # pinning their concatenations forever.
        cluster = _make_cluster("round_robin")
        cluster.ingest([_chunk("A", 0, x, 0, 10.0) for x in range(4)])
        catalog = cluster.catalog
        catalog.PAYLOAD_CACHE_MAX = 4
        for i in range(10):
            catalog.payload_of_array("A", ["v"], ndim=i)
        assert len(catalog._payload_cache) == 4
        hits = catalog.payload_hits
        catalog.payload_of_array("A", ["v"], ndim=9)  # recent: still in
        assert catalog.payload_hits == hits + 1
        misses = catalog.payload_misses
        catalog.payload_of_array("A", ["v"], ndim=0)  # old: evicted
        assert catalog.payload_misses == misses + 1
        assert len(catalog._payload_cache) == 4

    def test_sessions_share_one_concatenation_across_relocation(self):
        # The entry is keyed by content version, so a session opened
        # after a pure relocation (new epoch, new snapshot, same
        # payload epoch) is served the very arrays the first one built.
        cluster = _make_cluster("round_robin")
        cluster.ingest([_chunk("A", 0, x, 0, 10.0) for x in range(12)])
        catalog = cluster.catalog
        region = Box((0, 2, 0), (1, 9, 1))
        s1 = cluster.session()
        whole = s1.array_payload("A", ["v"], ndim=3)
        clipped = s1.payload_in_region("A", region, ["v"], ndim=3)
        assert (catalog.payload_misses, catalog.payload_hits) == (2, 0)
        assert cluster.scale_out(1).chunks_moved > 0
        s2 = cluster.session()
        assert s2.snapshot_of("A") is not s1.snapshot_of("A")
        again = s2.array_payload("A", ["v"], ndim=3)
        again_clipped = s2.payload_in_region("A", region, ["v"], ndim=3)
        assert (catalog.payload_misses, catalog.payload_hits) == (2, 2)
        assert again[0] is whole[0] and again[1]["v"] is whole[1]["v"]
        assert again_clipped[0] is clipped[0]
        assert again_clipped[1]["v"] is clipped[1]["v"]

    def test_pins_of_two_content_versions_never_cross(self):
        # A merge-ingest makes a new content version.  The old pin must
        # re-derive its own bytes from its frozen handles even with the
        # cache emptied under it, and the new pin must never be handed
        # the old version's entry.
        cluster = _make_cluster("round_robin")
        cluster.ingest([_chunk("A", 0, x, 0, 10.0) for x in range(6)])
        catalog = cluster.catalog
        region = Box((0, 0, 0), (1, 4, 1))
        old = cluster.session()
        before = old.array_payload("A", ["v"], ndim=3)
        before_clip = old.payload_in_region("A", region, ["v"], ndim=3)
        cluster.ingest([_chunk("A", 0, 0, 0, 5.0, value=9.0)])  # merge
        new = cluster.session()
        catalog._payload_cache.clear()
        # old pin first, so its (older-epoch) entries are installed
        # before the new pin asks
        again = old.array_payload("A", ["v"], ndim=3)
        again_clip = old.payload_in_region("A", region, ["v"], ndim=3)
        assert again[0].tobytes() == before[0].tobytes()
        assert again[1]["v"].tobytes() == before[1]["v"].tobytes()
        assert again_clip[1]["v"].tobytes() == before_clip[1]["v"].tobytes()
        after = new.array_payload("A", ["v"], ndim=3)
        after_clip = new.payload_in_region("A", region, ["v"], ndim=3)
        assert after[0] is not again[0]
        assert after[0].shape[0] == before[0].shape[0] + 1
        assert after_clip[0].shape[0] == before_clip[0].shape[0] + 1
        assert 9.0 in after[1]["v"] and 9.0 not in again[1]["v"]
        assert {k[1] for k in catalog._payload_cache} == {
            old.payload_epoch_of("A"), new.payload_epoch_of("A"),
        }

    def test_bound_holds_through_a_session(self):
        # One session reading more distinct regions than the LRU holds
        # must not keep the evicted ones alive anywhere: re-reading the
        # first region is a miss.
        cluster = _make_cluster("round_robin")
        cluster.ingest([_chunk("A", 0, x, 0, 10.0) for x in range(16)])
        catalog = cluster.catalog
        session = cluster.session()
        regions = [
            Box((0, 0, 0), (1, hi, 1))
            for hi in range(1, catalog.PAYLOAD_CACHE_MAX + 3)
        ]
        for region in regions:
            session.payload_in_region("A", region, ["v"], ndim=3)
        assert len(catalog._payload_cache) == catalog.PAYLOAD_CACHE_MAX
        misses = catalog.payload_misses
        hits = catalog.payload_hits
        session.payload_in_region("A", regions[0], ["v"], ndim=3)
        assert catalog.payload_misses == misses + 1
        assert catalog.payload_hits == hits


class TestLiveReadsAreSnapshotReads:
    """Each per-array catalog read ≡ the same read of its snapshot."""

    REGION = Box((0, 2, 0), (2, 11, 9))

    def _assert_live_equals_pinned(self, catalog, array):
        snap = catalog.snapshot(array)
        region = self.REGION

        def same(got, want):
            """Equal values; chunk handles object-identical."""
            assert type(got) is type(want)
            if isinstance(got, np.ndarray):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            elif isinstance(got, (tuple, list)):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    same(g, w)
            elif isinstance(got, dict):
                assert list(got) == list(want)
                for key in got:
                    same(got[key], want[key])
            elif isinstance(got, ChunkData):
                assert got is want
            else:
                assert got == want

        def same_read(got, want):
            same(list(got), list(want))
            for column in ("sizes", "nodes", "rows"):
                same(getattr(got, column), getattr(want, column))
            assert got.schema is want.schema

        same_read(catalog.pairs_of_array(array), snap.pairs())
        same(catalog.placement_of_array(array), snap.placement())
        same_read(
            catalog.pairs_in_region(array, region),
            snap.pairs_in_region(region),
        )
        same(
            catalog.payload_of_array(array, ["v"], 3),
            snap.payload(["v"], 3),
        )
        same(
            catalog.payload_in_region(array, region, ["v"], 3),
            snap.payload_in_region(region, ["v"], 3),
        )
        for cursor in (0, max(snap.payload_epoch - 1, 0), snap.payload_epoch):
            live = catalog.deltas_since(array, cursor)
            pinned = snap.deltas_since(cursor)
            for column in (
                "epochs", "signs", "refs", "chunks", "sizes", "nodes"
            ):
                same(
                    getattr(live, column).tolist(),
                    getattr(pinned, column).tolist(),
                )
            assert live.schema is pinned.schema is snap.schema
        return snap

    def test_known_emptied_and_unknown_arrays(self):
        cluster = _make_cluster("kd_tree")
        a_chunks = [
            _chunk("A", t, x, (3 * x) % 16, 10.0 + x)
            for t in range(2) for x in range(12)
        ]
        b_chunks = [_chunk("B", 0, x, x, 7.0) for x in range(5)]
        # Reads from cursor 0 below: hold every row from it.
        held = cluster.catalog.declare(["A", "B"], [0, 0])
        cluster.ingest(a_chunks + b_chunks)
        cluster.scale_out(1)
        cluster.remove_chunks([c.ref() for c in a_chunks[:4]])
        cluster.remove_chunks([c.ref() for c in b_chunks])  # empties B
        catalog = cluster.catalog
        known = self._assert_live_equals_pinned(catalog, "A")
        assert len(known) == 20
        assert catalog.pairs_in_region("A", self.REGION)
        emptied = self._assert_live_equals_pinned(catalog, "B")
        assert len(emptied) == 0 and emptied.payload_epoch > 0
        assert len(catalog.deltas_since("B", 0)) == 10  # +5, then -5
        unknown = self._assert_live_equals_pinned(catalog, "nope")
        assert len(unknown) == 0 and unknown.epoch == 0
        assert len(catalog.deltas_since("nope", 0)) == 0
        assert catalog.payload_of_array("nope", ["v"], 3)[0].shape == (0, 3)
        del held


class TestGroupedRebalance:
    """The grouped executor ≡ the per-move oracle."""

    def _twin_clusters(self, name="consistent_hash", n=40):
        chunks = [
            _chunk("A", t, t % 16, (3 * t) % 16, 50.0 + t)
            for t in range(n)
        ]
        a = _make_cluster(name)
        b = _make_cluster(name)
        a.ingest(chunks)
        b.ingest([
            _chunk("A", t, t % 16, (3 * t) % 16, 50.0 + t)
            for t in range(n)
        ])
        return a, b

    def test_scale_out_matches_scalar_oracle(self, oracles):
        batched, oracle = self._twin_clusters()
        report_b = batched.scale_out(2)
        with oracles(execute_rebalance):
            report_o = oracle.scale_out(2)
        assert report_b.chunks_moved == report_o.chunks_moved
        assert report_b.bytes_moved == pytest.approx(
            report_o.bytes_moved
        )
        assert report_b.elapsed_seconds == pytest.approx(
            report_o.elapsed_seconds
        )
        assert report_b.touched_nodes == report_o.touched_nodes
        for node_id in batched.node_ids:
            assert (
                batched.nodes[node_id].store.refs()
                == oracle.nodes[node_id].store.refs()
            )
        batched.check_consistency()
        oracle.check_consistency()

    @pytest.fixture
    def nodes_with_chunks(self, table_partitioner):
        """Factory: four chunks stored on node 0 of three, published.

        Returns ``(nodes, catalog, chunks, partitioner)``; plans the
        partitioner emits (``_relocate_many``) move the table's owners,
        which the catalog reads.
        """

        def build():
            partitioner = table_partitioner()
            nodes = {i: Node(i, 1e12) for i in range(3)}
            chunks = [_chunk("A", t, 0, 0, 10.0 + t) for t in range(4)]
            for c in chunks:
                nodes[0].store.put(c)
            partitioner.adopt_batch(
                [(c.ref(), c.size_bytes, 0) for c in chunks]
            )
            catalog = ChunkCatalog(partitioner.table)
            catalog.put_batch(chunks)
            return nodes, catalog, chunks, partitioner

        return build

    def test_chained_moves_collapse(self, nodes_with_chunks):
        # A chunk moved 0 -> 1 -> 2 within one plan must end on 2, with
        # node 1 never actually holding it (grouped path) — and the
        # oracle replaying each hop lands in the same end state.
        for executor in (execute_rebalance, execute_rebalance_scalar):
            nodes, catalog, chunks, partitioner = nodes_with_chunks()
            ref = chunks[0].ref()
            plan = RebalancePlan.concat([
                partitioner._relocate_many([ref], 1),
                partitioner._relocate_many([ref], 2),
            ])
            report = executor(nodes, plan, CostParameters(), catalog)
            assert report.chunks_moved == 2
            assert ref not in nodes[0].store
            assert ref not in nodes[1].store
            assert nodes[2].store.get(ref) is chunks[0]
            assert catalog.placement_of_array("A")[ref.key] == 2

    def test_phantom_cycle_chain_rejected(self, nodes_with_chunks):
        # A cyclic chain over a chunk no store holds nets out to zero
        # movement, but the oracle would fail its first eviction — the
        # grouped pass must reject it too, not report success.
        nodes, catalog, chunks, _ = nodes_with_chunks()
        ghost = ChunkRef("A", (123, 0, 0))
        plan = RebalancePlan(
            [ghost, ghost], sources=[0, 1], dests=[1, 0], sizes=[1.0, 1.0]
        )
        with pytest.raises(ClusterError):
            execute_rebalance(nodes, plan, CostParameters(), catalog)

    def test_cycle_chain_is_noop(self, nodes_with_chunks):
        nodes, catalog, chunks, partitioner = nodes_with_chunks()
        ref = chunks[1].ref()
        plan = RebalancePlan.concat([
            partitioner._relocate_many([ref], 1),
            partitioner._relocate_many([ref], 0),
        ])
        execute_rebalance(nodes, plan, CostParameters(), catalog)
        assert nodes[0].store.get(ref) is chunks[1]
        assert catalog.placement_of_array("A")[ref.key] == 0

    def test_discontinuous_chain_rejected(self, nodes_with_chunks):
        # A hop that does not start where the previous one ended is a
        # malformed plan; the oracle would fail to evict mid-replay, so
        # the grouped executor must refuse it up front.
        nodes, catalog, chunks, _ = nodes_with_chunks()
        ref = chunks[0].ref()
        plan = RebalancePlan(
            [ref, ref], sources=[0, 2], dests=[1, 1],  # chunk is on 1
            sizes=[chunks[0].size_bytes] * 2,
        )
        with pytest.raises(ClusterError):
            execute_rebalance(nodes, plan, CostParameters(), catalog)
        assert nodes[0].store.get(ref) is chunks[0]  # nothing moved
        assert catalog.placement_of_array("A")[ref.key] == 0

    def test_whole_plan_validated_before_moving(self, nodes_with_chunks):
        nodes, catalog, chunks, _ = nodes_with_chunks()
        good = chunks[0].ref()
        missing = ChunkRef("A", (99, 0, 0))
        plan = RebalancePlan(
            [good, missing], sources=[0, 0], dests=[1, 2],
            sizes=[chunks[0].size_bytes, 1.0],
        )
        with pytest.raises(ClusterError):
            execute_rebalance(nodes, plan, CostParameters(), catalog)
        # nothing moved: the bad move was caught during validation
        assert nodes[0].store.get(good) is chunks[0]
        assert catalog.placement_of_array("A")[good.key] == 0

    @pytest.mark.parametrize("ids", [[99], [-1], [10]])
    def test_plan_ids_must_be_live(self, nodes_with_chunks, ids):
        nodes, catalog, chunks, _ = nodes_with_chunks()
        plan = RebalancePlan(
            [chunks[0].ref()], sources=[0], dests=[1],
            sizes=[chunks[0].size_bytes], ids=ids,
        )
        with pytest.raises(ClusterError, match="live chunk-table id"):
            execute_rebalance(nodes, plan, CostParameters(), catalog)
        assert nodes[0].store.get(chunks[0].ref()) is chunks[0]

    def test_plan_ids_must_name_the_plan_refs(self, nodes_with_chunks):
        # Accepted, the store moved chunks[0] while the catalog
        # relocated chunks[1]'s id.
        nodes, catalog, chunks, _ = nodes_with_chunks()
        ref, other = chunks[0].ref(), chunks[1].ref()
        plan = RebalancePlan(
            [ref], sources=[0], dests=[1],
            sizes=[chunks[0].size_bytes], ids=catalog.table.ids_of([other]),
        )
        with pytest.raises(ClusterError, match=re.escape(f"names {other}, not {ref}")):
            execute_rebalance(nodes, plan, CostParameters(), catalog)
        assert nodes[0].store.get(ref) is chunks[0]
        assert ref not in nodes[1].store
        assert catalog.placement_of_array("A") == {
            c.ref().key: 0 for c in chunks
        }

    def test_unknown_node_rejected(self, nodes_with_chunks):
        nodes, catalog, chunks, _ = nodes_with_chunks()
        plan = RebalancePlan(
            [chunks[0].ref()], sources=[0], dests=[77],
            sizes=[chunks[0].size_bytes],
        )
        with pytest.raises(ClusterError):
            execute_rebalance(nodes, plan, CostParameters(), catalog)


class TestChunkStoreBatchApis:
    def test_put_returns_stored_object(self):
        store = ChunkStore()
        c1 = _chunk("A", 0, 0, 0, 10.0)
        assert store.put(c1) is c1
        merged = store.put(_chunk("A", 0, 0, 0, 5.0))
        assert merged is not c1
        assert merged.size_bytes == pytest.approx(15.0)
        assert store.get(c1.ref()) is merged

    def test_put_many_matches_sequential(self):
        chunks = [
            _chunk("A", t % 3, 0, 0, 10.0) for t in range(7)
        ]
        seq = ChunkStore()
        for c in chunks:
            seq.put(c)
        bat = ChunkStore()
        stored = bat.put_many(chunks)
        assert bat.refs() == seq.refs()
        assert bat.used_bytes == pytest.approx(seq.used_bytes)
        assert stored[-1] is bat.get(chunks[-1].ref())

    def test_evict_many_all_or_nothing(self):
        store = ChunkStore()
        chunks = [_chunk("A", t, 0, 0, 10.0) for t in range(4)]
        store.put_many(chunks)
        with pytest.raises(StorageError):
            store.evict_many(
                [chunks[0].ref(), ChunkRef("A", (99, 0, 0))]
            )
        with pytest.raises(StorageError):
            store.evict_many([chunks[0].ref(), chunks[0].ref()])
        assert store.chunk_count == 4  # untouched
        out = store.evict_many([c.ref() for c in chunks[:2]])
        assert [c.ref() for c in out] == [c.ref() for c in chunks[:2]]
        assert store.chunk_count == 2
        assert store.used_bytes == pytest.approx(
            sum(c.size_bytes for c in chunks[2:])
        )

    def test_refs_cache_tracks_mutations(self):
        store = ChunkStore()
        store.put(_chunk("A", 1, 0, 0, 1.0))
        store.put(_chunk("B", 0, 0, 0, 1.0))
        first = store.refs()
        assert first == sorted(first, key=lambda r: (r.array, r.key))
        assert store.refs() is first  # cached between mutations
        store.put(_chunk("A", 0, 0, 0, 1.0))
        second = store.refs()
        assert second is not first
        assert second == sorted(second, key=lambda r: (r.array, r.key))
        assert len(second) == 3
        store.evict(second[0])
        assert len(store.refs()) == 2
        # merges do not change the key set: cache survives
        third = store.refs()
        store.put(_chunk("B", 0, 0, 0, 1.0))
        assert store.refs() is third


class TestCatalogInternals:
    @pytest.fixture
    def populated(self, table_partitioner):
        """200 chunks placed over three nodes and published."""
        partitioner = table_partitioner()
        catalog = ChunkCatalog(partitioner.table)
        chunks = [
            _chunk("AB"[t % 2], t, t % 16, 0, 10.0 + t)
            for t in range(200)
        ]
        _publish(partitioner, catalog, chunks)
        return partitioner, catalog, chunks

    def test_compact_preserves_observables(self, populated):
        # One compaction rewrites the table's ids and the views' ids
        # together; every read is unchanged.
        partitioner, catalog, chunks = populated
        _unpublish(partitioner, catalog, [c.ref() for c in chunks[::2]])
        payload_before = catalog.payload_of_array("A", ["v"], ndim=3)
        pairs_before = list(catalog.pairs_of_array("A"))
        place_before = catalog.placement_of_array("B")
        assignment_before = partitioner.assignment()
        epoch_before = catalog.epoch_of("A")
        cap_before = catalog.column_capacity
        assert partitioner.ledger_dead_fraction > 0.3
        assert catalog.compact(0.3) is True
        assert catalog.column_capacity < cap_before
        assert catalog.column_capacity == partitioner.ledger_column_capacity
        assert catalog.epoch_of("A") == epoch_before
        assert list(catalog.pairs_of_array("A")) == pairs_before
        assert catalog.placement_of_array("B") == place_before
        assert partitioner.assignment() == assignment_before
        catalog.verify_published()
        # live cache entries survive compaction (no epoch bump)
        after = catalog.payload_of_array("A", ["v"], ndim=3)
        assert after[0] is payload_before[0]

    def test_compact_threshold(self, populated):
        partitioner, catalog, chunks = populated
        _unpublish(partitioner, catalog, [chunks[0].ref()])
        assert catalog.compact(0.9) is False
        assert catalog.compact(0.0) is True
        assert catalog.compact(0.0) is False  # already dense

    def test_scan_columns_match_pairs(self, populated):
        _, catalog, _ = populated
        read = catalog.pairs_of_array("A")
        pairs = list(read)
        assert read.sizes.tolist() == [c.size_bytes for c, _ in pairs]
        assert read.nodes.tolist() == [n for _, n in pairs]
        assert read.schema is SCHEMAS["A"]

    def test_concat_payload_empty(self):
        coords, values = concat_payload(read_of([]), ["v"], ndim=3)
        assert coords.shape == (0, 3)
        assert values["v"].shape == (0,)

    def test_empty_reads_have_empty_rows(self, populated):
        _, catalog, _ = populated
        rows = read_of([]).rows
        assert rows.shape == (0, 0) and rows.dtype == np.int64
        delta = catalog.deltas_since("A", catalog.payload_epoch_of("A"))
        assert not len(delta) and delta.schema is SCHEMAS["A"]
        assert delta.rows.shape == (0, 3) and delta.rows.dtype == np.int64

    def test_repeated_ref_in_one_batch_takes_one_id(self, table_partitioner):
        # A ref listed twice is interned once, by the table: 64 refs
        # listed twice fill its initial 64 slots exactly, and the
        # catalog publishes each id once.
        partitioner = table_partitioner()
        catalog = ChunkCatalog(partitioner.table)
        chunks = [_chunk("A", t, 0, 0, 10.0) for t in range(64)]
        _publish(partitioner, catalog, chunks + chunks)
        assert catalog.chunk_count == 64
        assert catalog.column_capacity == 64
        assert partitioner.ledger_dead_fraction == 0.0
        assert [c for c, _ in catalog.pairs_of_array("A")] == chunks

    def test_capacity_follows_the_table(self, table_partitioner):
        partitioner = table_partitioner()
        catalog = ChunkCatalog(partitioner.table)
        _publish(
            partitioner, catalog,
            [_chunk("A", t, 0, 0, 10.0) for t in range(200)],
        )
        assert catalog.column_capacity == 200
        assert partitioner.ledger_column_capacity == 200
        # freed table ids are reused before either grows again
        _unpublish(
            partitioner, catalog,
            [ChunkRef("A", (t, 0, 0)) for t in range(100)],
        )
        _publish(
            partitioner, catalog,
            [_chunk("B", t, 0, 0, 10.0) for t in range(150)],
        )
        assert catalog.chunk_count == 250
        assert catalog.column_capacity == 400
        assert partitioner.ledger_column_capacity == 400
        catalog.verify_published()

    def test_unplaced_chunk_is_not_published(self, table_partitioner):
        # Ids are born in the partitioner's commit: a chunk the table
        # never placed cannot be published, and nothing of the batch is.
        partitioner = table_partitioner()
        catalog = ChunkCatalog(partitioner.table)
        placed = _chunk("A", 0, 0, 0, 10.0)
        partitioner.place_batch([placed.ref()], [placed.size_bytes])
        with pytest.raises(ClusterError):
            catalog.put_batch([placed, _chunk("A", 1, 0, 0, 10.0)])
        assert catalog.chunk_count == 0
        assert catalog.payload_of(placed.ref()) is None


GATHER_SCHEMA = parse_schema(
    "G<v:double, n:int32, tag:string>[t=0:*,4, x=0:15,2]"
)
GATHER_ATTRS = ("v", "n", "tag")


def _gather_batch(seed, t0, cells=60):
    """One ``chunk_cells`` call: every chunk an extent of one arena."""
    rng = np.random.default_rng(seed)
    coords = np.stack(
        [rng.integers(t0, t0 + 8, cells), rng.integers(0, 16, cells)],
        axis=1,
    )
    attrs = {
        "v": rng.random(cells),
        "n": rng.integers(0, 99, cells).astype(np.int32),
        "tag": np.array([f"s{seed}-{i}" for i in range(cells)], dtype=object),
    }
    return chunk_cells(GATHER_SCHEMA, coords, attrs)


def _own_arrays(chunk, wide=False):
    """The validating constructor's copy of ``chunk`` (no extent).

    ``wide`` stores ``n`` as int64, so a gather mixing it with arena
    chunks has to promote the column exactly as the oracle does.
    """
    columns = {a: chunk.values(a).copy() for a in GATHER_ATTRS}
    if wide:
        columns["n"] = columns["n"].astype(np.int64)
    return ChunkData(
        GATHER_SCHEMA, chunk.key, chunk.coords.copy(), columns
    )


def _gather_pools():
    """``(batch order, interleaved)``: the same chunks, two orders.

    Three arenas' extents in key order (long runs), validating-
    constructor chunks, ``merged_with`` results and one empty chunk;
    the interleaved order deals them round-robin so that no two
    neighbours are adjacent extents.
    """
    arenas = [_gather_batch(seed, 8 * seed) for seed in range(3)]
    spare = _gather_batch(7, 64)
    loners = [
        _own_arrays(spare[0]),
        _own_arrays(spare[1], wide=True),
        spare[2].merged_with(_own_arrays(spare[2])),
        _own_arrays(spare[3]).merged_with(spare[3]),
        ChunkData(
            GATHER_SCHEMA, (99, 0),
            np.empty((0, 2), dtype=np.int64),
            {
                "v": np.empty(0),
                "n": np.empty(0, dtype=np.int32),
                "tag": np.empty(0, dtype=object),
            },
        ),
    ]
    ordered = [c for arena in arenas for c in arena] + loners
    groups = arenas + [loners]
    longest = max(len(g) for g in groups)
    interleaved = [
        g[i] for i in range(longest) for g in groups if i < len(g)
    ]
    return ordered, interleaved


GATHER_POOLS = _gather_pools()


def _assert_same_table(got, want):
    assert got[0].dtype == want[0].dtype
    assert got[0].shape == want[0].shape
    assert np.array_equal(got[0], want[0])
    assert list(got[1]) == list(want[1])
    for attr, column in want[1].items():
        assert got[1][attr].dtype == column.dtype, attr
        assert got[1][attr].shape == column.shape, attr
        assert np.array_equal(got[1][attr], column), attr


class TestRunGather:
    """``concat_payload`` ≡ the per-chunk oracle on any chunk list."""

    @settings(max_examples=60, deadline=None)
    @given(
        interleaved=st.booleans(),
        windows=st.lists(
            st.tuples(
                st.integers(0, len(GATHER_POOLS[0]) - 1),
                st.integers(1, 40),
                st.sampled_from([1, 1, 1, 2, -1]),
            ),
            max_size=6,
        ),
        attrs=st.lists(
            st.sampled_from(GATHER_ATTRS), max_size=3, unique=True
        ),
    )
    def test_equals_per_chunk_oracle(self, interleaved, windows, attrs):
        # Each window is a strided slice of one pool order: step 1 over
        # batch order is a run of adjacent extents, step 2 sub-samples
        # (adjacency broken by the gaps), step -1 walks a batch
        # backwards, and windows overlap, repeat and jump arenas.
        pool = GATHER_POOLS[interleaved]
        chunks = []
        for start, length, step in windows:
            stop = start + length * step
            chunks.extend(
                pool[start:stop:step] if stop >= 0 else pool[start::step]
            )
        _assert_same_table(
            concat_payload(read_of(chunks), attrs, ndim=2),
            concat_payload_per_chunk(chunks, attrs, ndim=2),
        )

    def test_whole_pools_and_every_single_chunk(self):
        for pool in GATHER_POOLS:
            _assert_same_table(
                concat_payload(read_of(pool), GATHER_ATTRS, ndim=2),
                concat_payload_per_chunk(pool, GATHER_ATTRS, ndim=2),
            )
        for chunk in GATHER_POOLS[0]:
            _assert_same_table(
                concat_payload(read_of([chunk]), ["n"], ndim=2),
                concat_payload_per_chunk([chunk], ["n"], ndim=2),
            )

    def test_key_sorted_batches_are_one_slice_each(self, monkeypatch):
        # Three batches in catalog (key) order: every output column is
        # built from three slabs, not from one piece per chunk.
        batches = [_gather_batch(seed, 8 * seed) for seed in range(3)]
        chunks = [c for batch in batches for c in batch]
        assert len(chunks) > 30
        read = read_of(chunks)
        pieces = []
        real = np.concatenate

        def spy(arrays, *args, **kwargs):
            pieces.append(len(arrays))
            return real(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", spy)
        concat_payload(read, ["v", "tag"], ndim=2)
        assert pieces == [3, 3, 3]
        # ...and no per-chunk view was built on the way.
        assert all(c._payload is None for c in chunks)

    def test_result_never_aliases_an_arena(self):
        batch = _gather_batch(11, 0)
        arena = batch[0].extent[0]
        loner = _own_arrays(batch[0])
        for chunks in (batch, batch[:1], batch[2:5], [loner]):
            coords, values = concat_payload(
                read_of(chunks), GATHER_ATTRS, ndim=2
            )
            sources = [arena.coords, loner.coords]
            sources += list(arena.columns.values())
            sources += list(loner.attributes.values())
            for out in (coords, *values.values()):
                assert out.flags.owndata
                assert not any(np.shares_memory(out, s) for s in sources)

    @pytest.mark.parametrize("own", [False, True])
    def test_unknown_attribute_keeps_the_chunk_error(self, own):
        chunks = _gather_batch(12, 0)
        if own:
            chunks = [_own_arrays(c) for c in chunks]
        for gather in (concat_payload, concat_payload_per_chunk):
            with pytest.raises(ChunkError) as err:
                gather(read_of(chunks), ["v", "nope"], ndim=2)
            assert str(err.value) == "array G has no attribute 'nope'"

    def test_empty_list_keeps_its_shapes(self):
        _assert_same_table(
            concat_payload(read_of([]), ["v", "n"], ndim=2),
            concat_payload_per_chunk([], ["v", "n"], ndim=2),
        )
        coords, values = concat_payload(read_of([]), ["v"], ndim=2)
        assert coords.shape == (0, 2) and coords.dtype == np.int64
        assert values["v"].shape == (0,)


class TestCatalogLifetime:
    """The catalog is not kept alive by the snapshots it memoizes."""

    def test_dropped_cluster_is_freed_without_the_cyclic_gc(
        self, small_modis
    ):
        from repro.harness import ExperimentRunner, RunConfig

        gc.collect()
        gc.disable()
        try:
            runner = ExperimentRunner(
                small_modis, RunConfig(partitioner="hilbert_curve")
            )
            runner.run()  # ingest + the six-query suite, every cycle
            cluster = runner.cluster
            session = cluster.session()
            session.array_payload("band1", ["radiance"], 3)
            catalog = weakref.ref(cluster.catalog)
            assert catalog()._snapshot_cache
            assert catalog()._payload_cache
            del runner, cluster, session
            assert catalog() is None
        finally:
            gc.enable()

    def test_emptied_array_drops_its_memoized_snapshot(
        self, table_partitioner
    ):
        # Checks the memo itself, not when objects are freed: the delta
        # log keeps expired handles alive by design.
        partitioner = table_partitioner()
        catalog = ChunkCatalog(partitioner.table)
        chunks = [_chunk("A", t, 0, 0, 10.0, value=t) for t in range(5)]
        _publish(partitioner, catalog, chunks)
        assert len(catalog.snapshot("A")) == 5
        assert "A" in catalog._snapshot_cache
        _unpublish(partitioner, catalog, [c.ref() for c in chunks])
        assert len(catalog.snapshot("A")) == 0
        assert "A" not in catalog._snapshot_cache

    def test_snapshot_outliving_its_catalog_still_reads(
        self, table_partitioner
    ):
        partitioner = table_partitioner()
        catalog = ChunkCatalog(partitioner.table)
        chunks = [_chunk("A", t, 0, 0, 10.0, value=t) for t in range(5)]
        _publish(partitioner, catalog, chunks)
        snap = catalog.snapshot("A")
        want = snap.payload(["v"], 3)
        del catalog
        coords, values = snap.payload(["v"], 3)
        assert coords is not want[0]  # no cache left to share
        assert np.array_equal(coords, want[0])
        assert np.array_equal(values["v"], want[1]["v"])
        region = Box((1, 0, 0), (3, 1, 1))
        assert snap.payload_in_region(region, ["v"], 3)[1]["v"].tolist() == [
            1.0, 2.0
        ]


#: A 2-D array beside the 3-D ones: mixed key arities switch the chunk
#: table's key column off, so publishing reads key rows from the refs.
FLAT = parse_schema("C<v:double>[t=0:*,1, x=0:15,1]")


def _publish_fingerprint(catalog):
    """Every table column the catalog publishes into, view and delta-log
    row, handles labelled.

    A handle is labelled by its first appearance (log rows first, then
    the handle column), so two catalogs fed isomorphic handle streams —
    the same objects, or each cluster's own stored copies — print the
    same labels exactly when they hold the same handle at the same
    place.
    """
    labels = {}

    def label(handle):
        return None if handle is None else labels.setdefault(
            id(handle), len(labels)
        )

    logs = {}
    for array, log in sorted(catalog._deltas.items()):
        n = log.count
        logs[array] = (
            log.epochs[:n].tolist(),
            log.signs[:n].tolist(),
            log.refs[:n].tolist(),
            [label(h) for h in log.chunks[:n]],
            log.sizes[:n].tolist(),
            log.nodes[:n].tolist(),
            log.extents[:n].tolist(),
        )
    table = catalog.table
    columns = (
        [label(h) for h in table._chunks],
        table._size.tolist(),
        table._node.tolist(),
        table._extent.tolist(),
    )
    views = {
        array: (
            catalog._published(array).tolist(),
            table.keys_of(catalog._published(array)).tolist(),
            view.epoch, view.payload_epoch,
        )
        for array, view in sorted(catalog._views.items())
    }
    return (
        logs, columns, views, catalog.epoch,
        {a: s.name for a, s in catalog._schema_of.items()},
    )


class TestColumnarPublish:
    """``put_batch`` / ``remove_batch`` ≡ the per-chunk loops they replaced.

    No gated workload merges or repeats a ref within a batch, so these
    are the only guards of those branches.
    """

    @staticmethod
    def _batch(rng, catalog, arrays):
        """Refs from a tiny key space (negative keys too): in-batch
        duplicates, merges onto published chunks and same-handle
        re-puts all occur."""
        batch, latest = [], {}
        for _ in range(int(rng.integers(1, 14))):
            array = arrays[int(rng.integers(0, len(arrays)))]
            schema = FLAT if array == "C" else SCHEMAS[array]
            key = tuple(
                int(k) for k in rng.integers(-2, 2, schema.ndim)
            )
            ref = ChunkRef(array, key)
            current = latest.get(ref, catalog.payload_of(ref))
            if current is not None and rng.random() < 0.3:
                handle = current  # same-handle re-put
            else:
                handle = ChunkData(
                    schema, key, np.array([key], dtype=np.int64),
                    {"v": np.array([rng.random()])},
                    size_bytes=float(rng.integers(1, 50)),
                )
            latest[ref] = handle
            batch.append(handle)
        return batch

    @settings(max_examples=40, deadline=None)
    @given(
        mixed=st.booleans(),
        script=st.lists(
            st.tuples(
                st.sampled_from(["put", "put", "put", "remove", "compact"]),
                st.integers(0, 2**31),
                st.booleans(),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_equals_the_per_chunk_loops(self, mixed, script):
        arrays = ("A", "C") if mixed else ("A", "B")
        sides = []
        for _ in range(2):
            partitioner = make_partitioner("round_robin", [0, 1, 2])
            sides.append(
                (partitioner, ChunkCatalog(partitioner.table))
            )
        (p_vec, vec), (p_ref, ref) = sides
        for op, seed, hand_ids in script:
            rng = np.random.default_rng(seed)
            if op == "put":
                batch = self._batch(rng, vec, arrays)
                pairs = [(c.ref(), c.size_bytes) for c in batch]
                p_vec.place_batch(*columns(pairs))
                p_ref.place_batch(*columns(pairs))
                ids = p_vec.table.ids_of([r for r, _ in pairs])
                assert np.array_equal(
                    ids, p_ref.table.ids_of([r for r, _ in pairs])
                )
                vec.put_batch(batch, ids if hand_ids else None)
                put_batch_per_chunk(ref, batch, ids)
            elif op == "remove":
                live = sorted(
                    p_vec.table.assignment(),
                    key=lambda r: (r.array, r.key),
                )
                if not live:
                    continue
                picks = rng.choice(
                    len(live), int(rng.integers(1, len(live) + 1)),
                    replace=False,
                )
                refs = [live[int(i)] for i in picks]
                vec.remove_batch(vec.table.ids_of(refs))
                remove_batch_per_chunk(ref, ref.table.ids_of(refs))
                for r in refs:
                    p_vec.remove(r)
                    p_ref.remove(r)
            else:
                assert vec.compact(0.0) == ref.compact(0.0)
            assert _publish_fingerprint(vec) == _publish_fingerprint(ref)
            # same objects in, so the handle columns agree by identity
            assert all(
                a is b for a, b in zip(vec.table._chunks, ref.table._chunks)
            )
            vec.verify_published()
            vec.verify_delta_log()

    @pytest.mark.parametrize("storage", ["memory", "tier"])
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**31),
        script=st.lists(
            st.sampled_from(["ingest", "ingest", "expire", "grow"]),
            min_size=2,
            max_size=8,
        ),
    )
    def test_clusters_publish_alike(self, oracles, storage, seed, script):
        # Whole ingests through the coordinator: the stores merge
        # in-batch duplicates and re-ingested refs, so each cluster
        # publishes its own merged handles.
        def drive(cluster):
            rng = np.random.default_rng(seed)
            t = 0
            for op in ["ingest", *script]:
                if op == "ingest":
                    t += 1
                    batch = [
                        _chunk(
                            "AB"[int(rng.integers(0, 2))],
                            int(rng.integers(max(t - 2, 0), t + 1)),
                            int(rng.integers(0, 3)), 0,
                            float(rng.integers(1, 50)),
                            value=rng.random(),
                        )
                        for _ in range(int(rng.integers(1, 12)))
                    ]
                    cluster.ingest(batch)
                elif op == "expire":
                    live = sorted(
                        cluster.partitioner.table.assignment(),
                        key=lambda r: (r.array, r.key),
                    )
                    cluster.remove_chunks(live[: len(live) // 3])
                elif cluster.partitioner.chunk_count:
                    cluster.scale_out(1)
            cluster.check_consistency()
            return _publish_fingerprint(cluster.catalog)

        with tempfile.TemporaryDirectory() as root:
            built = []
            for side in ("vec", "ref"):
                partitioner = make_partitioner(
                    "round_robin", [0, 1], grid=GRID,
                    node_capacity_bytes=1000 * GB,
                )
                built.append(ElasticCluster(
                    partitioner, 1000 * GB, costs=CostParameters(),
                    storage=None if storage == "memory" else TieredStorage(
                        root=os.path.join(root, side),
                        memory_budget_bytes=60.0,
                    ),
                ))
            want = drive(built[0])
            with oracles(ChunkCatalog.put_batch, ChunkCatalog.remove_batch):
                got = drive(built[1])
            assert got == want


class TestViewInsertOrder:
    """An array's slice of the table's key index, filled over batches,
    orders its rows exactly as the void sort does."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_lexsort_equals_void_sort(self, width, seed):
        rng = np.random.default_rng(seed)
        rows = np.unique(
            rng.integers(-6, 6, size=(60, width)), axis=0
        )
        rows = rows[rng.permutation(len(rows))]
        table = ArrayChunkLedger([0])
        cut = len(rows) // 3
        for part in (rows[:cut], rows[cut:]):
            commit_rows(table, "A", part)
        order = np.argsort(pack_rows_void(rows), kind="stable")
        assert table.keys_of(table.array_ids("A")).tolist() == (
            rows[order].tolist()
        )
