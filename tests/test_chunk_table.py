"""One chunk table.

The partitioner's chunk table (:class:`repro.core.ledger.ArrayChunkLedger`)
is a cluster's only ``ChunkRef -> id`` intern table and holds every
per-chunk column; the catalog publishes into it.  Covers:

* :func:`_assert_one_table`, the quiescent-point contract — the catalog
  on the partitioner's table object, a handle on exactly the live ids,
  the catalog's views holding exactly those ids — asserted after every
  step of the ``tests/test_cluster_machine.py`` machine on every
  scheme, here run on ingest, expiry, scale-out and compaction alone;
* a snapshot pinned before a scale-out keeps reporting the pre-move
  owners;
* ``compact_ledger`` on a published table runs the one compaction
  through the catalog, a second catalog over one table is refused, and
  a freed id has no owner;
* ``ElasticCluster.chunk_data`` reads the catalog only;
* ``check_consistency`` raises on each fault it checks.
"""

import numpy as np
import pytest

from repro.arrays import Box, ChunkData, parse_schema
from repro.cluster import (
    CostParameters,
    ElasticCluster,
    GB,
    TieredStorage,
)
from repro.cluster.session import ClusterSession
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.core.catalog import ChunkCatalog
from repro.errors import ClusterError, StorageError

GRID = Box((0, 0, 0), (10_000, 16, 16))
SCHEMA = parse_schema("A<v:double>[t=0:*,1, x=0:15,1, y=0:15,1]")


def _chunk(t, x, y, size):
    return ChunkData(
        SCHEMA, (t, x, y),
        np.array([[t, x, y]], dtype=np.int64),
        {"v": np.array([1.0])},
        size_bytes=float(size),
    )


def _cluster(name="round_robin", nodes=2, storage=None):
    partitioner = make_partitioner(
        name, list(range(nodes)), grid=GRID,
        node_capacity_bytes=1000 * GB,
    )
    return ElasticCluster(
        partitioner, 1000 * GB, costs=CostParameters(),
        ledger_compact_ratio=0.5, storage=storage,
    )


def _batch(t, n, rng):
    by_key = {}
    for _ in range(n):
        c = _chunk(
            t, int(rng.integers(0, 16)), int(rng.integers(0, 16)),
            float(rng.lognormal(2, 1)),
        )
        by_key[c.key] = c
    return list(by_key.values())


def _assert_one_table(cluster):
    """The quiescent-point contract of the merged table."""
    catalog, partitioner = cluster.catalog, cluster.partitioner
    assert catalog.table is partitioner.table
    table = partitioner.table
    live = table.live_ids()
    published = np.flatnonzero(~np.equal(table._chunks, None))
    assert np.array_equal(published, live)
    assert catalog.chunk_count == partitioner.chunk_count
    assert catalog.column_capacity == partitioner.ledger_column_capacity
    catalog.verify_published()
    cluster.check_consistency()


class TestOneTableProperty:
    """The cluster machine on the table's rules: one table throughout."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_churn_keeps_one_table(self, name):
        # imported here: the machine module imports _assert_one_table
        from test_cluster_machine import run_focused

        run_focused(
            name,
            ("ingest", "expire", "scale_out", "compact"),
            ("consistent",),
        )


class TestPlannedVersusPublished:
    def test_pin_before_scale_out_keeps_its_owners(self):
        cluster = _cluster("round_robin", nodes=2)
        rng = np.random.default_rng(5)
        cluster.ingest(_batch(0, 40, rng))
        pinned = cluster.catalog.snapshot("A")
        before = pinned.placement()
        assert before == cluster.session().placement_of_array("A")
        report = cluster.scale_out(1)
        assert report.chunks_moved > 0
        assert pinned.placement() == before  # the pin never moves
        assert {int(n) for n in pinned.node_ids()} <= {0, 1}
        after = cluster.session().placement_of_array("A")
        assert after != before
        assert after == {
            ref.key: node
            for ref, node in cluster.partitioner.table.assignment().items()
        }
        _assert_one_table(cluster)

    def test_compact_ledger_runs_through_the_catalog(self):
        cluster = _cluster("hilbert_curve", nodes=2)
        cluster.ledger_compact_ratio = None  # compact by hand only
        rng = np.random.default_rng(9)
        batches = [_batch(t, 60, rng) for t in range(4)]
        for batch in batches:
            cluster.ingest(batch)
        cluster.remove_chunks([c.ref() for c in batches[0] + batches[1]])
        pairs = cluster.session().chunks_of_array("A")
        epoch = cluster.catalog.epoch
        cap = cluster.catalog.column_capacity
        assert cluster.partitioner.compact_ledger(0.0) is True
        assert cluster.catalog.column_capacity < cap
        assert cluster.catalog.epoch == epoch
        assert list(cluster.session().chunks_of_array("A")) == list(pairs)
        _assert_one_table(cluster)

    def test_second_catalog_over_one_table_is_refused(self):
        cluster = _cluster()
        with pytest.raises(ClusterError):
            ChunkCatalog(cluster.partitioner.table)

    def test_owners_of_a_dead_id_raise(self):
        # A freed slot holds the -1 sentinel; reading it as a node-list
        # index returned the *last* node instead of failing.
        cluster = _cluster("round_robin", nodes=3)
        cluster.ledger_compact_ratio = None  # keep the freed slot freed
        chunks = [_chunk(t, 0, 0, 10.0) for t in range(4)]
        cluster.ingest(chunks)
        table = cluster.partitioner.table
        ids = table.ids_of([c.ref() for c in chunks])
        assert table.owners(ids).tolist() == [
            cluster.locate(c.ref()) for c in chunks
        ]
        cluster.remove_chunks([chunks[1].ref()])
        with pytest.raises(KeyError):
            table.owners(ids)
        with pytest.raises(KeyError):
            table.owners(np.array([table.column_capacity - 1]))
        live = np.delete(ids, 1)
        assert table.owners(live).tolist() == [
            cluster.locate(chunks[i].ref()) for i in (0, 2, 3)
        ]


class TestChunkData:
    def test_reads_the_catalog_only(self):
        cluster = _cluster()
        chunks = [_chunk(0, x, 0, 10.0) for x in range(4)]
        cluster.ingest(chunks)
        ref = chunks[0].ref()
        assert cluster.chunk_data(ref) is cluster.catalog.payload_of(ref)
        with pytest.raises(ClusterError):
            cluster.chunk_data(_chunk(9, 9, 9, 1.0).ref())
        # A stored chunk the catalog does not publish is a disagreement
        # to report, not one to paper over with a store read.
        cluster.catalog.remove_batch(cluster.catalog.table.ids_of([ref]))
        with pytest.raises(ClusterError):
            cluster.chunk_data(ref)
        with pytest.raises(ClusterError):
            cluster.check_consistency()

    def test_session_has_no_linear_scan(self):
        assert not hasattr(ClusterSession, "chunk_data")


class TestConsistencyFaults:
    """``check_consistency`` raises on each fault it checks."""

    @pytest.fixture
    def cluster(self):
        cluster = _cluster("round_robin", nodes=2)
        cluster.ingest([_chunk(0, x, 0, 10.0) for x in range(6)])
        cluster.check_consistency()
        return cluster

    def _id(self, cluster, ref):
        return int(cluster.partitioner.table.ids_of([ref])[0])

    def test_store_versus_table_owner(self, cluster):
        ref = _chunk(0, 0, 0, 1.0).ref()
        other = 1 - cluster.partitioner.locate(ref)
        cluster.partitioner.table.relocate_many(
            np.array([self._id(cluster, ref)]), np.array([other])
        )
        with pytest.raises(ClusterError, match="table says"):
            cluster.check_consistency()

    def test_handle_identity(self, cluster):
        ref = _chunk(0, 2, 0, 1.0).ref()
        cluster.catalog.table._chunks[self._id(cluster, ref)] = _chunk(
            0, 2, 0, 10.0
        )
        with pytest.raises(ClusterError, match="payload handle"):
            cluster.check_consistency()

    def test_view_holds_a_freed_id(self, cluster):
        # The stores and the table drop a chunk behind the catalog's
        # back.  The catalog's view of the array is the table's key
        # index, so it cannot list the freed id; the delta log never
        # retired it, so its replay diverges from the published set.
        ref = _chunk(0, 1, 0, 1.0).ref()
        cluster.nodes[cluster.locate(ref)].store.evict_many([ref])
        cluster.partitioner.remove(ref)
        with pytest.raises(ClusterError, match="delta-log replay"):
            cluster.check_consistency()

    def test_table_holds_an_unpublished_id(self, cluster):
        # The partitioner places a chunk behind the catalog's back: the
        # table holds a live id whose handle was never set.
        cluster.partitioner.place_batch([_chunk(0, 9, 0, 1.0).ref()], [5.0])
        with pytest.raises(ClusterError, match="catalog publishes"):
            cluster.check_consistency()

    def test_byte_totals(self, cluster):
        # A merge through the partitioner alone grows the table's bytes
        # behind the stores' back.
        cluster.partitioner.place_batch([_chunk(0, 3, 0, 1.0).ref()], [5.0])
        with pytest.raises(ClusterError, match="byte ledgers"):
            cluster.check_consistency()

    def test_delta_log_replay(self, cluster):
        cluster.catalog._deltas["A"].signs[0] = -1
        with pytest.raises(ClusterError, match="delta log"):
            cluster.check_consistency()

    def test_write_through(self, tmp_path):
        cluster = _cluster(
            "round_robin", nodes=2, storage=TieredStorage(str(tmp_path))
        )
        chunk = _chunk(0, 0, 0, 10.0)
        cluster.ingest([chunk])
        node = cluster.nodes[cluster.locate(chunk.ref())]
        node.store.tier.segments.delete_many([chunk.ref()])
        with pytest.raises((ClusterError, StorageError)):
            cluster.check_consistency()
