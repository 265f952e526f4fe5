"""Restart recovery: a cluster rebuilt from its segment directories.

Covers the ISSUE-8 durability contract:

* unit recovery — drop all process state, ``ElasticCluster.recover`` the
  spill root, and every placement, payload byte, and consistency
  invariant survives; handles rehydrate lazily (no payload I/O until a
  read faults them);
* failure typing — wrong node sets, missing roots, and torn writes
  (truncated segment behind a stale manifest) all fail loudly with
  typed errors instead of returning wrong cells;
* acceptance — a workload whose total bytes exceed 4x the per-node
  memory budget completes the full SPJ/science benchmark suite
  byte-identical to an untiered (``storage=None``) twin, and after a
  simulated restart the suite still passes with ``check_consistency``
  green.
"""

import os

import numpy as np
import pytest

from repro.cluster import ElasticCluster, GB, TieredStorage
from repro.core import make_partitioner
from repro.errors import ClusterError, SegmentCorruptError
from repro.harness.runner import ExperimentRunner, RunConfig
from repro.query.executor import run_suite
from repro.query.suites import suite_for
from repro.workloads import AisWorkload, ModisWorkload

from test_segment_store import (
    GRID,
    _build_cluster,
    _chunk,
    _cluster_fingerprint,
)


def _loaded(tmp_path, budget=20.0, name="hilbert_curve"):
    storage = TieredStorage(
        root=str(tmp_path / "tiers"), memory_budget_bytes=budget,
    )
    cluster = _build_cluster(name, storage=storage)
    rng = np.random.default_rng(11)
    batch = []
    for t in range(8):
        for x in range(2):
            batch.append(_chunk(
                (t, x), seed=t * 2 + x,
                cells=int(rng.integers(1, 5)),
                size=float(rng.lognormal(2.0, 1.0)),
            ))
    cluster.ingest(batch)
    cluster.scale_out(1)  # recovery must cover grown clusters too
    return cluster, storage


class TestRecoveryUnit:
    def test_recover_round_trip_byte_identical(self, tmp_path):
        cluster, storage = _loaded(tmp_path)
        before = _cluster_fingerprint(cluster)
        del cluster  # all process state gone; only the directories live

        revived = _recovered_from_dirs(storage)
        # rehydration is lazy: nothing resident until a read faults it
        for node in revived.nodes.values():
            assert node.store.tier.resident_count == 0
        revived.check_consistency()
        assert _cluster_fingerprint(revived) == before
        revived.check_consistency()  # reads kept the tier consistent

    def test_recovered_cluster_keeps_working(self, tmp_path):
        cluster, storage = _loaded(tmp_path)
        before = _cluster_fingerprint(cluster)
        del cluster

        revived = _recovered_from_dirs(storage)
        assert _cluster_fingerprint(revived) == before
        # the revived cluster ingests, rebalances, and grows normally
        revived.ingest([_chunk((9, 0), seed=99, size=4.0)])
        revived.scale_out(1)
        revived.remove_chunks([_cluster_fingerprint(revived)[0][0]])
        revived.check_consistency()
        new_dir = storage.node_dir(max(revived.node_ids))
        assert os.path.isdir(new_dir)  # scale-out stayed tiered

    def test_recover_requires_matching_node_set(self, tmp_path):
        cluster, storage = _loaded(tmp_path)
        partitioner = make_partitioner(
            "hilbert_curve", [0, 1], grid=GRID,
            node_capacity_bytes=1000 * GB,
        )
        del cluster
        with pytest.raises(ClusterError, match="do not match"):
            ElasticCluster.recover(partitioner, 1000 * GB, storage)

    def test_recover_missing_root_is_typed(self, tmp_path):
        partitioner = make_partitioner(
            "hilbert_curve", [0], grid=GRID,
            node_capacity_bytes=1000 * GB,
        )
        storage = TieredStorage(root=str(tmp_path / "nothing"))
        with pytest.raises(ClusterError, match="does not exist"):
            ElasticCluster.recover(partitioner, 1000 * GB, storage)

    def test_torn_write_fails_loudly_after_restart(self, tmp_path):
        """A truncated segment behind a live manifest entry is corruption.

        Models a crash that tore a segment file mid-``put_many`` while
        the manifest still references it: recovery itself succeeds
        (manifests load lazily), but faulting the torn chunk raises
        ``SegmentCorruptError`` instead of returning garbage cells.
        """
        cluster, storage = _loaded(tmp_path)
        victim_node = cluster.nodes[0]
        victim_ref = victim_node.store.refs()[0]
        seg = victim_node.store.tier.segments
        path = os.path.join(seg.root, seg._entries[victim_ref].file)
        del cluster
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 3])

        revived = _recovered_from_dirs_over(storage, [0, 1, 2])
        with pytest.raises(SegmentCorruptError, match="torn write"):
            revived.chunk_data(victim_ref).payload_parts()
        # the failure left the tier auditable and other chunks readable
        revived.nodes[0].store.tier.check()
        for ref in revived.nodes[1].store.refs():
            revived.chunk_data(ref).payload_parts()


def _recovered_from_dirs(storage):
    return _recovered_from_dirs_over(storage, [0, 1, 2])


def _recovered_from_dirs_over(storage, node_ids):
    partitioner = make_partitioner(
        "hilbert_curve", node_ids, grid=GRID,
        node_capacity_bytes=1000 * GB,
    )
    return ElasticCluster.recover(partitioner, 1000 * GB, storage)


def _suite_values(results):
    """The placement- and payload-determined face of a suite pass."""
    return [
        (r.name, r.category, repr(r.value),
         round(r.network_bytes, 6), round(r.scanned_bytes, 6))
        for r in results
    ]


WORKLOADS = {
    "modis": lambda: ModisWorkload(
        n_cycles=2, cells_per_band_per_cycle=250, seed=13
    ),
    "ais": lambda: AisWorkload(
        n_cycles=2, ships=40, broadcasts_per_ship=6, seed=13
    ),
}


class TestOutOfCoreAcceptance:
    """§ISSUE acceptance: out-of-core runs are oracle-identical and
    restartable."""

    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    def test_suite_parity_and_restart(self, tmp_path, workload_name):
        budget = 1.0  # bytes — total modeled data is >> 4x this
        storage = TieredStorage(
            root=str(tmp_path / "tiers"), memory_budget_bytes=budget,
        )
        workload = WORKLOADS[workload_name]()
        tiered = ExperimentRunner(
            workload,
            RunConfig(partitioner="hilbert_curve", storage=storage),
        )
        tiered.run()
        tiered.cluster.check_consistency()
        assert tiered.cluster.total_bytes >= 4 * budget
        suite = suite_for(workload)
        cycle = workload.n_cycles
        tiered_values = _suite_values(
            run_suite(suite, tiered.cluster.session(), cycle)
        )

        # an untiered twin answers byte-identically
        oracle_workload = WORKLOADS[workload_name]()
        oracle = ExperimentRunner(
            oracle_workload, RunConfig(partitioner="hilbert_curve")
        )
        oracle.run()
        oracle_values = _suite_values(
            run_suite(
                suite_for(oracle_workload), oracle.cluster.session(), cycle
            )
        )
        assert tiered_values == oracle_values

        # simulated restart: only the directories survive
        node_ids = list(tiered.cluster.node_ids)
        capacity = tiered.cluster.node_capacity_bytes
        spatial = workload.spatial_dims()
        del tiered
        partitioner = make_partitioner(
            "hilbert_curve", node_ids, grid=workload.grid_box(),
            node_capacity_bytes=capacity,
            spatial_dims=spatial if spatial else None,
        )
        revived = ElasticCluster.recover(partitioner, capacity, storage)
        revived.check_consistency()
        revived_values = _suite_values(
            run_suite(suite, revived.session(), cycle)
        )
        assert revived_values == tiered_values
        revived.check_consistency()
