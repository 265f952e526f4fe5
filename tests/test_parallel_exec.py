"""Process-parallel backend ≡ the in-process engine, byte for byte.

The ``REPRO_EXEC=process`` backend runs each node as a real worker
process with shared-memory payload transport.  The contract mirrors the
tiered store's against an untiered twin: identical
*bytes*, not just close answers — gathers concatenate the same chunk
payloads in the same order, and the shuffle exchanges share their
per-partition kernels with the serial twins so float reductions
reassociate identically.  Worker loss is a typed, recoverable failure
(:class:`~repro.errors.WorkerFailedError`), never a hang: every join
and every reply wait is timeout-bounded.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.config import parity
from repro.core import ALL_PARTITIONERS
from repro.core.catalog import concat_payload
from repro.errors import WorkerFailedError
from repro.harness import ExperimentRunner, RunConfig
from repro.parallel import ProcessEngine
from repro.query import ais_suite, modis_suite, operators as ops
from repro.query.executor import run_suite
from repro.workloads import AisWorkload, ModisWorkload
from tests.oracles.catalog import concat_payload_per_chunk
from tests.oracles.parallel import (
    serial_equi_join,
    serial_kmeans,
    serial_knn_mean,
)


@pytest.fixture(scope="module")
def modis():
    return ModisWorkload(
        n_cycles=4, cells_per_band_per_cycle=300, target_total_gb=300.0
    )


@pytest.fixture(scope="module")
def ais():
    return AisWorkload(
        n_cycles=4, ships=100, broadcasts_per_ship=8,
        target_total_gb=240.0,
    )


def _exact(value):
    """Canonicalize a query answer WITHOUT rounding (bytes must match)."""
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return tuple(_exact(v) for v in value)
    return value


def _suite_answers(suite, cluster, cycle, backend):
    with parity(exec=backend):
        results = run_suite(suite, cluster, cycle)
    return {r.name: _exact(r.value) for r in results}


class TestSuiteParity:
    """Full query suites agree bit-for-bit across backends, per scheme."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_modis_suite_byte_identical(self, name, modis):
        runner = ExperimentRunner(modis, RunConfig(partitioner=name))
        runner.run()
        cluster = runner.cluster
        try:
            suite = modis_suite(modis)
            base = _suite_answers(
                suite, cluster, modis.n_cycles, "inprocess"
            )
            proc = _suite_answers(
                suite, cluster, modis.n_cycles, "process"
            )
            assert base == proc
            assert cluster._exec_engine is not None
            assert cluster._exec_engine.stale_fallbacks == 0
        finally:
            cluster.close_exec()

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_ais_suite_byte_identical(self, name, ais):
        runner = ExperimentRunner(ais, RunConfig(partitioner=name))
        runner.run()
        cluster = runner.cluster
        try:
            suite = ais_suite(ais)
            base = _suite_answers(
                suite, cluster, ais.n_cycles, "inprocess"
            )
            proc = _suite_answers(
                suite, cluster, ais.n_cycles, "process"
            )
            assert base == proc
        finally:
            cluster.close_exec()

    def test_session_payloads_byte_identical(self, modis):
        """Whole-array and region reads return identical bytes."""
        runner = ExperimentRunner(
            modis, RunConfig(partitioner="kd_tree")
        )
        runner.run()
        cluster = runner.cluster
        region = modis.amazon_box(modis.n_cycles)
        try:
            with parity(exec="inprocess"):
                s = cluster.session()
                base_all = s.array_payload("band1", ["radiance"], 3)
                base_reg = s.payload_in_region(
                    "band1", region, ["radiance"], 3
                )
            with parity(exec="process"):
                s = cluster.session()
                proc_all = s.array_payload("band1", ["radiance"], 3)
                proc_reg = s.payload_in_region(
                    "band1", region, ["radiance"], 3
                )
            for base, proc in ((base_all, proc_all),
                               (base_reg, proc_reg)):
                assert base[0].tobytes() == proc[0].tobytes()
                assert base[0].dtype == proc[0].dtype
                assert set(base[1]) == set(proc[1])
                for attr, col in base[1].items():
                    assert col.tobytes() == proc[1][attr].tobytes()
        finally:
            cluster.close_exec()

    def test_stale_pin_falls_back_locally(self, modis):
        """A pin predating the engine's sync answers from the snapshot."""
        runner = ExperimentRunner(
            modis, RunConfig(partitioner="round_robin")
        )
        runner.run()
        cluster = runner.cluster
        try:
            with parity(exec="process"):
                session = cluster.session()
                before = session.array_payload(
                    "band1", ["radiance"], 3
                )
                # A content mutation bumps the epoch; the engine's next
                # sync reloads the workers with post-mutation payloads,
                # so the old pin no longer matches worker residency.
                pairs = cluster.session().chunks_of_array("band1")
                cluster.remove_chunks([pairs[0][0].ref()])
                engine = cluster.exec_backend()  # re-syncs to new epoch
                stale_before = engine.stale_fallbacks
                again = session.array_payload("band1", ["radiance"], 3)
                assert engine.stale_fallbacks > stale_before
            assert before[0].tobytes() == again[0].tobytes()
            assert (
                before[1]["radiance"].tobytes()
                == again[1]["radiance"].tobytes()
            )
        finally:
            cluster.close_exec()


class TestGatherOverExtents:
    """``gather_pairs`` ≡ the local run gather on arena-extent chunks."""

    def test_worker_gather_equals_local_gather(self, ais):
        runner = ExperimentRunner(
            ais, RunConfig(partitioner="hilbert_curve", run_queries=False)
        )
        runner.run()
        cluster = runner.cluster
        attrs = ["speed", "ship_id", "receiver_id"]
        try:
            with parity(exec="process"):
                engine = cluster.exec_backend()
                session = cluster.session()
                pairs = list(session.chunks_of_array("broadcast"))
                # every ingested chunk still is an extent of its
                # quarter's arena: sync shipped views, not copies
                assert len(pairs) > 100
                assert all(c.extent is not None for c, _ in pairs)
                assert len({id(c.extent[0]) for c, _ in pairs}) == 4
                for subset in (pairs, pairs[5:60:3], pairs[::-1][:40]):
                    chunks = [c for c, _ in subset]
                    got = engine.gather_pairs(subset, attrs, 3)
                    local = concat_payload(chunks, attrs, 3)
                    oracle = concat_payload_per_chunk(chunks, attrs, 3)
                    for want in (local, oracle):
                        assert got[0].dtype == want[0].dtype
                        assert got[0].tobytes() == want[0].tobytes()
                        for attr in attrs:
                            assert got[1][attr].dtype == want[1][attr].dtype
                            assert (
                                got[1][attr].tolist()
                                == want[1][attr].tolist()
                            )
                assert engine.stale_fallbacks == 0
        finally:
            cluster.close_exec()


class TestExchangeParity:
    """Shuffle exchanges: process ≡ serial twin exactly, ops ≈ twin."""

    @pytest.fixture(scope="class")
    def engine(self):
        with ProcessEngine() as eng:
            yield eng

    @pytest.fixture(scope="class")
    def parts(self):
        rng = np.random.default_rng(7)
        return [
            (n, rng.random((400 + 37 * n, 2))) for n in (0, 1, 2)
        ]

    def test_kmeans_process_equals_twin(self, engine, parts):
        got = engine.partitioned_kmeans(
            parts, k=4, iterations=5, seed=11
        )
        want = serial_kmeans(parts, k=4, iterations=5, seed=11)
        assert got.tobytes() == want.tobytes()

    def test_kmeans_close_to_monolithic_ops(self, parts):
        # The partial/combine split reassociates sums vs ops.kmeans,
        # so this cross-check is allclose, not byte equality.
        merged = np.concatenate([p for _, p in parts], axis=0)
        twin = serial_kmeans(parts, k=3, iterations=6, seed=5)
        centroids, _ = ops.kmeans(merged, 3, iterations=6, seed=5)
        assert np.allclose(
            np.sort(twin, axis=0), np.sort(centroids, axis=0),
            rtol=1e-9, atol=1e-9,
        )

    def test_knn_process_equals_twin(self, engine, parts):
        rng = np.random.default_rng(13)
        queries = rng.random((50, 2))
        got = engine.partitioned_knn_mean(parts, queries, k=5)
        want = serial_knn_mean(parts, queries, k=5)
        assert got.tobytes() == want.tobytes()

    def test_knn_close_to_monolithic_ops(self, parts):
        rng = np.random.default_rng(13)
        queries = rng.random((50, 2))
        merged = np.concatenate([p for _, p in parts], axis=0)
        twin = serial_knn_mean(parts, queries, k=5)
        mono = ops.knn_mean_distance(merged, queries, 5)
        assert np.allclose(twin, mono, rtol=1e-9, equal_nan=True)

    def test_join_process_equals_twin_and_intersect(self, engine):
        rng = np.random.default_rng(29)
        parts_a = [
            (n, rng.integers(0, 5000, size=800)) for n in (0, 1)
        ]
        parts_b = [
            (n, rng.integers(0, 5000, size=900)) for n in (1, 2)
        ]
        got = engine.partitioned_equi_join(parts_a, parts_b)
        want = serial_equi_join(parts_a, parts_b)
        assert got.tobytes() == want.tobytes()
        full = np.intersect1d(
            np.concatenate([a for _, a in parts_a]),
            np.concatenate([b for _, b in parts_b]),
        )
        assert np.array_equal(got, full)


class TestTransportRoundtrips:
    def test_blob_roundtrip_raw_and_inline(self):
        rng = np.random.default_rng(3)
        with ProcessEngine() as eng:
            eng.ensure_workers((0,))
            big = rng.random(100_000)  # > inline cutoff -> one segment
            eng.store_blob(0, "big", big)
            assert eng.fetch_blob(0, "big").tobytes() == big.tobytes()
            small = np.arange(10, dtype=np.int64)  # rides the pipe
            eng.store_blob(0, "small", small)
            fetched = eng.fetch_blob(0, "small")
            assert fetched.tobytes() == small.tobytes()
            assert fetched.dtype == small.dtype

    def test_request_log_records_bytes_and_seconds(self):
        with ProcessEngine() as eng:
            eng.ensure_workers((0,))
            eng.store_blob(0, "x", np.zeros(64))
            eng.fetch_blob(0, "x")
            log = eng.drain_request_log()
        ops_seen = {entry["op"] for entry in log}
        assert {"store_blob", "fetch_blob"} <= ops_seen
        for entry in log:
            assert entry["seconds"] >= 0.0
            assert entry["bytes"] >= 0
        assert eng.drain_request_log() == []  # drained


class TestWorkerFailure:
    def test_killed_worker_raises_typed_error_with_node_id(self):
        with ProcessEngine() as eng:
            eng.ensure_workers((0, 1))
            pids = eng.worker_pids()
            os.kill(pids[1], signal.SIGKILL)
            deadline = time.time() + 5.0
            while time.time() < deadline:
                try:
                    os.kill(pids[1], 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            with pytest.raises(WorkerFailedError) as err:
                eng.fetch_blob(1, "anything")
            assert err.value.node_id == 1
            # the surviving worker still answers
            eng.store_blob(0, "x", np.ones(8))
            assert eng.fetch_blob(0, "x").tobytes() == np.ones(
                8
            ).tobytes()

    def test_hung_worker_times_out_with_typed_error(self):
        with ProcessEngine(request_timeout=0.3) as eng:
            eng.ensure_workers((0,))
            started = time.perf_counter()
            with pytest.raises(WorkerFailedError) as err:
                eng._request(0, {"op": "sleep", "seconds": 30.0})
            elapsed = time.perf_counter() - started
            assert err.value.node_id == 0
            assert elapsed < 10.0  # bounded, not a 30 s hang

    def test_workers_respawn_after_failure(self):
        with ProcessEngine(request_timeout=0.3) as eng:
            eng.ensure_workers((0,))
            first_pid = eng.worker_pids()[0]
            with pytest.raises(WorkerFailedError):
                eng._request(0, {"op": "sleep", "seconds": 30.0})
            eng.ensure_workers((0,))
            assert eng.worker_pids()[0] != first_pid
            eng.store_blob(0, "x", np.arange(4.0))
            assert eng.fetch_blob(0, "x").tolist() == [0, 1, 2, 3]

    def test_shutdown_is_idempotent_and_reaps(self):
        eng = ProcessEngine()
        eng.ensure_workers((0, 1))
        pids = eng.worker_pids()
        eng.shutdown()
        eng.shutdown()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            alive = []
            for pid in pids.values():
                try:
                    os.kill(pid, 0)
                    alive.append(pid)
                except ProcessLookupError:
                    pass
            if not alive:
                break
            time.sleep(0.01)
        assert not alive
