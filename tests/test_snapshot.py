"""Snapshot-read API: epoch-pinned sessions under concurrent mutation.

Covers the ISSUE-7 MVCC-lite contract:

* session semantics — first touch pins, reads answer from the pin while
  the live cluster moves on, consistent multi-array ``pin``, ``release``
  re-pins, and the raw-cluster deprecation shim warns while ``run_suite``
  stays a sanctioned (warning-free) entry point;
* property test — hypothesis interleavings of ingest / expiry /
  scale-out rebalance / catalog compaction across **all** registered
  partitioning schemes assert that every pinned read (whole-array
  payloads, scan columns, placement, region payloads) stays
  byte-identical to the quiescent reads captured at pin time;
* threaded byte-identity — reader sessions racing a live mutator thread
  never observe a changed byte, and the payload LRU stays consistent
  (hits + misses add up, the bound holds) under concurrent hammering;
* parity config — the two backend switches of ``repro.config``: env
  defaults, a typo in either variable raising instead of selecting the
  default, ``parity(...)`` overrides, nesting, validation, and the four
  retired switches staying gone;
* concurrent executor — a mixed batch under churn completes with zero
  failures and matches the sequential ``run_suite`` answers on a
  quiescent cluster.
"""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkData, parse_schema
from repro.cluster import (
    ClusterSession,
    CostParameters,
    ElasticCluster,
    GB,
    SnapshotRaceError,
)
from repro.config import ParityConfig, parity
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.errors import ConfigError

from tests.oracles.cluster import (
    array_payload_scan,
    chunks_of_array_scan,
    payload_in_region_scan,
    placement_of_array_scan,
)
from tests.oracles.cost import array_scan_columns_scan

GRID = Box((0, 0, 0), (10_000, 16, 16))
SCHEMAS = {
    "A": parse_schema("A<v:double>[t=0:*,3, x=0:15,4, y=0:15,2]"),
    "B": parse_schema("B<v:double>[t=0:*,1, x=0:15,1, y=0:15,1]"),
}
KEY_HI = {"A": (8, 4, 8), "B": (8, 16, 16)}
REGIONS = (
    Box((0, 0, 0), (100, 16, 16)),
    Box((0, 2, 3), (9, 13, 12)),
    Box((2, -5, -5), (4, 40, 2)),
)


def _chunk(array, key, size=10.0, value=1.0):
    schema = SCHEMAS[array]
    cell = tuple(
        d.chunk_low(k) for d, k in zip(schema.dimensions, key)
    )
    return ChunkData(
        schema, tuple(key),
        np.array([cell], dtype=np.int64),
        {"v": np.array([float(value)])},
        size_bytes=float(size),
    )


def _make_cluster(name="round_robin", nodes=2):
    partitioner = make_partitioner(
        name, list(range(nodes)), grid=GRID,
        node_capacity_bytes=1000 * GB,
    )
    return ElasticCluster(
        partitioner, 1000 * GB, costs=CostParameters(),
        ledger_compact_ratio=0.3,
    )


def _random_key(rng, array):
    return tuple(int(rng.integers(0, hi)) for hi in KEY_HI[array])


class _StoreWalk:
    """The quiescent oracle: the session's reads, from store walks.

    Every read re-walks the node stores (``tests/oracles``), so it
    shares no code, snapshot or cache with the catalog a session pins.
    """

    def __init__(self, cluster):
        self.cluster = cluster

    def array_payload(self, array, attrs, ndim):
        return array_payload_scan(self.cluster, array, attrs, ndim)

    def array_scan_columns(self, array):
        return (*array_scan_columns_scan(self.cluster, array), None)

    def placement_of_array(self, array):
        return placement_of_array_scan(self.cluster, array)

    def chunks_of_array(self, array):
        return chunks_of_array_scan(self.cluster, array)

    def payload_in_region(self, array, region, attrs, ndim):
        return payload_in_region_scan(
            self.cluster, array, region, attrs, ndim
        )


def _fingerprint(surface, arrays=("A", "B")):
    """Byte-level digest of every read the session API exposes.

    Works against a session or a :class:`_StoreWalk` oracle.
    """
    fp = []
    for array in arrays:
        coords, values = surface.array_payload(array, ["v"], 3)
        fp.append((coords.tobytes(), values["v"].tobytes()))
        sizes, nodes, _schema = surface.array_scan_columns(array)
        fp.append((sizes.tobytes(), nodes.tobytes()))
        fp.append(tuple(sorted(surface.placement_of_array(array).items())))
        fp.append(
            tuple(
                (c.ref(), n)
                for c, n in surface.chunks_of_array(array)
            )
        )
        for region in REGIONS:
            rc, rv = surface.payload_in_region(array, region, ["v"], 3)
            fp.append((rc.tobytes(), rv["v"].tobytes()))
    return fp


def _drop_cached_payloads(session):
    """Force re-derivation so comparisons exercise real snapshot reads."""
    catalog = session.cluster.catalog
    with catalog._payload_lock:
        catalog._payload_cache.clear()


class TestSessionSemantics:
    def _loaded(self):
        cluster = _make_cluster()
        rng = np.random.default_rng(3)
        batch = {}
        for _ in range(24):
            array = "AB"[int(rng.integers(0, 2))]
            key = _random_key(rng, array)
            batch[(array, key)] = _chunk(array, key)
        cluster.ingest(list(batch.values()))
        return cluster, batch

    def test_first_touch_pins_and_survives_mutation(self):
        cluster, batch = self._loaded()
        session = cluster.session()
        before = _fingerprint(session)
        refs = [c.ref() for c in list(batch.values())[:6]]
        cluster.remove_chunks(refs)
        cluster.ingest([_chunk("A", (7, 3, 7), value=9.0)])
        cluster.scale_out(1)
        _drop_cached_payloads(session)
        assert _fingerprint(session) == before
        # a fresh session sees the post-mutation state
        fresh = _fingerprint(cluster.session())
        assert fresh != before

    def test_session_matches_quiescent_cluster_reads(self):
        cluster, _ = self._loaded()
        assert _fingerprint(cluster.session()) == _fingerprint(
            _StoreWalk(cluster)
        )

    def test_pin_is_consistent_and_release_repins(self):
        cluster, batch = self._loaded()
        session = cluster.session().pin(["A", "B"])
        pinned = session.pinned
        assert set(pinned) == {"A", "B"}
        assert len(set(pinned.values())) == 1  # one global epoch
        a_ref = next(
            c.ref() for (arr, _k), c in batch.items() if arr == "A"
        )
        cluster.remove_chunks([a_ref])
        assert session.pinned == pinned  # pins don't move
        session.release("A")
        assert set(session.pinned) == {"B"}
        assert session.snapshot_of("A").epoch > pinned["A"]

    def test_payload_epoch_is_pinned_not_live(self):
        cluster, batch = self._loaded()
        session = cluster.session()
        cursor = session.payload_epoch_of("A")
        cluster.ingest([_chunk("A", (7, 3, 7), value=2.5)])
        assert session.payload_epoch_of("A") == cursor
        assert cluster.catalog.payload_epoch_of("A") > cursor

    def test_run_suite_is_sanctioned_for_raw_clusters(self):
        from repro.query.executor import run_suite

        cluster, _ = self._loaded()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_suite([], cluster, 1) == []

    def test_query_run_accepts_both_surfaces(self):
        from repro.query.result import QueryResult
        from repro.query.executor import Query

        class Probe(Query):
            name = "probe"
            category = "spj"

            def _run(self, cluster, cycle):
                assert isinstance(cluster, ClusterSession)
                return QueryResult(
                    name=self.name, category=self.category,
                    value=len(cluster.chunks_of_array("A")),
                    elapsed_seconds=1.0,
                )

        cluster, _ = self._loaded()
        session = cluster.session()
        assert session.session() is session
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            via_session = Probe().run(session, 1)
            via_cluster = Probe().run(cluster, 1)
        assert via_session.value == via_cluster.value

    def test_scale_out_after_open_is_a_snapshot_race(self):
        """A post-open scale-out must surface as a retryable race.

        The session's node universe is frozen at creation (cost
        accumulators intern it once); a later first-touch whose
        snapshot places chunks on a newer node must raise
        ``SnapshotRaceError`` instead of failing deep inside a cost
        charge with an unknown-node ``QueryError``.
        """
        cluster, _ = self._loaded()
        session = cluster.session()
        assert session.node_ids == (0, 1)
        cluster.scale_out(1)
        # frozen: the live cluster grew, the session did not
        assert session.node_ids == (0, 1)
        assert cluster.node_ids == (0, 1, 2)
        moved = [
            array for array in ("A", "B")
            if any(
                node not in (0, 1)
                for _c, node in cluster.session().chunks_of_array(array)
            )
        ]
        assert moved, "rebalance should land chunks on the new node"
        with pytest.raises(SnapshotRaceError):
            session.snapshot_of(moved[0])
        # a fresh session carries the grown universe and admits it
        fresh = cluster.session()
        assert fresh.node_ids == (0, 1, 2)
        _fingerprint(fresh)


class TestPinnedReadsAcrossSchemes:
    """Hypothesis: pinned reads == quiescent reads, every scheme."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        script=st.lists(
            st.sampled_from(["ingest", "expire", "grow", "compact"]),
            min_size=3, max_size=7,
        ),
        pin_after=st.integers(0, 2),
    )
    def test_pinned_reads_byte_identical(
        self, name, seed, script, pin_after
    ):
        rng = np.random.default_rng(seed)
        cluster = _make_cluster(name)
        live = {}

        def apply(op):
            if op == "ingest" or not live:
                batch = {}
                for _ in range(8):
                    array = "AB"[int(rng.integers(0, 2))]
                    key = _random_key(rng, array)
                    batch[(array, key)] = _chunk(
                        array, key, float(rng.lognormal(2, 1)),
                        float(rng.normal()),
                    )
                cluster.ingest(list(batch.values()))
                for (array, key), chunk in batch.items():
                    live[(array, key)] = chunk.ref()
            elif op == "expire":
                n = min(len(live), int(rng.integers(1, 6)))
                picks = [
                    list(live)[i]
                    for i in rng.choice(len(live), n, replace=False)
                ]
                cluster.remove_chunks([live.pop(p) for p in picks])
            elif op == "grow":
                cluster.scale_out(1)
            elif op == "compact":
                cluster.catalog.compact()

        apply("ingest")  # never pin an empty cluster
        for op in script[:pin_after]:
            apply(op)

        session = cluster.session().pin(["A", "B"])
        baseline = _fingerprint(session)
        # pinned reads == quiescent truth at capture time
        assert baseline == _fingerprint(_StoreWalk(cluster))

        for op in script[pin_after:]:
            apply(op)
            _drop_cached_payloads(session)
            assert _fingerprint(session) == baseline
        cluster.check_consistency()


class TestThreadedSnapshotReads:
    def test_readers_never_observe_mutation(self):
        cluster = _make_cluster(nodes=3)
        rng = np.random.default_rng(17)
        live = {}

        def ingest_batch():
            batch = {}
            for _ in range(10):
                array = "AB"[int(rng.integers(0, 2))]
                key = _random_key(rng, array)
                batch[(array, key)] = _chunk(
                    array, key, float(rng.lognormal(2, 1)),
                    float(rng.normal()),
                )
            cluster.ingest(list(batch.values()))
            for k, chunk in batch.items():
                live[k] = chunk.ref()

        ingest_batch()
        stop = threading.Event()
        mutator_error = []

        def mutate():
            try:
                for step in range(60):
                    if stop.is_set():
                        break
                    ingest_batch()
                    if step % 3 == 2 and len(live) > 12:
                        picks = [list(live)[i] for i in range(6)]
                        cluster.remove_chunks(
                            [live.pop(p) for p in picks]
                        )
                    if step % 10 == 9:
                        cluster.scale_out(1)
            except Exception as exc:  # pragma: no cover - failure path
                mutator_error.append(exc)

        violations = []

        def pinned_session():
            # A scale-out landing between a session's creation and its
            # pin is a SnapshotRaceError by contract, not a violation:
            # re-run on a fresh session, as the concurrent executor
            # does (unretried, this test went red about 1 run in 60).
            for _ in range(16):
                try:
                    return cluster.session().pin(["A", "B"])
                except SnapshotRaceError:
                    continue
            raise AssertionError("could not pin in 16 fresh sessions")

        def read(worker):
            try:
                for _ in range(12):
                    session = pinned_session()
                    first = _fingerprint(session)
                    _drop_cached_payloads(session)
                    if _fingerprint(session) != first:
                        violations.append(worker)
            except Exception as exc:  # pragma: no cover - failure path
                violations.append(exc)

        mutator = threading.Thread(target=mutate)
        readers = [
            threading.Thread(target=read, args=(i,)) for i in range(4)
        ]
        mutator.start()
        for r in readers:
            r.start()
        for r in readers:
            r.join()
        stop.set()
        mutator.join()
        assert not mutator_error
        assert not violations
        cluster.check_consistency()

    def test_spill_churn_readers_stay_byte_stable(self, tmp_path):
        """Reader sessions racing the LRU's evict/load churn (ISSUE-8).

        A tiny per-node memory budget keeps the spill tier thrashing —
        every snapshot read faults cold chunks back in while a mutator
        thread's puts and removals evict and retire handles under the
        same tier locks.  Pinned reads must stay byte-stable throughout
        (retired handles are materialized on exit, so even a chunk
        removed mid-session answers from its pinned snapshot), and the
        LRU must come out of the storm with its accounting green.
        """
        from repro import config
        from repro.cluster import TieredStorage

        if config.mode("storage") == "memory":
            pytest.skip(
                "spill churn needs the disk tier "
                "REPRO_STORAGE=memory disables"
            )

        partitioner = make_partitioner(
            "round_robin", [0, 1], grid=GRID,
            node_capacity_bytes=1000 * GB,
        )
        cluster = ElasticCluster(
            partitioner, 1000 * GB, costs=CostParameters(),
            ledger_compact_ratio=0.3,
            storage=TieredStorage(
                root=str(tmp_path / "tiers"),
                memory_budget_bytes=25.0,
            ),
        )
        rng = np.random.default_rng(23)
        live = {}

        def ingest_batch():
            batch = {}
            for _ in range(10):
                array = "AB"[int(rng.integers(0, 2))]
                key = _random_key(rng, array)
                batch[(array, key)] = _chunk(
                    array, key, float(rng.lognormal(2, 1)),
                    float(rng.normal()),
                )
            cluster.ingest(list(batch.values()))
            for k, chunk in batch.items():
                live[k] = chunk.ref()

        ingest_batch()
        stop = threading.Event()
        mutator_error = []

        def mutate():
            try:
                for step in range(40):
                    if stop.is_set():
                        break
                    ingest_batch()
                    if step % 2 == 1 and len(live) > 12:
                        picks = [list(live)[i] for i in range(6)]
                        cluster.remove_chunks(
                            [live.pop(p) for p in picks]
                        )
            except Exception as exc:  # pragma: no cover - failure path
                mutator_error.append(exc)

        violations = []

        def read(worker):
            try:
                for _ in range(10):
                    session = cluster.session().pin(["A", "B"])
                    first = _fingerprint(session)
                    _drop_cached_payloads(session)
                    if _fingerprint(session) != first:
                        violations.append(worker)
            except Exception as exc:  # pragma: no cover - failure path
                violations.append(exc)

        mutator = threading.Thread(target=mutate)
        readers = [
            threading.Thread(target=read, args=(i,)) for i in range(4)
        ]
        mutator.start()
        for r in readers:
            r.start()
        for r in readers:
            r.join()
        stop.set()
        mutator.join()
        assert not mutator_error
        assert not violations
        cluster.check_consistency()  # tier audits included
        stats = cluster.storage_stats()
        assert sum(s["fault_count"] for s in stats.values()) > 0
        assert sum(s["eviction_count"] for s in stats.values()) > 0
        for s in stats.values():
            assert s["resident_bytes"] <= 25.0 + 1e-6

    def test_payload_cache_concurrent_hits_and_evictions(self):
        cluster = _make_cluster()
        catalog = cluster.catalog
        n_arrays = catalog.PAYLOAD_CACHE_MAX + 8
        schema_t = "Z{i}<v:double>[t=0:*,1, x=0:15,1, y=0:15,1]"
        chunks = []
        for i in range(n_arrays):
            schema = parse_schema(schema_t.format(i=i))
            chunks.append(
                ChunkData(
                    schema, (i % 4, 0, 0),
                    np.array([(i % 4, 0, 0)], dtype=np.int64),
                    {"v": np.array([float(i)])},
                    size_bytes=10.0,
                )
            )
        cluster.ingest(chunks)
        errors = []

        def hammer(worker):
            try:
                rng = np.random.default_rng(worker)
                for _ in range(200):
                    i = int(rng.integers(0, n_arrays))
                    coords, values = cluster.session().array_payload(
                        f"Z{i}", ["v"], 3
                    )
                    assert values["v"][0] == float(i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = catalog.payload_hits + catalog.payload_misses
        assert total >= 8 * 200  # every read counted exactly once
        assert catalog.payload_hits > 0  # repeats hit
        assert catalog.payload_misses >= n_arrays  # cold + re-fetches
        assert len(catalog._payload_cache) <= catalog.PAYLOAD_CACHE_MAX


class TestParityConfig:
    def test_defaults_and_current(self, monkeypatch):
        from repro import config

        monkeypatch.delenv("REPRO_STORAGE", raising=False)
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        assert ParityConfig.from_env() == ParityConfig(
            storage="tier", exec="inprocess"
        )
        assert config.current() == ParityConfig.from_env()

    def test_env_honored(self, monkeypatch):
        from repro import config

        monkeypatch.setenv("REPRO_STORAGE", " Memory ")
        monkeypatch.setenv("REPRO_EXEC", "process")
        assert config.mode("storage") == "memory"
        assert config.mode("exec") == "process"
        assert ParityConfig.from_env().storage == "memory"

    @pytest.mark.parametrize(
        "variable, field, typo",
        [
            ("REPRO_EXEC", "exec", "proces"),
            ("REPRO_STORAGE", "storage", "teir"),
        ],
    )
    def test_env_typo_is_an_error_not_the_default(
        self, monkeypatch, variable, field, typo
    ):
        from repro import config

        monkeypatch.setenv(variable, typo)
        for resolve in (
            lambda: config.mode(field),
            ParityConfig.from_env,
            config.current,
        ):
            with pytest.raises(ConfigError) as caught:
                resolve()
            message = str(caught.value)
            assert variable in message and typo in message
            assert all(
                allowed in message
                for allowed in config.PARITY_FIELDS[field][1]
            )
        # an override in force never consults the environment
        with parity(**{field: config.PARITY_FIELDS[field][1][0]}):
            assert config.mode(field) == config.PARITY_FIELDS[field][1][0]

    def test_override_nesting_and_restore(self, monkeypatch):
        from repro import config

        monkeypatch.delenv("REPRO_STORAGE", raising=False)
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        with parity(storage="memory", exec="process"):
            assert config.mode("storage") == "memory"
            assert config.mode("exec") == "process"
            with parity(storage="tier"):
                assert config.mode("storage") == "tier"
                assert config.mode("exec") == "process"  # outer survives
            assert config.mode("storage") == "memory"
        assert config.mode("storage") == "tier"
        assert config.mode("exec") == "inprocess"

    def test_validation(self):
        with pytest.raises(ConfigError):
            with parity(storage="nonsense"):
                pass  # pragma: no cover
        with pytest.raises(ConfigError):
            with parity(wat="scan"):
                pass  # pragma: no cover
        with pytest.raises(ConfigError):
            ParityConfig(storage="tier", exec="sideways")

    def test_retired_switches_are_gone(self):
        from repro import config

        assert set(config.PARITY_FIELDS) == {"storage", "exec"}
        for retired in (
            {"cost": "scalar"},
            {"ledger": "dict"},
            {"catalog": "scan"},
            {"incr": "full"},
        ):
            with pytest.raises(ConfigError):
                with parity(**retired):
                    pass  # pragma: no cover
            with pytest.raises(ConfigError):
                config.mode(next(iter(retired)))


class TestConcurrentExecutor:
    def test_batch_matches_sequential_answers(self):
        from repro.query import ConcurrentExecutor, modis_suite
        from repro.query.executor import run_suite
        from repro.workloads import ModisWorkload

        wl = ModisWorkload(n_cycles=3, cells_per_band_per_cycle=200)
        part = make_partitioner(
            "kd_tree", nodes=[0, 1], grid=wl.grid_box(),
            spatial_dims=wl.spatial_dims(),
        )
        cluster = ElasticCluster(part, node_capacity_bytes=500 * GB)
        for c in range(1, 4):
            cluster.ingest(wl.batch(c).chunks)

        queries = list(modis_suite(wl))
        sequential = run_suite(queries, cluster.session(), 3)
        outcomes = ConcurrentExecutor(cluster, max_workers=4).run_batch(
            queries, 3
        )
        assert [o.name for o in outcomes] == [r.name for r in sequential]
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        for outcome, ref in zip(outcomes, sequential):
            assert outcome.result.value == ref.value

    def test_batch_under_churn_has_zero_failures(self):
        from repro.query import ConcurrentExecutor, modis_suite
        from repro.workloads import ModisWorkload

        wl = ModisWorkload(n_cycles=8, cells_per_band_per_cycle=150)
        part = make_partitioner(
            "kd_tree", nodes=[0, 1], grid=wl.grid_box(),
            spatial_dims=wl.spatial_dims(),
        )
        cluster = ElasticCluster(part, node_capacity_bytes=500 * GB)
        for c in range(1, 4):
            cluster.ingest(wl.batch(c).chunks)

        def churn():
            for c in range(4, 9):
                cluster.ingest(wl.batch(c).chunks)

        mutator = threading.Thread(target=churn)
        mutator.start()
        outcomes = ConcurrentExecutor(cluster, max_workers=6).run_batch(
            list(modis_suite(wl)) * 4, 3
        )
        mutator.join()
        assert len(outcomes) == 24
        assert all(o.ok for o in outcomes)
        assert all(o.latency_s >= 0.0 for o in outcomes)
        cluster.check_consistency()

    def test_mid_query_scale_out_is_retried_on_fresh_session(self):
        """Deterministic replay of the node-universe race.

        The query forces a scale-out between its session's creation
        (where the cost accumulator interns the node set) and its
        first pin, so attempt 1 pins placements on a node the session
        never saw.  The executor must absorb the resulting
        ``SnapshotRaceError`` and succeed on a fresh session whose
        universe includes the new node.
        """
        from repro.query import ConcurrentExecutor
        from repro.query.cost import accumulator_for
        from repro.query.executor import Query
        from repro.query.result import QueryResult

        cluster = _make_cluster()
        rng = np.random.default_rng(11)
        batch = {}
        while len(batch) < 18:
            key = _random_key(rng, "A")
            batch[key] = _chunk("A", key)
        cluster.ingest(list(batch.values()))

        outer = cluster

        class NodeRace(Query):
            name = "node-race"
            category = "spj"
            fired = False

            def _run(self, session, cycle):
                acc = accumulator_for(session)
                if not NodeRace.fired:
                    NodeRace.fired = True
                    outer.scale_out(1)
                sizes, nodes, _schema = session.array_scan_columns(
                    "A"
                )
                acc.add(nodes, np.asarray(sizes, dtype=np.float64))
                return QueryResult(
                    name=self.name, category=self.category,
                    value=float(acc.max_seconds()),
                    elapsed_seconds=1.0,
                )

        (outcome,) = ConcurrentExecutor(
            cluster, max_workers=1
        ).run_batch([NodeRace()], 1)
        assert any(
            node not in (0, 1)
            for _c, node in cluster.session().chunks_of_array("A")
        ), "rebalance should land chunks on the new node"
        assert outcome.ok, outcome.error
        assert outcome.attempts == 2
