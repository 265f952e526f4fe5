"""Snapshot-read API: epoch-pinned sessions across live mutation.

Covers the ISSUE-7 MVCC-lite contract:

* session semantics — first touch pins, reads answer from the pin while
  the live cluster moves on, consistent multi-array ``pin``, ``release``
  re-pins, and the raw-cluster deprecation shim warns while ``run_suite``
  stays a sanctioned (warning-free) entry point;
* pinned reads (whole-array payloads, scan columns, placement, region
  payloads) stay byte-identical to the reads captured at pin time —
  under interleaved mutation on every scheme, a
  ``tests/test_cluster_machine.py`` invariant, here run on the pin and
  mutation rules alone;
* spill churn — on a thrashing disk tier, a session pinned before each
  ingest or expiry reads its baseline bytes after it, and the tier's
  accounting stays green;
* parity config — the one backend switch of ``repro.config``: env
  default, a typo in its variable raising instead of selecting the
  default, ``parity(...)`` overrides, nesting, validation, and the five
  retired switches staying gone, their old variables inert.
"""

import os
import warnings

import numpy as np
import pytest

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
from repro.query.cost import scan_columns

from tests.oracles.cluster import (
    array_payload_scan,
    chunks_of_array_scan,
    payload_in_region_scan,
    placement_of_array_scan,
)

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

    def placement_of_array(self, array):
        return placement_of_array_scan(self.cluster, array)

    def chunks_of_array(self, array):
        return chunks_of_array_scan(self.cluster, array)

    def payload_in_region(self, array, region, attrs, ndim):
        return payload_in_region_scan(
            self.cluster, array, region, attrs, ndim
        )


def _fingerprint(surface, arrays=("A", "B"), regions=REGIONS):
    """Byte-level digest of every read the session API exposes.

    Works against a session or a :class:`_StoreWalk` oracle.
    """
    fp = []
    for array in arrays:
        coords, values = surface.array_payload(array, ["v"], 3)
        fp.append((coords.tobytes(), values["v"].tobytes()))
        sizes, nodes = scan_columns(surface.chunks_of_array(array))
        fp.append((sizes.tobytes(), nodes.tobytes()))
        fp.append(tuple(sorted(surface.placement_of_array(array).items())))
        fp.append(
            tuple(
                (c.ref(), n)
                for c, n in surface.chunks_of_array(array)
            )
        )
        for region in regions:
            rc, rv = surface.payload_in_region(array, region, ["v"], 3)
            fp.append((rc.tobytes(), rv["v"].tobytes()))
    return fp


def _drop_cached_payloads(session):
    """Force re-derivation so comparisons exercise real snapshot reads."""
    catalog = session.cluster.catalog
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
    """The cluster machine on the pin rules: pinned reads == captured."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_pinned_reads_byte_identical(self, name):
        # imported here: the machine module imports this one's helpers
        from test_cluster_machine import run_focused

        run_focused(
            name,
            ("ingest", "expire", "scale_out", "compact", "pin", "release"),
            ("consistent", "pins_read_their_capture"),
        )


class TestSpillChurnSnapshotReads:
    def test_spill_churn_readers_stay_byte_stable(self, tmp_path):
        """Pinned reads across the LRU's evict/load churn.

        A tiny per-node memory budget keeps the spill tier thrashing —
        every snapshot read faults cold chunks back in, and every put
        and removal evicts and retires handles.  Before each mutation a
        fresh session pins both arrays; after it, the pinned reads must
        still match that baseline byte for byte (retired handles are
        materialized on exit, so even a chunk removed mid-session
        answers from its pinned snapshot), and the LRU must come out of
        the storm with its accounting green.
        """
        from repro.cluster import TieredStorage

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

        def expire():
            if len(live) > 12:
                picks = [list(live)[i] for i in range(6)]
                cluster.remove_chunks([live.pop(p) for p in picks])

        ingest_batch()
        for step in range(40):
            ops = (ingest_batch, expire) if step % 2 else (ingest_batch,)
            for mutate in ops:
                session = cluster.session().pin(["A", "B"])
                baseline = _fingerprint(session)
                mutate()
                _drop_cached_payloads(session)
                assert _fingerprint(session) == baseline, (
                    f"step {step}: {mutate.__name__}"
                )
        cluster.check_consistency()  # tier audits included
        stats = cluster.storage_stats()
        assert sum(s["fault_count"] for s in stats.values()) > 0
        assert sum(s["eviction_count"] for s in stats.values()) > 0
        for s in stats.values():
            assert s["resident_bytes"] <= 25.0 + 1e-6


class TestParityConfig:
    def test_defaults_and_current(self, monkeypatch):
        from repro import config

        monkeypatch.delenv("REPRO_EXEC", raising=False)
        assert ParityConfig.from_env() == ParityConfig(exec="inprocess")
        assert config.current() == ParityConfig.from_env()

    def test_env_honored(self, monkeypatch):
        from repro import config

        monkeypatch.setenv("REPRO_EXEC", " Process ")
        assert config.mode("exec") == "process"
        assert ParityConfig.from_env().exec == "process"

    @pytest.mark.parametrize(
        "variable, field, typo", [("REPRO_EXEC", "exec", "proces")]
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

        monkeypatch.delenv("REPRO_EXEC", raising=False)
        with parity(exec="process"):
            assert config.mode("exec") == "process"
            with parity(exec="inprocess"):
                assert config.mode("exec") == "inprocess"
            assert config.mode("exec") == "process"
        assert config.mode("exec") == "inprocess"

    def test_validation(self):
        with pytest.raises(ConfigError):
            with parity(exec="nonsense"):
                pass  # pragma: no cover
        with pytest.raises(ConfigError):
            with parity(wat="scan"):
                pass  # pragma: no cover
        with pytest.raises(ConfigError):
            ParityConfig(exec="sideways")

    def test_retired_switches_are_gone(self, tmp_path, monkeypatch):
        from repro import config
        from repro.cluster import TieredStorage

        assert set(config.PARITY_FIELDS) == {"exec"}
        for field, value in (
            ("cost", "scalar"),
            ("ledger", "dict"),
            ("catalog", "scan"),
            ("incr", "full"),
            ("storage", "memory"),
        ):
            with pytest.raises(ConfigError):
                with parity(**{field: value}):
                    pass  # pragma: no cover
            with pytest.raises(ConfigError):
                config.mode(field)
            monkeypatch.setenv(f"REPRO_{field.upper()}", value)
        # The old variables are inert: a tiered cluster still writes its
        # segment directories and recovers from them.
        storage = TieredStorage(str(tmp_path / "tiers"))

        def partitioner():
            return make_partitioner(
                "round_robin", [0, 1], grid=GRID,
                node_capacity_bytes=1000 * GB,
            )

        cluster = ElasticCluster(
            partitioner(), 1000 * GB, costs=CostParameters(),
            storage=storage,
        )
        cluster.ingest([_chunk("A", (1, 2, 3), value=4.0)])
        before = _fingerprint(cluster.session())
        assert sorted(os.listdir(storage.root)) == ["node-0000", "node-0001"]
        revived = ElasticCluster.recover(partitioner(), 1000 * GB, storage)
        revived.check_consistency()
        assert _fingerprint(revived.session()) == before
