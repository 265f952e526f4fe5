"""Shared fixtures: small deterministic workloads and clusters."""

from __future__ import annotations

import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from repro.arrays import Box, ChunkRef, DiskIO, parse_schema
from repro.cluster import CostParameters, ElasticCluster, GB
from repro.core import make_partitioner
from repro.workloads import AisWorkload, ModisWorkload


# Tier-1 is deterministic: a fixed example sequence, no replay database.
# ``--hypothesis-profile=search`` (CI's property-search leg) keeps the
# randomized hunt.
settings.register_profile(
    "tier1", derandomize=True, database=None, deadline=None
)
settings.register_profile("search", deadline=None)


def pytest_configure(config):
    # Runs when this conftest is registered — before any test module is
    # imported, so every ``@settings(...)`` inherits the chosen profile.
    settings.load_profile(
        config.getoption("--hypothesis-profile", None) or "tier1"
    )


class FaultyIO(DiskIO):
    """A :class:`DiskIO` that injects failures at chosen operations.

    Operations are counted from 1 in call order, separately per kind:

    * ``fail_write_at=n`` — the n-th :meth:`write_file` (segment files
      *and* manifest flushes both funnel through it) raises ``OSError``
      before touching the disk.
    * ``fail_read_at=n`` — the n-th :meth:`map_segment` raises
      ``OSError``.
    * ``truncate_read_at=n`` — the n-th :meth:`map_segment` returns
      only the first half of the file (a short read), which the
      segment validator must reject as corruption.

    The counters stay live after a failure fires, so one instance can
    model exactly-one transient fault; construct a new instance per
    scenario.
    """

    def __init__(
        self,
        fail_write_at=None,
        fail_read_at=None,
        truncate_read_at=None,
    ):
        self.fail_write_at = fail_write_at
        self.fail_read_at = fail_read_at
        self.truncate_read_at = truncate_read_at
        self.write_calls = 0
        self.read_calls = 0

    def write_file(self, path, data):
        self.write_calls += 1
        if self.write_calls == self.fail_write_at:
            raise OSError(f"injected write failure #{self.write_calls}")
        super().write_file(path, data)

    def map_segment(self, path):
        self.read_calls += 1
        if self.read_calls == self.fail_read_at:
            raise OSError(f"injected read failure #{self.read_calls}")
        data = super().map_segment(path)
        if self.read_calls == self.truncate_read_at:
            return data[: len(data) // 2]
        return data


@pytest.fixture
def faulty_io():
    """Factory for :class:`FaultyIO` instances (one per fault scenario)."""
    return FaultyIO


@pytest.fixture
def oracles(monkeypatch):
    """``with oracles(f, g):`` — run a block on reference implementations.

    Each production callable is replaced by its ``"same"`` twin from
    :data:`tests.oracles.ORACLES` for the duration of the block: a
    function in every loaded ``repro.*`` namespace that binds it
    (``from x import f`` copies the binding), a method on the class that
    defines it.  This is how a whole query, rebalance or read path runs
    through an oracle — production code reads no switch.
    """
    from tests.oracles import ORACLES

    twins = {
        production: oracle
        for production, oracle, signature in ORACLES
        if signature == "same"
    }

    @contextmanager
    def substituted(*productions):
        with monkeypatch.context() as patch:
            for production in productions:
                oracle = twins[production]
                *owners, name = production.__qualname__.split(".")
                if owners:
                    owner = sys.modules[production.__module__]
                    for part in owners:
                        owner = getattr(owner, part)
                    patch.setattr(owner, name, oracle)
                    continue
                for mod_name, module in list(sys.modules.items()):
                    if module is None or mod_name.split(".")[0] != "repro":
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is production:
                            patch.setattr(module, attr, oracle)
            yield

    return substituted


@pytest.fixture
def table_partitioner():
    """Factory for a fresh Round Robin partitioner over ``nodes``.

    Its chunk table is what a unit-test catalog publishes from:
    ``ChunkCatalog(p.table)``, with every chunk placed (or adopted) by
    ``p`` before the catalog publishes it.
    """
    return lambda nodes=(0, 1, 2): make_partitioner(
        "round_robin", list(nodes)
    )


@pytest.fixture(scope="session")
def tiny_schema():
    """The paper's running example: A<i:int32,j:float>[x=1:4,2, y=1:4,2]."""
    return parse_schema("A<i:int32, j:float>[x=1:4,2, y=1:4,2]")


@pytest.fixture(scope="session")
def small_modis():
    """A 6-cycle MODIS workload small enough for per-test runs."""
    return ModisWorkload(
        n_cycles=6, cells_per_band_per_cycle=400, target_total_gb=270.0
    )


@pytest.fixture(scope="session")
def small_ais():
    """A 6-cycle AIS workload small enough for per-test runs."""
    return AisWorkload(
        n_cycles=6, ships=120, broadcasts_per_ship=8, target_total_gb=240.0
    )


@pytest.fixture(scope="session")
def grid3d():
    """A 3-d chunk grid in the spatio-temporal shape both workloads use."""
    return Box((0, 0, 0), (8, 16, 12))


def make_cluster(partitioner_name, grid, nodes=2, capacity_gb=100.0,
                 storage=None, **kwargs):
    """Build a small ElasticCluster for one partitioner."""
    partitioner = make_partitioner(
        partitioner_name,
        nodes=list(range(nodes)),
        grid=grid,
        node_capacity_bytes=capacity_gb * GB,
        **kwargs,
    )
    return ElasticCluster(
        partitioner,
        node_capacity_bytes=capacity_gb * GB,
        costs=CostParameters(),
        storage=storage,
    )


def synthetic_refs(n, grid, rng=None, skew=False, array="arr"):
    """Deterministic (ref, size) pairs inside a grid box, optionally skewed."""
    rng = rng or np.random.default_rng(12345)
    out = []
    for _ in range(n):
        key = tuple(
            int(rng.integers(lo, hi))
            for lo, hi in zip(grid.lo, grid.hi)
        )
        if skew and rng.random() < 0.8:
            # concentrate in a corner hotspot
            key = tuple(
                min(hi - 1, lo + int(abs(rng.normal(0, 1))))
                for lo, hi in zip(grid.lo, grid.hi)
            )
        size = (
            float(rng.lognormal(3.0, 1.5)) if skew
            else float(abs(rng.normal(100.0, 10.0)) + 1.0)
        )
        out.append((ChunkRef(array, key), size))
    return out
