"""Shared benchmark fixtures: harness-scale workloads, the §6.2 sweep,
run-once helper.

Every benchmark regenerates one of the paper's tables or figures, prints
the same rows/series the paper reports (run with ``-s`` to see them), and
asserts the paper's qualitative shape.  Modeled bytes sit at paper scale
(630 GB MODIS / 400 GB AIS); cell counts are reduced for laptop runtimes.

Figures 4–7 and the §6.2 headline claims are views of one experiment, so
their benchmarks share ``bench_sweep``: each (workload, scheme) runs once
per session, 16 runs in all.  Tier-1 collects these files
(``python_files`` in ``pyproject.toml``) beside ``tests/``.
"""

from __future__ import annotations

import pytest

from repro.harness import paper_sweep
from repro.workloads import AisWorkload, ModisWorkload


@pytest.fixture(scope="session")
def bench_modis():
    return ModisWorkload(n_cycles=14, cells_per_band_per_cycle=800)


@pytest.fixture(scope="session")
def bench_modis_15():
    return ModisWorkload(n_cycles=15, cells_per_band_per_cycle=800)


@pytest.fixture(scope="session")
def bench_ais():
    return AisWorkload(n_cycles=10, ships=300, broadcasts_per_ship=12)


@pytest.fixture(scope="session")
def bench_sweep(bench_modis, bench_ais):
    """Every scheme on both workloads, the suite on: Figures 4–7."""
    return paper_sweep(bench_modis, bench_ais)


def run_once(benchmark, fn, *args, **kwargs):
    """Execute an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
