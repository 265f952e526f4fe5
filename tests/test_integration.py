"""End-to-end integration: full workload runs with consistency audits."""

import pytest

from repro.cluster import GB
from repro.core import ALL_PARTITIONERS, PAPER_TAXONOMY
from repro.harness import ExperimentRunner, RunConfig
from repro.workloads import AisWorkload, ModisWorkload


@pytest.fixture(scope="module")
def modis():
    return ModisWorkload(
        n_cycles=6, cells_per_band_per_cycle=400, target_total_gb=300.0
    )


@pytest.fixture(scope="module")
def ais():
    return AisWorkload(
        n_cycles=6, ships=150, broadcasts_per_ship=8,
        target_total_gb=300.0,
    )


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
def test_full_run_with_queries_stays_consistent(name, modis):
    runner = ExperimentRunner(modis, RunConfig(partitioner=name))
    metrics = runner.run()
    runner.cluster.check_consistency()
    assert len(metrics.cycles) == modis.n_cycles
    # stored bytes equal generated bytes
    generated = sum(b.total_bytes for b in modis.batches())
    assert runner.cluster.total_bytes == pytest.approx(generated)
    # node-hour cost is positive and finite
    assert 0 < metrics.workload_cost_node_hours < 1e6


def test_incremental_partitioners_never_touch_old_nodes(ais):
    incremental = [
        n for n in ALL_PARTITIONERS
        if PAPER_TAXONOMY[n].incremental_scale_out
    ]
    for name in incremental:
        runner = ExperimentRunner(
            ais, RunConfig(partitioner=name), queries=()
        )
        runner.run()  # base class raises on contract violation
        runner.cluster.check_consistency()


def test_identical_queries_across_partitioners(modis):
    """Placement must never change query *answers*, only their latency."""
    answers = {}
    for name in ("round_robin", "kd_tree", "consistent_hash"):
        runner = ExperimentRunner(modis, RunConfig(partitioner=name))
        runner.run()
        # compare the final cycle's per-query names set; answers checked
        # through a dedicated re-run below
        from repro.query import modis_suite
        from repro.query.executor import run_suite

        results = run_suite(
            modis_suite(modis), runner.cluster, modis.n_cycles
        )
        answers[name] = {
            r.name: _canonical(r.value) for r in results
        }
    assert answers["round_robin"] == answers["kd_tree"]
    assert answers["round_robin"] == answers["consistent_hash"]


def _canonical(value):
    """Round floats inside a query answer for cross-run comparison."""
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, float):
        return round(value, 6)
    return value


def test_cost_in_node_hours_matches_equation_1(modis):
    """Eq. 1: cost = sum over cycles of N_i (I_i + r_i + w_i)."""
    runner = ExperimentRunner(modis, RunConfig(partitioner="kd_tree"))
    metrics = runner.run()
    manual = sum(
        c.nodes * (c.insert_seconds + c.reorg_seconds + c.query_seconds)
        for c in metrics.cycles
    ) / 3600.0
    assert metrics.workload_cost_node_hours == pytest.approx(manual)


def test_growing_cluster_keeps_capacity_ahead_of_demand(ais):
    runner = ExperimentRunner(
        ais, RunConfig(partitioner="extendible_hash"), queries=()
    )
    metrics = runner.run()
    for c in metrics.cycles:
        assert c.nodes * 100 * GB >= c.demand_bytes
    # the cluster actually grew (the workload exceeds two nodes)
    assert metrics.cycles[-1].nodes > metrics.cycles[0].nodes


def test_rsd_ordering_hash_beats_range_on_skew(ais):
    """§6.2.1 at test scale: fine-grained schemes balance skewed bytes
    better than coarse range schemes."""
    def mean_rsd(name):
        runner = ExperimentRunner(
            ais, RunConfig(partitioner=name), queries=()
        )
        return runner.run().mean_storage_rsd

    assert mean_rsd("round_robin") < mean_rsd("uniform_range")
    assert mean_rsd("consistent_hash") < mean_rsd("append")
