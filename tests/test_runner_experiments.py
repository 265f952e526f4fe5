"""ExperimentRunner cycle loop and the table/figure entry points."""

import numpy as np
import pytest

from repro.arrays import Box, ChunkData, parse_schema
from repro.cluster import CostParameters, ElasticCluster, GB
from repro.core import make_partitioner
from repro.core.traits import PAPER_ORDER, PAPER_TAXONOMY
from repro.harness import (
    ExperimentRunner,
    RunConfig,
    default_ais,
    default_modis,
    figure4_insert_reorg,
    figure8_staircase,
    table1_taxonomy,
    table2_sampling,
    table3_cost_model,
)
from repro.harness.reporting import (
    format_series,
    format_series_table,
    format_table,
)
from repro.workloads import AisWorkload, ModisWorkload

TINY_MODIS = dict(n_cycles=5, cells_per_band_per_cycle=300,
                  target_total_gb=225.0)
TINY_AIS = dict(n_cycles=5, ships=100, broadcasts_per_ship=6,
                target_total_gb=280.0)


class TestRunnerFixedSchedule:
    def test_fixed_schedule_scales_by_step(self):
        runner = ExperimentRunner(
            ModisWorkload(**TINY_MODIS),
            RunConfig(partitioner="consistent_hash", run_queries=False,
                      fixed_step=2),
        )
        metrics = runner.run()
        assert metrics.cycles[0].nodes == 2
        # 225 GB over 5 cycles with 100 GB nodes forces scale-outs
        assert metrics.cycles[-1].nodes >= 4
        for c in metrics.cycles:
            assert c.nodes % 2 == 0  # grows in steps of 2
        runner.cluster.check_consistency()

    def test_capacity_always_covers_demand(self):
        runner = ExperimentRunner(
            ModisWorkload(**TINY_MODIS),
            RunConfig(partitioner="kd_tree", run_queries=False),
        )
        metrics = runner.run()
        for c in metrics.cycles:
            assert c.nodes * 100 * GB >= c.demand_bytes

    def test_queries_recorded_per_cycle(self):
        runner = ExperimentRunner(
            ModisWorkload(**TINY_MODIS),
            RunConfig(partitioner="round_robin"),
        )
        metrics = runner.run()
        for c in metrics.cycles:
            assert c.query_seconds > 0
            assert len(c.query_seconds_by_name) == 6
        categories = runner.query_category_seconds()
        assert set(categories) == {"spj", "science"}

    def test_staircase_mode(self):
        runner = ExperimentRunner(
            ModisWorkload(**TINY_MODIS),
            RunConfig(
                partitioner="consistent_hash",
                staircase={"s": 2, "p": 1},
                run_queries=False,
            ),
        )
        metrics = runner.run()
        assert metrics.cycles[-1].nodes >= 3
        runner.cluster.check_consistency()

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_every_partitioner_survives_a_full_run(self, name):
        runner = ExperimentRunner(
            AisWorkload(**TINY_AIS),
            RunConfig(partitioner=name, run_queries=False),
        )
        metrics = runner.run()
        assert len(metrics.cycles) == 5
        runner.cluster.check_consistency()


class _ScaleOutDiff:
    """Diff ``partitioner.assignment()`` across every ``scale_out``.

    Installed over ``cluster.scale_out`` (the runner's fixed schedule
    and ``ingest``'s provisioner path both call it through the
    instance), it counts surviving chunks whose node changed by where
    they landed: on a node the call added, or on one that already
    existed.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.calls = 0
        self.onto_new = 0
        self.onto_preexisting = 0
        self._scale_out = cluster.scale_out
        cluster.scale_out = self

    def __call__(self, count):
        partitioner = self.cluster.partitioner
        preexisting = set(self.cluster.nodes)
        before = partitioner.assignment()
        report = self._scale_out(count)
        after = partitioner.assignment()
        assert set(after) == set(before)  # a rebalance only relocates
        for ref, node in after.items():
            if node != before[ref]:
                if node in preexisting:
                    self.onto_preexisting += 1
                else:
                    self.onto_new += 1
        self.calls += 1
        return report


_RETENTION_GRID = Box((0, 0, 0), (10_000, 32, 32))
_RETENTION_SCHEMA = parse_schema(
    "R<v:double>[t=0:*,1, x=0:31,1, y=0:31,1]"
)


def _retention_diff(name, cycles=12, per_cycle=20, retention=2):
    """The ``figure8_retention`` loop, per scheme: ingest, expire the
    batch older than ``retention`` cycles, +2 nodes at 85 % fill.  The
    batches keep growing, so rebalances keep coming after expiry and
    index compaction have started."""
    rng = np.random.default_rng(5)
    partitioner = make_partitioner(
        name, [0, 1], grid=_RETENTION_GRID,
        node_capacity_bytes=10 * GB,
    )
    cluster = ElasticCluster(
        partitioner, node_capacity_bytes=10 * GB,
        costs=CostParameters(), ledger_compact_ratio=0.3,
    )
    diff = _ScaleOutDiff(cluster)
    window = []
    calls_at_first_compaction = None
    for cycle in range(cycles):
        keys = {
            (cycle, int(rng.integers(0, 32)), int(rng.integers(0, 32)))
            for _ in range(per_cycle * (1 + cycle))
        }
        batch = [
            ChunkData(
                _RETENTION_SCHEMA, key,
                np.array([key], dtype=np.int64),
                {"v": np.array([1.0])},
                size_bytes=float(rng.lognormal(np.log(0.1 * GB), 0.6)),
            )
            for key in sorted(keys)
        ]
        demand = cluster.total_bytes + sum(c.size_bytes for c in batch)
        if demand > 0.85 * cluster.capacity_bytes:
            cluster.scale_out(2)
        cluster.ingest(batch)
        window.append([c.ref() for c in batch])
        if len(window) > retention:
            capacity = cluster.catalog.column_capacity
            cluster.remove_chunks(window.pop(0))
            if (
                calls_at_first_compaction is None
                and cluster.catalog.column_capacity < capacity
            ):
                calls_at_first_compaction = diff.calls
    cluster.check_consistency()
    # expiry compacted the indexes, and rebalances ran after that
    assert calls_at_first_compaction is not None
    assert diff.calls > calls_at_first_compaction
    return diff


class TestIncrementalScaleOutThroughTheHarness:
    """§4: an incremental scheme moves chunks only onto new nodes.

    ``tests/test_partitioner_invariants.py`` checks the plans of a
    partitioner in isolation; here the placement table itself is
    diffed around every ``scale_out`` of a whole run.
    """

    def _check(self, name, diff):
        assert diff.calls >= 2, name
        if PAPER_TAXONOMY[name].incremental_scale_out:
            assert diff.onto_preexisting == 0, (
                f"{name} claims incremental scale-out but relocated "
                f"{diff.onto_preexisting} chunks onto preexisting nodes"
            )
        return diff.onto_preexisting

    def test_experiment_runner_run(self):
        onto_preexisting = {}
        onto_new = 0
        workload = ModisWorkload(
            n_cycles=6, cells_per_band_per_cycle=300,
            target_total_gb=450.0,
        )
        for name in PAPER_ORDER:
            runner = ExperimentRunner(
                workload, RunConfig(partitioner=name, run_queries=False)
            )
            diff = _ScaleOutDiff(runner.cluster)
            runner.run()
            onto_preexisting[name] = self._check(name, diff)
            onto_new += diff.onto_new
        assert onto_new > 0  # the runs did relocate chunks
        # ...and the check can fail: a global scheme does move data
        # between nodes that both existed already.
        assert any(onto_preexisting.values()), onto_preexisting

    def test_retention_loop_with_expiry_and_compaction(self):
        onto_preexisting = {
            name: self._check(name, _retention_diff(name))
            for name in PAPER_ORDER
        }
        assert any(onto_preexisting.values()), onto_preexisting


class TestExperimentEntryPoints:
    def test_table1_matches_paper(self):
        result = table1_taxonomy()
        rendered = result.render()
        assert "Append" in rendered
        assert len(result.rows) == 8
        # spot-check the published rows
        by_name = {row[0]: row[1:] for row in result.rows}
        assert by_name["Append"] == (True, True, False, False)
        assert by_name["K-d Tree"] == (True, False, True, True)
        assert by_name["Uniform Range"] == (False, False, False, True)

    def test_figure4_shapes(self):
        result = figure4_insert_reorg(
            ModisWorkload(**TINY_MODIS),
            AisWorkload(**TINY_AIS),
            partitioners=("append", "round_robin", "kd_tree"),
        )
        for workload in ("modis", "ais"):
            data = result.data[workload]
            # Append never moves data
            assert data["append"][1] == 0.0
            # the global baseline reorganizes more than the k-d tree
            assert data["round_robin"][1] > 0.0
        assert "Figure 4" in result.render()

    def test_figure8_staircase_covers_demand(self):
        result = figure8_staircase(
            ModisWorkload(**TINY_MODIS), p_values=(1, 3), samples=2
        )
        for nodes in result.steps.values():
            for n, demand in zip(nodes, result.demand_nodes):
                assert n >= demand - 1e-9
        # lazier configs reorganize at least as often
        assert result.reorganizations[1] >= result.reorganizations[3]
        assert "Figure 8" in result.render()

    def test_table2_structure(self):
        result = table2_sampling(
            ModisWorkload(n_cycles=12, cells_per_band_per_cycle=300),
            AisWorkload(n_cycles=10, ships=100, broadcasts_per_ship=6),
            max_samples=3,
        )
        assert set(result.errors) == {
            "AIS Train", "AIS Test", "MODIS Train", "MODIS Test"
        }
        for errs in result.errors.values():
            assert set(errs) == {1, 2, 3}
            assert all(v >= 0 for v in errs.values())
        assert "Table 2" in result.render()

    def test_table3_model_vs_measured(self):
        result = table3_cost_model(
            ModisWorkload(n_cycles=8, cells_per_band_per_cycle=300,
                          target_total_gb=360.0),
            p_values=(1, 3),
            samples=2,
            window=(5, 8),
        )
        assert set(result.estimates) == {1, 3}
        assert all(v > 0 for v in result.estimates.values())
        assert all(v > 0 for v in result.measured.values())
        assert "Table 3" in result.render()

    def test_default_workload_factories(self):
        m = default_modis(n_cycles=3)
        a = default_ais(n_cycles=3)
        assert m.n_cycles == 3
        assert a.n_cycles == 3


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), (True, False)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in text
        assert "X" in text  # booleans render as Table-1 marks

    def test_format_series(self):
        assert "lbl" in format_series("lbl", [1.0, 2.0])

    def test_format_series_table(self):
        text = format_series_table({"a": [1.0, 2.0]}, title="T")
        assert text.startswith("T")
        assert "cycle" in text
