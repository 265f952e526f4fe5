"""ExperimentRunner cycle loop and the table/figure entry points."""

import dataclasses

import numpy as np
import pytest

from repro.arrays import Box, ChunkData, parse_schema
from repro.cluster import GB
from repro.core.traits import PAPER_ORDER, PAPER_TAXONOMY
from repro.harness import (
    ExperimentRunner,
    RunConfig,
    default_ais,
    default_modis,
    figure4_insert_reorg,
    figure8_staircase,
    paper_sweep,
    table1_taxonomy,
    table2_sampling,
    table3_cost_model,
)
from repro.errors import ConfigError
from repro.harness.reporting import format_series_table, format_table
from repro.query.incremental import MaintainedGridStats
from repro.workloads import AisWorkload, ModisWorkload
from repro.workloads.batch import InsertBatch
from repro.workloads.model import CyclicWorkload

TINY_MODIS = dict(n_cycles=5, cells_per_band_per_cycle=300,
                  target_total_gb=225.0)
TINY_AIS = dict(n_cycles=5, ships=100, broadcasts_per_ship=6,
                target_total_gb=280.0)


class TestRunnerFixedSchedule:
    def test_fixed_schedule_scales_by_step(self):
        runner = ExperimentRunner(
            ModisWorkload(**TINY_MODIS),
            RunConfig(partitioner="consistent_hash", fixed_step=2),
            queries=(),
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
            RunConfig(partitioner="kd_tree"), queries=(),
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
            ),
            queries=(),
        )
        metrics = runner.run()
        assert metrics.cycles[-1].nodes >= 3
        runner.cluster.check_consistency()

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_every_partitioner_survives_a_full_run(self, name):
        runner = ExperimentRunner(
            AisWorkload(**TINY_AIS),
            RunConfig(partitioner=name), queries=(),
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


class _RetentionBatches(CyclicWorkload):
    """``figure8_retention``'s shape at test scale: cycle ``i`` draws
    ``per_cycle * i`` keys of its time slice (de-duplicated, in key
    order), each a lognormal ~0.1 GB, from one generator."""

    name = "retention"
    schemas = (_RETENTION_SCHEMA,)

    def __init__(self, cycles=12, per_cycle=20):
        super().__init__(cycles, seed=5)
        self.per_cycle = per_cycle
        self._rng = np.random.default_rng(self.seed)
        self.batches()  # one generator feeds every cycle: draw in order

    def grid_box(self):
        return _RETENTION_GRID

    @property
    def target_total_bytes(self):
        return self.demand_curve()[-1]

    def _generate_batch(self, cycle):
        rng = self._rng
        keys = {
            (cycle - 1, int(rng.integers(0, 32)), int(rng.integers(0, 32)))
            for _ in range(self.per_cycle * cycle)
        }
        return InsertBatch(cycle, [
            ChunkData(
                _RETENTION_SCHEMA, key,
                np.array([key], dtype=np.int64),
                {"v": np.array([1.0])},
                size_bytes=float(rng.lognormal(np.log(0.1 * GB), 0.6)),
            )
            for key in sorted(keys)
        ])


def _retention_diff(name, retention=2):
    """The ``figure8_retention`` loop, per scheme, through the runner:
    ingest, expire the batch older than ``retention`` cycles, +2 nodes
    at 85 % fill.  The batches keep growing, so rebalances keep coming
    after expiry and index compaction have started."""
    runner = ExperimentRunner(
        _RetentionBatches(),
        RunConfig(
            partitioner=name, node_capacity_gb=10, fill=0.85,
            retention_cycles=retention, ledger_compact_ratio=0.3,
        ),
        queries=(),
    )
    cluster = runner.cluster
    diff = _ScaleOutDiff(cluster)
    calls_at_first_compaction = None
    remove_chunks = cluster.remove_chunks

    def expire(refs):
        # The drop shows across the removal alone: within a cycle the
        # ingest before it grows the catalog's columns again.
        nonlocal calls_at_first_compaction
        capacity = cluster.catalog.column_capacity
        report = remove_chunks(refs)
        if (
            calls_at_first_compaction is None
            and cluster.catalog.column_capacity < capacity
        ):
            calls_at_first_compaction = diff.calls
        return report

    cluster.remove_chunks = expire
    runner.run()
    cluster.check_consistency()
    # expiry compacted the indexes, and rebalances ran after that
    assert calls_at_first_compaction is not None
    assert diff.calls > calls_at_first_compaction
    return diff


class TestRunConfigContract:
    """The runner's window, fill and views: bad values are typed errors
    naming the field, and the window keeps exactly the last batches."""

    @pytest.mark.parametrize(
        "field, value",
        [("fill", v) for v in (float("nan"), 0, -1, 1.5, True)]
        + [("retention_cycles", v) for v in (0, -1, True)]
        + [("views", (42,))],
    )
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(partitioner="hilbert_curve", **{field: value})

    def test_checked_values_cannot_be_swapped_afterwards(self):
        # Assignable, a NaN fill never scaled out: 233 GB sat on 200.
        config = RunConfig(partitioner="hilbert_curve")
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.fill = float("nan")

    def test_window_keeps_the_last_batches(self):
        k = 3
        workload = _RetentionBatches(cycles=7, per_cycle=4)
        runner = ExperimentRunner(
            workload,
            RunConfig(
                partitioner="hilbert_curve", node_capacity_gb=1000,
                retention_cycles=k,
                views=(lambda cluster: MaintainedGridStats(
                    cluster, "R", "v", dims=(1, 2), cell_sizes=(8, 8),
                    ndim=3, domain=_RETENTION_GRID,
                ),),
            ),
            queries=(),
        )
        cluster = runner.cluster
        expired = []
        remove_chunks = cluster.remove_chunks

        def record(refs):
            report = remove_chunks(refs)
            expired.append(report.elapsed_seconds)
            return report

        cluster.remove_chunks = record
        for cycle in range(1, workload.n_cycles + 1):
            metrics = runner.run_cycle(cycle)
            assert set(cluster.partitioner.assignment()) == {
                c.ref()
                for batch in workload.batches()[max(0, cycle - k):cycle]
                for c in batch.chunks
            }
            # no scale-out at 1000 GB a node: reorganization is expiry
            assert metrics.nodes_added == 0
            assert len(expired) == max(0, cycle - k)
            assert metrics.reorg_seconds == (expired[-1] if cycle > k else 0.0)
            assert len(metrics.refresh_modes) == 1
            assert metrics.query_seconds > 0  # the view's refresh
        assert all(seconds > 0 for seconds in expired)
        cluster.check_consistency()


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
                workload, RunConfig(partitioner=name), queries=()
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


SWEEP_SCHEMES = ("append", "round_robin", "kd_tree")


@pytest.fixture(scope="module")
def tiny_sweep():
    return paper_sweep(
        ModisWorkload(**TINY_MODIS),
        AisWorkload(**TINY_AIS),
        partitioners=SWEEP_SCHEMES,
    )


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

    def test_figure4_shapes(self, tiny_sweep):
        result = figure4_insert_reorg(tiny_sweep)
        for workload in ("modis", "ais"):
            data = result.data[workload]
            # Append never moves data
            assert data["append"][1] == 0.0
            # the global baseline reorganizes more than the k-d tree
            assert data["round_robin"][1] > 0.0
        assert "Figure 4" in result.render()

    def test_sweep_figure4_equals_ingest_only_runs(self, tiny_sweep):
        # The sweep runs the suite every cycle and Figure 4 reads its
        # ingest numbers: that holds only while no query moves or
        # prices placement.
        result = figure4_insert_reorg(tiny_sweep)
        for workload in (ModisWorkload(**TINY_MODIS), AisWorkload(**TINY_AIS)):
            for name in SWEEP_SCHEMES:
                metrics = ExperimentRunner(
                    workload, RunConfig(partitioner=name), queries=()
                ).run()
                assert result.data[workload.name][name] == (
                    metrics.total_insert_seconds / 60.0,
                    metrics.total_reorg_seconds / 60.0,
                    metrics.mean_storage_rsd * 100.0,
                ), (workload.name, name)

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

    def test_format_series_table(self):
        text = format_series_table({"a": [1.0, 2.0]}, title="T")
        assert text.startswith("T")
        assert "cycle" in text
