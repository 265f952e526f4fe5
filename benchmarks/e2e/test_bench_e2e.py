"""Smoke self-test of ``bench_e2e`` (tier-1; no wall-clock assertion).

Runs every workload in-process at ``--scale smoke`` and checks the
benchmark's own machinery: metric names against ``BENCHMARK.json``, the
cycle loop against ``ExperimentRunner``, the output checks against a
deliberately corrupted answer, the span installer's round trip, and
that nothing is left behind.
"""

from __future__ import annotations

import json
import os

import bench_e2e
import e2e_cycles as cycles
import e2e_metrics as metrics
import e2e_spans as spans
import pytest

from repro.arrays.segment import SegmentStore
from repro.core.traits import PAPER_ORDER
from repro.harness.runner import ExperimentRunner, RunConfig

SEED = cycles.DEFAULT_SEED


def _shm() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.fixture(scope="module")
def entries(tmp_path_factory):
    """Every workload: oracle + one measured + one traced run, folded."""
    shm_before = _shm()
    out = {}
    for name, spec in cycles.SPECS.items():
        kinds = ["oracle"] if spec.has_oracle else []
        runs = {
            role: cycles.run_child(
                name, "smoke", SEED, str(tmp_path_factory.mktemp(name)),
                role=role,
            )
            for role in [*kinds, "measured", "traced"]
        }
        out[name] = bench_e2e.fold(
            name, "smoke", SEED,
            runs.get("oracle"), [runs["measured"]], runs["traced"],
        )
        out[name]["_runs"] = runs
    # (e) no /dev/shm segment outlives a run.
    assert _shm() - shm_before == set()
    return out


def test_benchmark_json_matches_the_declarations():
    with open(bench_e2e.REPO_ROOT / "BENCHMARK.json") as fh:
        committed = json.load(fh)
    assert committed == metrics.benchmark_json()


def test_every_workload_reports_the_declared_metrics(entries):
    declared = metrics.benchmark_json()
    assert [w["name"] for w in declared["workloads"]] == [
        name for name in entries if cycles.SPECS[name].gated
    ]
    for entry in entries.values():
        assert entry["failed"] == 0, entry["errors"]
        assert all(c["ok"] for c in entry["checks"]), entry["checks"]
        assert set(entry["end_to_end"]) == {m.name for m in metrics.END_TO_END}
        assert entry["end_to_end"]["failed_share"]["median"] == 0.0
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(bench_e2e.contract_line(entry, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["failed"] == 0
            assert set(line["metrics"]) == {m["name"] for m in declared[key]}
            units = {m["name"]: m["unit"] for m in declared[key]}
            for name, value in line["metrics"].items():
                assert value["unit"] == units[name]
                assert isinstance(value["value"], float)


def test_layers_a_workload_bypasses_read_exactly_zero(entries):
    for name, entry in entries.items():
        layers = entry["per_layer"]
        for metric, stats in layers.items():
            if metric.startswith("parallel.") and name != "ais_process":
                assert stats["value"] == 0.0, (name, metric)
            tiered = metric.startswith(("arrays.segment_", "arrays.tier_"))
            if tiered and name != "modis_spill":
                assert stats["value"] == 0.0, (name, metric)
    assert entries["ais_process"]["per_layer"]["parallel.sync_s"]["value"] > 0
    assert entries["modis_spill"]["per_layer"]["arrays.tier_faults"]["value"] > 0
    assert entries["modis_churn"]["per_layer"]["cluster.chunks_expired"]["value"] > 0


def test_cycle_loop_reproduces_the_runner_cost_exactly(entries):
    for name in ("modis_inproc", "ais_inproc"):
        spec = cycles.SPECS[name]
        mine = entries[name]["_runs"]["measured"]["node_hours"]
        for scheme in PAPER_ORDER:
            workload = spec.workload(seed=SEED, **spec.sizes["smoke"])
            theirs = ExperimentRunner(
                workload, RunConfig(partitioner=scheme)
            ).run().workload_cost_node_hours
            assert mine[scheme] == theirs, (name, scheme)


def test_a_corrupted_answer_fires_the_checks(entries, tmp_path):
    # (a): one scheme of eight answers differently.
    bad = cycles.run_child(
        "modis_inproc", "smoke", SEED, str(tmp_path), corrupt_sample=0
    )
    (check,) = [c for c in bad["checks"] if c["name"].startswith("a:")]
    assert not check["ok"] and "append" in check["detail"]
    folded = bench_e2e.fold("modis_inproc", "smoke", SEED, None, [bad], None)
    assert folded["end_to_end"]["failed_share"]["median"] > 0
    assert not json.loads(bench_e2e.contract_line(folded, False))["correct"]
    # (b): the backend under test disagrees with its oracle.
    oracle = entries["ais_process"]["_runs"]["oracle"]
    bad = cycles.run_child(
        "ais_process", "smoke", SEED, str(tmp_path), corrupt_sample=3
    )
    folded = bench_e2e.fold("ais_process", "smoke", SEED, oracle, [bad], None)
    (check,) = [c for c in folded["checks"] if c["name"].startswith("b:")]
    assert not check["ok"]
    assert folded["failed"] >= 1
    assert folded["end_to_end"]["failed_share"]["median"] > 0


def test_span_installer_round_trips():
    targets = [(SegmentStore, "open"), (SegmentStore, "create")]
    import repro.cluster.cluster as cluster_mod
    import repro.cluster.coordinator as coordinator_mod

    before_open = vars(SegmentStore)["open"]
    before_insert = coordinator_mod.execute_insert
    assert cluster_mod.execute_insert is before_insert
    tracer = spans.Tracer()
    with spans.install(tracer) as installation:
        assert installation.saved
        # Functions are replaced wherever they were imported by name...
        assert coordinator_mod.execute_insert is not before_insert
        assert cluster_mod.execute_insert is coordinator_mod.execute_insert
        # ...and classmethods stay classmethods.
        assert vars(SegmentStore)["open"] is not before_open
        for cls, method in targets:
            assert isinstance(vars(cls)[method], classmethod)
    assert vars(SegmentStore)["open"] is before_open
    assert coordinator_mod.execute_insert is before_insert
    assert cluster_mod.execute_insert is before_insert
    assert installation.saved == []


def test_self_times_sum_to_the_traced_section(entries):
    for name, entry in entries.items():
        summary = entry["_runs"]["traced"]["trace"]
        total = sum(summary["self_s"].values())
        assert total == pytest.approx(summary["section_s"], rel=0.01), name
        assert set(summary["self_s"]) <= set(metrics.LAYER_BY_NAME), name
        assert summary["span_count"] > 0


def test_compare_applies_bound_floor_and_spread():
    wall = metrics.E2E_BY_NAME["wall_s"]  # 25 %, floor 0.2 s

    def stats(median, half_range=0.0):
        return {"median": median, "q1": median - half_range, "q3": median + half_range}

    assert metrics.verdict(wall, stats(10.0), stats(11.0)) == "no-worse"
    assert metrics.verdict(wall, stats(10.0), stats(13.0)) == "worse"
    assert metrics.verdict(wall, stats(10.0), stats(7.0)) == "better"
    # Below the absolute floor nothing is a regression.
    assert metrics.verdict(wall, stats(0.1), stats(0.25)) == "no-worse"
    # Overlapping quartile ranges wider than the bound decide nothing.
    assert metrics.verdict(wall, stats(10.0, 2.0), stats(13.0, 2.0)) == "unresolved"
    assert metrics.verdict(wall, stats(10.0, 2.0), stats(15.0, 2.0)) == "worse"
    hours = metrics.E2E_BY_NAME["modeled_node_hours"]
    assert metrics.verdict(hours, stats(100.0), stats(100.0)) == "no-worse"
    assert metrics.verdict(hours, stats(100.0), stats(100.001)) == "worse"
    share = metrics.E2E_BY_NAME["failed_share"]
    assert metrics.verdict(share, stats(0.0), stats(0.01)) == "worse"


def test_compare_of_a_record_with_itself_finds_nothing(entries, tmp_path, capsys):
    record = {"workloads": {
        name: {k: v for k, v in entry.items() if k != "_runs"}
        for name, entry in entries.items()
    }}
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    assert bench_e2e.main(["--compare", str(path), str(path)]) == 0
    assert "0 worse, 0 unresolved, 0 counts changed" in capsys.readouterr().out
    rows, changed = metrics.compare(record, record)
    assert len(rows) == len(entries) * len(metrics.END_TO_END)
    assert changed == []


def test_refuses_parity_and_cost_variables(monkeypatch, capsys):
    assert bench_e2e.forbidden_env({"PATH": "/bin", "REPRO_EXEC": "process"}) == [
        "REPRO_EXEC"
    ]
    monkeypatch.setenv("REPRO_COST_IO_S_PER_B", "1e-9")
    assert bench_e2e.main(["--scale", "smoke", "--workload", "modis_churn"]) == 2
    assert "REPRO_COST_IO_S_PER_B" in capsys.readouterr().err


def test_children_leave_nothing_behind(tmp_path):
    """(e) through the real parent: fresh processes, spill tier, workers."""
    shm_before = _shm()
    out = tmp_path / "out"
    work = tmp_path / "work"
    out.mkdir()
    work.mkdir()
    for name in ("modis_spill", "ais_process"):
        entry = bench_e2e.run_workload(
            name, "smoke", SEED, 1, None, True, str(out), str(work)
        )
        assert entry["failed"] == 0, entry["errors"]
        assert entry["oracle"]["digest"]
        assert (out / entry["trace"]["file"]).exists()
    assert os.listdir(work) == []
    assert _shm() - shm_before == set()


def test_a_hung_child_is_killed_and_counted(tmp_path):
    hung = bench_e2e.launch(
        "ais_process", "measured", "smoke", SEED, str(tmp_path), timeout_s=0.05
    )
    assert hung["failed"] == 1 and "timeout" in hung["errors"][0]
    folded = bench_e2e.fold("ais_process", "smoke", SEED, None, [hung], None)
    assert folded["end_to_end"]["failed_share"]["median"] == 1.0
