"""The micro-benchmark record tools: merge-on-write and the section gate."""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def tools(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench_gate
    import bench_report

    yield bench_report, bench_gate
    for name in ("bench_gate", "bench_report"):
        sys.modules.pop(name, None)


def _raw(path, seconds):
    """A two-benchmark pytest-benchmark JSON (one speedup pair)."""
    stats = {"min": seconds, "stddev": 0.0, "rounds": 5}
    path.write_text(json.dumps({"benchmarks": [
        {"name": "test_cost_scan_scalar", "extra_info": {"items": 100},
         "stats": dict(stats, mean=10 * seconds)},
        {"name": "test_cost_scan_batch", "extra_info": {"items": 100},
         "stats": dict(stats, mean=seconds)},
    ]}))
    return str(path)


def test_report_merges_into_the_record_it_finds(tools, tmp_path):
    bench_report, _ = tools
    out = tmp_path / "BENCH_micro.json"
    out.write_text(json.dumps({
        "concurrent": {"p50_ms": 1.0},
        "hot_paths": {"test_retired": {"items": 1}},
    }))
    raw = _raw(tmp_path / "raw.json", 0.5)
    args = ["--input", raw, "--output", str(out), "--calibration-repeats", "0"]
    assert bench_report.main(args) == 0
    record = json.loads(out.read_text())
    assert record["concurrent"] == {"p50_ms": 1.0}      # kept
    assert set(record["hot_paths"]) == {                # replaced whole
        "test_cost_scan_scalar", "test_cost_scan_batch",
    }
    assert record["batch_vs_scalar_speedup"] == {"cost_scan": 10.0}


def test_report_only_refreshes_the_rows_it_reran(tools, tmp_path):
    bench_report, _ = tools
    out = tmp_path / "BENCH_micro.json"
    kept = {"items": 7, "mean_seconds": 2.0}
    out.write_text(json.dumps({
        "calibration": {"repeats": 3},
        "hot_paths": {
            "test_kmeans_batch": kept,
            "test_cost_scan_batch": {"items": 1, "mean_seconds": 9.0},
        },
        "batch_vs_scalar_speedup": {"kmeans": 4.5, "cost_scan": 1.0},
    }))
    raw = _raw(tmp_path / "raw.json", 0.5)
    args = ["--input", raw, "--output", str(out), "--only", "cost_scan"]
    assert bench_report.main(args) == 0
    record = json.loads(out.read_text())
    assert record["calibration"] == {"repeats": 3}      # not re-run
    assert record["hot_paths"]["test_kmeans_batch"] == kept
    assert record["hot_paths"]["test_cost_scan_batch"]["mean_seconds"] == 0.5
    assert list(record["hot_paths"]) == sorted(record["hot_paths"])
    assert record["batch_vs_scalar_speedup"] == {
        "cost_scan": 10.0, "kmeans": 4.5,
    }


def test_speedup_gate_skips_a_batch_arm_under_200_microseconds(
    tools, tmp_path, capsys
):
    # ROADMAP 6(e): the single-run ratio of a 50 µs loop fails on
    # identical code; such a row is reported and not gated.
    bench_report, bench_gate = tools
    quiet = ["--calibration-repeats", "0"]
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    bench_report.main(
        ["--input", _raw(tmp_path / "a.json", 50e-6), "--output", str(base)]
        + quiet
    )
    record = json.loads(base.read_text())
    record["batch_vs_scalar_speedup"]["cost_scan"] = 4.0   # a 60 % "drop"
    new.write_text(json.dumps(record))
    gate = ["--baseline", str(base), "--input", str(new), "--mode"]
    assert bench_gate.main(gate + ["speedups"]) == 0
    out = capsys.readouterr().out
    assert "skip cost_scan" in out and "50 µs" in out
    assert "FAIL" not in out
    # the same drop on a 0.5 s arm is gated...
    bench_report.main(
        ["--input", _raw(tmp_path / "b.json", 0.5), "--output", str(base)]
        + quiet
    )
    record = json.loads(base.read_text())
    record["batch_vs_scalar_speedup"]["cost_scan"] = 4.0
    new.write_text(json.dumps(record))
    assert bench_gate.main(gate + ["speedups"]) == 1
    # ...and a short row the run lost altogether still fails as missing
    bench_report.main(
        ["--input", _raw(tmp_path / "a.json", 50e-6), "--output", str(base)]
        + quiet
    )
    record = json.loads(base.read_text())
    record["batch_vs_scalar_speedup"] = {}
    new.write_text(json.dumps(record))
    assert bench_gate.main(gate + ["speedups"]) == 1
    assert "missing from current run" in capsys.readouterr().out


def test_gate_fails_on_a_vanished_section(tools, tmp_path, capsys):
    bench_report, bench_gate = tools
    base = tmp_path / "base.json"
    raw = _raw(tmp_path / "raw.json", 0.5)
    bench_report.main(
        ["--input", raw, "--output", str(base), "--calibration-repeats", "0"]
    )
    record = json.loads(base.read_text())
    base.write_text(json.dumps(dict(record, concurrent={"p50_ms": 1.0})))
    new = tmp_path / "new.json"
    new.write_text(json.dumps(record))                  # lost "concurrent"
    gate = ["--baseline", str(base), "--mode", "speedups", "--input"]
    assert bench_gate.main(gate + [str(new)]) == 1
    assert "'concurrent'" in capsys.readouterr().out
    assert bench_gate.main(gate + [str(base)]) == 0     # nothing vanished
    assert bench_gate.main(gate + [raw]) == 0           # a raw run: no sections
