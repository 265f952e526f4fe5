"""Run the micro-benchmarks and emit a normalized ``BENCH_micro.json``.

This is the repo's perf-regression harness: it executes
``bench_micro.py`` under ``pytest-benchmark --benchmark-json``, converts
every result to items/second (using the per-benchmark ``extra_info``
item counts), derives batch-vs-scalar speedups for the hot paths that
have both variants, and merges the result into ``BENCH_micro.json`` at
the repo root so the performance trajectory is tracked PR over PR.
Sections another tool wrote (``bench_concurrent.py``'s ``"concurrent"``)
or that this run skipped (``--calibration-repeats 0``) are kept.

Usage::

    python benchmarks/bench_report.py [--output BENCH_micro.json]
                                      [--input existing-benchmark.json]
                                      [--only PYTEST_K_EXPRESSION]
                                      [--calibration-repeats N]

``--only`` re-runs just the benchmarks a pytest ``-k`` expression
selects and refreshes their rows (and the speedups derived from them)
inside ``hot_paths`` / ``batch_vs_scalar_speedup``; every other row of
the record stays as it was.  A full run replaces both sections whole,
so a retired benchmark leaves the record.

With ``--input`` an existing pytest-benchmark JSON is normalized without
re-running the suite (useful on CI where the run and the report are
separate steps).  Unless ``--calibration-repeats 0``, the report also
carries a ``calibration`` block: median/IQR over repeated smoke runs of
the Table-3 cost-model calibration (measured-vs-modeled correlation and
fitted seconds-per-byte rates from live worker processes — see
``bench_table3_calibration.py`` for the full harness and the hard gate).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILE = os.path.join(REPO_ROOT, "benchmarks", "bench_micro.py")

#: (report key, scalar benchmark, batch benchmark) hot-path pairs.
SPEEDUP_PAIRS = [
    ("hilbert_indexing", "test_hilbert_indexing",
     "test_hilbert_indexing_batch"),
    ("kd_lookup", "test_kd_lookup_latency",
     "test_kd_lookup_batch_latency"),
    ("chunk_cells", "test_chunk_cells_scalar",
     "test_chunk_cells_throughput"),
    ("payload_gather", "test_payload_gather_per_chunk",
     "test_payload_gather"),
    ("cost_scan", "test_cost_scan_scalar", "test_cost_scan_batch"),
    ("halo_bytes", "test_halo_bytes_scalar", "test_halo_bytes_batch"),
    ("kmeans", "test_kmeans_scalar", "test_kmeans_batch"),
    ("knn_mean_distance", "test_knn_scalar", "test_knn_batch"),
    ("grid_groupby", "test_grid_groupby_scalar",
     "test_grid_groupby_batch"),
    ("window_average", "test_window_average_scalar",
     "test_window_average_batch"),
    ("close_pairs", "test_close_pairs_scalar",
     "test_close_pairs_batch"),
    ("catalog_route", "test_query_route_scan",
     "test_query_route_catalog"),
    ("region_route", "test_region_route_scan",
     "test_region_route_catalog"),
    ("region_cost", "test_region_cost_scalar",
     "test_region_cost_batch"),
    ("rebalance_exec", "test_rebalance_scalar",
     "test_rebalance_batch"),
    # For spill_scan the "scalar" slot is the out-of-core arm (every
    # payload faulted from its segment file under a one-byte budget)
    # and the "batch" slot the resident in-memory arm on identical
    # chunks: the ratio is the cost of a cold read relative to a hot
    # one, and gating it keeps hot-tier bookkeeping from creeping into
    # resident reads.
    ("spill_scan", "test_spill_scan_full", "test_spill_scan_memory"),
    # For the incr_* pairs the "scalar" slot is the full-recompute arm
    # and the "batch" slot the delta fold (same view, ~1% churn).
    ("incr_groupby", "test_incr_groupby_full",
     "test_incr_groupby_delta"),
    ("incr_join", "test_incr_join_full", "test_incr_join_delta"),
    ("incr_cycle", "test_incr_cycle_full", "test_incr_cycle_delta"),
    *(
        (f"placement:{name}", f"test_placement_throughput[{name}]",
         f"test_place_batch_throughput[{name}]")
        for name in ("consistent_hash", "extendible_hash", "kd_tree",
                     "hilbert_curve", "round_robin", "uniform_range")
    ),
]


def run_calibration(repeats: int, trials: int = 3) -> dict:
    """Repeat the smoke calibration; median/IQR per reported number.

    Correlations and fitted rates wobble with machine load, so the
    report carries the median and interquartile range over ``repeats``
    independent calibration runs instead of a single draw.  The perf
    gate reads only ``hot_paths`` / ``batch_vs_scalar_speedup``, so
    this key is informational — the hard correlation gate lives in
    ``bench_table3_calibration.py`` and the CI ``parallel-exec`` job.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.harness import table3_calibration

    runs = [
        table3_calibration(smoke=True, trials=trials)
        for _ in range(repeats)
    ]

    def med_iqr(values):
        lo, mid, hi = (
            float(x)
            for x in _percentiles(values, (25.0, 50.0, 75.0))
        )
        return {"median": mid, "iqr": hi - lo}

    kinds = sorted(runs[0].correlations)
    rate_names = sorted(runs[0].rates)
    return {
        "repeats": repeats,
        "trials_per_probe": trials,
        "correlations": {
            kind: med_iqr([r.correlations[kind] for r in runs])
            for kind in kinds
        },
        "fitted_seconds_per_byte": {
            name: med_iqr([r.rates[name] for r in runs])
            for name in rate_names
        },
    }


def _percentiles(values, qs):
    import numpy as np

    return np.percentile(np.asarray(values, dtype=float), qs)


def run_benchmarks(json_path: str, only: str = "") -> None:
    """Execute bench_micro.py, writing raw pytest-benchmark JSON.

    ``only`` is a pytest ``-k`` expression narrowing the run.
    """
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    cmd = [
        sys.executable, "-m", "pytest", BENCH_FILE, "-q",
        "--benchmark-json", json_path,
    ]
    if only:
        cmd += ["-k", only]
    result = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        raise SystemExit(
            f"benchmark run failed (exit {result.returncode})"
        )


def normalize(raw: dict) -> dict:
    """Raw pytest-benchmark JSON -> ops/sec per hot path + speedups."""
    hot_paths = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        items = int(bench.get("extra_info", {}).get("items", 1))
        mean = float(stats["mean"])
        entry = {
            "items": items,
            "mean_seconds": mean,
            "min_seconds": float(stats["min"]),
            "stddev_seconds": float(stats["stddev"]),
            "rounds": int(stats["rounds"]),
            "items_per_second": items / mean if mean > 0 else None,
        }
        hot_paths[bench["name"]] = entry

    speedups = {}
    for key, scalar_name, batch_name in SPEEDUP_PAIRS:
        scalar = hot_paths.get(scalar_name)
        batch = hot_paths.get(batch_name)
        if not scalar or not batch:
            continue
        if scalar["mean_seconds"] and batch["mean_seconds"]:
            speedups[key] = round(
                scalar["mean_seconds"] / batch["mean_seconds"], 2
            )

    return {
        "schema_version": 1,
        "generated_by": "benchmarks/bench_report.py",
        "suite": "bench_micro",
        "machine": raw.get("machine_info", {}).get("cpu", {}).get(
            "brand_raw",
            raw.get("machine_info", {}).get("machine", "unknown"),
        ),
        "hot_paths": dict(sorted(hot_paths.items())),
        "batch_vs_scalar_speedup": dict(sorted(speedups.items())),
    }


#: Sections keyed by benchmark row; a partial run merges into them.
ROW_SECTIONS = ("hot_paths", "batch_vs_scalar_speedup")


def write_merged(path: str, report: dict, partial: bool = False) -> None:
    """Update the record at ``path`` with ``report``'s sections.

    Top-level sections this run did not produce are kept, so one tool
    never erases what another wrote into the shared file.  A ``partial``
    run (``--only``) also keeps the rows it did not re-run.
    """
    record: dict = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {}
    if partial:
        report = dict(report)
        for section in ROW_SECTIONS:
            rows = {**record.get(section, {}), **report.get(section, {})}
            report[section] = dict(sorted(rows.items()))
    record.update(report)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=False)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_micro.json"),
        help="normalized report destination (default: repo root)",
    )
    parser.add_argument(
        "--input",
        default=None,
        help="existing pytest-benchmark JSON to normalize "
             "(skips running the suite)",
    )
    parser.add_argument(
        "--only",
        default="",
        help="pytest -k expression: re-run only the matching benchmarks "
             "and refresh only their rows of the record",
    )
    parser.add_argument(
        "--calibration-repeats",
        type=int,
        default=3,
        help="smoke-calibration runs for the median/IQR block "
             "(0 skips calibration entirely)",
    )
    args = parser.parse_args(argv)

    if args.input:
        try:
            with open(args.input) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read {args.input}: {exc}") from exc
    else:
        with tempfile.TemporaryDirectory() as tmp:
            raw_path = os.path.join(tmp, "benchmark_raw.json")
            run_benchmarks(raw_path, only=args.only)
            with open(raw_path) as fh:
                raw = json.load(fh)

    report = normalize(raw)
    if args.calibration_repeats > 0 and not args.only:
        report["calibration"] = run_calibration(
            args.calibration_repeats
        )
    write_merged(args.output, report, partial=bool(args.only))

    print(f"wrote {args.output}")
    for key, ratio in report["batch_vs_scalar_speedup"].items():
        print(f"  {key:28s} batch is {ratio:6.2f}x scalar")
    for kind, stats in report.get("calibration", {}).get(
        "correlations", {}
    ).items():
        print(
            f"  calibration corr {kind:10s} median "
            f"{stats['median']:.4f} (IQR {stats['iqr']:.4f})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
