"""CI perf gate: fail when a benchmark regresses vs the committed baseline.

Runs the ``bench_micro.py`` suite (or normalizes an existing
pytest-benchmark JSON via ``--input``), converts every result to
items/second exactly like ``bench_report.py``, and compares each hot
path against the committed ``BENCH_micro.json``.  Any benchmark whose
items/second falls more than ``--tolerance`` (default 25 %) below the
baseline fails the gate, as does a baseline benchmark missing from the
current run (renames must refresh the baseline).  ``--input`` also takes
an already-normalized record — a regenerated ``BENCH_micro.json`` — and
then a top-level section of the baseline that the new record lost
(``"calibration"``, ``"concurrent"``) fails the gate as well.

``--mode speedups`` compares single-run batch-vs-scalar ratios.  A ratio
whose batch arm runs under 200 µs (in this run or in the baseline) is
skipped with a printed reason instead of gated: timer granularity and
scheduler noise move a loop that short by more than the tolerance
between two runs of identical code, so its verdict would be a coin flip.

Usage::

    python benchmarks/bench_gate.py [--baseline BENCH_micro.json]
                                    [--input raw-benchmark.json]
                                    [--tolerance 0.25]

The gate only ever reads the baseline; refresh it with
``python benchmarks/bench_report.py`` (see README).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_report import (  # noqa: E402
    REPO_ROOT,
    SPEEDUP_PAIRS,
    normalize,
    run_benchmarks,
)

#: Batch arms shorter than this make a single-run speedup ungateable.
MIN_BATCH_ARM_SECONDS = 200e-6


def short_batch_arms(*records: dict) -> dict:
    """Speedup key -> shortest batch-arm mean under the 200 µs floor.

    Looks at every given record (baseline and current run): a ratio is
    only as steady as the shorter of the two measurements behind it.
    """
    short: dict = {}
    for key, _scalar_name, batch_name in SPEEDUP_PAIRS:
        means = [
            entry["mean_seconds"]
            for record in records
            for entry in [record.get("hot_paths", {}).get(batch_name)]
            if entry and entry.get("mean_seconds")
        ]
        if means and min(means) < MIN_BATCH_ARM_SECONDS:
            short[key] = min(means)
    return short


def _best_case_ips(entry: dict):
    """Items/second at the benchmark's best round.

    The gate compares best-case rates: per-round minima are far more
    stable than means under scheduler noise, which matters when the
    tolerance is a hard CI failure.  Falls back to the mean-based rate
    for entries without a recorded minimum.
    """
    items = entry.get("items", 1)
    min_seconds = entry.get("min_seconds")
    if min_seconds:
        return items / min_seconds
    return entry.get("items_per_second")


def compare(
    baseline: dict, current: dict, tolerance: float
) -> list:
    """Per-benchmark verdicts: (name, base ips, current ips, ratio, ok)."""
    rows = []
    for name, base in sorted(baseline.items()):
        base_ips = _best_case_ips(base)
        cur = current.get(name)
        cur_ips = _best_case_ips(cur) if cur is not None else None
        if not cur_ips:
            rows.append((name, base_ips, None, None, False))
            continue
        if not base_ips:
            continue  # malformed baseline entry: nothing to gate on
        ratio = cur_ips / base_ips
        rows.append(
            (name, base_ips, cur_ips, ratio, ratio >= 1.0 - tolerance)
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=os.path.join(REPO_ROOT, "BENCH_micro.json"),
        help="committed baseline report (default: repo root)",
    )
    parser.add_argument(
        "--input",
        default=None,
        help="existing pytest-benchmark JSON to gate on "
             "(skips running the suite)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional items/second regression (default 0.25)",
    )
    parser.add_argument(
        "--mode",
        choices=("items", "speedups"),
        default="items",
        help="'items' gates absolute items/second vs the baseline "
             "(assumes comparable hardware); 'speedups' gates the "
             "within-run batch-vs-scalar ratios, which are "
             "hardware-independent (for heterogeneous runners)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.baseline) as fh:
            baseline_report = json.load(fh)
        baseline = baseline_report["hot_paths"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise SystemExit(
            f"cannot read baseline {args.baseline}: {exc}"
        ) from exc

    if args.input:
        try:
            with open(args.input) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read {args.input}: {exc}") from exc
    else:
        with tempfile.TemporaryDirectory() as tmp:
            raw_path = os.path.join(tmp, "benchmark_raw.json")
            run_benchmarks(raw_path)
            with open(raw_path) as fh:
                raw = json.load(fh)

    # A record bench_report.py wrote gates as it is; a raw
    # pytest-benchmark JSON becomes the record bench_report.py would
    # leave behind: the baseline with this run's sections merged in.
    report = (
        raw if "hot_paths" in raw
        else {**baseline_report, **normalize(raw)}
    )
    vanished = sorted(
        section for section, value in baseline_report.items()
        if isinstance(value, dict) and section not in report
    )
    skipped: dict = {}
    if args.mode == "speedups":
        cur_speedups = report.get("batch_vs_scalar_speedup", {})
        # (a ratio the current run lost still fails as missing)
        skipped = {
            key: seconds
            for key, seconds in short_batch_arms(
                baseline_report, report
            ).items()
            if key in cur_speedups
        }
        base_speedups = {
            key: value
            for key, value in baseline_report.get(
                "batch_vs_scalar_speedup", {}
            ).items()
            if key not in skipped
        }
        rows = compare(
            {k: {"items": v, "min_seconds": 1.0}
             for k, v in base_speedups.items()},
            {k: {"items": v, "min_seconds": 1.0}
             for k, v in cur_speedups.items()},
            args.tolerance,
        )
    else:
        rows = compare(baseline, report["hot_paths"], args.tolerance)
    current = (
        report["hot_paths"] if args.mode == "items"
        else report.get("batch_vs_scalar_speedup", {})
    )

    unit = "items/s" if args.mode == "items" else "x scalar"
    failures = len(vanished)
    for section in vanished:
        print(f"FAIL section {section!r} of the baseline is gone")
    for name, seconds in sorted(skipped.items()):
        print(
            f"skip {name:45s} batch arm runs {seconds * 1e6:.0f} µs "
            f"(< {MIN_BATCH_ARM_SECONDS * 1e6:.0f} µs): too short for a "
            f"single-run ratio to be gated"
        )
    for name, base_ips, cur_ips, ratio, ok in rows:
        if cur_ips is None:
            print(f"FAIL {name:45s} missing from current run")
            failures += 1
            continue
        verdict = "ok  " if ok else "FAIL"
        print(
            f"{verdict} {name:45s} "
            f"{base_ips:14.2f} -> {cur_ips:14.2f} {unit} "
            f"({ratio:5.2f}x)"
        )
        if not ok:
            failures += 1

    extra = sorted(set(current) - {r[0] for r in rows} - set(skipped))
    for name in extra:
        print(f"new  {name:45s} (not in baseline)")

    if failures:
        print(
            f"\nperf gate FAILED: {failures} benchmark(s) or section(s) "
            f"regressed more than {args.tolerance:.0%} vs, or vanished "
            f"from, {args.baseline}"
        )
        return 1
    print(
        f"\nperf gate passed: {len(rows)} benchmark(s) within "
        f"{args.tolerance:.0%} of baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
