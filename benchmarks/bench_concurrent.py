"""Concurrent snapshot-read stress: mixed queries racing live churn.

Hammers one cluster with repeated trials of concurrent mixed SPJ +
science queries (``ConcurrentExecutor``, one epoch-pinned session per
query) while a mutator thread keeps ingesting, expiring, and scaling the
cluster — the paper's elasticity story under real thread interleaving.

Every query doubles as a consistency probe: its kernel runs twice on the
same session (snapshot memos dropped in between, so the second pass
re-derives from the frozen columns) and any byte-level divergence counts
as a **consistency violation**.  The acceptance bar is zero violations
and zero failed queries over >= 100 concurrent queries per run while
rebalances are actively landing.

Wall-clock latencies are aggregated across trials into p50/p99 (overall
and per category) and written to the ``"concurrent"`` key of
``BENCH_micro.json`` — a new top-level section, invisible to the perf
gate (``bench_gate.py`` reads only ``hot_paths`` and
``batch_vs_scalar_speedup``).

Usage::

    python benchmarks/bench_concurrent.py           # full: 5 trials
    python benchmarks/bench_concurrent.py --smoke   # CI: 1 small trial
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from typing import List

import numpy as np

from repro import ElasticCluster, GB, ModisWorkload, make_partitioner
from repro.query import ConcurrentExecutor, Query, QueryOutcome, modis_suite

REPO_ROOT = Path(__file__).resolve().parent.parent


class StabilityProbe(Query):
    """Wrap a query so each run re-derives its answer twice per pin.

    The second pass clears the catalog's payload cache first, forcing a
    fresh gather from the pinned columns; a mismatch means a mutation
    leaked into the snapshot mid-query.
    """

    def __init__(self, inner: Query) -> None:
        self.inner = inner
        self.name = inner.name
        self.category = inner.category
        self.violations = 0
        self._lock = threading.Lock()

    def _run(self, cluster, cycle):
        first = self.inner._run(cluster, cycle)
        catalog = cluster.cluster.catalog
        with catalog._payload_lock:
            catalog._payload_cache.clear()
        second = self.inner._run(cluster, cycle)
        if repr(first.value) != repr(second.value):
            with self._lock:
                self.violations += 1
        return first


def _build_cluster(workload: ModisWorkload, primed_cycles: int):
    partitioner = make_partitioner(
        "kd_tree",
        nodes=[0, 1],
        grid=workload.grid_box(),
        spatial_dims=workload.spatial_dims(),
    )
    cluster = ElasticCluster(partitioner, node_capacity_bytes=500 * GB)
    for cycle in range(1, primed_cycles + 1):
        cluster.ingest(workload.batch(cycle).chunks)
    return cluster


def _churn(cluster, workload, start_cycle, stop, mutations, errors):
    """Mutator loop: ingest fresh batches, expire old chunks, scale out."""
    try:
        cycle = start_cycle
        windows: List[List] = []
        while not stop.is_set() and cycle <= workload.n_cycles:
            batch = workload.batch(cycle).chunks
            cluster.ingest(batch)
            windows.append([c.ref() for c in batch])
            mutations["ingests"] += 1
            if len(windows) > 2:
                cluster.remove_chunks(windows.pop(0))
                mutations["expiries"] += 1
            if cycle % 2 == 0:
                cluster.scale_out(1)
                mutations["rebalances"] += 1
            cycle += 1
    except Exception as exc:  # pragma: no cover - surfaced in summary
        errors.append(repr(exc))


def run_trial(
    trial: int, repeat: int, cells: int, workers: int
) -> dict:
    """One stress trial: churn thread + a concurrent mixed batch."""
    churn_cycles = 10
    primed = 3
    workload = ModisWorkload(
        n_cycles=primed + churn_cycles,
        cells_per_band_per_cycle=cells,
    )
    cluster = _build_cluster(workload, primed)
    probes = [StabilityProbe(q) for q in modis_suite(workload)]
    batch: List[Query] = list(probes) * repeat

    stop = threading.Event()
    mutations = {"ingests": 0, "expiries": 0, "rebalances": 0}
    churn_errors: List[str] = []
    mutator = threading.Thread(
        target=_churn,
        args=(cluster, workload, primed + 1, stop, mutations,
              churn_errors),
    )
    mutator.start()
    outcomes = ConcurrentExecutor(cluster, max_workers=workers).run_batch(
        batch, primed
    )
    stop.set()
    mutator.join()
    cluster.check_consistency()

    failures = [o for o in outcomes if not o.ok]
    return {
        "trial": trial,
        "queries": len(outcomes),
        "failures": len(failures),
        "failure_detail": [o.error for o in failures[:5]],
        "violations": sum(p.violations for p in probes),
        "retried": sum(o.attempts > 1 for o in outcomes),
        "mutations": dict(mutations),
        "churn_errors": churn_errors,
        "outcomes": outcomes,
    }


def _percentiles(outcomes: List[QueryOutcome]) -> dict:
    lat_ms = np.array([o.latency_s for o in outcomes]) * 1e3
    return {
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p99_ms": float(np.percentile(lat_ms, 99)),
        "mean_ms": float(lat_ms.mean()),
        "max_ms": float(lat_ms.max()),
    }


def write_report(path: Path, report: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {}
    data["concurrent"] = report
    path.write_text(json.dumps(data, indent=2, sort_keys=False) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one small trial (CI stress job); still >=100 queries",
    )
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="suite repetitions per trial (6 queries per repetition)",
    )
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_micro.json",
        help="JSON report to update ('-' to skip writing)",
    )
    args = parser.parse_args(argv)
    trials = args.trials or (1 if args.smoke else 5)
    repeat = args.repeat or (18 if args.smoke else 30)
    cells = 120 if args.smoke else 300

    all_outcomes: List[QueryOutcome] = []
    trial_rows = []
    total_failures = total_violations = total_retried = 0
    mutation_totals = {"ingests": 0, "expiries": 0, "rebalances": 0}
    for trial in range(trials):
        row = run_trial(trial, repeat, cells, args.workers)
        outcomes = row.pop("outcomes")
        all_outcomes.extend(outcomes)
        total_failures += row["failures"]
        total_violations += row["violations"]
        total_retried += row["retried"]
        for key in mutation_totals:
            mutation_totals[key] += row["mutations"][key]
        pct = _percentiles(outcomes)
        trial_rows.append({**row, **pct})
        print(
            f"trial {trial}: {row['queries']} queries, "
            f"{row['failures']} failed, {row['violations']} violations, "
            f"{row['mutations']['rebalances']} rebalances landed, "
            f"p50 {pct['p50_ms']:.2f} ms, p99 {pct['p99_ms']:.2f} ms"
        )
        if row["churn_errors"]:
            print(f"  churn errors: {row['churn_errors']}")
            total_failures += len(row["churn_errors"])

    overall = _percentiles(all_outcomes)
    by_category = {
        cat: _percentiles([o for o in all_outcomes if o.category == cat])
        for cat in sorted({o.category for o in all_outcomes})
    }
    report = {
        "mode": "smoke" if args.smoke else "full",
        "trials": trials,
        "queries_per_trial": repeat * 6,
        "total_queries": len(all_outcomes),
        "failures": total_failures,
        "consistency_violations": total_violations,
        "race_retries": total_retried,
        "mutations": mutation_totals,
        "latency": overall,
        "latency_by_category": by_category,
        "per_trial": trial_rows,
    }
    print(
        f"\noverall: {len(all_outcomes)} queries across {trials} "
        f"trial(s), p50 {overall['p50_ms']:.2f} ms, "
        f"p99 {overall['p99_ms']:.2f} ms, "
        f"{total_violations} consistency violations, "
        f"{total_failures} failures"
    )
    if args.out != Path("-"):
        write_report(args.out, report)
        print(f"wrote 'concurrent' section to {args.out}")

    if len(all_outcomes) < 100:
        print("FAIL: fewer than 100 concurrent queries ran")
        return 1
    if mutation_totals["rebalances"] == 0:
        print("FAIL: no rebalance landed during the stress window")
        return 1
    if total_failures or total_violations:
        print("FAIL: consistency violations or failed queries")
        return 1
    print("PASS: zero violations under active rebalance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
