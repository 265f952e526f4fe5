"""bench_e2e — wall-clock benchmark of the whole workload cycle.

One command drives generate -> chunk -> place -> store/spill ->
rebalance -> worker sync -> query suite through public APIs only, prints
every metric by name with its unit, verifies the answers, and writes the
JSON record::

    PYTHONPATH=src python benchmarks/e2e/bench_e2e.py
    python benchmarks/e2e/bench_e2e.py --workload ais_process --repeats 3
    python benchmarks/e2e/bench_e2e.py --compare A.json B.json

A single-threaded parent launches one fresh child process per
(workload, repeat), strictly one at a time (closed loop, one client).  A
metric's value is the median over repeats; latency percentiles pool the
samples of all repeats.  ``--trace 1`` (the default) adds one run per
workload with spans on; end-to-end metrics always come from the
untraced runs.  See ``README.md`` beside this file.

With exactly one ``--workload`` the last line of standard output is the
``BENCHMARK.json`` contract object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(HERE))

import e2e_metrics as metrics  # noqa: E402  (path bootstrap above)
import numpy as np  # noqa: E402
from e2e_cycles import DEFAULT_SEED, SCALES, SPECS, run_child  # noqa: E402

DEFAULT_REPEATS = 5
#: Fewest untraced repeats a time-budgeted (``--seconds``) run makes.
MIN_REPEATS = 3
#: A child is killed at this multiple of its workload's expected wall.
TIMEOUT_FACTOR = 10.0
#: ...but never sooner than this (interpreter start on a loaded box).
TIMEOUT_FLOOR_S = 20.0
RECORD_NAME = "BENCH_e2e.json"

#: Variables that change what the program does; the run refuses to
#: start when one is set, because the record would not say so.
FORBIDDEN_ENV_PREFIX = "REPRO_"


def forbidden_env(environ: Mapping[str, str]) -> List[str]:
    return sorted(k for k in environ if k.startswith(FORBIDDEN_ENV_PREFIX))


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in a process group, from ``/proc``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid pgrp ..."; comm may hold spaces.
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            alive.append(int(entry))
    return alive


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def launch(
    name: str,
    role: str,
    scale: str,
    seed: int,
    scratch: str,
    trace_path: Optional[str] = None,
    timeout_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one child to completion; always returns a child record.

    The child gets its own session, so a timeout kills its whole
    process group (worker processes included).  A child that times out,
    crashes, or leaves a process or a ``/dev/shm`` segment behind is
    recorded as one attempted, one failed operation.  Its files go to a
    fresh directory under ``scratch``, which the caller removes after
    the last child (see ``run_child`` for why not sooner).
    """
    if timeout_s is None:
        timeout_s = max(
            TIMEOUT_FLOOR_S,
            TIMEOUT_FACTOR * SPECS[name].expected_wall_s[scale],
        )
    tmp = tempfile.mkdtemp(prefix=f"{role}-", dir=scratch)
    result_path = tmp + ".result.json"
    shm_before = _shm_entries()
    problems: List[str] = []
    spec = {
        "name": name, "role": role, "scale": scale, "seed": seed,
        "tmp": tmp, "started": time.perf_counter(),
        "trace_path": trace_path, "result_path": result_path,
    }
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "bench_e2e.py"), "--child", json.dumps(spec)],
        stdout=sys.stderr,  # keep the parent's standard output clean
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout_s)
        if code != 0:
            problems.append(f"child exited with code {code}")
    except subprocess.TimeoutExpired:
        problems.append(f"timeout after {timeout_s:.0f}s; group killed")
        _kill_group(proc.pid)
        proc.wait()
    # (e) no process or shared-memory segment outlives a child.
    deadline = time.monotonic() + 2.0
    while _group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = _group_members(proc.pid)
    if survivors:
        problems.append(f"processes outlived the child: {survivors}")
        _kill_group(proc.pid)
    leaked = sorted(_shm_entries() - shm_before)
    if leaked:
        problems.append(f"/dev/shm residue: {leaked}")
        for entry in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", entry))
            except OSError:
                pass
    record: Optional[Dict[str, Any]] = None
    if os.path.exists(result_path):
        with open(result_path) as fh:
            record = json.load(fh)
    if record is None:
        record = {
            "workload": name, "role": role, "scale": scale, "seed": seed,
            "attempted": 0, "failed": 0, "errors": [], "checks": [],
            "crashed": True,
        }
    if problems:
        record["attempted"] += 1
        record["failed"] += 1
        record["errors"] = [
            *record["errors"], *(f"{role} child: {p}" for p in problems)
        ]
    return record


def child_main(spec_json: str) -> int:
    spec = json.loads(spec_json)
    result_path = spec.pop("result_path")
    record = run_child(**spec)
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


# ----------------------------------------------------------------------
# one workload: repeats -> statistics -> checks
# ----------------------------------------------------------------------
def run_workload(
    name: str,
    scale: str,
    seed: int,
    repeats: int,
    seconds: Optional[float],
    trace: bool,
    out_dir: str,
    workdir: str,
) -> Dict[str, Any]:
    """Every child of one workload, folded into its record entry."""
    spec = SPECS[name]
    t0 = time.perf_counter()
    scratch = tempfile.mkdtemp(prefix=f"e2e-{name}-", dir=workdir)
    try:
        oracle = None
        if spec.has_oracle:
            oracle = launch(name, "oracle", scale, seed, scratch)
        runs: List[Dict[str, Any]] = []
        while True:
            runs.append(launch(name, "measured", scale, seed, scratch))
            n = len(runs)
            if seconds is None:
                if n >= repeats:
                    break
            else:
                # Stop when one more repeat (and the traced run, if
                # any) would overrun the budget.
                elapsed = time.perf_counter() - t0
                pending = 2 if trace else 1
                if n >= MIN_REPEATS and elapsed + pending * elapsed / n > seconds:
                    break
        traced = None
        trace_file = f"trace_{name}.json"
        if trace:
            traced = launch(
                name, "traced", scale, seed, scratch,
                trace_path=os.path.join(out_dir, trace_file),
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    entry = fold(name, scale, seed, oracle, runs, traced)
    if traced is not None and "trace" in traced:
        entry["trace"]["file"] = trace_file
    entry["sizes"] = dict(spec.sizes[scale])
    entry["why"] = spec.why
    entry["total_s"] = time.perf_counter() - t0
    return entry


def fold(
    name: str,
    scale: str,
    seed: int,
    oracle: Optional[Dict[str, Any]],
    runs: Sequence[Dict[str, Any]],
    traced: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """Statistics over the repeats plus the cross-run output checks."""
    children = [r for r in (oracle, *runs, traced) if r is not None]
    attempted = sum(r["attempted"] for r in children)
    failed = sum(r["failed"] for r in children)
    errors = [e for r in children for e in r["errors"]]
    # One row per child-side check: it holds only if every child passed.
    by_name: Dict[str, Dict[str, Any]] = {}
    for r in children:
        for c in r["checks"]:
            row = by_name.setdefault(c["name"], dict(c))
            if not c["ok"]:
                row.update(ok=False, detail=c["detail"])
    checks = list(by_name.values())
    good = [r for r in runs if "e2e" in r]

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += not ok
        checks.append({"name": label, "ok": bool(ok), "detail": detail})

    e2e: Dict[str, Any] = {}
    layers: Dict[str, Any] = {}
    pooled: List[float] = []
    if good:
        for metric in good[0]["e2e"]:
            e2e[metric] = metrics.summarize([r["e2e"][metric] for r in good])
        pooled = [ms for r in good for ms in r["latencies_ms"]]
        for metric, pct in (("query_p50_ms", 50), ("query_p90_ms", 90)):
            stats = metrics.summarize(
                [metrics.percentile(r["latencies_ms"], pct) for r in good]
            )
            stats["median"] = metrics.percentile(pooled, pct)
            stats["samples"] = len(pooled)
            e2e[metric] = stats
        # (b) the backend under test answers exactly like its oracle.
        if oracle is not None:
            want = oracle.get("digests", {}).get("suite")
            odd = [
                i for i, r in enumerate(good)
                if r["digests"].get("suite") != want
            ]
            check(
                "b:answers-equal-oracle", want is not None and not odd,
                f"repeats differing from the oracle: {odd}" if odd else "",
            )
        hours = {r["e2e"]["modeled_node_hours"] for r in good}
        check(
            "modeled-node-hours-repeat-exactly", len(hours) == 1,
            f"{sorted(hours)}" if len(hours) > 1 else "",
        )
        drifting = []
        for layer in metrics.PER_LAYER:
            values = [r["layers"].get(layer.name, 0.0) for r in good]
            if layer.kind == "count":
                layers[layer.name] = {"value": values[0]}
                if len(set(values)) > 1:
                    drifting.append(layer.name)
            elif layer.kind == "timed":
                layers[layer.name] = metrics.summarize(values)
                layers[layer.name]["value"] = layers[layer.name]["median"]
        check(
            "counts-repeat-exactly", not drifting,
            f"counts that differ between repeats: {drifting}" if drifting else "",
        )
        if oracle is not None and "e2e" in oracle:
            layers[SPECS[name].slowdown_metric] = {
                "value": e2e["wall_s"]["median"] / oracle["e2e"]["wall_s"],
                "base_s": oracle["e2e"]["wall_s"],
            }
    e2e["failed_share"] = metrics.summarize(
        [failed / attempted if attempted else 1.0]
    )
    trace: Dict[str, Any] = {}
    if traced is not None and "trace" in traced:
        summary = traced["trace"]
        for layer in metrics.PER_LAYER:
            if layer.kind == "self_s":
                layers[layer.name] = {
                    "value": summary["self_s"].get(layer.name, 0.0)
                }
        trace = {
            "section_s": summary["section_s"],
            "span_count": summary["span_count"],
            "wall_s": traced["e2e"]["wall_s"],
        }
        if good:
            layers["harness.trace_overhead_x"] = {
                "value": traced["e2e"]["wall_s"] / e2e["wall_s"]["median"],
                "base_s": e2e["wall_s"]["median"],
            }
    for layer in metrics.PER_LAYER:
        stats = layers.setdefault(layer.name, {"value": 0.0})
        stats.update(
            unit=layer.unit, layer=layer.layer, kind=layer.kind,
            moves=layer.moves,
        )
    for name_, stats in e2e.items():
        stats["unit"] = metrics.E2E_BY_NAME[name_].unit
    return {
        "workload": name, "scale": scale, "seed": seed,
        "repeats": len(runs),
        "end_to_end": e2e,
        "per_layer": layers,
        "pooled_samples": len(pooled),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "errors": errors,
        "oracle": (
            {"wall_s": oracle["e2e"]["wall_s"], "digest": oracle["digests"].get("suite")}
            if oracle is not None and "e2e" in oracle else None
        ),
        "trace": trace,
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def machine_block() -> Dict[str, Any]:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_env": {
            var: os.environ.get(var)
            for var in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            )
        },
    }


def print_entry(entry: Mapping[str, Any], trace: bool) -> None:
    fmt = metrics.format_value
    print(
        f"\n== {entry['workload']}  scale={entry['scale']} seed={entry['seed']} "
        f"repeats={entry['repeats']} samples={entry['pooled_samples']} "
        f"attempted={entry['attempted']} failed={entry['failed']}"
    )
    print(f"  {'end-to-end metric':<28}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    for metric in metrics.END_TO_END:
        stats = entry["end_to_end"].get(metric.name)
        if stats is None:
            continue
        print(
            f"  {metric.name:<28}{metric.unit:<8}{fmt(stats['median']):>12}"
            f"{fmt(stats['q1']):>12}{fmt(stats['q3']):>12}{stats['n']:>4}"
        )
    print(f"  {'per-layer metric':<44}{'unit':<8}{'value':>12}  kind")
    for layer in metrics.PER_LAYER:
        if layer.kind == "self_s" and not trace:
            continue
        stats = entry["per_layer"][layer.name]
        print(
            f"  {layer.name:<44}{layer.unit:<8}{fmt(stats['value']):>12}  "
            f"{layer.kind}"
        )
    for item in entry["checks"]:
        mark = "ok  " if item["ok"] else "FAIL"
        print(f"  check {mark} {item['name']} {item['detail']}".rstrip())
    for error in entry["errors"]:
        print(f"  error: {error}")


def contract_line(entry: Mapping[str, Any], trace: bool) -> str:
    """The ``BENCHMARK.json`` result object of one workload."""
    declared = metrics.benchmark_json()
    if trace:
        values = {
            m["name"]: {
                "value": entry["per_layer"][m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in declared["per_layer"]
        }
    else:
        values = {
            m["name"]: {
                "value": entry["end_to_end"][m["name"]]["median"],
                "unit": m["unit"],
            }
            for m in declared["end_to_end"]
            if m["name"] in entry["end_to_end"]
        }
    return json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": max(1, entry["attempted"]),
        "failed": entry["failed"],
        "metrics": values,
    })


def write_record(
    path: str, entries: Sequence[Mapping[str, Any]], scale: str, seed: int
) -> None:
    """Merge this invocation's workloads into the record at ``path``.

    Entries of workloads not run this time are kept (each carries its
    own scale and seed), so running one workload never erases the rest.
    """
    record: Dict[str, Any] = {"workloads": {}}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {"workloads": {}}
    record.update(
        benchmark="bench_e2e",
        machine=machine_block(),
        scale=scale,
        seed=seed,
        written=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    for entry in entries:
        record.setdefault("workloads", {})[entry["workload"]] = entry
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def compare_main(base_path: str, new_path: str) -> int:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    rows, changed = metrics.compare(base, new)
    fmt = metrics.format_value
    print(f"{'workload':<14}{'metric':<22}{'base':>12}{'new':>12}  verdict")
    for workload, metric, verdict, b, n in rows:
        shown = f"**{verdict}**" if verdict in ("worse", "unresolved") else verdict
        print(f"{workload:<14}{metric:<22}{fmt(b):>12}{fmt(n):>12}  {shown}")
    for workload, metric, b, n in changed:
        print(f"{workload:<14}{metric:<34}{fmt(b):>12}{fmt(n):>12}  **changed**")
    tally = {v: sum(1 for r in rows if r[2] == v)
             for v in ("better", "no-worse", "worse", "unresolved")}
    print(
        ", ".join(f"{count} {v}" for v, count in tally.items())
        + f", {len(changed)} counts changed"
    )
    return 1 if tally["worse"] else 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(SPECS),
        help="workload to run (repeatable; default: all five)",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="untraced child runs per workload (default %(default)s)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="time budget per workload instead of --repeats: repeat "
             f"(at least {MIN_REPEATS}x) until the next run would overrun it",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="1: one extra traced run per workload for the per-layer "
             "self times (default); 0: untraced runs only",
    )
    parser.add_argument(
        "--out", default=str(HERE / "out"),
        help=f"directory for {RECORD_NAME} and trace_<workload>.json",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="parent of every temporary directory (default: <out>/work)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("BASE.json", "NEW.json"),
        help="compare two records with the bound table and exit",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        return child_main(args.child)
    if args.compare is not None:
        return compare_main(*args.compare)
    set_vars = forbidden_env(os.environ)
    if set_vars:
        print(
            f"refusing to run with {', '.join(set_vars)} set: the "
            "benchmark chooses backends itself", file=sys.stderr,
        )
        return 2
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    names = args.workload or list(SPECS)
    trace = bool(args.trace)
    os.makedirs(args.out, exist_ok=True)
    workdir = args.workdir or os.path.join(args.out, "work")
    os.makedirs(workdir, exist_ok=True)
    entries = []
    try:
        for name in names:
            entry = run_workload(
                name, args.scale, args.seed, args.repeats, args.seconds,
                trace, args.out, workdir,
            )
            entries.append(entry)
            print_entry(entry, trace)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    write_record(
        os.path.join(args.out, RECORD_NAME), entries, args.scale, args.seed
    )
    failed = sum(e["failed"] for e in entries)
    print(f"\nrecord: {os.path.join(args.out, RECORD_NAME)}")
    if len(entries) == 1:
        print(contract_line(entries[0], trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
