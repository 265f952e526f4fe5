"""Metric declarations, repeat statistics, and the ``--compare`` rule.

The tables here are the single declaration of every metric the
benchmark reports; :func:`benchmark_json` renders the subset the root
``BENCHMARK.json`` contract takes (names, units, direction, bound) and
the self-test checks the committed file against it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from e2e_cycles import SPECS
from repro.core.traits import PAPER_ORDER

RUN_SECONDS = 20

MODIS_QUERIES = (
    "modis_selection", "modis_sort", "join_ndvi",
    "modis_statistics", "modis_modeling", "modis_complex",
)
AIS_QUERIES = (
    "ais_selection", "ais_sort", "ais_join",
    "ais_statistics", "knn", "ais_complex",
)


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric and how much it may worsen.

    ``bound`` is the share of the baseline median a later median may be
    worse by; ``floor`` is the absolute amount below which a difference
    is never called a regression (tiny values must not trip the bound).
    ``exact`` metrics are deterministic: any drift beyond ``bound`` is
    wrong, and their spread is not a property of the box.
    """

    name: str
    unit: str
    better: str
    bound: float
    floor: float
    definition: str
    exact: bool = False


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "wall_s", "s", "lower", 0.25, 0.2,
        "wall clock of the measured section: generation + every cycle of "
        "every scheme (set-up, oracle and verification excluded)",
    ),
    EndToEnd(
        "generate_s", "s", "lower", 0.25, 0.1,
        "summed workload.batch(cycle): cells to ChunkData objects, paid "
        "once per workload and cached across schemes",
    ),
    EndToEnd(
        "ingest_s", "s", "lower", 0.25, 0.05,
        "summed ingest-phase wall: scale_out + ingest + remove_chunks "
        "(Fig. 4's insert + reorganisation, measured)",
    ),
    EndToEnd(
        "query_s", "s", "lower", 0.25, 0.1,
        "summed wall of every run_suite([q]) and view.refresh() "
        "(Fig. 5's benchmark time, measured)",
    ),
    EndToEnd(
        "query_p50_ms", "ms", "lower", 0.25, 0.5,
        "median single-query latency, samples pooled over repeats",
    ),
    EndToEnd(
        "query_p90_ms", "ms", "lower", 0.25, 2.0,
        "90th percentile of the same pool (>=10 samples lie beyond it "
        "with three repeats of the smallest workload)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.05, 2.0,
        "child ru_maxrss",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25, 0.1,
        "child spawn to first cycle ready: interpreter, imports, workload "
        "object, first cluster, tier directory, initial worker spawn",
    ),
    EndToEnd(
        "failed_share", "ratio", "lower", 0.0, 0.0,
        "failed operations / attempted (an operation is one ingest phase, "
        "query, refresh, recover or output check)",
        exact=True,
    ),
    EndToEnd(
        "modeled_node_hours", "node-h", "lower", 1e-9, 0.0,
        "Eq. 1 workload cost summed from the reports' simulated seconds; "
        "deterministic, never a stand-in for wall clock",
        exact=True,
    ),
)
E2E_BY_NAME = {m.name: m for m in END_TO_END}

#: Metrics the ``BENCHMARK.json`` contract cannot carry as specified,
#: and the bound they get there instead.  ``failed_share`` is always 0
#: (the contract wants metrics that are never 0 and has its own
#: ``failed`` / ``attempted`` fields).  ``modeled_node_hours`` and
#: ``peak_rss_mb`` repeat almost exactly for one seed (0 and <1 %
#: spread) but follow the data across the driver's ten seeds (up to
#: 3.8 % and 5.1 %), so there they need a bound three times that; the
#: tight rule stays in ``--compare``, which compares records of one
#: seed.
CONTRACT_DROPPED = ("failed_share",)
CONTRACT_BOUNDS = {"modeled_node_hours": 0.15, "peak_rss_mb": 0.15}


@dataclass(frozen=True)
class Layer:
    """One per-layer metric.

    ``kind``: ``self_s`` — self time from the traced run; ``count`` —
    from the untraced runs, repeats exactly; ``timed`` — wall (or a
    ratio of walls) timed in the untraced runs, median over repeats;
    ``ratio`` — derived by the parent from two runs' walls.
    ``moves`` names the end-to-end metric it should move.
    """

    name: str
    unit: str
    kind: str
    moves: str
    better: str = "lower"

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


def _layers() -> Tuple[Layer, ...]:
    s, c, t, r = "self_s", "count", "timed", "ratio"
    rows: List[Layer] = [
        Layer("workloads.generate_self_s", "s", s, "generate_s"),
        Layer("workloads.chunks", "count", c, "generate_s"),
        Layer("workloads.cells", "count", c, "generate_s"),
        Layer("arrays.chunk_cells_s", "s", s, "generate_s"),
        Layer("arrays.store_s", "s", s, "ingest_s"),
        Layer("arrays.tier_s", "s", s, "query_s"),
        Layer("arrays.tier_faults", "count", c, "query_s"),
        Layer("arrays.tier_evictions", "count", c, "query_s"),
        Layer("arrays.spilled_chunks", "count", c, "ingest_s"),
        Layer("arrays.segment_write_s", "s", s, "ingest_s"),
        Layer("arrays.segment_read_s", "s", s, "query_s"),
        Layer("arrays.segment_files", "count", c, "ingest_s"),
        Layer("arrays.disk_bytes_per_payload_byte", "ratio", c, "ingest_s"),
        Layer("arrays.cold_suite_s", "s", t, "query_s"),
        Layer("arrays.tier_slowdown_x", "x", r, "wall_s"),
        Layer("core.place_s", "s", s, "ingest_s"),
        Layer("core.plan_rebalance_s", "s", s, "ingest_s"),
        Layer("core.ledger_maint_s", "s", s, "ingest_s"),
        Layer("core.catalog_write_s", "s", s, "ingest_s"),
        Layer("core.catalog_route_s", "s", s, "query_s"),
        Layer("core.payload_gather_s", "s", s, "query_s"),
        Layer("core.delta_log_s", "s", s, "query_s"),
        Layer("core.catalog_capacity", "count", c, "peak_rss_mb"),
        Layer("core.ledger_capacity", "count", c, "peak_rss_mb"),
        Layer("cluster.insert_s", "s", s, "ingest_s"),
        Layer("cluster.rebalance_s", "s", s, "ingest_s"),
        Layer("cluster.remove_s", "s", s, "ingest_s"),
        Layer("cluster.session_s", "s", s, "query_s"),
        Layer("cluster.recover_s", "s", s, "query_s"),
        Layer("cluster.chunks_moved", "count", c, "ingest_s"),
        Layer("cluster.bytes_moved_gb", "GB", c, "modeled_node_hours"),
        Layer("cluster.chunks_expired", "count", c, "ingest_s"),
    ]
    rows += [
        Layer(f"query.{q}_s", "s", t, "query_s")
        for q in MODIS_QUERIES + AIS_QUERIES
    ]
    rows += [
        Layer("query.kernels_s", "s", s, "query_s"),
        Layer("query.cost_s", "s", s, "query_s"),
        Layer("query.body_self_s", "s", s, "query_s"),
        Layer("query.refresh_s", "s", s, "query_s"),
        Layer("query.refresh_delta_share", "ratio", c, "query_s", "higher"),
        Layer("query.pass2_over_pass1", "ratio", t, "query_p50_ms"),
        Layer("parallel.sync_s", "s", s, "query_s"),
        Layer("parallel.gather_s", "s", s, "query_p50_ms"),
        Layer("parallel.shuffle_s", "s", s, "query_s"),
        Layer("parallel.spawn_s", "s", s, "wall_s"),
        Layer("parallel.load_requests", "count", c, "query_s"),
        Layer("parallel.load_bytes", "B", c, "query_s"),
        Layer("parallel.load_worker_s", "s", t, "query_s"),
        Layer("parallel.gather_requests", "count", c, "query_p50_ms"),
        Layer("parallel.gather_bytes", "B", c, "query_p50_ms"),
        Layer("parallel.gather_worker_s", "s", t, "query_p50_ms"),
        Layer("parallel.stale_fallbacks", "count", c, "query_s"),
        Layer("parallel.slowdown_x", "x", r, "wall_s"),
    ]
    rows += [
        Layer(f"harness.scheme_s.{scheme}", "s", t, "wall_s")
        for scheme in PAPER_ORDER
    ]
    rows += [
        Layer("harness.driver_self_s", "s", s, "wall_s"),
        Layer("harness.trace_overhead_x", "x", r, "wall_s"),
    ]
    return tuple(rows)


PER_LAYER: Tuple[Layer, ...] = _layers()
LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def benchmark_json() -> Dict[str, Any]:
    """The root ``BENCHMARK.json``, rendered from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/bench_e2e.py", "--scale", "gate"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": spec.name, "why": spec.why}
            for spec in SPECS.values() if spec.gated
        ],
        "end_to_end": [
            {
                "name": m.name, "unit": m.unit, "better": m.better,
                "bound": CONTRACT_BOUNDS.get(m.name, m.bound),
            }
            for m in END_TO_END if m.name not in CONTRACT_DROPPED
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# repeat statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    q1, median, q3 = quartiles(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "n": len(values), "values": list(values),
    }


def percentile(samples: Sequence[float], pct: int) -> float:
    """``pct`` in tenths-of-hundred steps: 50 or 90."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10)[pct // 10 - 1]


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def verdict(metric: EndToEnd, base: Mapping[str, Any], new: Mapping[str, Any]) -> str:
    """``better`` / ``no-worse`` / ``worse`` / ``unresolved`` for one pair.

    The allowed change is ``max(bound * |base median|, floor)``.  When
    either side's quartile range is wider than that and the two ranges
    overlap, the runs cannot tell the sides apart: ``unresolved``.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    allowed = max(metric.bound * abs(base["median"]), metric.floor)
    worse_by = sign * (new["median"] - base["median"])
    if not metric.exact:
        spread = max(base["q3"] - base["q1"], new["q3"] - new["q1"])
        disjoint = base["q3"] < new["q1"] or new["q3"] < base["q1"]
        if spread > allowed and not disjoint:
            return "unresolved"
    if worse_by > allowed:
        return "worse"
    if worse_by < -allowed:
        return "better"
    return "no-worse"


def compare(
    base: Mapping[str, Any], new: Mapping[str, Any]
) -> Tuple[List[Tuple[str, str, str, float, float]], List[Tuple[str, str, float, float]]]:
    """Compare two records.

    Returns ``(rows, changed_counts)``: one ``(workload, metric, verdict,
    base median, new median)`` row per end-to-end pair present in both,
    and the count metrics whose value differs.
    """
    rows = []
    changed = []
    for name, base_w in base["workloads"].items():
        new_w = new["workloads"].get(name)
        if new_w is None:
            continue
        for metric in END_TO_END:
            b = base_w["end_to_end"].get(metric.name)
            n = new_w["end_to_end"].get(metric.name)
            if b is None or n is None:
                continue
            rows.append(
                (name, metric.name, verdict(metric, b, n), b["median"], n["median"])
            )
        for layer in PER_LAYER:
            if layer.kind != "count":
                continue
            b = base_w["per_layer"].get(layer.name, {}).get("value")
            n = new_w["per_layer"].get(layer.name, {}).get("value")
            if b is not None and n is not None and b != n:
                changed.append((name, layer.name, b, n))
    return rows, changed


def format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0 or abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.4g}"
