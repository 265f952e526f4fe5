"""Spans recorded from outside the program: tracer, installer, self time.

``src/repro`` has no tracing of its own (ROADMAP item 4), so the
benchmark times each layer by wrapping the layer's *public* callables
for the duration of one traced run and restoring them afterwards:

* module functions are replaced in every loaded ``repro.*`` module
  namespace that holds them (``from x import f`` copies the binding, so
  ``execute_insert`` lives in ``repro.cluster.cluster``'s globals too);
* methods are replaced on the class that defines them, keeping the
  ``classmethod`` / ``staticmethod`` descriptor (``ElasticCluster.recover``
  and ``SegmentStore.open`` / ``create`` are classmethods).

A span is ``[id, parent, name, metric, start, end, cycle]``.  ``metric``
is the per-layer metric its **self time** accrues to: duration minus the
part of the interval its child spans cover.  The driver is
single-threaded, so the open-span stack is a plain list.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple

SPAN_FIELDS = ("id", "parent", "name", "metric", "start", "end", "cycle")

#: ``metric -> [(module, [function, ...])]`` — module-level functions.
FUNCTION_TARGETS: Dict[str, List[Tuple[str, List[str]]]] = {
    "arrays.chunk_cells_s": [("repro.arrays.array", ["chunk_cells"])],
    "core.payload_gather_s": [("repro.core.catalog", ["concat_payload"])],
    "cluster.insert_s": [("repro.cluster.coordinator", ["execute_insert"])],
    "cluster.rebalance_s": [
        ("repro.cluster.coordinator", ["execute_rebalance"]),
    ],
    "cluster.remove_s": [("repro.cluster.coordinator", ["execute_remove"])],
    "query.cost_s": [(
        "repro.query.cost",
        [
            "accumulator_for", "charge_io", "charge_network", "charge_scan",
            "charge_scan_array", "charge_scan_delta", "charge_scan_region",
            "charge_scan_routed", "colocation_shuffle_bytes", "elapsed_time",
            "halo_shuffle_bytes", "maintenance_plan", "node_byte_sums",
            "node_byte_sums_array",
        ],
    )],
}

#: ``metric -> [(module, class, [method, ...])]``.
METHOD_TARGETS: Dict[str, List[Tuple[str, str, List[str]]]] = {
    "arrays.store_s": [(
        "repro.arrays.storage", "ChunkStore",
        ["put", "put_many", "evict", "evict_many"],
    )],
    "arrays.tier_s": [(
        "repro.arrays.storage", "SpillTier", ["fault", "evict_over_budget"],
    )],
    "arrays.segment_write_s": [(
        "repro.arrays.segment", "SegmentStore",
        ["write_staged", "commit", "delete_many", "discard_staged", "flush"],
    )],
    "arrays.segment_read_s": [(
        "repro.arrays.segment", "SegmentStore", ["read", "open"],
    )],
    "core.ledger_maint_s": [(
        "repro.core.base", "ElasticPartitioner", ["compact_ledger", "remove"],
    )],
    "core.catalog_write_s": [(
        "repro.core.catalog", "ChunkCatalog",
        ["put_batch", "relocate_batch", "remove_batch", "compact"],
    )],
    "core.catalog_route_s": [
        (
            "repro.core.catalog", "ChunkCatalog",
            [
                "pairs_of_array", "pairs_in_region", "region_read",
                "scan_columns_of", "region_scan_columns", "snapshot",
            ],
        ),
        (
            "repro.core.catalog", "ArraySnapshot",
            [
                "pairs", "pairs_in_region", "region_read", "scan_columns",
                "region_scan_columns",
            ],
        ),
    ],
    "core.payload_gather_s": [
        (
            "repro.core.catalog", "ChunkCatalog",
            ["payload_of_array", "payload_in_region"],
        ),
        (
            "repro.core.catalog", "ArraySnapshot",
            ["payload", "payload_in_region"],
        ),
    ],
    "core.delta_log_s": [
        (
            "repro.core.catalog", "ChunkCatalog",
            ["deltas_since", "delta_scan_columns"],
        ),
        (
            "repro.core.catalog", "ArraySnapshot",
            ["deltas_since", "delta_scan_columns"],
        ),
    ],
    "cluster.session_s": [(
        "repro.cluster.session", "ClusterSession", ["snapshot_of", "pin"],
    )],
    "parallel.sync_s": [("repro.parallel.engine", "ProcessEngine", ["sync"])],
    "parallel.gather_s": [(
        "repro.parallel.engine", "ProcessEngine", ["gather_pairs"],
    )],
    "parallel.shuffle_s": [(
        "repro.parallel.engine", "ProcessEngine",
        ["partitioned_kmeans", "partitioned_knn_mean", "partitioned_equi_join"],
    )],
    "parallel.spawn_s": [(
        "repro.parallel.engine", "ProcessEngine",
        ["ensure_workers", "shutdown"],
    )],
}

#: Partitioner methods, wrapped on every class of ``PARTITIONER_CLASSES``
#: and its bases (schemes override ``place_batch``; ``scale_out`` lives
#: on the base).
PARTITIONER_TARGETS: Dict[str, List[str]] = {
    "core.place_s": ["prepare_batch", "place_batch"],
    "core.plan_rebalance_s": ["scale_out"],
}

#: Every public function of this module is a ``query.kernels_s`` span.
KERNEL_MODULE = "repro.query.operators"
KERNEL_METRIC = "query.kernels_s"


class Tracer:
    """In-memory span store with an open-span stack."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.stack: List[int] = []
        #: ``"<scheme>/<n>"`` of the cycle in flight — the identifier
        #: the spans of one cycle share.
        self.cycle = ""

    def open(self, name: str, metric: str) -> List[Any]:
        """Start a span under the innermost open one."""
        stack = self.stack
        span = [
            len(self.spans), stack[-1] if stack else -1, name, metric,
            time.perf_counter(), 0.0, self.cycle,
        ]
        self.spans.append(span)
        stack.append(span[0])
        return span

    def close(self, span: List[Any]) -> None:
        span[5] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn: Callable[..., Any], name: str, metric: str) -> Callable[..., Any]:
        """``fn`` with a span around every call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name, metric)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced


def _public_functions(module: Any) -> List[Callable[..., Any]]:
    return [
        value for name, value in sorted(vars(module).items())
        if not name.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    ]


def _defining_classes(cls: type, method: str) -> Iterable[type]:
    return [k for k in cls.__mro__ if k is not object and method in vars(k)]


class Installation:
    """The set of replaced bindings; :meth:`restore` puts them back."""

    def __init__(self) -> None:
        #: ``(owner, attribute, original binding)`` in install order.
        self.saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, original: Any, new: Any) -> None:
        self.saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


def _install_functions(
    inst: Installation,
    tracer: Tracer,
    targets: List[Tuple[Callable[..., Any], str]],
) -> None:
    """Replace each ``(function, metric)`` wherever ``repro.*`` binds it."""
    traced = {
        id(fn): (fn, tracer.wrap(fn, f"{fn.__module__}.{fn.__name__}", metric))
        for fn, metric in targets
    }
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            hit = traced.get(id(value))
            if hit is not None and hit[0] is value:
                inst.replace(module, attr, value, hit[1])


def _install_method(
    inst: Installation, tracer: Tracer, cls: type, method: str, metric: str
) -> None:
    raw = vars(cls)[method]
    name = f"{cls.__name__}.{method}"
    if isinstance(raw, (classmethod, staticmethod)):
        new: Any = type(raw)(tracer.wrap(raw.__func__, name, metric))
    else:
        new = tracer.wrap(raw, name, metric)
    inst.replace(cls, method, raw, new)


def install(tracer: Tracer) -> Installation:
    """Wrap every target callable; the caller must ``restore()``.

    Use as ``with install(tracer): ...`` — an exception part-way through
    installing restores what was already replaced.
    """
    inst = Installation()
    try:
        functions = [
            (getattr(importlib.import_module(mod_name), fn_name), metric)
            for metric, entries in FUNCTION_TARGETS.items()
            for mod_name, names in entries
            for fn_name in names
        ]
        kernels = importlib.import_module(KERNEL_MODULE)
        functions += [(fn, KERNEL_METRIC) for fn in _public_functions(kernels)]
        _install_functions(inst, tracer, functions)
        for metric, entries in METHOD_TARGETS.items():
            for mod_name, cls_name, methods in entries:
                cls = getattr(importlib.import_module(mod_name), cls_name)
                for method in methods:
                    _install_method(inst, tracer, cls, method, metric)
        registry = importlib.import_module("repro.core.registry")
        seen = set()
        for metric, methods in PARTITIONER_TARGETS.items():
            for method in methods:
                for scheme in registry.PARTITIONER_CLASSES.values():
                    for cls in _defining_classes(scheme, method):
                        if (cls, method) not in seen:
                            seen.add((cls, method))
                            _install_method(inst, tracer, cls, method, metric)
    except BaseException:
        inst.restore()
        raise
    return inst


def self_times(spans: List[List[Any]], root: int) -> Dict[str, float]:
    """Summed self time per metric over the subtree under span ``root``.

    A span's self time is its duration minus the union of its direct
    children's intervals.  With one thread, children of one parent never
    overlap, so the union is the plain sum — and the self times of a
    subtree add up to the root's duration exactly.
    """
    inside = {root}
    child_time: Dict[int, float] = {}
    for span in spans:  # ids ascend in start order: parents come first
        sid, parent = span[0], span[1]
        if parent in inside:
            inside.add(sid)
            child_time[parent] = child_time.get(parent, 0.0) + span[5] - span[4]
    out: Dict[str, float] = {}
    for span in spans:
        sid = span[0]
        if sid in inside:
            own = span[5] - span[4] - child_time.get(sid, 0.0)
            out[span[3]] = out.get(span[3], 0.0) + own
    return out
