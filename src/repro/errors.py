"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing programming errors (``TypeError``/``ValueError`` from
misuse of numpy, for instance) from domain failures.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Type


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """Raised for malformed array schemas or schema-text parse failures."""


class ChunkError(ReproError):
    """Raised when chunk construction or chunk coordinate math fails."""


class StorageError(ReproError):
    """Raised by node-local chunk stores (duplicate keys, capacity, ...)."""


class SegmentCorruptError(StorageError):
    """Raised when an on-disk segment or manifest fails validation.

    A truncated file, a bad magic, a checksum mismatch, or offsets that
    fall outside the file all raise this — loudly — instead of letting a
    torn write surface as a silently wrong query answer.
    """


class PartitioningError(ReproError):
    """Raised when a partitioner is misused or reaches an invalid state."""


class ProvisioningError(ReproError):
    """Raised by the leading-staircase provisioner and its tuners."""


class ClusterError(ReproError):
    """Raised by the shared-nothing cluster simulator."""


class QueryError(ReproError):
    """Raised by the query engine for unsatisfiable or invalid queries."""


class WorkerFailedError(ClusterError):
    """A worker process backing a node died, hung, or lost its channel.

    Raised by the process-parallel execution backend
    (:mod:`repro.parallel`) when a request to a node's worker cannot
    complete: the process was killed, stopped replying within the
    request timeout, or its control pipe broke.  Carries the node id so
    callers can report *which* node failed instead of surfacing a raw
    pickle traceback or deadlocking on a join.
    """

    def __init__(self, node_id: int, message: str) -> None:
        super().__init__(f"worker for node {node_id}: {message}")
        self.node_id = node_id


class ConfigError(ReproError):
    """Raised by :mod:`repro.config` for unknown parity fields/modes."""


class WorkloadError(ReproError):
    """Raised by workload generators for invalid configurations."""


def require_index(name: str, value: int, error: Type[ReproError]) -> int:
    """``value`` as an int, or ``error`` unless it is an integer ``>= 0``
    (a dimension index)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise error(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


def require_count(name: str, value: int, error: Type[ReproError]) -> int:
    """``value`` as an int, or ``error`` unless it is an integer ``>= 1``
    (a count of samples, days, ring points, tree levels, ...)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Integral)
        or value < 1
    ):
        raise error(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def require_positive(
    name: str, value: float, error: Type[ReproError]
) -> float:
    """``value`` as a float, or ``error`` unless it is a finite real
    ``> 0``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not (math.isfinite(value) and value > 0)
    ):
        raise error(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def require_fraction(
    name: str, value: float, error: Type[ReproError], *, zero_ok: bool
) -> float:
    """``value`` as a float, or ``error`` unless it is a real in
    ``[0, 1]`` (``(0, 1]`` without ``zero_ok``)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not (0 <= value <= 1 and (zero_ok or value > 0))
    ):
        interval = "[0, 1]" if zero_ok else "(0, 1]"
        raise error(
            f"{name} must be finite and in {interval}, got {value!r}"
        )
    return float(value)
