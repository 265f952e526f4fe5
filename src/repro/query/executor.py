"""Query execution: the Query base class and the session runners.

Queries compute real answers over the cluster's chunk payloads and price
themselves with the placement-sensitive cost model.  The query layer is
batch-first: queries read the chunk payloads they touch as one
concatenated cell table (the session's ``array_payload`` /
``payload_in_region`` / ``gather_payload``, all over
:func:`repro.core.catalog.concat_payload`) and invoke each vectorized
operator kernel once over the concatenation, instead of once per
chunk.  The *simulated* latency always comes from the cost model,
so results don't depend on the test machine.

Reads go through epoch-pinned sessions
(:class:`~repro.cluster.session.ClusterSession`): :meth:`Query.run`
and :func:`run_suite` open one with ``target.session()`` (a session
answers with itself), so every kernel sees an immutable per-array
snapshot even when the coordinator mutates the live cluster between
the session's reads.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from numbers import Integral, Real
from typing import Iterable, List, Union

from repro.cluster.cluster import ElasticCluster
from repro.cluster.session import ClusterSession
from repro.errors import QueryError
from repro.query.cost import CostAccumulator, charge_io
from repro.query.result import QueryResult

#: Either query target: a session, or a cluster to open one on.
QueryTarget = Union[ClusterSession, ElasticCluster]

#: Query categories used by Figure 5's grouping.
CATEGORY_SPJ = "spj"
CATEGORY_SCIENCE = "science"


class Query(ABC):
    """One benchmark query bound to its workload.

    Subclasses implement :meth:`_run` against a
    :class:`~repro.cluster.session.ClusterSession`, returning a
    :class:`QueryResult` whose ``value`` is the real computed answer and
    whose timing reflects the pinned data placement.
    """

    #: stable identifier used in metrics and figures.
    name: str = ""
    #: CATEGORY_SPJ or CATEGORY_SCIENCE.
    category: str = ""

    def run(self, cluster: QueryTarget, cycle: int) -> QueryResult:
        """Execute against a session as of workload cycle ``cycle``.

        A raw cluster gets a fresh single-query session.
        """
        return _run_charged(self, cluster.session(), cycle)

    @abstractmethod
    def _run(self, cluster: ClusterSession, cycle: int) -> QueryResult:
        """Compute the answer from the session's pinned snapshots."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


def require_count(name: str, value: int) -> int:
    """``value`` as an int, or :class:`QueryError` unless it is an
    integer ``>= 1`` (a query parameter counting samples, days, ...)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Integral)
        or value < 1
    ):
        raise QueryError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def require_positive(name: str, value: float) -> float:
    """``value`` as a float, or :class:`QueryError` unless it is a
    finite real ``> 0``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not (math.isfinite(value) and value > 0)
    ):
        raise QueryError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def _run_charged(
    query: Query,
    session: ClusterSession,
    cycle: int,
) -> QueryResult:
    """Run one query and fold the spill tier's real I/O into its cost.

    Tiered nodes count every byte the LRU faults in from (or writes
    through to) segment files.  Those counters are *drained* here: reset
    before the query runs (scoping out ingest-side spill traffic), read
    after, priced with :func:`~repro.query.cost.charge_io`, and merged
    into the result's per-node busy time and elapsed latency.  Untiered
    clusters drain an empty map, so this
    wrapper is a no-op for them and the modeled timings are unchanged.

    Only the session's frozen node set is charged: a pinned handle
    relocated by a scale-out after the pin can still fault through the
    tier of its new node, which the session's cost accumulator never
    interned.
    """
    cluster = session.cluster
    cluster.drain_io()
    result = query._run(session, cycle)
    io = cluster.drain_io()
    if not io:
        return result
    node_ids = session.node_ids
    members = set(node_ids)
    io = {n: b for n, b in io.items() if n in members}
    if not io:
        return result
    acc = CostAccumulator(node_ids)
    total = charge_io(acc, io, cluster.costs)
    for node, seconds in acc.as_dict().items():
        result.per_node_seconds[node] = (
            result.per_node_seconds.get(node, 0.0) + seconds
        )
    result.elapsed_seconds += acc.max_seconds()
    result.io_bytes += total
    return result


def run_suite(
    queries: Iterable[Query],
    cluster: QueryTarget,
    cycle: int,
) -> List[QueryResult]:
    """Run a list of queries back to back (one benchmark pass).

    One shared session serves the whole pass, so every query in the
    suite reads the same pinned view of each array it touches.
    """
    session = cluster.session()
    results = []
    for query in queries:
        results.append(_run_charged(query, session, cycle))
    return results
