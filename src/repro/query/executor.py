"""Query execution: the Query base class and concurrent session runners.

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
snapshot even while the coordinator mutates the live cluster.
:class:`ConcurrentExecutor` is the thread-pool face of that contract —
it runs mixed query batches against per-query sessions concurrently
with ingest/rebalance churn, retrying the rare consistent-pin race
(:class:`~repro.cluster.session.SnapshotRaceError`) on a fresh session.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

from repro.cluster.cluster import ElasticCluster
from repro.cluster.session import ClusterSession, SnapshotRaceError
from repro.errors import ClusterError
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
    clusters (and ``REPRO_STORAGE=memory``) drain an empty map, so this
    wrapper is a no-op for them and the modeled timings are unchanged.

    The drain is keyed to the session's node set — a concurrent
    scale-out may add nodes mid-query, and their ingest I/O belongs to
    the ingest, not to us.  Under :class:`ConcurrentExecutor` several
    queries share the cluster-wide counters, so per-query attribution is
    approximate there (total charged bytes are still conserved).
    """
    cluster = session.cluster
    cluster.drain_io()
    result = query._run(session, cycle)
    io = cluster.drain_io()
    if not io:
        return result
    node_ids = session.node_ids
    io = {n: b for n, b in io.items() if n in set(node_ids)}
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


class RetryExhaustedError(ClusterError):
    """Every fresh-session retry of one query lost its pin race.

    Raised internally by :class:`ConcurrentExecutor` (and surfaced as a
    typed outcome, not a thrown exception) when
    :class:`~repro.cluster.session.SnapshotRaceError` recurred on all
    :attr:`ConcurrentExecutor.RACE_RETRIES` fresh sessions — sustained
    mutation pressure, not a query bug.  Distinguishable downstream via
    :attr:`QueryOutcome.retry_exhausted`.
    """


@dataclass(frozen=True)
class QueryOutcome:
    """One query's completion record from :class:`ConcurrentExecutor`.

    ``result`` is ``None`` only when the query raised; ``error`` then
    carries the exception ``repr`` and ``error_type`` the exception
    class name (``"RetryExhaustedError"`` when every fresh-session
    retry lost its pin race).  ``attempts`` counts session (re)tries —
    >1 means a consistent pin lost an epoch race and the query re-ran
    on a fresh snapshot.
    """

    name: str
    category: str
    cycle: int
    result: Optional[QueryResult]
    latency_s: float
    attempts: int
    error: Optional[str] = None
    error_type: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def retry_exhausted(self) -> bool:
        """All pin-race retries lost (vs. a genuine query failure)."""
        return self.error_type == RetryExhaustedError.__name__


class ConcurrentExecutor:
    """Run mixed query batches on a thread pool over pinned sessions.

    Each submitted query gets its **own** fresh session, so concurrent
    queries pin independently and coordinator mutations landing between
    queries are observed by later pins but never mid-query.  When a
    query's consistent multi-array pin loses the epoch race
    (:class:`~repro.cluster.session.SnapshotRaceError`), the executor
    discards the session and retries on a new one, up to
    :attr:`RACE_RETRIES` times.

    The pool is sized for snapshot reads (numpy gathers release the GIL
    poorly, but the workload here is short bursts over small columns; a
    handful of workers keeps mutation interleave high without oversub-
    scribing the test machine).
    """

    #: Fresh-session retries after a lost consistent-pin race.
    RACE_RETRIES = 3

    def __init__(
        self,
        cluster: ElasticCluster,
        max_workers: int = 8,
    ) -> None:
        self._cluster = cluster
        self._max_workers = max(1, int(max_workers))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The persistent pool, spawned on first batch."""
        if self._closed:
            raise ClusterError(
                "executor is closed; construct a new ConcurrentExecutor"
            )
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="repro-query",
            )
        return self._pool

    def close(self) -> None:
        """Join the worker threads; idempotent, batches refuse after.

        Context-manager exit calls this, so
        ``with ConcurrentExecutor(cluster) as pool: ...`` never leaks
        threads past the block.
        """
        pool, self._pool = self._pool, None
        self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ConcurrentExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _run_one(self, query: Query, cycle: int) -> QueryOutcome:
        start = time.perf_counter()
        attempts = 0
        last: Optional[BaseException] = None
        while attempts <= self.RACE_RETRIES:
            attempts += 1
            session = self._cluster.session()
            try:
                result = _run_charged(query, session, cycle)
            except SnapshotRaceError as exc:
                last = exc
                continue
            except Exception as exc:  # surfaced in the outcome
                return QueryOutcome(
                    name=query.name,
                    category=query.category,
                    cycle=cycle,
                    result=None,
                    latency_s=time.perf_counter() - start,
                    attempts=attempts,
                    error=repr(exc),
                    error_type=type(exc).__name__,
                )
            return QueryOutcome(
                name=query.name,
                category=query.category,
                cycle=cycle,
                result=result,
                latency_s=time.perf_counter() - start,
                attempts=attempts,
            )
        exhausted = RetryExhaustedError(
            f"query {query.name!r} lost its pin race on all "
            f"{attempts} sessions (last: {last!r})"
        )
        return QueryOutcome(
            name=query.name,
            category=query.category,
            cycle=cycle,
            result=None,
            latency_s=time.perf_counter() - start,
            attempts=attempts,
            error=repr(exhausted),
            error_type=type(exhausted).__name__,
        )

    def run_batch(
        self,
        queries: Sequence[Query],
        cycle: int,
    ) -> List[QueryOutcome]:
        """Run ``queries`` concurrently; outcomes in submission order.

        The thread pool is spawned on the first batch and reused by
        later ones; :meth:`close` (or leaving the ``with`` block) joins
        it.  Raises :class:`~repro.errors.ClusterError` once closed.
        """
        if not queries:
            return []
        pool = self._ensure_pool()
        futures = [
            pool.submit(self._run_one, query, cycle)
            for query in queries
        ]
        return [f.result() for f in futures]
