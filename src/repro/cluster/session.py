"""Epoch-pinned read sessions: the sanctioned query surface (MVCC-lite).

A :class:`ClusterSession` fronts an
:class:`~repro.cluster.cluster.ElasticCluster` with per-array
**snapshot reads**: the first touch of
an array pins an immutable :class:`~repro.core.catalog.ArraySnapshot`
(epoch + frozen id/key/owner/bytes column slices) and every subsequent
read of that array answers from the pin.  A query holding a session
therefore never observes a half-applied rebalance, an expiry, or an
ingest that lands mid-query — the paper's elasticity story (queries keep
running *while* the cluster reorganizes) without readers blocking
writers or writers blocking readers.

The session is the cluster's only catalog read surface.  A chunk read
— :meth:`~ClusterSession.chunks_of_array`,
:meth:`~ClusterSession.chunks_in_region`,
:meth:`~ClusterSession.deltas_since` — returns one
:class:`~repro.core.catalog.Read` from one routing pass: the query body
walks it as ``(chunk, node)`` pairs and
:func:`repro.query.cost.charge_scan` prices it from its columns, so a
query never routes the same region twice.  Cost parameters pass
through to the live cluster (they are tuning knobs, not array state),
but the **node universe is frozen at session creation**:
``node_ids`` returns the node set captured when the session opened, so
a cost accumulator interned from it stays valid for the session's whole
lifetime.  A pin whose snapshot places chunks on a node added *after*
the session opened is rejected with :class:`SnapshotRaceError`; the
caller re-runs on a fresh session, whose node universe is current.

Sessions are cheap (one column gather per touched array) and intended
to be short-lived: one per query, or one per suite pass.  Open them
with :meth:`ElasticCluster.session`::

    with_session = cluster.session()
    result = query.run(with_session, cycle)

Consistency contract
--------------------
Pins are **per array** (MVCC-lite, not full MVCC): two arrays touched
by one query are each internally consistent, but by default may pin at
different epochs if a mutation lands between the two first-touches.
:meth:`ClusterSession.pin` closes that gap for multi-array queries — it
captures all requested arrays in one call, with no mutation between
them.

Pinned reads stay byte-stable on **tiered** clusters too: snapshot
handles whose payloads spilled to disk fault back through the spill
tier, ``payload_parts`` hands out the coords/values pair as one tuple,
and handles retired by a merge or removal are materialized before their
segment file is reclaimed, so even a chunk expired mid-session answers
from its pinned bytes.  Payload reads concatenate the pin's frozen
handles and share the result through the catalog's one LRU under the
pinned *payload epoch*, so sessions at one content version share a
concatenation and none can be served another's.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy.typing as npt

from repro.arrays.chunk import ChunkData
from repro.arrays.coords import Box, region_mask
from repro.core.catalog import (
    ArraySnapshot,
    CatalogDelta,
    Read,
    concat_payload,
)
from repro.errors import ClusterError


class SnapshotRaceError(ClusterError):
    """A pin the session cannot admit.

    Raised when a captured snapshot places chunks on a node added after
    the session opened (so the session's frozen node universe — and any
    cost accumulator interned from it — is stale).  Callers recover by
    re-running on a fresh session.
    """


class ClusterSession:
    """Epoch-pinned read facade over one cluster (see module docstring).

    Parameters
    ----------
    cluster : ElasticCluster
        The live cluster.  The session never mutates it; coordinator
        mutations keep landing on it while the session reads.
    """

    def __init__(self, cluster: Any) -> None:
        self._cluster = cluster
        self._snapshots: Dict[str, ArraySnapshot] = {}
        # Frozen at creation: accumulators intern this node set once,
        # so it must not move under a running query (see _admit).
        self._node_ids: Tuple[int, ...] = tuple(cluster.node_ids)
        self._node_set = frozenset(self._node_ids)
        ids = self._node_ids
        self._node_lo = ids[0] if ids else 0
        self._node_hi = ids[-1] if ids else -1
        self._node_contig = (
            len(ids) == self._node_hi - self._node_lo + 1
        )

    # -- plumbing ------------------------------------------------------
    @property
    def cluster(self) -> Any:
        """The live cluster behind this session (mutations land there)."""
        return self._cluster

    @property
    def costs(self) -> Any:
        """Cost parameters (live passthrough — not part of array state)."""
        return self._cluster.costs

    @property
    def node_ids(self) -> Tuple[int, ...]:
        """Node ids frozen at session creation (stable charge set)."""
        return self._node_ids

    @property
    def node_count(self) -> int:
        return len(self._node_ids)

    def session(self) -> "ClusterSession":
        """This session (so suite entry points accept either surface)."""
        return self

    def _engine(self) -> Any:
        """The cluster's synced process backend, or ``None`` in-process."""
        return self._cluster.exec_backend()

    # -- pinning -------------------------------------------------------
    def _admit(self, snap: ArraySnapshot) -> ArraySnapshot:
        """Reject a snapshot placing chunks outside the frozen node set.

        A scale-out landing between session creation and this pin can
        relocate chunks onto a node the session's cost accumulator
        never interned; charging it would fail deep inside a kernel
        with an unknown-node :class:`~repro.errors.QueryError`.
        Surfacing the conflict here as :class:`SnapshotRaceError`
        instead tells the caller to re-run the query on a fresh session
        whose node universe is current.  Retrying within *this* session
        cannot help — its node set is permanently stale — so the raise
        is immediate.

        The common check is a ``(min, max)`` bounds test, the bounds
        taken once at capture — node ids are contiguous in practice
        (scale-out only appends), making it equivalent to the subset
        test; a non-contiguous frozen set falls back to the exact check.
        """
        if len(snap):
            lo, hi = snap.node_bounds()
            ok = self._node_lo <= lo and hi <= self._node_hi
            if ok and not self._node_contig:
                ok = self._node_set.issuperset(
                    snap.node_ids().tolist()
                )
        else:
            ok = True
        if not ok:
            raise SnapshotRaceError(
                f"array {snap.array!r} places chunks on nodes outside "
                f"this session's set {sorted(self._node_set)}; a "
                "scale-out landed after the session opened — re-run "
                "on a fresh session"
            )
        return snap

    def snapshot_of(self, array: str) -> ArraySnapshot:
        """The pinned snapshot of ``array`` (first touch pins it)."""
        snap = self._snapshots.get(array)
        if snap is not None:
            return snap
        snap = self._admit(self._cluster.catalog.snapshot(array))
        self._snapshots[array] = snap
        return snap

    def pin(self, arrays: Iterable[str]) -> "ClusterSession":
        """Pin several arrays at one consistent global epoch.

        Already-pinned arrays keep their pins; the remaining ones are
        captured together, and nothing mutates the catalog between the
        captures.  Either every capture is admitted or none is pinned.

        Raises
        ------
        SnapshotRaceError
            When a capture places chunks on a node added after this
            session opened; callers re-run on a fresh session.
        """
        catalog = self._cluster.catalog
        missing = sorted({a for a in arrays if a not in self._snapshots})
        batch = {a: self._admit(catalog.snapshot(a)) for a in missing}
        self._snapshots.update(batch)
        return self

    @property
    def pinned(self) -> Dict[str, int]:
        """``array -> pinned epoch`` for every array touched so far."""
        return {a: s.epoch for a, s in sorted(self._snapshots.items())}

    def release(self, array: Optional[str] = None) -> None:
        """Drop one pin (or all of them) so the next read re-pins."""
        if array is None:
            self._snapshots.clear()
        else:
            self._snapshots.pop(array, None)

    # -- read surface --------------------------------------------------
    def chunks_of_array(self, array: str) -> Read:
        """The pinned :class:`Read` of one whole array, key-sorted."""
        return self.snapshot_of(array).pairs()

    def chunks_in_region(self, array: str, region: Box) -> Read:
        """The pinned :class:`Read` of a region's chunks, key-sorted."""
        return self.snapshot_of(array).pairs_in_region(region)

    def placement_of_array(
        self, array: str
    ) -> Dict[Tuple[int, ...], int]:
        """Pinned chunk key → node map for one array."""
        return self.snapshot_of(array).placement()

    def array_payload(
        self,
        array: str,
        attrs: Sequence[str],
        ndim: int = 0,
    ) -> Tuple[npt.NDArray[Any], Dict[str, npt.NDArray[Any]]]:
        """Pinned concatenated cell table of one whole array.

        Under ``REPRO_EXEC=process`` the bytes are gathered from the
        worker processes holding the chunks; a pin the workers no
        longer serve (a mutation landed since) answers locally from
        the frozen snapshot handles, byte-identically.
        """
        snap = self.snapshot_of(array)
        engine = self._engine()
        if engine is not None:
            gathered = engine.gather_pairs(snap.pairs(), attrs, ndim)
            if gathered is not None:
                return gathered
        return snap.payload(attrs, ndim)

    def payload_in_region(
        self,
        array: str,
        region: Box,
        attrs: Sequence[str],
        ndim: int = 0,
    ) -> Tuple[npt.NDArray[Any], Dict[str, npt.NDArray[Any]]]:
        """Pinned cell table of one array clipped to ``region``.

        The process backend gathers the touched chunks from their
        workers and applies the same half-open region mask the
        snapshot fallback uses, so both paths return identical bytes.
        """
        snap = self.snapshot_of(array)
        engine = self._engine()
        if engine is not None:
            gathered = engine.gather_pairs(
                snap.pairs_in_region(region), attrs, ndim
            )
            if gathered is not None:
                coords, values = gathered
                mask = region_mask(coords, region)
                return coords[mask], {
                    a: v[mask] for a, v in values.items()
                }
        return snap.payload_in_region(region, attrs, ndim)

    def gather_payload(
        self,
        pairs: Sequence[Tuple[ChunkData, int]],
        attrs: Sequence[str],
        ndim: int = 0,
    ) -> Tuple[npt.NDArray[Any], Dict[str, npt.NDArray[Any]]]:
        """Concatenated cell table of explicit ``(chunk, node)`` pairs.

        The query kernels' scatter/gather entry point: under
        ``REPRO_EXEC=process`` the payload bytes of each pair travel
        from the worker process owning that node (one shared-memory
        frame per node); in-process — or when a pinned pair is no
        longer worker-resident — it is a local concatenation over the
        same handles in the same order, so the backends agree
        byte-for-byte.
        """
        pairs = list(pairs)
        engine = self._engine()
        if engine is not None:
            gathered = engine.gather_pairs(pairs, attrs, ndim)
            if gathered is not None:
                return gathered
        return concat_payload([c for c, _ in pairs], attrs, ndim)

    def deltas_since(self, array: str, epoch: int) -> CatalogDelta:
        """Pinned content mutations after ``epoch`` (log end frozen)."""
        return self.snapshot_of(array).deltas_since(epoch)

    def payload_epoch_of(self, array: str) -> int:
        """The pinned content-epoch cursor of one array.

        Maintained views refreshing through a session snapshot their
        next cursor from this — the pin, not the live epoch, so a
        mutation landing mid-refresh is folded *next* cycle instead of
        being silently skipped.
        """
        return self.snapshot_of(array).payload_epoch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pins = {a: s.epoch for a, s in self._snapshots.items()}
        return f"ClusterSession(pinned={pins!r})"
