"""Node-local chunk storage with byte accounting and an optional disk tier.

Each simulated node owns a :class:`ChunkStore` holding the chunks assigned
to it.  The store tracks modeled bytes so the cluster can evaluate capacity,
storage skew (RSD), and rebalance plans without touching cell payloads.

The deterministic ref ordering (:meth:`ChunkStore.refs`) is cached with a
dirty bit: mutations that change the key set invalidate it, and the sort
re-runs at most once per mutation instead of once per query.  The batch
APIs (:meth:`ChunkStore.put_many` / :meth:`ChunkStore.evict_many`) are
what the coordinator's grouped insert/rebalance/remove passes call — one
validation sweep and one byte-accounting update per group instead of one
per chunk.

Tiered mode
-----------
A store built with ``segments=`` (a
:class:`~repro.arrays.segment.SegmentStore`) gains a disk tier beneath
the in-memory payloads, managed by a :class:`SpillTier`:

* **Write-through** — every ``put`` persists the chunk's payload to a
  segment file *before* the store commits it, so eviction is free (drop
  the in-memory pair, never any I/O) and a process restart loses
  nothing (:meth:`~repro.arrays.segment.SegmentStore.open` +
  :meth:`ChunkStore.adopt_spilled` rehydrate the directory).
* **Byte-budgeted LRU** — resident payloads are capped at
  ``memory_budget`` bytes; the coldest unpinned chunk spills first.  A
  faulting read (:meth:`SpillTier.fault`) loads the payload back and
  re-enters it into the LRU.
* **Own arrays on entry** — a chunk cut from a batch arena
  (:class:`~repro.arrays.chunk.CellArena`) drops its extent when the
  tier adopts it (:meth:`SpillTier.register`); tiered handles are
  resident-with-own-arrays or spilled, never extents.
* **Materialize-on-exit** — any chunk object that leaves the tier (the
  pre-merge handle replaced by a ``put``, an evicted or removed chunk)
  is faulted in and detached *before* its segment file is reclaimed.
  Catalog delta logs and pinned snapshots hold exactly these retired
  handles, and they stay readable forever.

Invariant (tiered): a chunk handle with ``_payload is None`` is owned by
exactly one live store, its ref is in that store's segment manifest, and
``_tier`` points at that store's tier.  Everything the tier does
preserves it, which is what keeps pinned snapshot reads byte-stable —
the worst an eviction can do is make a later read fault in a fresh copy
of identical bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.arrays.chunk import ChunkData, ChunkRef
from repro.arrays.segment import SegmentStore
from repro.errors import StorageError


class SpillTier:
    """The byte-budgeted LRU of hot payloads over one segment store.

    It owns the LRU table, residency accounting, pins, and the
    telemetry counters; every segment read and write of the owning
    :class:`ChunkStore` goes through :attr:`segments`.
    """

    def __init__(
        self,
        segments: SegmentStore,
        memory_budget: Optional[float] = None,
    ) -> None:
        if memory_budget is not None and not memory_budget >= 0:
            raise StorageError("memory_budget must be non-negative")
        self.segments = segments
        self.memory_budget = (
            float(memory_budget) if memory_budget is not None else None
        )
        #: ref → resident chunk, oldest first (LRU order).
        self._resident: "OrderedDict[ChunkRef, ChunkData]" = OrderedDict()
        self._resident_bytes = 0.0
        # Monotonic sum of |operand| over every residency update; bounds
        # the float rounding the running sum can have accumulated, so
        # ``check`` can tell drift from a real accounting leak.
        self._churn_bytes = 0.0
        self._pins: Dict[ChunkRef, int] = {}
        # Lifetime counters (monotonic).
        self.fault_count = 0
        self.eviction_count = 0
        # Drainable I/O window (see drain_io) — what the query layer
        # charges through ``charge_io``.
        self._io_read_bytes = 0.0
        self._io_written_bytes = 0.0

    # -- residency accounting ------------------------------------------
    @property
    def resident_bytes(self) -> float:
        """Bytes of payloads currently held in memory."""
        return self._resident_bytes

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    def fault(self, chunk: ChunkData) -> Tuple:
        """Load a spilled payload back into memory (the read path).

        Called by :meth:`ChunkData.payload_parts` when the handle is
        cold: loads from the segment file, accounts the bytes, and sheds
        cold payloads down to the budget.  A failed segment read mutates
        nothing.
        """
        ref = chunk.ref()
        coords, columns = self.segments.read(ref)
        parts = (coords, columns)
        chunk._payload = parts
        self._resident[ref] = chunk
        self._resident_bytes += chunk.size_bytes
        self._churn_bytes += chunk.size_bytes
        self.fault_count += 1
        self._io_read_bytes += chunk.size_bytes
        self.evict_over_budget()
        return parts

    def evict_over_budget(self) -> None:
        """Spill cold unpinned payloads until within the byte budget.

        Spilling is free: write-through already persisted every
        payload, so shedding is a pure in-memory drop that cannot fail.
        Pinned chunks are skipped — the budget may overshoot while pins
        are held and recovers when they release.
        """
        budget = self.memory_budget
        if budget is None:
            return
        if self._resident_bytes <= budget:
            return
        pinned: List[Tuple[ChunkRef, ChunkData]] = []
        while self._resident_bytes > budget and self._resident:
            ref, chunk = self._resident.popitem(last=False)
            if self._pins.get(ref):
                pinned.append((ref, chunk))
                continue
            chunk._payload = None
            self._resident_bytes -= chunk.size_bytes
            self._churn_bytes += chunk.size_bytes
            self.eviction_count += 1
        # Re-enter pinned survivors at the cold end (original order
        # preserved) so they are the first candidates once unpinned.
        for ref, chunk in reversed(pinned):
            self._resident[ref] = chunk
            self._resident.move_to_end(ref, last=False)
        if not self._resident:
            # Fully drained: discard the running sum's accumulated
            # float residue instead of carrying it forever.
            self._resident_bytes = 0.0

    # -- pinning -------------------------------------------------------
    def pin_many(self, refs: Sequence[ChunkRef]) -> None:
        """Exempt chunks from eviction (counted — pins nest)."""
        for ref in refs:
            self._pins[ref] = self._pins.get(ref, 0) + 1

    def unpin_many(self, refs: Sequence[ChunkRef]) -> None:
        """Release pins and shed any overshoot they were holding back."""
        for ref in refs:
            count = self._pins.get(ref, 0) - 1
            if count > 0:
                self._pins[ref] = count
            else:
                self._pins.pop(ref, None)
        self.evict_over_budget()

    @contextmanager
    def pinned(self, refs: Sequence[ChunkRef]) -> Iterator[None]:
        refs = list(refs)
        self.pin_many(refs)
        try:
            yield
        finally:
            self.unpin_many(refs)

    # -- membership (called by the owning ChunkStore) ------------------
    def register(self, chunk: ChunkData) -> None:
        """Adopt a chunk into the tier (resident or already spilled).

        A chunk that arrives as an extent of a batch arena gives the
        extent up here, its views materialized first: from now on the
        tier alone decides whether the payload is in memory, and a
        handle that could always re-slice its arena would make eviction
        a no-op and the byte budget fiction.  So ``extent is not None``
        implies ``_tier is None``, everywhere.
        """
        if chunk._extent is not None:
            chunk.payload_parts()
            chunk._extent = None
        chunk._tier = self
        if chunk._payload is not None:
            ref = chunk.ref()
            if ref not in self._resident:
                self._resident_bytes += chunk.size_bytes
                self._churn_bytes += chunk.size_bytes
            self._resident[ref] = chunk
            self._resident.move_to_end(ref)

    def detach(self, chunk: ChunkData) -> None:
        """Remove a *materialized* chunk from the tier for good.

        The handle keeps its in-memory payload and is no longer backed
        by (or counted against) this tier — the shape delta logs and
        pinned snapshots require of retired handles.
        """
        if chunk._payload is None:  # pragma: no cover - guarded by callers
            raise StorageError(
                f"cannot detach spilled chunk {chunk.ref()}; "
                "materialize it first"
            )
        ref = chunk.ref()
        if self._resident.pop(ref, None) is not None:
            self._resident_bytes -= chunk.size_bytes
            self._churn_bytes += chunk.size_bytes
            if not self._resident:
                self._resident_bytes = 0.0
        self._pins.pop(ref, None)
        chunk._tier = None

    # -- telemetry -----------------------------------------------------
    def note_written(self, nbytes: float) -> None:
        self._io_written_bytes += nbytes

    def drain_io(self) -> Tuple[float, float]:
        """``(read, written)`` segment bytes since the last drain."""
        out = (self._io_read_bytes, self._io_written_bytes)
        self._io_read_bytes = 0.0
        self._io_written_bytes = 0.0
        return out

    def stats(self) -> Dict[str, float]:
        return {
            "memory_budget": (
                self.memory_budget
                if self.memory_budget is not None else float("inf")
            ),
            "resident_bytes": self._resident_bytes,
            "resident_chunks": float(len(self._resident)),
            "spilled_chunks": float(len(self.segments)),
            "fault_count": float(self.fault_count),
            "eviction_count": float(self.eviction_count),
        }

    def check(self) -> None:
        """Audit LRU accounting invariants (test hook; raises on drift)."""
        total = 0.0
        for ref, chunk in self._resident.items():
            if chunk._payload is None:
                raise StorageError(
                    f"LRU lists {ref} as resident but its payload "
                    "is gone"
                )
            if chunk._tier is not self:
                raise StorageError(
                    f"resident chunk {ref} is attached to a "
                    "different tier"
                )
            if ref not in self.segments:
                raise StorageError(
                    f"resident chunk {ref} has no segment backing "
                    "(write-through violated)"
                )
            total += chunk.size_bytes
        # The running sum reassociates additions the fresh sum
        # doesn't, so allow rounding proportional to everything
        # ever accounted — far below any real leak (one chunk).
        slack = 1e-9 * max(1.0, self._churn_bytes)
        if abs(total - self._resident_bytes) > slack:
            raise StorageError(
                f"LRU byte accounting drifted: tracked "
                f"{self._resident_bytes}, actual {total}"
            )
        if self.memory_budget is not None and not self._pins:
            if self._resident_bytes > self.memory_budget + slack:
                raise StorageError(
                    f"unpinned resident bytes {self._resident_bytes} "
                    f"exceed budget {self.memory_budget}"
                )


class ChunkStore:
    """Physical chunk storage for one node.

    Chunks are keyed by :class:`ChunkRef` so one store can hold chunks from
    several arrays (the two MODIS bands, the AIS broadcast array, ...).

    Parameters
    ----------
    memory_budget : float, optional
        Resident-payload byte cap (tiered mode only).  ``None`` means
        unbounded residency — payloads still write through to segments.
    segments : SegmentStore, optional
        The disk tier.  Omitted (the default), the store is the classic
        all-in-memory structure — an untiered cluster's store, the
        reference a tiered one must answer byte-identically to.
    """

    def __init__(
        self,
        memory_budget: Optional[float] = None,
        segments: Optional[SegmentStore] = None,
    ) -> None:
        self._chunks: Dict[ChunkRef, ChunkData] = {}
        self._bytes: float = 0.0
        self._sorted: Optional[List[ChunkRef]] = None  # None = dirty
        if segments is None:
            if memory_budget is not None:
                raise StorageError(
                    "memory_budget requires a segment store to spill to"
                )
            self._tier: Optional[SpillTier] = None
        else:
            self._tier = SpillTier(segments, memory_budget)

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> float:
        """Total modeled bytes held by this store."""
        return self._bytes

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def tier(self) -> Optional[SpillTier]:
        """The spill tier, or ``None`` for an all-in-memory store."""
        return self._tier

    @property
    def memory_budget(self) -> Optional[float]:
        tier = self._tier
        return tier.memory_budget if tier is not None else None

    def refs(self) -> List[ChunkRef]:
        """All chunk refs, sorted for determinism.

        The sorted list is cached and only rebuilt after a mutation
        changed the key set (puts of new refs, evictions) — repeated
        queries pay an O(1) check, not an O(n log n) sort.  Callers must
        treat the returned list as read-only.
        """
        if self._sorted is None:
            self._sorted = sorted(
                self._chunks, key=lambda r: (r.array, r.key)
            )
        return self._sorted

    def __contains__(self, ref: object) -> bool:
        return isinstance(ref, ChunkRef) and ref in self._chunks

    def __len__(self) -> int:
        return len(self._chunks)

    def __iter__(self) -> Iterator[ChunkRef]:
        return iter(self.refs())

    # ------------------------------------------------------------------
    def put(self, chunk: ChunkData) -> ChunkData:
        """Store a chunk; merges payloads if the ref already exists.

        Returns the chunk object the store now holds — the input for a
        first-time put, the merged :class:`ChunkData` otherwise (the
        chunk catalog tracks exactly this object as the payload handle).
        """
        return self.put_many([chunk])[0]

    def put_many(self, chunks: Sequence[ChunkData]) -> List[ChunkData]:
        """Store many chunks (in order); returns the stored objects.

        The one merge loop per store mode (:meth:`put` is a batch of
        one): a ref already held merges payloads, with one sorted-ref
        invalidation and one running-bytes update for the whole group.
        In tiered mode the group is durable before it is visible: every
        payload lands in a fresh segment file and the manifest flips
        atomically, then the in-memory table commits; any I/O failure
        leaves the store exactly as it was.
        """
        if self._tier is not None:
            return self._put_many_tiered(chunks)
        stored: List[ChunkData] = []
        delta = 0.0
        dirty = False
        table = self._chunks
        for chunk in chunks:
            ref = chunk.ref()
            existing = table.get(ref)
            if existing is None:
                table[ref] = chunk
                delta += chunk.size_bytes
                dirty = True
                stored.append(chunk)
            else:
                merged = existing.merged_with(chunk)
                delta += merged.size_bytes - existing.size_bytes
                table[ref] = merged
                stored.append(merged)
        self._bytes += delta
        if dirty:
            self._sorted = None
        return stored

    def _put_many_tiered(
        self, chunks: Sequence[ChunkData]
    ) -> List[ChunkData]:
        tier = self._tier
        assert tier is not None
        # 1. Compute the final per-ref chunk objects, merging in
        #    input order.  Merge sources are pinned so the faults
        #    the merges themselves trigger cannot evict a source
        #    mid-batch.
        finals: Dict[ChunkRef, ChunkData] = {}
        originals: Dict[ChunkRef, Optional[ChunkData]] = {}
        order: List[ChunkRef] = []
        stored: List[ChunkData] = []
        merge_refs = [
            c.ref() for c in chunks if c.ref() in self._chunks
        ]
        # The pin covers the whole batch: the pre-merge handles
        # must stay materialized from the merge reads through their
        # detach in step 3 (a mid-batch eviction would strip a
        # handle the delta log keeps forever).
        with tier.pinned(merge_refs):
            for chunk in chunks:
                ref = chunk.ref()
                if ref in finals:
                    current: Optional[ChunkData] = finals[ref]
                else:
                    current = self._chunks.get(ref)
                    originals[ref] = current
                    order.append(ref)
                new = (
                    chunk if current is None
                    else current.merged_with(chunk)
                )
                finals[ref] = new
                stored.append(new)
            # 2. Make the batch durable: stage every segment
            #    write, then flip the manifest.  Failure unwinds to
            #    the pre-call state (staged files become invisible
            #    orphans and are reclaimed best-effort).
            staged: Dict[ChunkRef, Tuple[ChunkData, str]] = {}
            try:
                for ref in order:
                    staged[ref] = (
                        finals[ref],
                        tier.segments.write_staged(finals[ref]),
                    )
                tier.segments.commit(staged)
            except Exception:
                tier.segments.discard_staged(
                    [fname for _chunk, fname in staged.values()]
                )
                raise
            # 3. Commit in memory: pure bookkeeping, cannot fail.
            delta = 0.0
            dirty = False
            written = 0.0
            for ref in order:
                old = originals[ref]
                new = finals[ref]
                written += new.size_bytes
                if old is None:
                    delta += new.size_bytes
                    dirty = True
                else:
                    delta += new.size_bytes - old.size_bytes
                    tier.detach(old)
                self._chunks[ref] = new
                tier.register(new)
            self._bytes += delta
            if dirty:
                self._sorted = None
            tier.note_written(written)
        tier.evict_over_budget()
        return stored

    def get(self, ref: ChunkRef) -> ChunkData:
        """Fetch a chunk by ref; raises :class:`StorageError` when absent."""
        try:
            return self._chunks[ref]
        except KeyError:
            raise StorageError(f"store does not hold chunk {ref}") from None

    def evict(self, ref: ChunkRef) -> ChunkData:
        """Remove and return a chunk (the send side of a rebalance move)."""
        return self.evict_many([ref])[0]

    def evict_many(
        self, refs: Sequence[ChunkRef]
    ) -> List[ChunkData]:
        """Remove and return many chunks, validating the whole batch first.

        The batch is all-or-nothing: a missing or duplicate ref raises
        :class:`StorageError` before any chunk leaves the store.  In
        tiered mode every departing chunk is materialized first (a
        failed segment read aborts with the store unchanged), so the
        returned handles stay readable after their files are reclaimed.
        """
        if self._tier is not None:
            return self._evict_many_tiered(refs)
        self._validate_evict(refs)
        pop = self._chunks.pop
        evicted = [pop(ref) for ref in refs]
        # An emptied store holds exactly 0.0, not the float residue.
        self._bytes = (
            self._bytes - sum(c.size_bytes for c in evicted)
            if self._chunks else 0.0
        )
        if evicted:
            self._sorted = None
        return evicted

    def _validate_evict(self, refs: Sequence[ChunkRef]) -> None:
        seen = set()
        for ref in refs:
            if ref not in self._chunks:
                raise StorageError(f"cannot evict missing chunk {ref}")
            if ref in seen:
                raise StorageError(
                    f"duplicate chunk {ref} in evict batch"
                )
            seen.add(ref)

    def _evict_many_tiered(
        self, refs: Sequence[ChunkRef]
    ) -> List[ChunkData]:
        tier = self._tier
        assert tier is not None
        self._validate_evict(refs)
        # Materialize every departing payload under a pin — the
        # faults must not evict each other — so a segment-read
        # failure aborts before anything leaves the store.
        tier.pin_many(refs)
        try:
            for ref in refs:
                self._chunks[ref].payload_parts()
        except BaseException:
            tier.unpin_many(refs)
            raise
        # Drop the manifest entries first: a failed manifest flush
        # aborts with the store intact (chunks stay resident; their
        # pins release).
        try:
            tier.segments.delete_many(list(refs))
        except BaseException:
            tier.unpin_many(refs)
            raise
        evicted = []
        for ref in refs:
            chunk = self._chunks.pop(ref)
            tier.detach(chunk)  # also releases the pin
            evicted.append(chunk)
        self._bytes = (
            self._bytes - sum(c.size_bytes for c in evicted)
            if self._chunks else 0.0
        )
        if evicted:
            self._sorted = None
        return evicted

    # -- tiered-only surface -------------------------------------------
    def adopt_spilled(self, chunk: ChunkData) -> None:
        """Adopt a cold handle whose payload already lives in segments.

        The restart-recovery path: :meth:`SegmentStore.open` lists the
        manifest, the caller builds :meth:`ChunkData.spilled` handles,
        and this wires them to the tier without any I/O — the first
        query read faults them in lazily.
        """
        tier = self._tier
        if tier is None:
            raise StorageError(
                "adopt_spilled requires a tiered store"
            )
        ref = chunk.ref()
        if ref in self._chunks:
            raise StorageError(f"store already holds chunk {ref}")
        if not chunk.is_resident and ref not in tier.segments:
            raise StorageError(
                f"cannot adopt spilled chunk {ref}: no segment "
                "backs it"
            )
        self._chunks[ref] = chunk
        self._bytes += chunk.size_bytes
        self._sorted = None
        tier.register(chunk)

    @contextmanager
    def pinned(self, refs: Sequence[ChunkRef]) -> Iterator[None]:
        """Pin chunks against eviction for a block (no-op untiered)."""
        tier = self._tier
        if tier is None:
            yield
        else:
            with tier.pinned(refs):
                yield

    def drain_io(self) -> Tuple[float, float]:
        """``(read, written)`` tier bytes since the last drain."""
        tier = self._tier
        return tier.drain_io() if tier is not None else (0.0, 0.0)

    # ------------------------------------------------------------------
    def chunks(self) -> Iterator[ChunkData]:
        for ref in self.refs():
            yield self._chunks[ref]

    def clear(self) -> None:
        tier = self._tier
        if tier is not None:
            # Retired handles must stay readable (delta logs hold
            # them): materialize and detach everything first.  Pins
            # hold until detach so the faults cannot evict each
            # other's work; detach releases them.
            refs = list(self._chunks)
            tier.pin_many(refs)
            try:
                for chunk in self._chunks.values():
                    chunk.payload_parts()
                tier.segments.delete_many(refs)
            except BaseException:
                tier.unpin_many(refs)
                raise
            for chunk in self._chunks.values():
                tier.detach(chunk)
            self._chunks.clear()
            self._bytes = 0.0
            self._sorted = None
            return
        self._chunks.clear()
        self._bytes = 0.0
        self._sorted = None
