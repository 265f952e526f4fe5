"""The repo's lock hierarchy, declared once, checkable twice.

Four locks guard the concurrent core, and every nested acquisition must
walk *down* this table (outer lock first), never up:

=================  ====================================================
rank / name        lock
=================  ====================================================
0  catalog-seqlock ``ChunkCatalog._write_lock`` (+ ``_write_seq``)
1  payload-lru     ``ChunkCatalog._payload_lock``
2  transport       ``ProcessEngine._lock`` (request pipe + frame book)
3  spill-tier      ``SpillTier.lock`` (per-node LRU + segment store)
=================  ====================================================

``transport`` ranks *above* ``payload-lru`` and *below* ``spill-tier``
because :meth:`ProcessEngine.sync` holds the request lock while
faulting chunk payloads through the spill tier — the engine cannot
publish a frame for a chunk it has not materialized.  The catalog, in
turn, never calls into the engine or the tiers while holding its
seqlock, and every catalog read is a snapshot read whose capture may
fall back to the seqlock's write lock — so the engine gathers what it
needs from the catalog *before* taking ``transport`` — and the order is
acyclic (docs/invariants.md walks through the reasoning).

Two enforcement layers consume this table:

* ``tools/reprolint`` (the ``lock-order`` checker) parses
  :data:`LOCK_HIERARCHY`, :data:`LOCK_SITES`, and
  :data:`KNOWN_ACQUIRERS` straight out of this file's AST and statically
  flags nested ``with`` acquisitions — or calls into known acquiring
  methods — that climb the ranks.
* :func:`held` is a near-free runtime assertion the stress tests switch
  on with :func:`enable`: each guarded ``with`` block pushes its lock
  name onto a thread-local stack and raises :class:`LockOrderError`
  when a thread acquires a lock ranked above one it already holds.

Keep all three tables as **pure literals** — the static checker reads
them without importing this module.
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import Dict, List, Optional, Tuple, Type

#: The one lock-order table.  Index = rank; acquisitions must be
#: non-decreasing in rank per thread (equal rank = re-entry on the same
#: re-entrant lock, which is allowed).
LOCK_HIERARCHY: Tuple[str, str, str, str] = (
    "catalog-seqlock",
    "payload-lru",
    "transport",
    "spill-tier",
)

#: Static-analysis map: module (repo-relative, under ``src/``) ->
#: ``with``-statement attribute name -> lock name.  ``_write`` is the
#: catalog's seqlock context manager; ``lock`` on a tier or chunk store
#: is the spill-tier lock.
LOCK_SITES: Dict[str, Dict[str, str]] = {
    "repro/core/catalog.py": {
        "_write": "catalog-seqlock",
        "_write_lock": "catalog-seqlock",
        "_payload_lock": "payload-lru",
    },
    "repro/parallel/engine.py": {
        "_lock": "transport",
    },
    "repro/arrays/storage.py": {
        "lock": "spill-tier",
    },
    "repro/arrays/chunk.py": {
        "lock": "spill-tier",
    },
}

#: Static-analysis map: method name -> lock its body acquires.  Gives
#: the checker one level of interprocedural reach — a call to one of
#: these while holding a higher-ranked lock is an ordering violation
#: even though the acquisition itself is out of lexical sight.
KNOWN_ACQUIRERS: Dict[str, str] = {
    # ChunkCatalog mutation + snapshot surface (seqlock).
    "put_batch": "catalog-seqlock",
    "relocate_batch": "catalog-seqlock",
    "remove_batch": "catalog-seqlock",
    "compact": "catalog-seqlock",
    "snapshot": "catalog-seqlock",
    # ChunkCatalog per-array reads: each is ``snapshot(array).<read>``,
    # so each can reach the capture's write-lock arm.
    "pairs_of_array": "catalog-seqlock",
    "placement_of_array": "catalog-seqlock",
    "scan_columns_of": "catalog-seqlock",
    "pairs_in_region": "catalog-seqlock",
    "region_scan_columns": "catalog-seqlock",
    "region_read": "catalog-seqlock",
    "payload_of_array": "catalog-seqlock",
    "payload_in_region": "catalog-seqlock",
    "deltas_since": "catalog-seqlock",
    "delta_scan_columns": "catalog-seqlock",
    # ChunkCatalog payload LRU.
    "_cached_payload": "payload-lru",
    "_touch": "payload-lru",
    # SpillTier / ChunkStore (per-node LRU).
    "fault": "spill-tier",
    "payload_parts": "spill-tier",
    "pin_many": "spill-tier",
    "unpin_many": "spill-tier",
    "pinned": "spill-tier",
    "evict_over_budget": "spill-tier",
    "note_written": "spill-tier",
    "drain_io": "spill-tier",
    "adopt_spilled": "spill-tier",
}

_RANK: Dict[str, int] = {name: i for i, name in enumerate(LOCK_HIERARCHY)}


class LockOrderError(AssertionError):
    """A thread acquired a lock ranked above one it already holds."""


_enabled = False
_tls = threading.local()


def enable() -> None:
    """Turn on runtime lock-order assertions (process-wide)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn runtime assertions back off."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether runtime assertions are currently on."""
    return _enabled


def held_stack() -> Tuple[str, ...]:
    """The calling thread's current stack of guarded lock names."""
    stack: Optional[List[str]] = getattr(_tls, "stack", None)
    return tuple(stack) if stack else ()


class held:
    """Annotate a ``with`` block as holding the named hierarchy lock.

    Pair it with the real acquisition::

        with self._write_lock, lockdep.held("catalog-seqlock"):
            ...

    Disabled (the default), entry and exit are two module-global reads —
    cheap enough to leave in hot paths.  Enabled, entry verifies the
    acquisition does not out-rank any lock the thread already holds.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> None:
        if not _enabled:
            return
        rank = _RANK.get(self.name)
        if rank is None:
            raise LockOrderError(f"unknown lock name {self.name!r}")
        stack: Optional[List[str]] = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        if stack and rank < _RANK[stack[-1]]:
            raise LockOrderError(
                f"lock order violation: acquiring {self.name!r} "
                f"(rank {rank}) while holding {stack[-1]!r} "
                f"(rank {_RANK[stack[-1]]}); declared order is "
                f"{' -> '.join(LOCK_HIERARCHY)}"
            )
        stack.append(self.name)

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if not _enabled:
            return
        stack: Optional[List[str]] = getattr(_tls, "stack", None)
        if stack and stack[-1] == self.name:
            stack.pop()
