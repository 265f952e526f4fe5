"""The process-parallel execution engine.

:class:`ProcessEngine` backs every simulated node with a real worker
process (:mod:`repro.parallel.worker`) and keeps the workers' resident
chunk sets synchronized with the cluster's chunk catalog.  On top of
that substrate it provides:

* **Real scatter/gather** — :meth:`sync` reads the desired placement
  from one catalog snapshot per array (before it takes the request
  lock — see its docstring) and scatters chunk payloads to their owner
  workers over shared-memory frames; :meth:`gather_pairs`
  collects a (chunk, node) pair list back and concatenates it in pair
  order, byte-identically to the in-process
  :func:`repro.core.catalog.concat_payload`.
* **Shuffle exchanges** — partitioned k-means, kNN mean-distance, and
  hash-shuffled equi-join, each split into per-partition worker kernels
  plus a coordinator combine (:mod:`repro.parallel.kernels`).  The
  ``serial_*`` twins in ``tests/oracles/parallel.py`` run the identical
  kernels serially in one process, and the exchanges must agree with
  them bit-for-bit.
* **Failure containment** — every request is timeout-bounded; a killed,
  hung, or pipe-broken worker surfaces as
  :class:`~repro.errors.WorkerFailedError` carrying the node id, the
  worker is reaped with bounded joins, and the next :meth:`sync`
  respawns it and reloads its chunks.

Engine state (``_loaded``) maps each resident chunk ref to the exact
payload handle shipped to its worker; a gather over a pinned snapshot
whose handles are no longer the loaded ones (a mutation landed after
the pin) returns ``None`` so the session can answer from its frozen
handles locally — the MVCC contract survives the process backend.

Request/reply framing carries a per-worker sequence number; a reply
abandoned by a timed-out request is recognized by its stale sequence on
the next exchange and its shared-memory frame is disposed, so desync
never corrupts a later result.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import lockdep
from repro.config import env_float, env_text
from repro.errors import ClusterError, WorkerFailedError
from repro.parallel import kernels
from repro.parallel.transport import (
    dispose_frame,
    pack_frame,
    unpack_frame,
)
from repro.parallel.worker import worker_main

#: Seconds a request may wait for its reply before the worker is
#: declared failed (``REPRO_EXEC_TIMEOUT`` overrides).
DEFAULT_REQUEST_TIMEOUT = 30.0


def pick_start_method() -> str:
    """Choose the multiprocessing start method for worker processes.

    ``REPRO_EXEC_START`` forces one.  Otherwise ``fork`` is preferred
    where available — workers inherit the loaded interpreter, so spawn
    re-import cost is avoided — except on Python ≥ 3.12 with threads
    already running, where forking a multi-threaded process warns (and
    ``PYTHONWARNINGS=error`` in CI would fail); ``spawn`` is the safe
    fallback there.
    """
    forced = env_text("REPRO_EXEC_START")
    if forced:
        return forced
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and (
        sys.version_info < (3, 12) or threading.active_count() == 1
    ):
        return "fork"
    return "spawn"


class _WorkerHandle:
    """One node's worker process plus its control-pipe endpoint."""

    __slots__ = ("node_id", "proc", "conn", "seq")

    def __init__(self, node_id: int, proc, conn) -> None:
        self.node_id = node_id
        self.proc = proc
        self.conn = conn
        self.seq = 0


class ProcessEngine:
    """Worker-process fleet mirroring one cluster's chunk placement.

    Thread-safe (one re-entrant lock serializes all requests — the
    concurrent query executor's threads share one engine).  Use as a
    context manager or call :meth:`shutdown`; the owning cluster also
    attaches a ``weakref.finalize`` so abandoned engines reap their
    workers.
    """

    def __init__(self, request_timeout: Optional[float] = None) -> None:
        if request_timeout is None:
            request_timeout = env_float(
                "REPRO_EXEC_TIMEOUT", DEFAULT_REQUEST_TIMEOUT
            )
        self.request_timeout = request_timeout
        self._ctx = multiprocessing.get_context(pick_start_method())
        self._lock = threading.RLock()
        self._workers: Dict[int, _WorkerHandle] = {}
        #: chunk ref -> (owner node, exact payload handle shipped there).
        self._loaded: Dict[object, Tuple[int, object]] = {}
        self._synced_epoch = -1
        self._synced_nodes: Tuple[int, ...] = ()
        #: gathers answered locally because the pinned snapshot predates
        #: the synced catalog epoch (MVCC fallback), for observability.
        self.stale_fallbacks = 0
        #: per-request timing/byte records for the calibration harness.
        self.request_log: List[dict] = []

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ProcessEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def ensure_workers(self, node_ids: Sequence[int]) -> None:
        """Spawn a worker for every listed node that lacks a live one."""
        with self._lock, lockdep.held("transport"):
            for node_id in node_ids:
                handle = self._workers.get(node_id)
                if handle is not None and handle.proc.is_alive():
                    continue
                if handle is not None:
                    self._reap(handle)
                    self._workers.pop(node_id, None)
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                proc = self._ctx.Process(
                    target=worker_main,
                    args=(child_conn, node_id),
                    name=f"repro-worker-{node_id}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._workers[node_id] = _WorkerHandle(
                    node_id, proc, parent_conn
                )

    def worker_pids(self) -> Dict[int, int]:
        """Live worker process ids by node (failure-test hook)."""
        with self._lock, lockdep.held("transport"):
            return {
                node_id: handle.proc.pid
                for node_id, handle in sorted(self._workers.items())
            }

    def shutdown(self) -> None:
        """Stop every worker with timeout-bounded joins (idempotent)."""
        with self._lock, lockdep.held("transport"):
            for handle in self._workers.values():
                try:
                    handle.conn.send({"op": "shutdown"})
                except (OSError, ValueError, BrokenPipeError):
                    pass
            for handle in self._workers.values():
                self._drain_conn(handle)
                self._reap(handle)
            self._workers.clear()
            self._loaded.clear()
            self._synced_epoch = -1
            self._synced_nodes = ()

    def _drain_conn(self, handle: _WorkerHandle) -> None:
        """Dispose frames of any unread replies on a worker's pipe."""
        try:
            while handle.conn.poll(0):
                reply = handle.conn.recv()
                if isinstance(reply, dict):
                    dispose_frame(reply.get("frame"))
        except (EOFError, OSError):
            pass

    def _reap(self, handle: _WorkerHandle) -> None:
        """Join a worker with bounded waits, escalating to SIGKILL."""
        proc = handle.proc
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:
            pass

    def _fail(self, node_id: int, reason: str) -> None:
        """Declare one worker dead: reap, invalidate, raise typed error.

        Dropping ``_synced_epoch`` forces the next :meth:`sync` to
        respawn the worker and reload its chunks, so a transient kill
        self-heals on the following query.
        """
        handle = self._workers.pop(node_id, None)
        if handle is not None:
            self._drain_conn(handle)
            self._reap(handle)
        self._loaded = {
            ref: owner
            for ref, owner in self._loaded.items()
            if owner[0] != node_id
        }
        self._synced_epoch = -1
        raise WorkerFailedError(node_id, reason)

    # -- request plumbing ----------------------------------------------
    def _post(self, node_id: int, msg: dict) -> int:
        """Send one request; returns the sequence its reply must echo."""
        handle = self._workers.get(node_id)
        if handle is None or not handle.proc.is_alive():
            dispose_frame(msg.get("frame"))
            self._fail(node_id, "no live worker process")
        handle.seq += 1
        msg["seq"] = handle.seq
        try:
            handle.conn.send(msg)
        except (OSError, ValueError, BrokenPipeError) as exc:
            dispose_frame(msg.get("frame"))
            self._fail(node_id, f"control pipe send failed: {exc!r}")
        return handle.seq

    def _collect(self, node_id: int, seq: int) -> dict:
        """Receive the reply matching ``seq``, discarding stale ones."""
        handle = self._workers.get(node_id)
        if handle is None:
            self._fail(node_id, "worker lost before reply")
        deadline = time.monotonic() + self.request_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not handle.conn.poll(max(remaining, 0)):
                self._fail(
                    node_id,
                    f"no reply within {self.request_timeout:.1f}s "
                    "(worker hung or overloaded)",
                )
            try:
                reply = handle.conn.recv()
            except (EOFError, OSError) as exc:
                self._fail(node_id, f"control pipe closed: {exc!r}")
            if not isinstance(reply, dict):
                self._fail(node_id, f"malformed reply {type(reply)!r}")
            if reply.get("seq") != seq:  # abandoned earlier exchange
                dispose_frame(reply.get("frame"))
                continue
            if reply.get("status") != "ok":
                raise ClusterError(
                    f"worker op failed on node {node_id}: "
                    f"{reply.get('error')}"
                )
            return reply

    def _request(self, node_id: int, msg: dict) -> dict:
        op = msg["op"]
        sent = 0
        if isinstance(msg.get("frame"), dict):
            sent = int(msg["frame"].get("nbytes", 0))
        started = time.perf_counter()
        seq = self._post(node_id, msg)
        reply = self._collect(node_id, seq)
        received = 0
        if isinstance(reply.get("frame"), dict):
            received = int(reply["frame"].get("nbytes", 0))
        self.request_log.append({
            "node": node_id,
            "op": op,
            "bytes": sent + received,
            "seconds": time.perf_counter() - started,
            "worker_seconds": float(reply.get("worker_seconds", 0.0)),
        })
        return reply

    def drain_request_log(self) -> List[dict]:
        """Return and clear the per-request timing records."""
        with self._lock, lockdep.held("transport"):
            log, self.request_log = self.request_log, []
            return log

    # -- catalog sync (scatter) ----------------------------------------
    def sync(self, cluster) -> None:
        """Mirror the cluster's chunk placement onto the worker fleet.

        Diffs the catalog's desired state against what the workers hold
        (keyed by catalog epoch — unchanged epochs return immediately):
        relocated or replaced chunks are evicted from their old owner
        and loaded onto the new one, retired chunks are evicted, new
        chunks scattered.  Chunk payloads ship as one shared-memory
        frame per destination node.

        The desired state is gathered *before* the request lock is
        taken: a catalog read can reach the snapshot capture's
        write-lock arm (``catalog-seqlock``, rank 0), which must never
        be acquired under ``transport`` (rank 2) — and reading through
        seqlock-validated snapshots is what keeps the gather from
        tearing while executor threads sync during a coordinator
        mutation.  ``epoch`` is read first, so it is a lower bound on
        what the snapshots saw: a mutation landing mid-gather leaves
        ``_synced_epoch`` behind the catalog and the next call re-diffs.
        """
        catalog = cluster.catalog
        node_ids = tuple(cluster.node_ids)
        epoch = catalog.epoch
        with self._lock, lockdep.held("transport"):
            if (
                epoch == self._synced_epoch
                and node_ids == self._synced_nodes
            ):
                return
        desired: Dict[object, Tuple[int, object]] = {}
        for array in catalog.arrays():
            for chunk, node in catalog.snapshot(array).pairs():
                desired[chunk.ref()] = (node, chunk)
        with self._lock, lockdep.held("transport"):
            if epoch < self._synced_epoch:
                return  # a racing sync already applied a newer state
            self.ensure_workers(node_ids)
            evicts: Dict[int, List[object]] = {}
            loads: Dict[int, List[Tuple[object, object]]] = {}
            for ref, (node, chunk) in desired.items():
                current = self._loaded.get(ref)
                if (
                    current is not None
                    and current[0] == node
                    and current[1] is chunk
                ):
                    continue
                if current is not None and current[0] != node:
                    evicts.setdefault(current[0], []).append(ref)
                loads.setdefault(node, []).append((ref, chunk))
            for ref, (node, _chunk) in self._loaded.items():
                if ref not in desired:
                    evicts.setdefault(node, []).append(ref)
            for node, refs in sorted(evicts.items()):
                for ref in refs:
                    self._loaded.pop(ref, None)
                if node in self._workers:
                    self._request(
                        node, {"op": "evict", "refs": refs}
                    )
            for node, items in sorted(loads.items()):
                arrays: Dict[str, np.ndarray] = {}
                refs = []
                for i, (ref, chunk) in enumerate(items):
                    coords, attrs = chunk.payload_parts()
                    arrays[f"{i}:c"] = coords
                    for name, column in attrs.items():
                        arrays[f"{i}:a:{name}"] = column
                    refs.append(ref)
                self._request(
                    node,
                    {
                        "op": "load",
                        "refs": refs,
                        "frame": pack_frame(arrays),
                    },
                )
                for ref, chunk in items:
                    self._loaded[ref] = (node, chunk)
            self._synced_epoch = epoch
            self._synced_nodes = node_ids

    # -- gather --------------------------------------------------------
    def gather_pairs(
        self,
        pairs: Sequence[Tuple[object, int]],
        attrs: Sequence[str],
        ndim: int = 0,
    ) -> Optional[Tuple[np.ndarray, Dict[str, np.ndarray]]]:
        """Collect a (chunk, node) pair list from the workers.

        Returns the same ``(coords, values)`` table — byte for byte —
        as :func:`repro.core.catalog.concat_payload` over the pairs'
        chunks, or ``None`` when any pair's payload handle is not the
        one currently loaded (a pinned snapshot older than the synced
        epoch): the caller then answers from its frozen handles, and
        :attr:`stale_fallbacks` counts the event.

        Raises
        ------
        WorkerFailedError
            When an owning worker is dead, hung, or unreachable.
        """
        attrs = list(attrs)
        with self._lock, lockdep.held("transport"):
            if not pairs:
                return (
                    np.empty((0, ndim), dtype=np.int64),
                    {a: np.empty(0) for a in attrs},
                )
            plan: Dict[int, List[Tuple[int, object]]] = {}
            for pos, (chunk, node) in enumerate(pairs):
                ref = chunk.ref()
                current = self._loaded.get(ref)
                if (
                    current is None
                    or current[0] != node
                    or current[1] is not chunk
                ):
                    self.stale_fallbacks += 1
                    return None
                plan.setdefault(node, []).append((pos, ref))
            posted: List[Tuple[int, int]] = []
            for node in sorted(plan):
                refs = [ref for _pos, ref in plan[node]]
                started = time.perf_counter()
                seq = self._post(
                    node,
                    {"op": "gather", "refs": refs, "attrs": attrs},
                )
                posted.append((node, seq, started))
            coords_parts: List[Optional[np.ndarray]] = [None] * len(pairs)
            value_parts: Dict[str, List[Optional[np.ndarray]]] = {
                a: [None] * len(pairs) for a in attrs
            }
            for node, seq, started in posted:
                reply = self._collect(node, seq)
                arrays = unpack_frame(reply["frame"])
                self.request_log.append({
                    "node": node,
                    "op": "gather",
                    "bytes": int(reply.get("bytes", 0)),
                    "seconds": time.perf_counter() - started,
                    "worker_seconds": float(
                        reply.get("worker_seconds", 0.0)
                    ),
                })
                for i, (pos, _ref) in enumerate(plan[node]):
                    coords_parts[pos] = arrays[f"{i}:c"]
                    for a in attrs:
                        value_parts[a][pos] = arrays[f"{i}:a:{a}"]
            coords = np.concatenate(coords_parts, axis=0)
            values = {
                a: np.concatenate(value_parts[a]) for a in attrs
            }
            return coords, values

    # -- blob scratch space (exchanges + calibration) ------------------
    def store_blob(self, node_id: int, name: str, array) -> int:
        """Ship one array into a worker's blob namespace; bytes sent."""
        arr = np.ascontiguousarray(array)
        with self._lock, lockdep.held("transport"):
            self._request(
                node_id,
                {
                    "op": "store_blob",
                    "name": name,
                    "frame": pack_frame({"x": arr}),
                },
            )
        return int(arr.nbytes)

    def fetch_blob(self, node_id: int, name: str) -> np.ndarray:
        """Pull one blob back from a worker."""
        with self._lock, lockdep.held("transport"):
            reply = self._request(
                node_id, {"op": "fetch_blob", "name": name}
            )
            return unpack_frame(reply["frame"])["x"]

    def relay_blob(
        self,
        src_node: int,
        name: str,
        dst_node: int,
        dst_name: str,
    ) -> int:
        """Move a blob between workers through the coordinator.

        One fetch + one store — the wire pattern of a shuffle leg; the
        calibration harness times it against two network charges.
        """
        with self._lock, lockdep.held("transport"):
            arr = self.fetch_blob(src_node, name)
            self.store_blob(dst_node, dst_name, arr)
            return int(arr.nbytes)

    def drop_blobs(self, node_id: int, names: Sequence[str]) -> None:
        with self._lock, lockdep.held("transport"):
            if node_id in self._workers:
                self._request(
                    node_id, {"op": "drop_blob", "names": list(names)}
                )

    # -- shuffle exchanges ---------------------------------------------
    def partitioned_kmeans(
        self,
        parts: Sequence[Tuple[int, np.ndarray]],
        k: int,
        iterations: int,
        seed: int,
    ) -> np.ndarray:
        """Lloyd's k-means with a per-iteration partial-sums exchange.

        Scatters each partition to its node, broadcasts centroids each
        sweep, and reduces per-partition sums/counts in partition order
        — bit-identical to ``serial_kmeans``
        (``tests/oracles/parallel.py``) over the same parts.
        """
        with self._lock, lockdep.held("transport"):
            self.ensure_workers(sorted({n for n, _ in parts}))
            names = []
            for i, (node, pts) in enumerate(parts):
                name = f"_km:{i}"
                self.store_blob(node, name, np.asarray(pts))
                names.append((node, name))
            centroids = kernels.kmeans_init(
                np.concatenate([np.asarray(p) for _, p in parts], axis=0),
                k,
                seed,
            )
            try:
                for _ in range(iterations):
                    posted = []
                    for node, name in names:
                        seq = self._post(node, {
                            "op": "kmeans_partials",
                            "name": name,
                            "frame": pack_frame(
                                {"centroids": centroids}
                            ),
                        })
                        posted.append((node, seq))
                    partials = []
                    for node, seq in posted:
                        reply = self._collect(node, seq)
                        arrays = unpack_frame(reply["frame"])
                        partials.append(
                            (arrays["sums"], arrays["counts"])
                        )
                    centroids = kernels.kmeans_combine(
                        centroids, partials
                    )
            finally:
                for node, name in names:
                    if node in self._workers:
                        self.drop_blobs(node, [name])
            return centroids

    def partitioned_knn_mean(
        self,
        parts: Sequence[Tuple[int, np.ndarray]],
        queries: np.ndarray,
        k: int,
    ) -> np.ndarray:
        """kNN mean distance via a k-smallest-candidates exchange."""
        queries = np.asarray(queries)
        with self._lock, lockdep.held("transport"):
            self.ensure_workers(sorted({n for n, _ in parts}))
            names = []
            for i, (node, pts) in enumerate(parts):
                name = f"_knn:{i}"
                self.store_blob(node, name, np.asarray(pts))
                names.append((node, name))
            try:
                posted = []
                for node, name in names:
                    seq = self._post(node, {
                        "op": "knn_partials",
                        "name": name,
                        "k": int(k),
                        "frame": pack_frame({"queries": queries}),
                    })
                    posted.append((node, seq))
                partials = []
                for node, seq in posted:
                    reply = self._collect(node, seq)
                    arrays = unpack_frame(reply["frame"])
                    partials.append((arrays["cand"], arrays["counts"]))
            finally:
                for node, name in names:
                    if node in self._workers:
                        self.drop_blobs(node, [name])
            return kernels.knn_combine(partials, int(k))

    def partitioned_equi_join(
        self,
        parts_a: Sequence[Tuple[int, np.ndarray]],
        parts_b: Sequence[Tuple[int, np.ndarray]],
    ) -> np.ndarray:
        """Hash-shuffled equi-join on int64 keys.

        Each side's partitions split into per-destination hash buckets
        on their owning workers; the buckets physically move to their
        destination nodes (coordinator-relayed, like a real repartition
        exchange); each destination intersects its co-hashed buckets
        locally.  Returns the sorted distinct matching keys.
        """
        nodes = sorted(
            {n for n, _ in parts_a} | {n for n, _ in parts_b}
        )
        if not nodes:
            return np.empty(0, dtype=np.int64)
        buckets = len(nodes)
        with self._lock, lockdep.held("transport"):
            self.ensure_workers(nodes)
            scratch: Dict[int, List[str]] = {n: [] for n in nodes}
            try:
                shuffled: Dict[str, Dict[int, List[str]]] = {}
                for side, parts in (("a", parts_a), ("b", parts_b)):
                    arrived: Dict[int, List[str]] = {
                        n: [] for n in nodes
                    }
                    for i, (node, keys) in enumerate(parts):
                        src_name = f"_j{side}:{i}"
                        self.store_blob(
                            node,
                            src_name,
                            np.asarray(keys, dtype=np.int64),
                        )
                        scratch[node].append(src_name)
                        reply = self._request(node, {
                            "op": "join_split",
                            "name": src_name,
                            "buckets": buckets,
                        })
                        parts_out = unpack_frame(reply["frame"])
                        for b, target in enumerate(nodes):
                            dst_name = f"_j{side}:{i}:@{target}"
                            self.store_blob(
                                target, dst_name, parts_out[f"b{b}"]
                            )
                            scratch[target].append(dst_name)
                            arrived[target].append(dst_name)
                    shuffled[side] = arrived
                per_node = []
                for target in nodes:
                    reply = self._request(target, {
                        "op": "join_local",
                        "a_names": shuffled["a"][target],
                        "b_names": shuffled["b"][target],
                    })
                    per_node.append(
                        unpack_frame(reply["frame"])["keys"]
                    )
            finally:
                for node, names in scratch.items():
                    if names and node in self._workers:
                        self.drop_blobs(node, names)
            return np.sort(kernels.concat_keys(per_node))
