"""Worker-process request loop for the process-parallel backend.

One worker backs one simulated node.  It holds that node's resident
chunk payloads (coordinate table + attribute columns per chunk, loaded
by the engine's catalog sync) and a scratch **blob** namespace used by
the shuffle exchanges.  The control pipe
carries pickled request dicts in, ``{"status": "ok" | "error", ...}``
reply dicts out; bulk array payloads ride shared-memory frames
(:mod:`repro.parallel.transport`).

Every reply carries ``worker_seconds`` — the wall-clock the worker
spent handling the request — which the engine's request log records.

Application errors (unknown chunk, bad blob name) are reported in-band
as ``status: "error"`` replies; only a broken pipe ends the loop.  The
``sleep`` op exists for the hung-worker failure tests: it stalls the
reply past the engine's request timeout on demand.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from repro.parallel import kernels
from repro.parallel.transport import frame_nbytes, pack_frame, unpack_frame

#: attribute-column frame key prefix (per chunk index within a batch).
_ATTR = "a"


def worker_main(conn, node_id: int) -> None:
    """Serve requests for one node until shutdown or pipe loss."""
    chunks: Dict[object, Tuple[np.ndarray, Dict[str, np.ndarray]]] = {}
    blobs: Dict[str, np.ndarray] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        op = msg.get("op")
        seq = msg.get("seq")
        started = time.perf_counter()
        try:
            reply = _handle(op, msg, node_id, chunks, blobs)
        except Exception as exc:  # app error: report in-band, stay alive
            try:
                conn.send({
                    "status": "error",
                    "seq": seq,
                    "error": f"{type(exc).__name__}: {exc}",
                })
            except (OSError, BrokenPipeError):
                return
            continue
        reply["status"] = "ok"
        reply["seq"] = seq
        reply["worker_seconds"] = time.perf_counter() - started
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):
            return
        if op == "shutdown":
            return


def _handle(op, msg, node_id, chunks, blobs) -> dict:
    if op == "ping":
        return {"node": node_id}
    if op == "sleep":  # failure-test hook: stall past the timeout
        time.sleep(float(msg["seconds"]))
        return {}
    if op == "load":
        arrays = unpack_frame(msg["frame"])
        for i, ref in enumerate(msg["refs"]):
            coords = arrays[f"{i}:c"]
            prefix = f"{i}:{_ATTR}:"
            attrs = {
                key[len(prefix):]: arr
                for key, arr in arrays.items()
                if key.startswith(prefix)
            }
            chunks[ref] = (coords, attrs)
        return {"resident": len(chunks)}
    if op == "evict":
        for ref in msg["refs"]:
            chunks.pop(ref, None)
        return {"resident": len(chunks)}
    if op == "gather":
        frames: Dict[str, np.ndarray] = {}
        for i, ref in enumerate(msg["refs"]):
            if ref not in chunks:
                raise KeyError(f"chunk {ref} not resident on node {node_id}")
            coords, attrs = chunks[ref]
            frames[f"{i}:c"] = coords
            for name in msg["attrs"]:
                if name not in attrs:
                    raise KeyError(
                        f"chunk {ref} has no attribute {name!r}"
                    )
                frames[f"{i}:{_ATTR}:{name}"] = attrs[name]
        return {"frame": pack_frame(frames), "bytes": frame_nbytes(frames)}
    if op == "store_blob":
        arrays = unpack_frame(msg["frame"])
        blobs[msg["name"]] = arrays["x"]
        return {"bytes": int(arrays["x"].nbytes)}
    if op == "fetch_blob":
        blob = blobs[msg["name"]]
        return {"frame": pack_frame({"x": blob}), "bytes": int(blob.nbytes)}
    if op == "drop_blob":
        for name in msg["names"]:
            blobs.pop(name, None)
        return {}
    if op == "kmeans_partials":
        centroids = unpack_frame(msg["frame"])["centroids"]
        sums, counts = kernels.kmeans_partials(
            blobs[msg["name"]], centroids
        )
        return {"frame": pack_frame({"sums": sums, "counts": counts})}
    if op == "knn_partials":
        queries = unpack_frame(msg["frame"])["queries"]
        cand, counts = kernels.knn_partials(
            blobs[msg["name"]], queries, int(msg["k"])
        )
        return {"frame": pack_frame({"cand": cand, "counts": counts})}
    if op == "join_split":
        parts = kernels.join_split(
            blobs[msg["name"]], int(msg["buckets"])
        )
        frames = {f"b{i}": part for i, part in enumerate(parts)}
        return {"frame": pack_frame(frames)}
    if op == "join_local":
        side_a = kernels.concat_keys(
            [blobs[name] for name in msg["a_names"]]
        )
        side_b = kernels.concat_keys(
            [blobs[name] for name in msg["b_names"]]
        )
        keys = kernels.join_local(side_a, side_b)
        return {"frame": pack_frame({"keys": keys})}
    if op == "shutdown":
        return {}
    raise ValueError(f"unknown op {op!r}")
