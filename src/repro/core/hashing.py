"""Deterministic hashing for placement decisions.

Python's built-in ``hash`` is salted per process (``PYTHONHASHSEED``), which
would make partitioning non-reproducible across runs and across the workers
of the multiprocessing executor.  All hash partitioners therefore use
blake2b-based 64-bit digests of a canonical byte encoding.
"""

from __future__ import annotations

import hashlib
import struct
from functools import partial
from operator import methodcaller
from typing import Sequence, Union

import numpy as np

from repro.arrays.chunk import ChunkRef
from repro.arrays.coords import distinct

_blake8 = partial(hashlib.blake2b, digest_size=8)


def stable_hash64(data: bytes) -> int:
    """64-bit blake2b digest of raw bytes."""
    return int.from_bytes(_blake8(data).digest(), "big")


def hash_chunk_rows(
    names: Sequence[str], codes: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Stable 64-bit hashes of many chunk identities, as a uint64 column:
    chunk ``i`` is array ``names[codes[i]]`` at int64 key row ``keys[i]``.

    Both the array name and the chunk key participate, so two arrays'
    chunks spread independently on hash rings.  Range partitioners, by
    contrast, place on the key alone and therefore co-locate
    dimension-aligned arrays — that asymmetry mirrors the paper's
    observation that hash partitioning serves equi-joins while range
    partitioning serves spatial queries.  A payload (UTF-8 name, a zero
    byte, the big-endian key) is a byte row; digests run in C ``map``s.
    """
    body = np.ascontiguousarray(keys, ">i8").view(np.uint8).reshape(
        len(keys), 8 * keys.shape[1])
    out = np.empty(len(keys), dtype=np.uint64)
    for code in distinct(codes).tolist():
        at = np.flatnonzero(codes == code)
        head = np.frombuffer(names[code].encode("utf-8") + b"\x00", np.uint8)
        rows = np.hstack([np.broadcast_to(head, (len(at), len(head))), body[at]])
        payloads = rows.view(f"V{rows.shape[1]}").ravel().tolist()
        digests = map(methodcaller("digest"), map(_blake8, payloads))
        out[at] = np.frombuffer(b"".join(digests), dtype=">u8")
    return out


def hash_chunk_ref(ref: ChunkRef) -> int:
    """Stable 64-bit hash of one chunk identity (:func:`hash_chunk_rows`)."""
    keys = np.array([ref.key], dtype=np.int64)  # (1, ndim)
    return int(hash_chunk_rows([ref.array], np.zeros(1, np.int64), keys)[0])


def hash_node_point(node: int, replica: int) -> int:
    """Ring position of one virtual node replica of a physical node."""
    return stable_hash64(struct.pack(">qq", int(node), int(replica)))


def hash_key(key: Sequence[int], salt: Union[str, bytes] = b"") -> int:
    """Stable 64-bit hash of a bare coordinate tuple (tests, extensions)."""
    if isinstance(salt, str):
        salt = salt.encode("utf-8")
    payload = salt + b"\x00" + struct.pack(f">{len(key)}q", *key)
    return stable_hash64(payload)
