"""On-disk columnar segments: the cold tier beneath :class:`ChunkStore`.

One :class:`SegmentStore` manages one node's spill directory.  Every
chunk payload is persisted as one *segment file* — cell coordinates plus
one value column per attribute, followed by a small JSON footer — and a
directory-level ``MANIFEST.json`` maps live chunk identities to their
segment files (plus each array's schema declaration, so a cold directory
is self-describing).  Reads go through :mod:`mmap` and copy the columns
out, so a fault touches only the one file it needs.

Durability contract
-------------------
Segment files are immutable once written: an update writes a *new* file
(names are never reused — a monotonic counter persists in the manifest)
and the manifest flips to it atomically (``os.replace`` of a fully
written temp file).  The manifest is therefore the commit point; files
it does not reference are invisible orphans.  Every read validates
magic, framing, and a CRC-32 over the body, so a torn write — a
truncated segment behind a stale manifest — fails loudly with
:class:`~repro.errors.SegmentCorruptError` instead of returning wrong
cells.

A :class:`SegmentStore` is driven by one owner: the
:class:`~repro.arrays.storage.SpillTier` of its node, or the recovery
path (:meth:`SegmentStore.open`).

All actual I/O funnels through a :class:`DiskIO` adapter so tests can
inject faults (short reads, ``OSError`` on the Nth write) without
monkey-patching the module.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import struct
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.arrays.chunk import ChunkData, ChunkRef
from repro.arrays.schema import ArraySchema, parse_schema
from repro.errors import SegmentCorruptError, StorageError

#: Leading magic of every segment file (8 bytes, version-bearing).
SEGMENT_MAGIC = b"RSEG0001"
#: Trailing magic — a file not ending in this was torn mid-write.
SEGMENT_TAIL = b"RSEGEND1"
#: ``<footer length>`` trailer field, little-endian u64.
_TRAILER = struct.Struct("<Q")

_MANIFEST_NAME = "MANIFEST.json"
_MANIFEST_VERSION = 1
_SEGMENT_VERSION = 1

#: Value-column codecs: ``raw`` is the dtype's native little-endian
#: bytes; ``pickle`` carries object columns (AIS string attributes).
_CODEC_RAW = "raw"
_CODEC_PICKLE = "pickle"


class DiskIO:
    """All file-system access of a :class:`SegmentStore`.

    The default implementation is the real thing; tests subclass it
    (``FaultyIO``) to fail the Nth read or write, truncate a mapping,
    or drop a flush — the store above must then either surface a typed
    error or retry, never corrupt its accounting.
    """

    def write_file(self, path: str, data: bytes) -> None:
        """Write ``data`` to ``path`` atomically (temp file + replace)."""
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def read_bytes(self, path: str) -> bytes:
        """Read a small file (the manifest) fully into memory."""
        with open(path, "rb") as fh:
            return fh.read()

    def map_segment(self, path: str) -> bytes:
        """The full contents of one segment file.

        Maps the file and copies it out (segments are immutable, so the
        copy is the simplest safe lifetime: no mapping outlives the
        call, and numpy views built on the result own real memory).
        An empty file cannot be mapped; return its (empty) bytes so the
        validator rejects it as truncated rather than ``mmap`` raising.
        """
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size == 0:
                return b""
            with mmap.mmap(
                fh.fileno(), 0, access=mmap.ACCESS_READ
            ) as mapped:
                return bytes(mapped)

    def remove(self, path: str) -> None:
        """Delete one file; a missing file is not an error."""
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


class _Entry:
    """One live chunk in the manifest: its file and byte accounting."""

    __slots__ = ("file", "size_bytes", "attr_bytes")

    def __init__(
        self,
        file: str,
        size_bytes: float,
        attr_bytes: Dict[str, float],
    ) -> None:
        self.file = file
        self.size_bytes = size_bytes
        self.attr_bytes = attr_bytes


def _ref_token(ref: ChunkRef) -> str:
    return f"{ref.array}|{','.join(map(str, ref.key))}"


def _parse_token(token: str) -> ChunkRef:
    array, _, key = token.partition("|")
    if not key:
        raise SegmentCorruptError(
            f"manifest chunk token {token!r} is malformed"
        )
    return ChunkRef(array, tuple(int(c) for c in key.split(",")))


def _encode_segment(chunk: ChunkData) -> bytes:
    """Serialize one chunk payload into segment-file bytes."""
    coords, columns = chunk.payload_parts()
    body: List[bytes] = [SEGMENT_MAGIC]
    offset = len(SEGMENT_MAGIC)

    coord_bytes = np.ascontiguousarray(coords, dtype=np.int64).tobytes()
    coords_meta = {"offset": offset, "nbytes": len(coord_bytes)}
    body.append(coord_bytes)
    offset += len(coord_bytes)

    cols_meta = []
    for spec in chunk.schema.attributes:
        values = columns[spec.name]
        if values.dtype == object:
            blob = pickle.dumps(
                values.tolist(), protocol=pickle.HIGHEST_PROTOCOL
            )
            codec, dtype = _CODEC_PICKLE, "object"
        else:
            arr = np.ascontiguousarray(values)
            blob = arr.tobytes()
            codec, dtype = _CODEC_RAW, arr.dtype.str
        cols_meta.append({
            "name": spec.name,
            "dtype": dtype,
            "codec": codec,
            "offset": offset,
            "nbytes": len(blob),
        })
        body.append(blob)
        offset += len(blob)

    payload = b"".join(body)
    footer = {
        "version": _SEGMENT_VERSION,
        "array": chunk.schema.name,
        "key": list(chunk.key),
        "cells": int(coords.shape[0]),
        "ndim": int(chunk.schema.ndim),
        "size_bytes": chunk.size_bytes,
        "attr_bytes": chunk.attr_bytes,
        "coords": coords_meta,
        "columns": cols_meta,
        "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
    }
    footer_bytes = json.dumps(footer, sort_keys=True).encode("utf-8")
    return b"".join([
        payload,
        footer_bytes,
        _TRAILER.pack(len(footer_bytes)),
        SEGMENT_TAIL,
    ])


def _corrupt(path: str, reason: str) -> SegmentCorruptError:
    return SegmentCorruptError(f"segment {path}: {reason}")


def _decode_segment(
    raw: bytes, path: str
) -> Tuple[
    Dict[str, Any], npt.NDArray[np.int64], Dict[str, npt.NDArray[Any]]
]:
    """Validate and decode segment bytes → (footer, coords, columns).

    Every framing field is checked before it is trusted; any mismatch
    raises :class:`SegmentCorruptError` naming the file and the reason.
    """
    tail_len = _TRAILER.size + len(SEGMENT_TAIL)
    if len(raw) < len(SEGMENT_MAGIC) + tail_len:
        raise _corrupt(path, f"truncated ({len(raw)} bytes)")
    if raw[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        raise _corrupt(path, "bad magic")
    if raw[-len(SEGMENT_TAIL):] != SEGMENT_TAIL:
        raise _corrupt(path, "missing end marker (torn write)")
    (footer_len,) = _TRAILER.unpack(
        raw[-tail_len: -len(SEGMENT_TAIL)]
    )
    footer_end = len(raw) - tail_len
    footer_off = footer_end - footer_len
    if footer_len == 0 or footer_off < len(SEGMENT_MAGIC):
        raise _corrupt(path, f"implausible footer length {footer_len}")
    try:
        footer = json.loads(raw[footer_off:footer_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _corrupt(path, f"unreadable footer ({exc})") from exc
    if footer.get("version") != _SEGMENT_VERSION:
        raise _corrupt(
            path, f"unsupported version {footer.get('version')!r}"
        )
    if zlib.crc32(raw[:footer_off]) & 0xFFFFFFFF != footer.get("crc32"):
        raise _corrupt(path, "body checksum mismatch")

    cells = int(footer["cells"])
    ndim = int(footer["ndim"])

    def _slice(meta: Dict[str, Any], what: str) -> bytes:
        off, n = int(meta["offset"]), int(meta["nbytes"])
        if off < len(SEGMENT_MAGIC) or off + n > footer_off:
            raise _corrupt(path, f"{what} column escapes the body")
        return raw[off: off + n]

    coord_raw = _slice(footer["coords"], "coords")
    if len(coord_raw) != cells * ndim * 8:
        raise _corrupt(path, "coords column has wrong byte length")
    coords = np.frombuffer(coord_raw, dtype=np.int64).reshape(
        cells, ndim
    ).copy()

    columns: Dict[str, npt.NDArray[Any]] = {}
    for meta in footer["columns"]:
        blob = _slice(meta, meta["name"])
        if meta["codec"] == _CODEC_PICKLE:
            try:
                values_list = pickle.loads(blob)
            except Exception as exc:  # pickle raises a zoo of types
                raise _corrupt(
                    path, f"column {meta['name']!r} unpicklable ({exc})"
                ) from exc
            if len(values_list) != cells:
                raise _corrupt(
                    path, f"column {meta['name']!r} has wrong length"
                )
            values = np.empty(cells, dtype=object)
            values[:] = values_list
        else:
            dtype = np.dtype(meta["dtype"])
            if len(blob) != cells * dtype.itemsize:
                raise _corrupt(
                    path,
                    f"column {meta['name']!r} has wrong byte length",
                )
            values = np.frombuffer(blob, dtype=dtype).copy()
        columns[meta["name"]] = values
    return footer, coords, columns


class SegmentStore:
    """One node's spill directory: segment files plus a manifest.

    Build with :meth:`create` (fresh directory) or :meth:`open` (attach
    to a directory left by a previous process — restart recovery).  The
    in-memory entry table mirrors the on-disk manifest between
    :meth:`flush` calls; batch callers stage all writes first
    (:meth:`write_staged`), then :meth:`commit` the batch, so a failed
    write leaves both the table and the disk untouched.
    """

    def __init__(
        self,
        root: str,
        io: Optional[DiskIO] = None,
        _entries: Optional[Dict[ChunkRef, _Entry]] = None,
        _schemas: Optional[Dict[str, str]] = None,
        _counter: int = 0,
    ) -> None:
        self.root = str(root)
        self.io = io if io is not None else DiskIO()
        self._entries: Dict[ChunkRef, _Entry] = _entries or {}
        self._schema_decls: Dict[str, str] = _schemas or {}
        self._schemas: Dict[str, ArraySchema] = {}
        self._counter = _counter

    # -- construction --------------------------------------------------
    @classmethod
    def create(
        cls, root: str, io: Optional[DiskIO] = None
    ) -> "SegmentStore":
        """A fresh, empty store; refuses a directory that has data."""
        root = str(root)
        manifest = os.path.join(root, _MANIFEST_NAME)
        if os.path.exists(manifest):
            raise StorageError(
                f"segment directory {root} already holds a manifest; "
                "use SegmentStore.open() (restart recovery) or point "
                "at a clean directory"
            )
        os.makedirs(root, exist_ok=True)
        store = cls(root, io)
        store.flush()
        return store

    @classmethod
    def open(
        cls, root: str, io: Optional[DiskIO] = None
    ) -> "SegmentStore":
        """Attach to a directory written by a previous process.

        Only the manifest is read eagerly; segment files are validated
        lazily on first fault, which is what makes rehydrating a large
        cold directory cheap.
        """
        root = str(root)
        manifest = os.path.join(root, _MANIFEST_NAME)
        store = cls(root, io)
        try:
            raw = store.io.read_bytes(manifest)
        except FileNotFoundError:
            raise SegmentCorruptError(
                f"segment directory {root} has no {_MANIFEST_NAME}; "
                "nothing to recover"
            ) from None
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SegmentCorruptError(
                f"manifest {manifest} is unreadable ({exc})"
            ) from exc
        if doc.get("version") != _MANIFEST_VERSION:
            raise SegmentCorruptError(
                f"manifest {manifest} has unsupported version "
                f"{doc.get('version')!r}"
            )
        store._counter = int(doc.get("counter", 0))
        store._schema_decls = dict(doc.get("schemas", {}))
        for token, meta in doc.get("chunks", {}).items():
            ref = _parse_token(token)
            if ref.array not in store._schema_decls:
                raise SegmentCorruptError(
                    f"manifest {manifest} lists chunk {token!r} of an "
                    "array with no recorded schema"
                )
            store._entries[ref] = _Entry(
                str(meta["file"]),
                float(meta["size_bytes"]),
                {
                    k: float(v)
                    for k, v in meta.get("attr_bytes", {}).items()
                },
            )
        return store

    # -- manifest ------------------------------------------------------
    def _flush_doc(
        self,
        entries: Dict[ChunkRef, _Entry],
        schemas: Dict[str, str],
    ) -> None:
        doc = {
            "version": _MANIFEST_VERSION,
            "counter": self._counter,
            "schemas": dict(sorted(schemas.items())),
            "chunks": {
                _ref_token(ref): {
                    "file": entry.file,
                    "size_bytes": entry.size_bytes,
                    "attr_bytes": entry.attr_bytes,
                }
                for ref, entry in sorted(
                    entries.items(),
                    key=lambda kv: (kv[0].array, kv[0].key),
                )
            },
        }
        data = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.io.write_file(
            os.path.join(self.root, _MANIFEST_NAME), data
        )

    def flush(self) -> None:
        """Persist the entry table (atomic replace — the commit point)."""
        self._flush_doc(self._entries, self._schema_decls)

    # -- writes --------------------------------------------------------
    def write_staged(self, chunk: ChunkData) -> str:
        """Write ``chunk`` to a fresh segment file; do not commit it.

        Returns the file name.  The entry table is untouched, so a
        failure farther into a batch leaves every live chunk readable
        from its old file; :meth:`discard_staged` reclaims the orphans.
        """
        self._counter += 1
        fname = f"seg-{self._counter:08d}.seg"
        self.io.write_file(
            os.path.join(self.root, fname), _encode_segment(chunk)
        )
        return fname

    def commit(self, staged: Dict[ChunkRef, Tuple[ChunkData, str]]) -> None:
        """Flip the manifest to a batch of staged files.

        The candidate entry table is flushed *before* it replaces the
        live one, so a failed flush leaves memory and disk agreeing on
        the old state (the staged files stay invisible orphans).
        Replaced old segment files are removed only after the manifest
        lands — a crash at any point leaves a manifest whose every
        reference exists on disk.
        """
        entries = dict(self._entries)
        schemas = dict(self._schema_decls)
        orphans: List[str] = []
        for ref, (chunk, fname) in staged.items():
            old = entries.get(ref)
            if old is not None:
                orphans.append(old.file)
            entries[ref] = _Entry(
                fname, chunk.size_bytes, dict(chunk.attr_bytes)
            )
            schemas.setdefault(ref.array, chunk.schema.declaration())
        self._flush_doc(entries, schemas)
        self._entries = entries
        self._schema_decls = schemas
        for ref, (chunk, _fname) in staged.items():
            self._schemas.setdefault(ref.array, chunk.schema)
        self._purge(orphans)

    def discard_staged(self, files: List[str]) -> None:
        """Best-effort removal of staged files after a failed batch."""
        self._purge(files)

    def delete_many(self, refs: List[ChunkRef]) -> None:
        """Drop chunks from the manifest, then reclaim their files.

        Same flush-then-swap discipline as :meth:`commit`: a failed
        flush leaves every chunk still committed and readable.
        """
        entries = dict(self._entries)
        orphans: List[str] = []
        for ref in refs:
            entry = entries.pop(ref, None)
            if entry is not None:
                orphans.append(entry.file)
        self._flush_doc(entries, self._schema_decls)
        self._entries = entries
        self._purge(orphans)

    def _purge(self, files: List[str]) -> None:
        for fname in files:
            try:
                self.io.remove(os.path.join(self.root, fname))
            except OSError:
                # An undeletable orphan wastes disk but can never be
                # read again — the manifest no longer references it.
                pass

    # -- reads ---------------------------------------------------------
    def read(
        self, ref: ChunkRef
    ) -> Tuple[npt.NDArray[np.int64], Dict[str, npt.NDArray[Any]]]:
        """Load one chunk's ``(coords, columns)`` from its segment file.

        Raises
        ------
        StorageError
            If ``ref`` is not in the manifest.
        SegmentCorruptError
            If the file fails validation or names a different chunk
            than the manifest claims.
        """
        entry = self._entries.get(ref)
        if entry is None:
            raise StorageError(
                f"segment store {self.root} holds no chunk {ref}"
            )
        path = os.path.join(self.root, entry.file)
        try:
            raw = self.io.map_segment(path)
        except FileNotFoundError:
            raise _corrupt(
                path, "file missing behind a live manifest entry"
            ) from None
        footer, coords, columns = _decode_segment(raw, path)
        if (footer["array"] != ref.array
                or tuple(footer["key"]) != ref.key):
            raise _corrupt(
                path,
                f"holds chunk {footer['array']}@{footer['key']}, "
                f"manifest says {ref}",
            )
        return coords, columns

    def schema_of(self, array: str) -> ArraySchema:
        """The recorded schema of one array (parsed once, then cached)."""
        schema = self._schemas.get(array)
        if schema is None:
            decl = self._schema_decls.get(array)
            if decl is None:
                raise StorageError(
                    f"segment store {self.root} has no schema for "
                    f"array {array!r}"
                )
            schema = parse_schema(decl)
            self._schemas[array] = schema
        return schema

    # -- introspection -------------------------------------------------
    def __contains__(self, ref: ChunkRef) -> bool:
        return ref in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[Tuple[ChunkRef, float, Dict[str, float]]]:
        """``(ref, size_bytes, attr_bytes)`` for every live chunk."""
        for ref, entry in sorted(
            self._entries.items(), key=lambda kv: (kv[0].array, kv[0].key)
        ):
            yield ref, entry.size_bytes, dict(entry.attr_bytes)

    def total_bytes(self) -> float:
        """Modeled bytes of every chunk the manifest holds."""
        return sum(e.size_bytes for e in self._entries.values())
