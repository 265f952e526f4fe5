"""Chunks: the unit of I/O, placement, and memory allocation.

A chunk is an n-dimensional subarray (paper §2).  Logically a chunk is
identified by its :data:`ChunkKey` — its coordinates in chunk-grid space.
Physically it stores only its non-empty cells: a coordinate table plus one
value column per attribute (SciDB's vertical partitioning stores each
attribute in its own physical chunk; we model that with per-attribute byte
accounting so queries pay I/O only for the attributes they touch).

Chunk *physical* size is variable and tracks occupancy, not the declared
chunk volume.  Generators may inflate the modeled ``size_bytes`` so that a
laptop-scale cell count represents a paper-scale (tens of MB) chunk; the
placement and provisioning layers only ever look at modeled bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.schema import ArraySchema
from repro.errors import ChunkError, StorageError

#: Chunk-grid coordinates of a chunk, one integer per dimension.
ChunkKey = Tuple[int, ...]


@dataclass(frozen=True)
class ChunkRef:
    """A globally unique chunk identity: ``(array name, chunk key)``.

    Placement maps and the cluster simulator key everything by
    :class:`ChunkRef` so multiple arrays (e.g. the two MODIS bands) can
    coexist in one database.  Two arrays with identical chunk keys get
    co-located by partitioners that place on ``key`` alone, which is what
    gives dimension-aligned joins their locality.
    """

    array: str
    key: ChunkKey

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", tuple(int(c) for c in self.key))
        # Refs key every ledger dict in the placement hot path; caching
        # the hash makes each dict operation a C-level lookup instead of
        # re-hashing (array, key) through a generated Python method.
        object.__setattr__(self, "_hash", hash((self.array, self.key)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # Exclude the cached hash: str hashing is salted per process
        # (PYTHONHASHSEED), so a pickled hash from another interpreter
        # would break dict lookups against locally built refs.
        return (self.array, self.key)

    def __setstate__(self, state) -> None:
        array, key = state
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash((array, key)))

    @property
    def ndim(self) -> int:
        return len(self.key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.array}@{','.join(map(str, self.key))}"


class ChunkData:
    """The physical payload of one chunk: sparse cells plus byte accounting.

    Args:
        schema: owning array's schema.
        key: chunk-grid coordinates.
        coords: int64 array of shape ``(cells, ndim)`` with the cell
            coordinates (must all fall inside the chunk's box).
        attributes: mapping from attribute name to a 1-d value array of
            length ``cells``.  Every schema attribute must be present.
        size_bytes: modeled physical size.  Defaults to the actual numpy
            footprint; generators pass an inflated figure to emulate
            paper-scale chunks.

    The per-attribute byte shares (:attr:`attr_bytes`) model SciDB's
    vertical partitioning: ``attr_bytes[a]`` is the modeled footprint of the
    physical chunk holding attribute ``a``, proportional to its dtype width.

    Payload handle
    --------------
    The cell data itself lives behind a one-slot indirection:
    ``_payload`` is either the ``(coords, attributes)`` pair (*resident*)
    or ``None`` (*spilled* — the bytes live in the owning store's
    :class:`~repro.arrays.segment.SegmentStore` and ``_tier`` knows how
    to fault them back in).  :attr:`coords` and :attr:`attributes` are
    faulting properties, so every existing consumer reads through the
    handle unchanged; identity, schema, key, and byte accounting are
    always available without I/O.  ``_payload`` is read and written as
    one tuple, so a concurrent evict/fault race hands a reader a stale
    but internally consistent pair — never half of each.
    """

    __slots__ = ("schema", "key", "size_bytes", "attr_bytes", "_ref",
                 "_payload", "_tier")

    def __init__(
        self,
        schema: ArraySchema,
        key: Sequence[int],
        coords: np.ndarray,
        attributes: Mapping[str, np.ndarray],
        size_bytes: Optional[float] = None,
    ) -> None:
        self.schema = schema
        self.key: ChunkKey = tuple(int(c) for c in key)
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != schema.ndim:
            raise ChunkError(
                f"coords must have shape (cells, {schema.ndim}), "
                f"got {coords.shape}"
            )

        missing = set(schema.attribute_names) - set(attributes)
        if missing:
            raise ChunkError(
                f"chunk {self.key} of {schema.name} missing attributes "
                f"{sorted(missing)}"
            )
        extra = set(attributes) - set(schema.attribute_names)
        if extra:
            raise ChunkError(
                f"chunk {self.key} of {schema.name} has unknown attributes "
                f"{sorted(extra)}"
            )
        columns: Dict[str, np.ndarray] = {}
        for spec in schema.attributes:
            values = np.asarray(attributes[spec.name])
            if values.shape != (coords.shape[0],):
                raise ChunkError(
                    f"attribute {spec.name} has {values.shape[0] if values.ndim else 'scalar'} "
                    f"values for {coords.shape[0]} cells"
                )
            columns[spec.name] = values
        self._payload = (coords, columns)
        self._tier = None

        box = schema.chunk_box(self.key)
        if coords.shape[0]:
            lo = coords.min(axis=0)
            hi = coords.max(axis=0)
            if (np.any(lo < np.asarray(box.lo))
                    or np.any(hi >= np.asarray(box.hi))):
                raise ChunkError(
                    f"cells escape chunk {self.key} box {box} of "
                    f"{schema.name}"
                )

        actual = self._actual_nbytes()
        if size_bytes is None:
            size_bytes = float(actual)
        if size_bytes < 0:
            raise ChunkError("size_bytes must be non-negative")
        self.size_bytes = float(size_bytes)
        self.attr_bytes = self._vertical_shares(self.size_bytes)
        self._ref: Optional[ChunkRef] = None

    @classmethod
    def from_validated_cells(
        cls,
        schema: ArraySchema,
        key: ChunkKey,
        coords: np.ndarray,
        attributes: Dict[str, np.ndarray],
        size_bytes: float,
    ) -> "ChunkData":
        """Trusted constructor for pre-validated cell groups (ingest path).

        :func:`repro.arrays.array.chunk_cells` validates a whole batch
        once — attribute completeness and lengths, cell bounds — and the
        chunk key is *derived* from the coordinates, so every group is
        in-box by construction.  This path skips the per-chunk
        re-validation of ``__init__`` (set algebra, box containment,
        footprint recount), which dominates ingest time for workloads
        producing many small chunks.

        Parameters
        ----------
        schema : ArraySchema
            Owning array's schema.
        key : tuple of int
            Chunk-grid coordinates (already plain ints).
        coords : numpy.ndarray of int64, shape (cells, ndim)
            Cell coordinates, all inside the chunk's box.
        attributes : dict of str to numpy.ndarray
            Exactly the schema's attribute columns, each of length
            ``cells``.
        size_bytes : float
            Modeled physical size (the caller prices the footprint).

        Returns
        -------
        ChunkData
            An instance indistinguishable from one built by the
            validating constructor on the same inputs.
        """
        self = object.__new__(cls)
        self.schema = schema
        self.key = key
        self._payload = (coords, attributes)
        self._tier = None
        self.size_bytes = float(size_bytes)
        self.attr_bytes = self._vertical_shares(self.size_bytes)
        self._ref = None
        return self

    @classmethod
    def spilled(
        cls,
        schema: ArraySchema,
        key: ChunkKey,
        size_bytes: float,
        attr_bytes: Optional[Mapping[str, float]] = None,
    ) -> "ChunkData":
        """A handle whose payload lives on disk (restart recovery path).

        The handle is fully functional for placement, catalog, and cost
        accounting (identity, schema, modeled bytes) without any I/O;
        the first :attr:`coords`/:attr:`attributes` read faults the cell
        data in through the spill tier the owning store registers via
        ``_tier``.  Reading a spilled handle that no store has adopted
        raises :class:`~repro.errors.StorageError`.
        """
        self = object.__new__(cls)
        self.schema = schema
        self.key = tuple(int(c) for c in key)
        self._payload = None
        self._tier = None
        self.size_bytes = float(size_bytes)
        if attr_bytes is None:
            self.attr_bytes = self._vertical_shares(self.size_bytes)
        else:
            self.attr_bytes = {k: float(v) for k, v in attr_bytes.items()}
        self._ref = None
        return self

    # -- payload handle -------------------------------------------------
    def payload_parts(
        self,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """One consistent ``(coords, attributes)`` pair (faults if spilled).

        Kernels that read both halves should call this once instead of
        touching :attr:`coords` and :attr:`attributes` separately: the
        tuple is immutable, so the pair is guaranteed to describe the
        same cells even if the spill tier evicts this chunk between the
        two reads.
        """
        parts = self._payload
        if parts is None:
            tier = self._tier
            if tier is None:
                raise StorageError(
                    f"chunk {self.ref()} is spilled but detached from "
                    "any spill tier; it cannot be read"
                )
            parts = tier.fault(self)
        return parts

    @property
    def coords(self) -> np.ndarray:
        """Cell coordinates, ``(cells, ndim)`` int64 (faults if spilled)."""
        return self.payload_parts()[0]

    @property
    def attributes(self) -> Dict[str, np.ndarray]:
        """Attribute name → value column (faults if spilled)."""
        return self.payload_parts()[1]

    @property
    def is_resident(self) -> bool:
        """Whether the cell payload is currently in memory."""
        return self._payload is not None

    # ------------------------------------------------------------------
    def _actual_nbytes(self) -> int:
        total = self.coords.nbytes
        for spec in self.schema.attributes:
            values = self.attributes[spec.name]
            if values.dtype == object:
                total += spec.itemsize * len(values)
            else:
                total += values.nbytes
        return total

    def _vertical_shares(self, total: float) -> Dict[str, float]:
        """Apportion ``total`` bytes across attributes by dtype width.

        Each attribute's physical chunk also carries a copy of the cell
        coordinates (SciDB stores per-attribute chunks addressable by
        position); we fold the coordinate overhead proportionally.
        """
        widths, denom = self.schema.vertical_widths
        return {name: total * w / denom for name, w in widths}

    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        """Number of non-empty cells stored."""
        return int(self.coords.shape[0])

    @property
    def ndim(self) -> int:
        return self.schema.ndim

    def ref(self) -> ChunkRef:
        """This chunk's global identity (constructed once, then cached).

        Every storage and catalog hot path keys dicts by the ref, so
        rebuilding it — tuple conversion plus hashing — per call shows
        up in grouped rebalances; the identity never changes, cache it.
        """
        ref = self._ref
        if ref is None:
            ref = ChunkRef(self.schema.name, self.key)
            self._ref = ref
        return ref

    def bytes_for(self, attrs: Sequence[str]) -> float:
        """Modeled bytes of the physical chunks for the given attributes."""
        total = 0.0
        for name in attrs:
            if name not in self.attr_bytes:
                raise ChunkError(
                    f"array {self.schema.name} has no attribute {name!r}"
                )
            total += self.attr_bytes[name]
        return total

    def values(self, attr: str) -> np.ndarray:
        """Value column for one attribute."""
        if attr not in self.attributes:
            raise ChunkError(
                f"array {self.schema.name} has no attribute {attr!r}"
            )
        return self.attributes[attr]

    def dim_values(self, dim_name: str) -> np.ndarray:
        """Cell coordinates along one named dimension."""
        idx = self.schema.dimension_index(dim_name)
        return self.coords[:, idx]

    def merged_with(self, other: "ChunkData") -> "ChunkData":
        """A new chunk holding this chunk's cells plus ``other``'s.

        Used when a later insert lands in an already-materialized chunk
        (possible for unbounded dimensions when a batch spans a chunk
        boundary).  Modeled sizes add.
        """
        if other.schema is not self.schema and (
                other.schema.declaration() != self.schema.declaration()):
            raise ChunkError("cannot merge chunks of different schemas")
        if other.key != self.key:
            raise ChunkError(
                f"cannot merge chunk {other.key} into chunk {self.key}"
            )
        coords = np.concatenate([self.coords, other.coords], axis=0)
        attrs = {
            name: np.concatenate(
                [self.attributes[name], other.attributes[name]]
            )
            for name in self.schema.attribute_names
        }
        return ChunkData(
            self.schema, self.key, coords, attrs,
            size_bytes=self.size_bytes + other.size_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        # Never fault from repr: debugging a spilled handle must not do
        # I/O (or raise, for a detached one).
        cells = (
            str(int(self._payload[0].shape[0]))
            if self._payload is not None else "spilled"
        )
        return (
            f"ChunkData({self.schema.name}@{self.key}, "
            f"cells={cells}, bytes={self.size_bytes:.0f})"
        )


def empty_chunk(schema: ArraySchema, key: Sequence[int]) -> ChunkData:
    """A chunk with zero cells (rarely stored; useful in tests)."""
    coords = np.empty((0, schema.ndim), dtype=np.int64)
    attrs = {
        a.name: np.empty(0, dtype=a.dtype if a.dtype != "object" else object)
        for a in schema.attributes
    }
    return ChunkData(schema, key, coords, attrs)
