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

Arenas and extents
------------------
The unit of cell *memory* is the ingest batch, not the chunk: one
:func:`repro.arrays.array.chunk_cells` call sorts its batch by chunk key
into a :class:`CellArena` — one coordinate table plus one column per
attribute — and every chunk it produces is an *extent* ``(arena, lo,
hi)`` of it, a row range rather than a set of arrays.  Consecutive
chunks of one batch are consecutive row ranges, so a gather over
key-sorted chunks (:func:`repro.core.catalog.concat_payload`) copies
whole slabs instead of per-chunk pieces.  The per-chunk ``(coords,
attributes)`` views are built on the first per-chunk read and never
before.
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


class CellArena:
    """The key-sorted cells of one ingest batch: the unit of cell memory.

    ``coords`` is the ``(cells, ndim)`` int64 coordinate table and
    ``columns`` maps every schema attribute to its value column, all
    sorted by chunk key, so each chunk of the batch is a contiguous row
    range ``[lo, hi)`` — its *extent*.  An arena is immutable once
    built: chunks hand out views of it, gathers copy out of it, nothing
    writes into it.
    """

    __slots__ = ("coords", "columns")

    def __init__(
        self, coords: np.ndarray, columns: Dict[str, np.ndarray]
    ) -> None:
        self.coords = coords
        self.columns = columns


#: A chunk's row range in its batch arena: ``(arena, lo, hi)``.
Extent = Tuple[CellArena, int, int]


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
    The cell data lives behind a handle that is in one of three states:

    *extent*
        :attr:`extent` is ``(arena, lo, hi)``: the cells are rows
        ``[lo, hi)`` of a batch :class:`CellArena` (every chunk
        :func:`~repro.arrays.array.chunk_cells` produces).  ``_payload``
        starts ``None`` and :meth:`payload_parts` fills it with views of
        the arena on the first per-chunk read.  An extent never changes
        and ``extent is not None`` implies ``_tier is None``.
    *own arrays*
        ``extent`` is ``None`` and ``_payload`` is the ``(coords,
        attributes)`` pair (the validating constructor,
        :meth:`merged_with`, a payload faulted in from a segment).
    *spilled*
        ``extent`` and ``_payload`` are both ``None``: the bytes live in
        the owning store's :class:`~repro.arrays.segment.SegmentStore`
        and ``_tier`` knows how to fault them back in.

    The only transitions are extent → own arrays (a spill tier adopting
    the chunk, :meth:`repro.arrays.storage.SpillTier.register`) and own
    arrays ⇄ spilled (evict / fault).  :attr:`coords` and
    :attr:`attributes` read through :meth:`payload_parts` in every
    state; identity, schema, key, cell count and byte accounting are
    always available without I/O and without building a view.
    ``_payload`` is read and written as one tuple, so a reader always
    holds an internally consistent pair, never half of each.
    """

    __slots__ = ("schema", "key", "size_bytes", "attr_bytes", "_ref",
                 "_payload", "_tier", "_extent")

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
        self._extent = None

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
    def from_extent(
        cls,
        schema: ArraySchema,
        key: ChunkKey,
        arena: CellArena,
        lo: int,
        hi: int,
        size_bytes: float,
    ) -> "ChunkData":
        """Trusted constructor: rows ``[lo, hi)`` of a batch arena.

        The ingest path (:func:`repro.arrays.array.chunk_cells`)
        validates a whole batch once — attribute completeness and
        lengths, cell bounds — and the chunk key is *derived* from the
        coordinates, so every group is in-box by construction.  This
        path skips the per-chunk re-validation of ``__init__`` (set
        algebra, box containment, footprint recount) and slices
        nothing: the views are built by the first
        :meth:`payload_parts` call.

        Parameters
        ----------
        schema : ArraySchema
            Owning array's schema.
        key : tuple of int
            Chunk-grid coordinates (already plain ints).
        arena : CellArena
            The batch's key-sorted cells; ``arena.columns`` holds
            exactly the schema's attribute columns.
        lo, hi : int
            The chunk's row range in the arena; every row's cell lies
            inside the chunk's box.
        size_bytes : float
            Modeled physical size (the caller prices the footprint).

        Returns
        -------
        ChunkData
            An instance indistinguishable, through every public read,
            from one built by the validating constructor on the same
            cells.
        """
        self = object.__new__(cls)
        self.schema = schema
        self.key = key
        self._payload = None
        self._tier = None
        self._extent = (arena, lo, hi)
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
        self._extent = None
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

        The first call on an extent builds the chunk's views of its
        arena and keeps them: one tuple that is a pure function of the
        (immutable) extent.
        """
        parts = self._payload
        if parts is None:
            extent = self._extent
            if extent is not None:
                return self._materialize(extent)
            tier = self._tier
            if tier is None:
                raise StorageError(
                    f"chunk {self.ref()} is spilled but detached from "
                    "any spill tier; it cannot be read"
                )
            parts = tier.fault(self)
        return parts

    def _materialize(
        self, extent: Extent
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Build and keep this chunk's views of its arena.

        Kept out of :meth:`payload_parts`: the comprehension closes over
        ``lo`` / ``hi``, and a closure in that body would allocate its
        cells on every resident read too.
        """
        arena, lo, hi = extent
        parts = (
            arena.coords[lo:hi],
            {
                name: column[lo:hi]
                for name, column in arena.columns.items()
            },
        )
        self._payload = parts
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
    def extent(self) -> Optional[Extent]:
        """``(arena, lo, hi)`` for a chunk cut from a batch arena, else ``None``.

        Read-only and, while set, immutable; a spill tier adopting the
        chunk clears it (the tier owns residency from then on).
        """
        return self._extent

    @property
    def is_resident(self) -> bool:
        """Whether the cell payload is currently in memory."""
        return self._payload is not None or self._extent is not None

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
        extent = self._extent
        if extent is not None:
            return extent[2] - extent[1]
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
        columns = self.payload_parts()[1]
        if attr not in columns:
            raise ChunkError(
                f"array {self.schema.name} has no attribute {attr!r}"
            )
        return columns[attr]

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
        extent, parts = self._extent, self._payload
        if extent is not None:
            cells = str(extent[2] - extent[1])
        elif parts is not None:
            cells = str(int(parts[0].shape[0]))
        else:
            cells = "spilled"
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
