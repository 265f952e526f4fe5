"""Array schemas in the SciDB style.

An array has *dimensions* — named integer axes, each with a declared range
(possibly unbounded above) and a *chunk interval* (stride) — and
*attributes* — named, typed scalars stored in each non-empty cell.  Together
they define the logical layout of the array (paper §2).

Schemas can be written in and parsed from the paper's declaration syntax::

    A<i:int32, j:float>[x=1:4,2, y=1:4,2]

which declares a 4x4 array with 2x2 chunks, an int32 attribute ``i`` and a
float attribute ``j``.  The MODIS and AIS schemas of §3 use the variant
``[time=0,*,1440, longitude=-180,180,12]`` where ``*`` marks an unbounded
dimension; both forms are accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.coords import Box, Coordinate
from repro.errors import SchemaError

#: numpy dtypes accepted for attributes, keyed by their schema-text name.
_DTYPE_ALIASES: Dict[str, str] = {
    "int8": "int8",
    "int16": "int16",
    "int32": "int32",
    "int64": "int64",
    "int": "int64",
    "uint8": "uint8",
    "uint16": "uint16",
    "uint32": "uint32",
    "uint64": "uint64",
    "float": "float64",
    "float32": "float32",
    "float64": "float64",
    "double": "float64",
    "bool": "bool",
    "char": "uint8",
    "string": "object",
}

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _check_name(name: str, what: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise SchemaError(f"invalid {what} name: {name!r}")
    return name


@dataclass(frozen=True)
class AttributeSpec:
    """A named, typed attribute stored in each non-empty cell.

    Attributes:
        name: attribute identifier.
        dtype: numpy dtype name (normalized; ``float`` becomes ``float64``).
    """

    name: str
    dtype: str

    def __post_init__(self) -> None:
        _check_name(self.name, "attribute")
        normalized = _DTYPE_ALIASES.get(self.dtype)
        if normalized is None:
            try:
                normalized = np.dtype(self.dtype).name
            except TypeError as exc:
                raise SchemaError(
                    f"unknown attribute dtype {self.dtype!r}"
                ) from exc
        object.__setattr__(self, "dtype", normalized)

    @property
    def itemsize(self) -> int:
        """Bytes per stored value (strings are modeled at 16 bytes)."""
        if self.dtype == "object":
            return 16
        return int(np.dtype(self.dtype).itemsize)

    def declaration(self) -> str:
        """Render as ``name:dtype`` schema text."""
        return f"{self.name}:{self.dtype}"


@dataclass(frozen=True)
class DimensionSpec:
    """A named dimension with a declared range and chunk interval.

    Attributes:
        name: dimension identifier.
        start: inclusive lower bound of the dimension.
        end: inclusive upper bound, or ``None`` for an unbounded dimension
            (e.g. a time series, declared ``time=0,*,1440``).
        chunk_interval: stride of a chunk along this dimension, in cells.
    """

    name: str
    start: int
    end: Optional[int]
    chunk_interval: int

    def __post_init__(self) -> None:
        _check_name(self.name, "dimension")
        if self.chunk_interval <= 0:
            raise SchemaError(
                f"dimension {self.name}: chunk interval must be positive, "
                f"got {self.chunk_interval}"
            )
        if self.end is not None and self.end < self.start:
            raise SchemaError(
                f"dimension {self.name}: end {self.end} < start {self.start}"
            )

    @property
    def bounded(self) -> bool:
        """True when the dimension has a declared upper bound."""
        return self.end is not None

    @property
    def extent(self) -> Optional[int]:
        """Number of cells along the dimension, or ``None`` if unbounded."""
        if self.end is None:
            return None
        return self.end - self.start + 1

    @property
    def chunk_count(self) -> Optional[int]:
        """Number of chunks along the dimension, or ``None`` if unbounded."""
        if self.extent is None:
            return None
        return -(-self.extent // self.chunk_interval)

    def chunk_of(self, coordinate: int) -> int:
        """Chunk-grid coordinate of a cell coordinate along this dimension."""
        if coordinate < self.start:
            raise SchemaError(
                f"coordinate {coordinate} below dimension {self.name} "
                f"start {self.start}"
            )
        if self.end is not None and coordinate > self.end:
            raise SchemaError(
                f"coordinate {coordinate} above dimension {self.name} "
                f"end {self.end}"
            )
        return (coordinate - self.start) // self.chunk_interval

    def chunk_low(self, chunk_coord: int) -> int:
        """Inclusive lowest cell coordinate of chunk ``chunk_coord``."""
        return self.start + chunk_coord * self.chunk_interval

    def chunk_range(self, lo: int, hi: int) -> Optional[Tuple[int, int]]:
        """Inclusive chunk-coordinate interval meeting cell range ``[lo, hi)``.

        The inverse of the :meth:`chunk_low` / :meth:`chunk_high` box
        math: a chunk coordinate ``c`` intersects the half-open cell
        interval exactly when ``chunk_range(lo, hi)[0] <= c <=
        chunk_range(lo, hi)[1]``.  Returns ``None`` when no chunk can
        intersect — the interval is empty, lies entirely below
        ``start``, or entirely above a bounded dimension's ``end`` (the
        end clamp matters: the last chunk's box stops at ``end`` even
        though its unclamped stride would reach further).
        """
        if hi <= lo or hi <= self.start:
            return None
        if self.end is not None and lo > self.end:
            return None
        c_lo = max(0, (lo - self.start) // self.chunk_interval)
        c_hi = (hi - 1 - self.start) // self.chunk_interval
        if self.chunk_count is not None:
            c_hi = min(c_hi, self.chunk_count - 1)
        if c_hi < c_lo:
            return None
        return c_lo, c_hi

    def chunk_high(self, chunk_coord: int) -> int:
        """Inclusive highest cell coordinate of chunk ``chunk_coord``."""
        high = self.chunk_low(chunk_coord) + self.chunk_interval - 1
        if self.end is not None:
            high = min(high, self.end)
        return high

    def declaration(self) -> str:
        """Render as ``name=start:end,interval`` schema text."""
        end = "*" if self.end is None else str(self.end)
        return f"{self.name}={self.start}:{end},{self.chunk_interval}"


@dataclass(frozen=True)
class ArraySchema:
    """A full array declaration: name, dimensions, and attributes.

    The schema is the shared vocabulary between the workload generators (who
    produce cells), the partitioners (who reason about chunk-grid space) and
    the query engine (who reads cells back).
    """

    name: str
    dimensions: Tuple[DimensionSpec, ...]
    attributes: Tuple[AttributeSpec, ...]

    def __post_init__(self) -> None:
        _check_name(self.name, "array")
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.dimensions:
            raise SchemaError(f"array {self.name}: needs >= 1 dimension")
        if not self.attributes:
            raise SchemaError(f"array {self.name}: needs >= 1 attribute")
        seen = set()
        for spec in list(self.dimensions) + list(self.attributes):
            if spec.name in seen:
                raise SchemaError(
                    f"array {self.name}: duplicate name {spec.name!r}"
                )
            seen.add(spec.name)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.dimensions)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def dimension(self, name: str) -> DimensionSpec:
        """Look up a dimension by name."""
        for d in self.dimensions:
            if d.name == name:
                return d
        raise SchemaError(f"array {self.name}: no dimension {name!r}")

    def attribute(self, name: str) -> AttributeSpec:
        """Look up an attribute by name."""
        for a in self.attributes:
            if a.name == name:
                return a
        raise SchemaError(f"array {self.name}: no attribute {name!r}")

    def dimension_index(self, name: str) -> int:
        """Position of a dimension in the schema's dimension order."""
        for i, d in enumerate(self.dimensions):
            if d.name == name:
                return i
        raise SchemaError(f"array {self.name}: no dimension {name!r}")

    @property
    def cell_width_bytes(self) -> int:
        """Bytes per fully-populated cell across all attributes."""
        return sum(a.itemsize for a in self.attributes)

    @cached_property
    def vertical_widths(self) -> Tuple[Tuple[Tuple[str, int], ...], int]:
        """``((attribute, itemsize), ...)`` and their sum (1 when zero):
        the per-schema constants of a chunk's vertical byte shares."""
        widths = tuple((a.name, a.itemsize) for a in self.attributes)
        return widths, sum(w for _, w in widths) or 1

    # ------------------------------------------------------------------
    # chunk-grid math
    # ------------------------------------------------------------------
    def chunk_of(self, cell: Sequence[int]) -> Coordinate:
        """Chunk-grid coordinates of the chunk containing ``cell``."""
        if len(cell) != self.ndim:
            raise SchemaError(
                f"cell arity {len(cell)} != array arity {self.ndim}"
            )
        return tuple(
            d.chunk_of(int(c)) for d, c in zip(self.dimensions, cell)
        )

    def chunk_box(self, chunk: Sequence[int]) -> Box:
        """Half-open box of *cell* coordinates covered by a chunk."""
        if len(chunk) != self.ndim:
            raise SchemaError(
                f"chunk arity {len(chunk)} != array arity {self.ndim}"
            )
        lo = tuple(
            d.chunk_low(int(c)) for d, c in zip(self.dimensions, chunk)
        )
        hi = tuple(
            d.chunk_high(int(c)) + 1 for d, c in zip(self.dimensions, chunk)
        )
        return Box(lo, hi)

    def chunk_intervals_of(
        self, region: Box
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Per-dimension chunk-coordinate intervals intersecting a region.

        The vectorized inverse of :meth:`chunk_box`: a chunk key ``k``
        satisfies ``chunk_box(k).intersects(region)`` exactly when
        ``lo[d] <= k[d] <= hi[d]`` for every dimension ``d`` of the
        returned ``(lo, hi)`` int64 arrays.  Region routing (the
        snapshot router behind
        :meth:`repro.core.catalog.ArraySnapshot.pairs_in_region`) turns
        a query box into these intervals once and selects pinned chunks
        with one comparison over the snapshot's key matrix — no
        per-chunk ``Box`` objects.

        Returns ``None`` when no chunk can intersect the region (empty
        box, or a box entirely outside the declared domain).

        Raises:
            SchemaError: if the region's arity differs from the array's.
        """
        if region.ndim != self.ndim:
            raise SchemaError(
                f"region arity {region.ndim} != array arity {self.ndim}"
            )
        lows = np.empty(self.ndim, dtype=np.int64)
        highs = np.empty(self.ndim, dtype=np.int64)
        for d, dim in enumerate(self.dimensions):
            interval = dim.chunk_range(region.lo[d], region.hi[d])
            if interval is None:
                return None
            lows[d], highs[d] = interval
        return lows, highs

    # ------------------------------------------------------------------
    # rendering / parsing
    # ------------------------------------------------------------------
    def declaration(self) -> str:
        """Render the schema in the paper's declaration syntax."""
        attrs = ", ".join(a.declaration() for a in self.attributes)
        dims = ", ".join(d.declaration() for d in self.dimensions)
        return f"{self.name}<{attrs}>[{dims}]"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.declaration()


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
_SCHEMA_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*"
    r"<(?P<attrs>[^>]*)>\s*"
    r"\[(?P<dims>.*)\]\s*$",
    re.S,
)

# ``x=1:4,2`` (range form) or ``time=0,*,1440`` (comma form, * = unbounded)
_DIM_RANGE_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*"
    r"(?P<start>-?\d+)\s*:\s*(?P<end>-?\d+|\*)\s*,\s*(?P<interval>\d+)$"
)
_DIM_COMMA_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*"
    r"(?P<start>-?\d+)\s*,\s*(?P<end>-?\d+|\*)\s*,\s*(?P<interval>\d+)$"
)


def _split_top_level(text: str) -> Iterable[str]:
    """Split a comma-separated declaration list on dimension boundaries.

    Dimension declarations themselves contain commas (``x=1:4,2``), so we
    split on commas that are followed by a ``name=`` or ``name:`` token.
    """
    parts = []
    current = []
    tokens = text.split(",")
    for token in tokens:
        if "=" in token or ":" in token:
            if current:
                parts.append(",".join(current))
            current = [token]
        else:
            current.append(token)
    if current:
        parts.append(",".join(current))
    return [p.strip() for p in parts if p.strip()]


def parse_schema(text: str) -> ArraySchema:
    """Parse a declaration such as ``A<i:int32,j:float>[x=1:4,2, y=1:4,2]``.

    Both the colon range form (``x=1:4,2``) and the paper's comma form used
    for MODIS/AIS (``time=0,*,1440``) are accepted; ``*`` denotes an
    unbounded upper bound.

    Raises:
        SchemaError: if the text is not a valid declaration.
    """
    match = _SCHEMA_RE.match(text)
    if not match:
        raise SchemaError(f"cannot parse schema text: {text!r}")
    name = match.group("name")

    attributes = []
    for part in _split_top_level(match.group("attrs")):
        if ":" not in part:
            raise SchemaError(f"malformed attribute {part!r} in {name}")
        attr_name, _, dtype = part.partition(":")
        attributes.append(AttributeSpec(attr_name.strip(), dtype.strip()))

    dimensions = []
    for part in _split_top_level(match.group("dims")):
        m = _DIM_RANGE_RE.match(part) or _DIM_COMMA_RE.match(part)
        if not m:
            raise SchemaError(f"malformed dimension {part!r} in {name}")
        end_text = m.group("end")
        end = None if end_text == "*" else int(end_text)
        dimensions.append(
            DimensionSpec(
                name=m.group("name"),
                start=int(m.group("start")),
                end=end,
                chunk_interval=int(m.group("interval")),
            )
        )

    return ArraySchema(name, tuple(dimensions), tuple(attributes))
