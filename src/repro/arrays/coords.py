"""n-dimensional coordinate and box algebra.

The partitioners in :mod:`repro.core` reason about *chunk grid space*: the
integer lattice obtained by dividing each array dimension by its chunk
interval.  This module provides the half-open box abstraction they share,
plus the mixed-radix row packing (:func:`row_packing` / :func:`pack_rows`)
that the batch kernels use to turn n-dimensional integer rows into one
sortable int64 key column, the position-key codec built on it
(:func:`position_keys` / :func:`unpack_rows`, with the void view as its
overflow fallback), row deduplication through it
(:func:`unique_row_index`), sort-based distinct values
(:func:`distinct`), and the grouping primitive over such keys
(:func:`group_keys`: by offset into the packing's table when the table is
small against the rows, by sort otherwise).

A :class:`Box` is the n-dimensional generalization of a half-open interval
``[lo, hi)``.  Boxes are immutable; all operations return new boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChunkError

Coordinate = Tuple[int, ...]
#: ``(lo, span)`` of :func:`row_packing`; ``None`` = extent beyond int64.
Packing = Optional[Tuple[np.ndarray, np.ndarray]]


def _column_bounds(rows: np.ndarray) -> Tuple[List[int], List[int]]:
    """Per-column ``(mins, maxs)`` of a non-empty row table, as ints.

    One strided 1-d reduction per column: an ``axis=0`` reduction over
    a C-ordered ``(n, d)`` table walks it row by row with a d-wide
    inner loop, ~14x slower at the d = 2..4 these tables have.
    """
    cols = [rows[:, d] for d in range(rows.shape[1])]
    return [int(c.min()) for c in cols], [int(c.max()) for c in cols]


def row_packing(rows: np.ndarray, pad: int = 0) -> Packing:
    """(lo, span) packing of an int row table, or ``None`` on overflow.

    The shared front half of every packed-key kernel (cell chunking,
    grid group-bys, halo neighbour lookups): with per-column offsets
    ``lo`` and extents ``span``, :func:`pack_rows` becomes an
    order-preserving mixed-radix encoding — sorting the packed keys
    sorts the rows lexicographically, so one 1-d sort or ``np.unique``
    replaces the much slower multi-column variants.

    Parameters
    ----------
    rows : numpy.ndarray of int64, shape (n, d)
        Integer rows to pack.
    pad : int
        Widens the admitted range on both sides (stencil kernels pack
        neighbour rows one step outside the observed extremes).

    Returns
    -------
    (lo, span) : pair of numpy.ndarray, or None
        Per-column offsets and extents, or ``None`` when the padded
        span product cannot fit int64 — callers must then fall back to
        a multi-column path.  The bounds are computed with exact Python
        ints so extreme coordinates disable packing instead of wrapping
        into colliding keys.
    """
    if rows.shape[0] == 0 or rows.shape[1] == 0:
        return None
    mins, maxs = _column_bounds(rows)
    los = [v - pad for v in mins]
    his = [v + pad for v in maxs]
    spans = [h - lo + 1 for lo, h in zip(los, his)]
    total = 1
    for lo, span in zip(los, spans):
        total *= span
        if total > 2**62 or lo < -(2**62):
            return None
    return (
        np.array(los, dtype=np.int64),
        np.array(spans, dtype=np.int64),
    )


def pack_rows(
    rows: np.ndarray, lo: np.ndarray, span: np.ndarray
) -> np.ndarray:
    """Mixed-radix encode int64 rows into one scalar key column.

    ``lo``/``span`` must come from :func:`row_packing` over a row table
    covering these rows (padded when rows step outside it); the packing
    is then order-preserving and collision-free.
    """
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    for d in range(rows.shape[1]):
        keys *= span[d]
        keys += rows[:, d] - lo[d]
    return keys


def pack_rows_void(rows: np.ndarray) -> np.ndarray:
    """View an (n, d) int64 row table as one lexicographic void column.

    The extent-free sibling of :func:`pack_rows`: a reinterpreting view
    (no copy when ``rows`` is already contiguous int64) whose scalar
    comparisons order rows lexicographically, so ``sort`` /
    ``searchsorted`` / ``intersect1d`` work on rows of any magnitude.
    :func:`position_keys` falls back to this view by itself; its
    arithmetic keys compare ~8x faster than structured voids.
    """
    r = np.ascontiguousarray(rows, dtype=np.int64)
    return r.view([("", np.int64)] * r.shape[1]).reshape(-1)


def position_keys(rows: np.ndarray, packing: Packing) -> np.ndarray:
    """One sortable key column for int rows: the position-key codec.

    Int64 keys under a ``packing`` from :func:`row_packing`, the void
    view when it is ``None`` (extent beyond int64) — the same row order
    either way.  Only key columns of one packing compare.
    """
    if packing is None:
        return pack_rows_void(rows)
    return pack_rows(rows, *packing)


def distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of an integer column by one sort and an adjacent-
    difference mask (numpy's hash path is several times slower)."""
    ordered = np.sort(values)
    head = np.ones(len(ordered), dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    return ordered[head]


def unique_row_index(rows: np.ndarray) -> np.ndarray:
    """First-occurrence indices of the distinct rows, lexicographically.

    ``np.unique(rows, axis=0, return_index=True)[1]`` through the
    position-key codec: one 1-d stable ``np.unique`` over the packed
    keys instead of a sort of structured void rows, so ``rows[index]``
    is ``np.unique(rows, axis=0)`` element for element.
    """
    keys = position_keys(rows, row_packing(rows))
    return np.unique(keys, return_index=True)[1]


def unpack_rows(keys: np.ndarray, packing: Packing) -> np.ndarray:
    """Decode a :func:`position_keys` column back into int64 rows.

    The inverse of the codec under the same ``packing``: mixed-radix
    digits for int64 keys (the top digit is whatever quotient remains,
    matching :func:`packing_admits`' unbounded first column), the
    reinterpreting view for void keys.
    """
    if packing is None:
        return keys.view(np.int64).reshape(-1, len(keys.dtype))
    lo, span = packing
    rows = np.empty((keys.shape[0], lo.shape[0]), dtype=np.int64)
    rem = keys
    for d in range(lo.shape[0] - 1, 0, -1):
        rem, digit = np.divmod(rem, span[d])
        rows[:, d] = digit + lo[d]
    rows[:, 0] = rem + lo[0]
    return rows


def packing_strides(packing: Packing) -> Tuple[List[int], Optional[int]]:
    """Per-column key strides and the table size of a packing.

    A step of one along column ``d`` moves a packed key by
    ``strides[d]``; every key of rows the packing covers lies in
    ``[0, size)``.  ``([], None)`` for void keys, which have no table.
    """
    if packing is None:
        return [], None
    strides: List[int] = []
    size = 1
    for extent in reversed(packing[1].tolist()):
        strides.append(size)
        size *= extent
    return strides[::-1], size


def group_keys(
    keys: np.ndarray, size: Optional[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct keys in ascending order, each row's group, group sizes.

    ``np.unique(keys, return_inverse=True, return_counts=True)`` for a
    key column whose values lie in ``[0, size)`` (``size`` is ``None``
    for void keys, which carry no bound) — without the sort when it can
    be avoided.  Keys bounded by a table at most a small multiple of the
    row count are counted *by offset*: one ``bincount`` over the table,
    its non-zero slots are the distinct keys already in order, and a
    running count of them is the rank each row reads its group from.
    That is O(rows + size) against the sort's O(rows log rows), and the
    table costs at most ``4 * rows + 1024`` slots; a sparse key space
    (one far outlier is enough) would pay for a table it never fills,
    so it sorts.  The choice reads only the input — same arrays, same
    order, either way.
    """
    n = keys.shape[0]
    if size is None or size > 4 * n + 1024:
        return np.unique(keys, return_inverse=True, return_counts=True)
    table = np.bincount(keys, minlength=size)
    uniq = np.flatnonzero(table)
    rank = np.cumsum(table > 0)
    rank -= 1
    return uniq, rank[keys], table[uniq]


def joint_packing(*tables: np.ndarray) -> Packing:
    """:func:`row_packing` over the union of several row tables."""
    ends = [
        end for t in tables if t.shape[0] for end in _column_bounds(t)
    ]
    return row_packing(np.array(ends, dtype=np.int64)) if ends else None


def joint_position_keys(*tables: np.ndarray) -> List[np.ndarray]:
    """Key columns of several row tables under one shared packing."""
    packing = joint_packing(*tables)
    return [position_keys(t, packing) for t in tables]


def packing_admits(rows: np.ndarray, packing: Packing) -> bool:
    """Whether :func:`position_keys` stays exact for ``rows``.

    Every column but the first must lie in its ``[lo, lo + span)``; the
    top mixed-radix digit is unbounded, so the first (a growing time
    dimension) only has to keep the scaled offset inside int64.
    """
    if packing is None or rows.shape[0] == 0:
        return True
    lo, span = packing[0].tolist(), packing[1].tolist()
    mins, maxs = _column_bounds(rows)
    scale = 1
    for d in range(1, len(lo)):
        if mins[d] < lo[d] or maxs[d] >= lo[d] + span[d]:
            return False
        scale *= span[d]
    return max(maxs[0] - lo[0], lo[0] - mins[0]) * scale < 2**62


@dataclass(frozen=True)
class Box:
    """A half-open n-dimensional box ``[lo[d], hi[d])`` per dimension.

    Boxes tile chunk-grid space in the range partitioners (K-d Tree,
    Incremental Quadtree, Uniform Range) and describe query regions in the
    benchmark suites.

    Attributes:
        lo: inclusive lower corner, one integer per dimension.
        hi: exclusive upper corner, one integer per dimension.
    """

    lo: Coordinate
    hi: Coordinate

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ChunkError(
                f"box corners have mismatched arity: {self.lo} vs {self.hi}"
            )
        if not self.lo:
            raise ChunkError("boxes must have at least one dimension")
        for d, (lo_d, hi_d) in enumerate(zip(self.lo, self.hi)):
            if lo_d > hi_d:
                raise ChunkError(
                    f"box is inverted in dimension {d}: [{lo_d}, {hi_d})"
                )
        # Normalize to tuples so hashing is reliable even when the caller
        # passed lists.
        object.__setattr__(self, "lo", tuple(int(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(int(v) for v in self.hi))

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def shape(self) -> Coordinate:
        """Per-dimension extent (``hi - lo``)."""
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def volume(self) -> int:
        """Number of lattice points contained in the box."""
        vol = 1
        for extent in self.shape:
            vol *= extent
        return vol

    def is_empty(self) -> bool:
        """True when any dimension has zero extent."""
        return any(h == l for l, h in zip(self.lo, self.hi))

    def contains(self, point: Sequence[int]) -> bool:
        """True when ``point`` lies inside the half-open box."""
        if len(point) != self.ndim:
            raise ChunkError(
                f"point arity {len(point)} != box arity {self.ndim}"
            )
        return all(
            l <= p < h for p, l, h in zip(point, self.lo, self.hi)
        )

    def contains_box(self, other: "Box") -> bool:
        """True when ``other`` is entirely inside this box."""
        if other.ndim != self.ndim:
            raise ChunkError("boxes have mismatched arity")
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersect(self, other: "Box") -> "Box":
        """The (possibly empty) intersection of two boxes."""
        if other.ndim != self.ndim:
            raise ChunkError("boxes have mismatched arity")
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(l, min(a, b)) for l, a, b in zip(lo, self.hi, other.hi))
        return Box(lo, hi)

    def intersects(self, other: "Box") -> bool:
        """True when the boxes share at least one lattice point."""
        if other.ndim != self.ndim:
            raise ChunkError("boxes have mismatched arity")
        return all(
            max(al, bl) < min(ah, bh)
            for al, ah, bl, bh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def split(self, dim: int, at: int) -> Tuple["Box", "Box"]:
        """Split along ``dim`` at coordinate ``at`` into (lower, upper).

        ``at`` must satisfy ``lo[dim] < at < hi[dim]`` so both halves are
        non-empty.
        """
        if not 0 <= dim < self.ndim:
            raise ChunkError(f"split dimension {dim} out of range")
        if not self.lo[dim] < at < self.hi[dim]:
            raise ChunkError(
                f"split point {at} outside open interval "
                f"({self.lo[dim]}, {self.hi[dim]}) of dimension {dim}"
            )
        lower_hi = list(self.hi)
        lower_hi[dim] = at
        upper_lo = list(self.lo)
        upper_lo[dim] = at
        return Box(self.lo, tuple(lower_hi)), Box(tuple(upper_lo), self.hi)

    def halve(self, dim: int) -> Tuple["Box", "Box"]:
        """Split along ``dim`` at the midpoint (lower half rounds down)."""
        mid = (self.lo[dim] + self.hi[dim]) // 2
        if mid == self.lo[dim]:
            mid += 1
        return self.split(dim, mid)

    def orthants(self) -> Tuple["Box", ...]:
        """The ``2^k`` children obtained by halving every splittable dim.

        Dimensions of extent 1 are left alone, so a 2-d box yields four
        quarters (the classic quadtree step), a 3-d box yields octants, and
        a box that is already a single lattice point yields itself.
        """
        children = [self]
        for dim in range(self.ndim):
            next_children = []
            for box in children:
                if box.hi[dim] - box.lo[dim] >= 2:
                    next_children.extend(box.halve(dim))
                else:
                    next_children.append(box)
            children = next_children
        return tuple(children)

    def face_adjacent(self, other: "Box") -> bool:
        """True when the boxes share an (n-1)-dimensional face.

        Used by the Incremental Quadtree when grouping quarters: a pair of
        quarters may move together to a new host only when they are
        face-adjacent, which keeps each host's partition spatially
        contiguous.
        """
        if other.ndim != self.ndim:
            raise ChunkError("boxes have mismatched arity")
        touching_dim = None
        for d in range(self.ndim):
            overlap = min(self.hi[d], other.hi[d]) - max(self.lo[d], other.lo[d])
            if overlap > 0:
                continue
            if overlap == 0 and (
                self.hi[d] == other.lo[d] or other.hi[d] == self.lo[d]
            ):
                if touching_dim is not None:
                    return False  # they only meet at an edge or corner
                touching_dim = d
            else:
                return False  # separated by a gap in dimension d
        return touching_dim is not None

    def points(self) -> Iterator[Coordinate]:
        """Iterate every lattice point in row-major order.

        Only suitable for small boxes (tests and the Uniform Range leaf
        enumeration); the volume is the product of the extents.
        """
        def walk(dim: int, prefix: Tuple[int, ...]) -> Iterator[Coordinate]:
            if dim == self.ndim:
                yield prefix
                return
            for v in range(self.lo[dim], self.hi[dim]):
                yield from walk(dim + 1, prefix + (v,))

        return walk(0, ())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        spans = ", ".join(
            f"{l}:{h}" for l, h in zip(self.lo, self.hi)
        )
        return f"Box[{spans}]"


def region_mask(coords: np.ndarray, region: Box) -> np.ndarray:
    """Boolean mask of rows inside a half-open cell-space box."""
    if coords.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    mask = np.ones(coords.shape[0], dtype=bool)
    for d in range(region.ndim):
        mask &= coords[:, d] >= region.lo[d]
        mask &= coords[:, d] < region.hi[d]
    return mask


def bounding_box(points: Sequence[Sequence[int]]) -> Box:
    """Smallest half-open box containing every point in ``points``."""
    if not points:
        raise ChunkError("cannot bound an empty point set")
    ndim = len(points[0])
    lo = [min(p[d] for p in points) for d in range(ndim)]
    hi = [max(p[d] for p in points) + 1 for d in range(ndim)]
    return Box(tuple(lo), tuple(hi))
