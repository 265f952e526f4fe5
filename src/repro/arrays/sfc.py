"""d-dimensional Hilbert space-filling curve.

The Hilbert Curve partitioner (paper §4.2) serializes an array's chunks so
that chunks adjacent on the curve are close in Euclidean space, then assigns
contiguous curve ranges to nodes.  The paper uses a generalized
pseudo-Hilbert scan for rectangles [Zhang et al. 2006]; we reproduce that
behaviour by embedding the rectangle in the smallest enclosing power-of-two
hypercube, computing exact Hilbert indices there (Skilling's transpose
algorithm [Skilling 2004]), and restricting the traversal to the rectangle.
The restriction preserves the curve's ordering and therefore its locality,
which is the property the partitioner relies on.

All functions operate on non-negative integer coordinates.

Batch API contract
------------------
:func:`hilbert_index_batch` and :meth:`RectangleHilbert.index_batch` are
vectorized (numpy bit-plane) implementations of the scalar
:func:`hilbert_index` / :meth:`RectangleHilbert.index` paths.  The scalar
path is the parity oracle: for every valid input the batch result is
**bit-for-bit identical** to mapping the scalar function over the batch
(``tests/test_batch_parity.py`` enforces this property).  When the curve's
index space cannot be represented in int64 (``bits * ndim > 63``, or an
overflow epoch would push past 2**63), the batch path transparently falls
back to the scalar oracle and returns an object-dtype array of Python
ints — results stay exact, only the speed changes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ChunkError, require_count


def _axes_to_transpose(x: List[int], bits: int) -> List[int]:
    """Skilling's AxesToTranspose: in-place Gray-code transform."""
    n = len(x)
    m = 1 << (bits - 1)
    # Inverse undo excess work.
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t
    return x


def _transpose_to_axes(x: List[int], bits: int) -> List[int]:
    """Skilling's TransposeToAxes: inverse of :func:`_axes_to_transpose`."""
    n = len(x)
    top = 2 << (bits - 1)
    # Gray decode by H ^ (H/2).
    t = x[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    # Undo excess work.
    q = 2
    while q != top:
        p = q - 1
        for i in range(n - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x


def _interleave(transposed: Sequence[int], bits: int) -> int:
    """Pack a transposed Hilbert coordinate into a single integer index.

    Bit ``bits-1`` of axis 0 is the most significant bit of the index,
    followed by bit ``bits-1`` of axis 1, and so on down the bit planes.
    """
    index = 0
    for b in range(bits - 1, -1, -1):
        for axis_value in transposed:
            index = (index << 1) | ((axis_value >> b) & 1)
    return index


def _deinterleave(index: int, bits: int, ndim: int) -> List[int]:
    """Unpack a Hilbert index into its transposed coordinate."""
    x = [0] * ndim
    position = bits * ndim - 1
    for b in range(bits - 1, -1, -1):
        for d in range(ndim):
            x[d] |= ((index >> position) & 1) << b
            position -= 1
    return x


def hilbert_index(point: Sequence[int], bits: int) -> int:
    """Hilbert index of ``point`` on the order-``bits`` curve.

    Args:
        point: non-negative coordinates, each ``< 2**bits``.
        bits: curve order (bits per dimension).

    Returns:
        The position of ``point`` along the curve, in
        ``[0, 2**(bits * ndim))``.
    """
    if bits < 1:
        raise ChunkError(f"curve order must be >= 1, got {bits}")
    x = []
    limit = 1 << bits
    for c in point:
        c = int(c)
        if not 0 <= c < limit:
            raise ChunkError(
                f"coordinate {c} outside [0, {limit}) for order-{bits} curve"
            )
        x.append(c)
    if not x:
        raise ChunkError("point must have at least one dimension")
    if len(x) == 1:
        return x[0]
    transposed = _axes_to_transpose(list(x), bits)
    return _interleave(transposed, bits)


def hilbert_index_batch(points: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert indices of many points at once (vectorized Skilling).

    Runs the same Gray-code transform as :func:`hilbert_index`, but on
    whole bit-planes of an ``(n, ndim)`` coordinate array: every pass of
    Skilling's loop becomes a handful of numpy mask/xor operations over
    all ``n`` points simultaneously, so the per-point cost is a few
    vector instructions rather than a Python-level loop.

    Args:
        points: ``(n, ndim)`` array of non-negative integer coordinates,
            each ``< 2**bits``.
        bits: curve order (bits per dimension).

    Returns:
        ``(n,)`` int64 array of curve positions, bit-for-bit equal to
        ``[hilbert_index(p, bits) for p in points]``.  When
        ``bits * ndim > 63`` the indices cannot fit int64; an
        object-dtype array of exact Python ints is returned instead
        (computed via the scalar oracle).
    """
    if bits < 1:
        raise ChunkError(f"curve order must be >= 1, got {bits}")
    pts = np.asarray(points)
    if pts.ndim != 2:
        raise ChunkError(
            f"points must have shape (n, ndim), got {pts.shape}"
        )
    ndim = pts.shape[1]
    if ndim < 1:
        raise ChunkError("point must have at least one dimension")
    if (
        pts.dtype.kind == "u"
        and pts.size
        and int(pts.max()) > np.iinfo(np.int64).max
    ):
        # astype would *wrap* unsigned values >= 2**63 instead of
        # raising; route them to the exact scalar oracle.
        return np.array(
            [hilbert_index(tuple(row), bits) for row in pts.tolist()],
            dtype=object,
        )
    try:
        pts = pts.astype(np.int64, copy=False)
    except (OverflowError, TypeError):
        # Coordinates beyond int64: the scalar oracle validates (and,
        # for curve orders > 63 bits, indexes) arbitrary Python ints.
        return np.array(
            [hilbert_index(tuple(row), bits) for row in pts.tolist()],
            dtype=object,
        )
    limit = 1 << bits
    if pts.size:
        lo = int(pts.min())
        hi = int(pts.max())
        if lo < 0 or hi >= limit:
            bad = lo if lo < 0 else hi
            raise ChunkError(
                f"coordinate {bad} outside [0, {limit}) for "
                f"order-{bits} curve"
            )
    if ndim == 1:
        return pts[:, 0].copy()
    if bits * ndim > 63:
        # Index space exceeds int64: defer to the exact scalar oracle.
        return np.array(
            [hilbert_index(tuple(row), bits) for row in pts.tolist()],
            dtype=object,
        )
    n = pts.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)

    x = pts.astype(np.uint64)  # (n, ndim), one column per axis
    m = 1 << (bits - 1)

    # AxesToTranspose, all points at once: each scalar branch becomes a
    # mask-select over the batch.
    q = m
    while q > 1:
        p = q - 1
        x0 = x[:, 0]
        for i in range(ndim):
            xi = x[:, i]
            high = (xi & q) != 0
            t = (x0 ^ xi) & p
            x0 ^= np.where(high, np.uint64(p), t)
            if i:  # for i == 0 the low branch is a no-op (t == 0)
                xi ^= np.where(high, np.uint64(0), t)
        q >>= 1
    # Gray encode.
    for i in range(1, ndim):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n, dtype=np.uint64)
    q = m
    while q > 1:
        high = (x[:, ndim - 1] & q) != 0
        t ^= np.where(high, np.uint64(q - 1), np.uint64(0))
        q >>= 1
    x ^= t[:, None]

    # Interleave the bit planes (axis 0 most significant).
    index = np.zeros(n, dtype=np.uint64)
    one = np.uint64(1)
    for b in range(bits - 1, -1, -1):
        shift = np.uint64(b)
        for d in range(ndim):
            index = (index << one) | ((x[:, d] >> shift) & one)
    return index.astype(np.int64)


def hilbert_point(index: int, bits: int, ndim: int) -> Tuple[int, ...]:
    """Inverse of :func:`hilbert_index`: the point at curve position."""
    if bits < 1:
        raise ChunkError(f"curve order must be >= 1, got {bits}")
    if ndim < 1:
        raise ChunkError("ndim must be >= 1")
    total = 1 << (bits * ndim)
    if not 0 <= index < total:
        raise ChunkError(
            f"index {index} outside [0, {total}) for order-{bits} "
            f"{ndim}-d curve"
        )
    if ndim == 1:
        return (index,)
    transposed = _deinterleave(index, bits, ndim)
    return tuple(_transpose_to_axes(transposed, bits))


def bits_for_extent(extent: int) -> int:
    """Curve order needed to cover coordinates ``0 .. extent-1``."""
    if extent < 1:
        raise ChunkError(f"extent must be >= 1, got {extent}")
    bits = 1
    while (1 << bits) < extent:
        bits += 1
    return bits


class RectangleHilbert:
    """Pseudo-Hilbert ordering for an arbitrary box of chunk-grid space.

    The paper's Hilbert partitioner operates on rectangles (chunk grids are
    rarely square).  We embed the rectangle in the smallest power-of-two
    hypercube, index points on the exact cube curve, and use the cube index
    directly as the sort key.  Points outside the rectangle simply never
    occur, so the rectangle traversal is the cube traversal with gaps —
    ordering and locality are preserved, which is all the range partitioner
    needs.

    Args:
        extents: per-dimension chunk counts of the grid (all >= 1).
    """

    def __init__(self, extents: Sequence[int]) -> None:
        extents = tuple(
            require_count(f"extents[{d}]", e, ChunkError)
            for d, e in enumerate(extents)
        )
        if not extents:
            raise ChunkError("rectangle needs at least one dimension")
        self.extents = extents
        self.ndim = len(extents)
        self.bits = bits_for_extent(max(extents))

    @property
    def index_space(self) -> int:
        """Size of the enclosing cube's index space, ``2**(bits*ndim)``."""
        return 1 << (self.bits * self.ndim)

    def index(self, point: Sequence[int]) -> int:
        """Curve position of a grid point.

        Points are allowed to exceed the declared extents (unbounded
        dimensions grow over time); when they exceed the current curve
        order, the curve is *not* re-fit — instead the overflow is folded
        beyond the cube, keeping previously issued indices stable, which is
        required for incremental scale-out (ranges already assigned to
        nodes must not be reshuffled by later inserts).
        """
        if len(point) != self.ndim:
            raise ChunkError(
                f"point arity {len(point)} != rectangle arity {self.ndim}"
            )
        limit = 1 << self.bits
        clipped = []
        overflow = 0
        for c in point:
            c = int(c)
            if c < 0:
                raise ChunkError(f"negative grid coordinate {c}")
            if c >= limit:
                # Fold coordinates beyond the cube into an overflow epoch
                # appended after the cube's index space.
                overflow += (c // limit)
                c = c % limit
            clipped.append(c)
        base = hilbert_index(clipped, self.bits)
        return overflow * self.index_space + base

    def index_batch(self, points: np.ndarray) -> np.ndarray:
        """Curve positions of many grid points at once.

        Vectorized equivalent of mapping :meth:`index` over ``points``,
        including the overflow-epoch folding for coordinates beyond the
        enclosing cube: per point, the per-axis epochs ``c // 2**bits``
        sum into one epoch number and the residues index the cube curve.

        Args:
            points: ``(n, ndim)`` array of non-negative integers.

        Returns:
            ``(n,)`` array of curve positions, bit-for-bit equal to the
            scalar path.  int64 when the positions fit; object dtype of
            exact Python ints (via the scalar oracle) otherwise.
        """
        pts = np.asarray(points)
        if pts.ndim != 2 or pts.shape[1] != self.ndim:
            arity = pts.shape[1] if pts.ndim == 2 else pts.shape
            raise ChunkError(
                f"point arity {arity} != rectangle arity {self.ndim}"
            )
        if pts.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        if self.bits >= 63 or (
            pts.dtype.kind == "u"
            and int(pts.max()) > np.iinfo(np.int64).max
        ):
            # Order-63+ curves overflow the int64 epoch arithmetic
            # below, and astype would *wrap* unsigned values >= 2**63:
            # both cases defer to the exact scalar oracle.
            return np.array(
                [self.index(tuple(row)) for row in pts.tolist()],
                dtype=object,
            )
        try:
            pts = pts.astype(np.int64, copy=False)
        except (OverflowError, TypeError):
            # Coordinates beyond int64 fold into overflow epochs that
            # only the arbitrary-precision scalar path can represent.
            return np.array(
                [self.index(tuple(row)) for row in pts.tolist()],
                dtype=object,
            )
        if pts.min() < 0:
            raise ChunkError(
                f"negative grid coordinate {int(pts.min())}"
            )
        limit = 1 << self.bits
        overflow = np.sum(pts // limit, axis=1)
        if (
            self.bits * self.ndim > 63
            or (int(overflow.max()) + 1) * self.index_space >= 1 << 63
        ):
            # Positions exceed int64: defer to the exact scalar oracle.
            return np.array(
                [self.index(tuple(row)) for row in pts.tolist()],
                dtype=object,
            )
        clipped = pts % limit
        base = hilbert_index_batch(clipped, self.bits)
        return overflow * self.index_space + base
