"""Incremental view maintenance over catalog epoch deltas (DBSP-style).

The paper's premise is *incremental* elasticity, yet a naive query layer
recomputes every view from scratch each cycle — a figure-8 retention run
pays full-array cost per step even when only a sliver of chunks changed.
This module makes steady-state maintenance cost proportional to **delta
size, not array size**, adapting the DBSP ZSet/operator idiom ("DBSP:
Automatic Incremental View Maintenance for Rich Query Languages") to the
repo's numpy-column discipline:

* **ZSets as columns** — the catalog's delta log
  (:meth:`ChunkCatalog.deltas_since`) is already a columnar ZSet over
  chunks: parallel ``(signs, refs, chunks, sizes, nodes)`` arrays where
  ``signs`` carries the weight (+1 ingested, -1 expired).
  :func:`delta_cells` lowers those rows to *cell*-level ZSet columns —
  one coordinate table, one value column per attribute, and a ±1 weight
  per cell — so the operators fold a whole delta batch in one pass.
* **Mergeable operator state** — :class:`GridGroupByState` integrates
  grid group-by statistics (count/sum/min/max per bucket) under signed
  cell batches; :class:`DeltaJoinState` maintains position/equi join
  aggregates with the bilinear rule ``Δ(A ⋈ B) = ΔA ⋈ B + A' ⋈ ΔB``.
  Both fold a batch through one signed ``np.unique`` + ``bincount``
  group-by and one sorted-key splice (``searchsorted`` +
  ``np.insert``, the chunk table's key-index idiom, no dicts).
* **Non-invertible aggregates** — min/max cannot subtract a removal, so
  deletions only *mark groups dirty*; the maintained query re-aggregates
  just the dirty buckets from a region-scoped payload gather
  (:meth:`ClusterSession.payload_in_region`), keeping the touched-group
  contract from the issue.
* **One refresh loop, Tempura-style planning** — both views read
  their arrays as :class:`JoinSide` s through one :meth:`refresh`: it
  pins every side, asks :func:`repro.query.cost.maintenance_plan` to
  price the delta fold against a full recompute, and runs the cheaper
  arm.  At ~100 % churn the delta carries the expired chunks at ``-1``
  plus their replacements at ``+1`` (≈2× live bytes) and full
  recompute wins; in steady state the delta is a sliver.

Specification
-------------
Each maintained view's :meth:`recompute` is its from-scratch
specification: the maintained result must match it to 1e-9 on floats
and exactly on integer aggregates, which is what
``tests/test_incremental.py`` pins through randomized
ingest/expiry/rebalance interleavings.  Delta-vs-full is a costed
per-refresh decision, not a setting; an unprimed cursor (``-1``), or
one below its delta log's floor, forces the full arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.coords import (
    Box,
    joint_packing,
    joint_position_keys,
    packing_admits,
    position_keys,
)
from repro.cluster.session import ClusterSession
from repro.core.catalog import concat_payload
from repro.errors import (
    DeltaFloorError,
    QueryError,
    require_count,
    require_flag,
    require_positive,
)
from repro.query import operators as ops
from repro.query.cost import (
    MaintenancePlan,
    accumulator_for,
    charge_scan,
    maintenance_plan,
)


# ----------------------------------------------------------------------
# delta batches: chunk-level ZSet rows lowered to cell-level columns
# ----------------------------------------------------------------------
def delta_cells(
    delta,
    attrs: Sequence[str],
    ndim: int,
) -> Tuple[np.ndarray, Dict[str, np.ndarray], np.ndarray]:
    """Lower a :class:`CatalogDelta` to signed cell columns.

    Each chunk row contributes its full cell table weighted by the row's
    sign, so the result is a cell-level ZSet batch: ingested cells at
    ``+1``, expired cells at ``-1``.  A merge's retire/replace pair
    appears as the old payload at ``-1`` followed by the merged payload
    at ``+1`` — folding both yields exactly the net content change.
    The cells come from the one gather
    (:func:`repro.core.catalog.concat_payload`): a delta's rows are in
    log order and carry their extents, an ingest's rows are its batch
    in key order, so a day's delta is one slab per array, and the
    weights repeat each row's sign ``delta.cells`` times.

    Returns
    -------
    coords : numpy.ndarray of int64, shape (cells, ndim)
    values : dict of str to numpy.ndarray
        One value column per requested attribute.
    weights : numpy.ndarray of int64, shape (cells,)
        Per-cell ZSet weight (the owning row's sign).
    """
    coords, values = concat_payload(delta, attrs, ndim)
    weights = np.repeat(delta.signs.astype(np.int64), delta.cells)
    return coords, values, weights


def _signed_groups(
    keys: np.ndarray,
    values: np.ndarray,
    weights: Optional[np.ndarray] = None,
    return_index: bool = False,
) -> Tuple[np.ndarray, ...]:
    """``np.unique``'s ``(uniq, inverse)`` of ``keys``, each slot's
    weighted row count and value sum (float64; ``weights`` default +1),
    then with ``return_index`` each slot's first row (a stable sort)."""
    uniq, *first, inverse = np.unique(
        keys, return_index=return_index, return_inverse=True
    )
    w = None if weights is None else weights.astype(np.float64)
    vals = np.asarray(values, dtype=np.float64)
    n = uniq.shape[0]
    counts = np.bincount(inverse, w, n).astype(np.float64, copy=False)
    sums = np.bincount(inverse, vals if w is None else w * vals, n)
    return uniq, inverse, counts, sums, *first


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """``searchsorted`` slots of ``keys`` in ``sorted_keys``, and a mask
    of the keys found there."""
    pos = np.searchsorted(sorted_keys, keys)
    found = np.zeros(keys.shape[0], dtype=bool)
    in_range = pos < sorted_keys.shape[0]
    found[in_range] = sorted_keys[pos[in_range]] == keys[in_range]
    return pos, found


def _splice(state, keys: np.ndarray, fills: Dict[str, object]) -> np.ndarray:
    """Slots of sorted-unique ``keys`` in ``state._keys``, splicing the
    missing ones in; ``fills`` maps each parallel column to a new row's
    value (a scalar, or an array aligned with ``keys``)."""
    if state._keys is None:
        state._keys = keys[:0]
    pos, found = _lookup(state._keys, keys)
    if found.all():
        return pos
    fresh = ~found
    at = pos[fresh]
    state._keys = np.insert(state._keys, at, keys[fresh])
    for name, fill in fills.items():
        if isinstance(fill, np.ndarray):
            fill = fill[fresh]
        setattr(state, name, np.insert(getattr(state, name), at, fill, axis=0))
    return np.searchsorted(state._keys, keys)


# ----------------------------------------------------------------------
# mergeable group-by state
# ----------------------------------------------------------------------
class GridGroupByState:
    """Per-bucket count/sum/min/max integrated under signed cell batches.

    The ZSet integrator behind the maintained grid statistics: buckets
    are interned into a sorted key column (new groups splice in via
    ``searchsorted`` + ``np.insert``, the chunk table's key-index idiom) and
    every :meth:`apply` folds a whole batch with ``np.bincount`` /
    ``ufunc.at`` — no per-cell Python.  A batch outside the key packing
    re-keys the groups under a wider one (order-preserving); buckets
    never span time, so widening on demand stays cheap.

    Counts and sums are linear, so signed folds maintain them exactly.
    Min/max are *not* invertible: positive weights tighten them
    monotonically, while any negative weight marks the bucket dirty;
    :meth:`rescan` then re-aggregates only the dirty buckets from a live
    cell gather covering them (:meth:`dirty_cell_bounds` gives the
    bounding box to fetch).  :meth:`emit` refuses to read through dirty
    extrema.  ``dims`` must be non-negative, one per positive integer
    cell size, or the constructor raises :class:`QueryError`.
    """

    __slots__ = (
        "dims", "cell_sizes", "track_minmax",
        "_keys", "_rows", "_packing",
        "counts", "sums", "mins", "maxs", "dirty",
    )

    def __init__(
        self,
        dims: Sequence[int],
        cell_sizes: Sequence[int],
        track_minmax: bool = True,
    ) -> None:
        self.dims = tuple(int(d) for d in dims)
        self.cell_sizes = tuple(
            require_count("cell_sizes", s, QueryError) for s in cell_sizes
        )
        dims_ok = self.dims and min(self.dims) >= 0
        if not dims_ok or len(self.dims) != len(self.cell_sizes):
            raise QueryError(
                f"dims {dims!r} must be non-negative dimensions, one per "
                f"cell size {cell_sizes!r}"
            )
        self.track_minmax = require_flag(
            "track_minmax", track_minmax, QueryError
        )
        self.clear()

    def clear(self) -> None:
        """Drop every group (the full-recompute arm rebuilds from here)."""
        width = len(self.dims)
        self._keys: Optional[np.ndarray] = None
        self._rows = np.empty((0, width), dtype=np.int64)
        self._packing: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.counts = np.empty(0, dtype=np.int64)
        self.sums = np.empty(0)
        self.mins = np.empty(0)
        self.maxs = np.empty(0)
        self.dirty = np.empty(0, dtype=bool)

    def __len__(self) -> int:
        return int(self._rows.shape[0])

    @property
    def needs_rescan(self) -> bool:
        """Whether any bucket's extrema were invalidated by a removal."""
        return self.track_minmax and bool(self.dirty.any())

    def _bucket_keys(self, coords: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Bucket rows of cells and their keys, widening the packing."""
        buckets = ops.grid_buckets(coords, self.dims, self.cell_sizes)
        if not len(self) or not packing_admits(buckets, self._packing):
            self._packing = joint_packing(buckets, self._rows)
            self._keys = position_keys(self._rows, self._packing)
        return buckets, position_keys(buckets, self._packing)

    def apply(
        self,
        coords: np.ndarray,
        values: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Fold one signed cell batch into the partial aggregates.

        Raises
        ------
        QueryError
            If any group's count would go negative — a removal that was
            never inserted, i.e. a corrupt delta stream.
        """
        if coords.shape[0] == 0:
            return
        buckets, keys = self._bucket_keys(coords)
        uniq, inverse, d_counts, d_sums, first = _signed_groups(
            keys, values, weights, return_index=True
        )
        pos = _splice(self, uniq, {
            "_rows": buckets[first], "counts": 0, "sums": 0.0, "mins": np.inf,
            "maxs": -np.inf, "dirty": False,
        })
        self.counts[pos] += np.rint(d_counts).astype(np.int64)
        self.sums[pos] += d_sums
        if (self.counts[pos] < 0).any():
            raise QueryError(
                "negative group count after delta fold; the delta "
                "stream removed cells that were never inserted"
            )
        if not self.track_minmax:
            return
        slots = pos[inverse]
        vals = np.asarray(values, dtype=np.float64)
        added = weights > 0
        np.minimum.at(self.mins, slots[added], vals[added])
        np.maximum.at(self.maxs, slots[added], vals[added])
        self.dirty[slots[~added]] = True

    def dirty_cell_bounds(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Cell-space bounding interval of the dirty buckets, per dim.

        Returns ``(lows, highs)`` aligned with ``dims`` — half-open cell
        ranges covering every dirty bucket, i.e. the smallest region a
        :meth:`rescan` gather must fetch.
        """
        if not self.dirty.any():
            raise QueryError("no dirty groups to bound")
        rows = self._rows[self.dirty]
        sizes = np.asarray(self.cell_sizes, dtype=np.int64)
        return (
            tuple(int(v) for v in rows.min(axis=0) * sizes),
            tuple(int(v) for v in (rows.max(axis=0) + 1) * sizes),
        )

    def rescan(self, coords: np.ndarray, values: np.ndarray) -> None:
        """Re-aggregate the dirty buckets' extrema from live cells.

        ``coords``/``values`` must cover at least every dirty bucket
        (any live gather spanning :meth:`dirty_cell_bounds` does); rows
        landing in clean or unknown buckets are ignored, so a bounding
        box that also sweeps clean groups stays correct.
        """
        if not self.dirty.any():
            return
        self.mins[self.dirty] = np.inf
        self.maxs[self.dirty] = -np.inf
        if coords.shape[0]:
            pos, hit = _lookup(self._keys, self._bucket_keys(coords)[1])
            hit[hit] = self.dirty[pos[hit]]
            vals = np.asarray(values, dtype=np.float64)[hit]
            np.minimum.at(self.mins, pos[hit], vals)
            np.maximum.at(self.maxs, pos[hit], vals)
        self.dirty[:] = False

    def emit(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The maintained view: live groups as parallel arrays.

        Matches :func:`repro.query.operators.group_stats_by_grid_arrays`
        over the live cells — same lexicographic bucket order, exact
        counts, sums to float tolerance, exact extrema.  Treat the
        returned arrays as read-only.

        Raises
        ------
        QueryError
            If extrema are dirty (call :meth:`rescan` first).
        """
        if self.needs_rescan:
            raise QueryError(
                "dirty min/max groups; rescan live cells before emit"
            )
        live = self.counts > 0
        columns = (self._rows, self.counts, self.sums, self.mins, self.maxs)
        return tuple(column[live] for column in columns)


# ----------------------------------------------------------------------
# mergeable join state
# ----------------------------------------------------------------------
#: Dead share of :class:`DeltaJoinState`'s rows at which they are
#: dropped — the ratio the cluster compacts its chunk ledger at.
DEAD_KEY_FRACTION = 0.5


class DeltaJoinState:
    """Bilinear join-aggregate state over one shared key column.

    Maintains the pair count and value-product sum of ``A ⋈ B`` (equal
    keys) under signed batches on either side, using the DBSP bilinear
    rule: folding ``ΔA`` against the *current* B state and then ``ΔB``
    against the *updated* A state computes exactly
    ``ΔA ⋈ B + A' ⋈ ΔB``.  Per-key state is four parallel columns
    (count and value sum per side) behind one sorted key column — keys
    may be any sortable numpy dtype (int64 position keys for the
    position join, id scalars for the equi join).  A key neither side
    holds any more is dead; a fold drops the dead rows once they make
    up :data:`DEAD_KEY_FRACTION` of the state, so under a sliding
    window the state tracks the live keys, not every key ever seen.
    """

    __slots__ = (
        "_keys", "cnt_a", "sum_a", "cnt_b", "sum_b",
        "pair_count", "product_sum", "_dead",
    )

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Drop every key (the full-recompute arm rebuilds from here)."""
        self._keys: Optional[np.ndarray] = None
        self.cnt_a = np.empty(0)
        self.sum_a = np.empty(0)
        self.cnt_b = np.empty(0)
        self.sum_b = np.empty(0)
        self.pair_count = 0.0
        self.product_sum = 0.0
        # Rows with both counts zero, kept current by every fold so the
        # drop test stays O(1) and a fold O(|delta|).
        self._dead = 0

    def __len__(self) -> int:
        return 0 if self._keys is None else int(self._keys.shape[0])

    def _is_dead(self, at) -> np.ndarray:
        # Counts are integer-valued floats, so "zero" is exact.
        return (self.cnt_a[at] == 0) & (self.cnt_b[at] == 0)

    def apply(
        self,
        side: str,
        keys: np.ndarray,
        values: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Fold one signed batch of ``(key, value)`` rows into one side.

        Parameters
        ----------
        side : str
            ``"a"`` or ``"b"``.
        keys : numpy.ndarray
            Join keys (any sortable dtype, consistent across calls).
        values : numpy.ndarray
            The joined value column, parallel to ``keys``.
        weights : numpy.ndarray
            Per-row ZSet weights (±1).
        """
        if side not in ("a", "b"):
            raise QueryError(f"unknown join side {side!r}")
        if keys.shape[0] == 0:
            return
        uniq, _, d_cnt, d_sum = _signed_groups(keys, values, weights)
        known = len(self)
        pos = _splice(self, uniq, dict.fromkeys(
            ("cnt_a", "sum_a", "cnt_b", "sum_b"), 0.0
        ))
        # New keys arrive dead; the fold below may revive any slot.
        self._dead += len(self) - known - int(self._is_dead(pos).sum())
        if side == "a":
            self.pair_count += float(d_cnt @ self.cnt_b[pos])
            self.product_sum += float(d_sum @ self.sum_b[pos])
            self.cnt_a[pos] += d_cnt
            self.sum_a[pos] += d_sum
        else:
            self.pair_count += float(self.cnt_a[pos] @ d_cnt)
            self.product_sum += float(self.sum_a[pos] @ d_sum)
            self.cnt_b[pos] += d_cnt
            self.sum_b[pos] += d_sum
        self._dead += int(self._is_dead(pos).sum())
        if self._dead >= DEAD_KEY_FRACTION * len(self):
            # Dropping a retired key also discards the float residue
            # its sums keep.
            live = ~self._is_dead(slice(None))
            for name in ("_keys", "cnt_a", "sum_a", "cnt_b", "sum_b"):
                setattr(self, name, getattr(self, name)[live])
            self._dead = 0

    def emit(self) -> Dict[str, float]:
        """The maintained aggregates: exact pair count, product sum."""
        return {
            "pairs": int(round(self.pair_count)),
            "product_sum": float(self.product_sum),
        }


def join_aggregate_full(
    keys_a: np.ndarray,
    values_a: np.ndarray,
    keys_b: np.ndarray,
    values_b: np.ndarray,
) -> Dict[str, float]:
    """Full-recompute kernel for the maintained join aggregates.

    One vectorized pass: per-key counts and value sums on each side,
    then an ``intersect1d`` dot product — the oracle
    :class:`DeltaJoinState` must converge to (exact pair count, product
    sum to float tolerance).  ``(n, d)`` position tables are keyed
    under a joint packing of their own first.
    """
    if keys_a.ndim == 2:
        keys_a, keys_b = joint_position_keys(keys_a, keys_b)
    uniq_a, _, cnt_a, sum_a = _signed_groups(keys_a, values_a)
    uniq_b, _, cnt_b, sum_b = _signed_groups(keys_b, values_b)
    _, at_a, at_b = np.intersect1d(
        uniq_a, uniq_b, assume_unique=True, return_indices=True
    )
    return {
        "pairs": int(round(float(cnt_a[at_a] @ cnt_b[at_b]))),
        "product_sum": float(sum_a[at_a] @ sum_b[at_b]),
    }


# ----------------------------------------------------------------------
# maintained queries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MaintenanceReport:
    """What one :meth:`refresh` did: the arm taken and what it cost."""

    #: ``"delta"`` (incremental fold) or ``"full"`` (recompute).
    mode: str
    #: Cells folded (delta arm) or scanned (full arm).
    rows: int
    #: Modeled bytes the refresh charged.
    scanned_bytes: float
    #: Modeled elapsed seconds (slowest node) of the refresh.
    seconds: float
    #: The planner verdict, when one was consulted.
    plan: Optional[MaintenancePlan]


@dataclass(frozen=True)
class JoinSide:
    """One side of a maintained view: what to read and how to key it."""

    #: Array name.
    array: str
    #: Attributes the side reads from the payload.
    attrs: Tuple[str, ...]
    #: ``(coords, values) -> (keys, join_values)`` column extractor;
    #: ``keys`` is a 1-d column, or an ``(n, d)`` position table.
    extract: Callable[..., Tuple[np.ndarray, np.ndarray]]


def position_side(array: str, attr: str) -> JoinSide:
    """A position-join side: cells key on their coordinates."""
    return JoinSide(
        array=array,
        attrs=(attr,),
        extract=lambda coords, values: (coords, values[attr]),
    )


def equi_side(array: str, key_attr: str, value_attr: str) -> JoinSide:
    """An equi-join side: cells key on an id attribute's values."""
    return JoinSide(
        array=array,
        attrs=tuple(dict.fromkeys((key_attr, value_attr))),
        extract=lambda coords, values: (
            np.asarray(values[key_attr]),
            values[value_attr],
        ),
    )


class _MaintainedView:
    """The refresh loop of a view over one or more :class:`JoinSide` s.

    A subclass supplies ``state``, ``_fold(session, acc, costs, deltas)``
    (fold the sides' delta reads, or rebuild from their payloads when
    ``deltas`` is ``None``; ``None`` declines them) and
    ``_from_scratch(*columns)``, the oracle over the sides' live
    columns.  ``ndim`` must be an integer ``>= 1`` and ``cpu_intensity``
    finite and ``> 0``, or :class:`QueryError` raises.
    """

    def __init__(
        self, cluster, sides: Sequence[JoinSide], ndim: int,
        cpu_intensity: float,
    ) -> None:
        if isinstance(cluster, ClusterSession):
            cluster = cluster.cluster
        self.cluster = cluster
        self.sides = tuple(sides)
        self.ndim = require_count("ndim", ndim, QueryError)
        self.cpu_intensity = require_positive(
            "cpu_intensity", cpu_intensity, QueryError
        )
        #: Per side, the payload epoch folded up to (``-1``: unprimed),
        #: declared to the catalog so its logs keep the rows after it.
        self.cursors = cluster.catalog.declare([s.array for s in self.sides])

    def _read(self, session, acc, costs, deltas):
        """Charge, then gather, each side: its delta read as signed cells,
        or all of it at ``+1``.  Returns one extracted ``(keys, values,
        weights)`` per side, cells read, bytes charged."""
        batches, rows, scanned = [], 0, 0.0
        for i, side in enumerate(self.sides):
            attrs = side.attrs
            read = (
                session.chunks_of_array(side.array) if deltas is None
                else deltas[i]
            )
            scanned += charge_scan(
                acc, read, attrs, costs, self.cpu_intensity
            )
            if deltas is not None:
                coords, values, weights = delta_cells(read, attrs, self.ndim)
            else:
                coords, values = session.array_payload(
                    side.array, attrs, self.ndim
                )
                weights = np.ones(coords.shape[0], dtype=np.int64)
            batches.append((*side.extract(coords, values), weights))
            rows += int(coords.shape[0])
        return batches, rows, scanned

    def _plan(self, session, costs, deltas) -> MaintenancePlan:
        """One side's planner verdict, or the sides' arms summed, priced
        from the delta reads the fold takes."""
        plans = [
            maintenance_plan(
                session, side.array, cursor, side.attrs, costs,
                self.cpu_intensity, delta=delta,
            )
            for side, cursor, delta in zip(self.sides, self.cursors, deltas)
        ]
        if len(plans) == 1:
            return plans[0]
        delta_seconds = sum(p.delta_seconds for p in plans)
        full_seconds = sum(p.full_seconds for p in plans)
        return MaintenancePlan(
            choice="delta" if delta_seconds <= full_seconds else "full",
            delta_bytes=sum(p.delta_bytes for p in plans),
            full_bytes=sum(p.full_bytes for p in plans),
            delta_seconds=delta_seconds,
            full_seconds=full_seconds,
        )

    def refresh(self) -> MaintenanceReport:
        """Bring the view up to its arrays' pinned payload epochs.

        Every side pins at one consistent global epoch
        (:meth:`~repro.cluster.session.ClusterSession.pin`), so the
        fold, any dirty-bucket rescan and the cursors all observe one
        snapshot — a join never mixes a pre-mutation *a* with a
        post-mutation *b*, and a mutation landing mid-refresh is folded
        on the *next* cycle instead of being half-applied or skipped.
        """
        session = self.cluster.session().pin(
            [side.array for side in self.sides]
        )
        acc = accumulator_for(session)
        costs = session.costs
        deltas = None  # unprimed, or a cursor below its log's floor: full
        if min(self.cursors) >= 0:
            try:
                deltas = [session.deltas_since(side.array, cursor)
                          for side, cursor in zip(self.sides, self.cursors)]
            except DeltaFloorError:
                pass
        plan = None if deltas is None else self._plan(session, costs, deltas)
        folded = None
        if plan is not None and plan.incremental:
            folded = self._fold(session, acc, costs, deltas)
        mode = "full" if folded is None else "delta"
        rows, scanned = folded or self._fold(session, acc, costs, None)
        self.cursors[:] = [
            int(session.payload_epoch_of(side.array)) for side in self.sides
        ]
        return MaintenanceReport(mode, rows, scanned, acc.max_seconds(), plan)

    def result(self):
        """The maintained view (the state's ``emit``)."""
        return self.state.emit()

    def recompute(self):
        """Full-recompute oracle over live payloads (state untouched)."""
        session = self.cluster.session()
        columns = []
        for side in self.sides:
            columns.extend(side.extract(*session.array_payload(
                side.array, side.attrs, self.ndim
            )))
        return self._from_scratch(*columns)


class MaintainedGridStats(_MaintainedView):
    """A maintained grid-statistics view over one array attribute.

    The incremental counterpart of a full
    :func:`~repro.query.operators.group_stats_by_grid_arrays` sweep: a
    :class:`GridGroupByState` over one :func:`position_side`.  Dirty
    min/max groups re-aggregate from a region-scoped payload gather
    clipped to the dirty buckets' bounding box inside ``domain``.

    Parameters
    ----------
    cluster : ElasticCluster or ClusterSession
        The live cluster (a session is unwrapped — each refresh opens
        its own epoch-pinned session so cursors track fresh pins).
    array, attr : str
        The maintained array and the aggregated attribute.
    dims, cell_sizes : sequence of int
        Grid group-by configuration (as in the density queries).
    ndim : int
        The array's dimensionality.
    domain : Box or None
        Cell-space bounds of the array; required when ``track_minmax``
        (it caps the dirty-bucket rescan region on unbucketed dims).
    track_minmax : bool
        Maintain extrema (cost: dirty-group rescans on expiry).
    cpu_intensity : float
        Per-GB compute multiplier used by every charge.
    """

    def __init__(
        self,
        cluster,
        array: str,
        attr: str,
        dims: Sequence[int],
        cell_sizes: Sequence[int],
        ndim: int,
        domain: Optional[Box] = None,
        track_minmax: bool = True,
        cpu_intensity: float = 1.0,
    ) -> None:
        if track_minmax and domain is None:
            raise QueryError(
                "min/max maintenance needs a domain Box to bound "
                "dirty-group rescans"
            )
        super().__init__(
            cluster, [position_side(array, attr)], ndim, cpu_intensity
        )
        self.domain = domain
        self.state = GridGroupByState(dims, cell_sizes, track_minmax)
        if max(self.state.dims) >= self.ndim:
            raise QueryError(f"dims {dims!r} exceed ndim={ndim}")

    def _fold(self, session, acc, costs, deltas) -> Tuple[int, float]:
        [(coords, values, weights)], rows, scanned = self._read(
            session, acc, costs, deltas
        )
        if deltas is None:
            self.state.clear()
        self.state.apply(coords, values, weights)
        if self.state.needs_rescan:
            side = self.sides[0]
            lows, highs = self.state.dirty_cell_bounds()
            lo, hi = list(self.domain.lo), list(self.domain.hi)
            for d, low, high in zip(self.state.dims, lows, highs):
                lo[d] = max(lo[d], low)
                hi[d] = min(hi[d], high)
            region = Box(tuple(lo), tuple(hi))
            scanned += charge_scan(
                acc, session.chunks_in_region(side.array, region),
                side.attrs, costs, self.cpu_intensity,
            )
            self.state.rescan(*side.extract(*session.payload_in_region(
                side.array, region, side.attrs, self.ndim
            )))
        return rows, scanned

    def _from_scratch(self, coords: np.ndarray, values: np.ndarray):
        return ops.group_stats_by_grid_arrays(
            coords, values, self.state.dims, self.state.cell_sizes
        )


def _declared_bounds(schema) -> Optional[np.ndarray]:
    """``[starts, ends]`` of a schema's dimensions, or ``None``; only
    the leading one may be unbounded (the top digit needs no span)."""
    if schema is None or any(d.end is None for d in schema.dimensions[1:]):
        return None
    dims = schema.dimensions
    ends = [d.start if d.end is None else d.end for d in dims]
    return np.array([[d.start for d in dims], ends], dtype=np.int64)


class MaintainedJoin(_MaintainedView):
    """A maintained position/equi join aggregate between two arrays.

    A :class:`DeltaJoinState` over sides *a* and *b*: the delta arm
    folds side *a* against the old *b* state, then side *b* against the
    updated *a*.  Position tables key as int64 under one packing fixed
    at each rebuild from the sides' declared dimension bounds and live
    cells — time grows every cycle, so widening on demand would re-key
    the whole state each refresh; a delta that does not fit the packing
    takes the rebuild arm.
    """

    _from_scratch = staticmethod(join_aggregate_full)

    def __init__(
        self,
        cluster,
        side_a: JoinSide,
        side_b: JoinSide,
        ndim: int,
        cpu_intensity: float = 0.8,
    ) -> None:
        super().__init__(cluster, (side_a, side_b), ndim, cpu_intensity)
        self.state = DeltaJoinState()
        self._packing: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _fold(
        self, session, acc, costs, deltas
    ) -> Optional[Tuple[int, float]]:
        batches, rows, scanned = self._read(session, acc, costs, deltas)
        tables = [keys for keys, _, _ in batches if keys.ndim == 2]
        if deltas is None:
            self.state.clear()
            bounds = [
                _declared_bounds(session.snapshot_of(side.array).schema)
                for side in self.sides
            ]
            self._packing = (
                joint_packing(*bounds, *tables)
                if tables and all(b is not None for b in bounds)
                else None
            )
        elif not all(packing_admits(t, self._packing) for t in tables):
            return None
        for label, (keys, join_values, weights) in zip("ab", batches):
            if keys.ndim == 2:
                keys = position_keys(keys, self._packing)
            self.state.apply(label, keys, join_values, weights)
        return rows, scanned
