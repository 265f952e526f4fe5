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
  Both keep sorted key columns and splice new groups in with
  ``searchsorted`` + ``np.insert`` — the ``_ArrayView`` idiom, no dicts.
* **Non-invertible aggregates** — min/max cannot subtract a removal, so
  deletions only *mark groups dirty*; the maintained query re-aggregates
  just the dirty buckets from a region-scoped payload gather
  (:meth:`ClusterSession.payload_in_region`), keeping the touched-group
  contract from the issue.
* **Tempura-style planning** — every :meth:`refresh` asks
  :func:`repro.query.cost.maintenance_plan` to price the delta fold
  against a full recompute from catalog byte columns and runs the
  cheaper arm.  At ~100 % churn the delta carries the expired chunks at
  ``-1`` plus their replacements at ``+1`` (≈2× live bytes) and full
  recompute wins; in steady state the delta is a sliver.

Specification
-------------
Each maintained view's :meth:`recompute` is its from-scratch
specification: the maintained result must match it to 1e-9 on floats
and exactly on integer aggregates, which is what
``tests/test_incremental.py`` pins through randomized
ingest/expiry/rebalance interleavings.  Delta-vs-full is a costed
per-refresh decision, not a setting; an unprimed cursor (``-1``) is
what forces the full arm.
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
from repro.errors import QueryError
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
    log order, an ingest's rows are its batch in key order, so a day's
    delta is one slab per array and no per-chunk view is built.

    Returns
    -------
    coords : numpy.ndarray of int64, shape (cells, ndim)
    values : dict of str to numpy.ndarray
        One value column per requested attribute.
    weights : numpy.ndarray of int64, shape (cells,)
        Per-cell ZSet weight (the owning row's sign).
    """
    chunks = delta.chunks.tolist()
    coords, values = concat_payload(chunks, attrs, ndim)
    weights = np.repeat(
        delta.signs.astype(np.int64),
        np.fromiter(
            (c.cell_count for c in chunks), dtype=np.int64,
            count=len(chunks),
        ),
    )
    return coords, values, weights


# ----------------------------------------------------------------------
# mergeable group-by state
# ----------------------------------------------------------------------
class GridGroupByState:
    """Per-bucket count/sum/min/max integrated under signed cell batches.

    The ZSet integrator behind the maintained grid statistics: buckets
    are interned into a sorted int64 key column (new groups splice in
    via ``searchsorted`` + ``np.insert``, the ``_ArrayView`` idiom) and
    every :meth:`apply` folds a whole batch with ``np.bincount`` /
    ``ufunc.at`` — no per-cell Python.  A batch outside the key packing
    re-keys the groups under a wider one (order-preserving).

    Counts and sums are linear, so signed folds maintain them exactly.
    Min/max are *not* invertible: positive weights tighten them
    monotonically, while any negative weight marks the bucket dirty;
    :meth:`rescan` then re-aggregates only the dirty buckets from a live
    cell gather covering them (:meth:`dirty_cell_bounds` gives the
    bounding box to fetch).  :meth:`emit` refuses to read through dirty
    extrema.
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
        self.cell_sizes = tuple(int(s) for s in cell_sizes)
        self.track_minmax = bool(track_minmax)
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

    def _bucket_keys(self, buckets: np.ndarray) -> np.ndarray:
        """Sortable keys of bucket rows, widening the packing to fit."""
        if not len(self) or not packing_admits(buckets, self._packing):
            self._packing = joint_packing(buckets, self._rows)
            self._keys = position_keys(self._rows, self._packing)
        return position_keys(buckets, self._packing)

    def _intern(self, keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Slot indices of sorted-unique ``keys``, inserting new groups."""
        pos = np.searchsorted(self._keys, keys)
        found = np.zeros(keys.shape[0], dtype=bool)
        in_range = pos < self._keys.shape[0]
        found[in_range] = self._keys[pos[in_range]] == keys[in_range]
        fresh = ~found
        if fresh.any():
            at = pos[fresh]
            self._keys = np.insert(self._keys, at, keys[fresh])
            self._rows = np.insert(self._rows, at, rows[fresh], axis=0)
            self.counts = np.insert(self.counts, at, 0)
            self.sums = np.insert(self.sums, at, 0.0)
            self.mins = np.insert(self.mins, at, np.inf)
            self.maxs = np.insert(self.maxs, at, -np.inf)
            self.dirty = np.insert(self.dirty, at, False)
            pos = np.searchsorted(self._keys, keys)
        return pos

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
        buckets = ops.grid_buckets(coords, self.dims, self.cell_sizes)
        keys = self._bucket_keys(buckets)
        uniq, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        w = weights.astype(np.float64)
        vals = values.astype(np.float64)
        d_counts = np.rint(
            np.bincount(inverse, weights=w, minlength=uniq.shape[0])
        ).astype(np.int64)
        d_sums = np.bincount(
            inverse, weights=w * vals, minlength=uniq.shape[0]
        )
        pos = self._intern(uniq, buckets[first])
        self.counts[pos] += d_counts
        self.sums[pos] += d_sums
        if (self.counts[pos] < 0).any():
            raise QueryError(
                "negative group count after delta fold; the delta "
                "stream removed cells that were never inserted"
            )
        if not self.track_minmax:
            return
        slots = pos[inverse]
        added = weights > 0
        if added.any():
            np.minimum.at(self.mins, slots[added], vals[added])
            np.maximum.at(self.maxs, slots[added], vals[added])
        removed = ~added
        if removed.any():
            self.dirty[np.unique(slots[removed])] = True

    def dirty_cell_bounds(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Cell-space bounding interval of the dirty buckets, per dim.

        Returns ``(lows, highs)`` aligned with ``dims`` — half-open cell
        ranges covering every dirty bucket, i.e. the smallest region a
        :meth:`rescan` gather must fetch.
        """
        if not self.dirty.any():
            raise QueryError("no dirty groups to bound")
        rows = self._rows[self.dirty]
        lo = rows.min(axis=0)
        hi = rows.max(axis=0) + 1
        sizes = np.asarray(self.cell_sizes, dtype=np.int64)
        return (
            tuple(int(v) for v in lo * sizes),
            tuple(int(v) for v in hi * sizes),
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
        slots = np.flatnonzero(self.dirty)
        self.mins[slots] = np.inf
        self.maxs[slots] = -np.inf
        if coords.shape[0] and self._keys is not None:
            buckets = ops.grid_buckets(coords, self.dims, self.cell_sizes)
            keys = self._bucket_keys(buckets)
            pos = np.searchsorted(self._keys, keys)
            in_range = pos < self._keys.shape[0]
            hit = np.zeros(keys.shape[0], dtype=bool)
            hit[in_range] = self._keys[pos[in_range]] == keys[in_range]
            hit[hit] = self.dirty[pos[hit]]
            if hit.any():
                vals = values.astype(np.float64)
                np.minimum.at(self.mins, pos[hit], vals[hit])
                np.maximum.at(self.maxs, pos[hit], vals[hit])
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
        return (
            self._rows[live],
            self.counts[live],
            self.sums[live],
            self.mins[live],
            self.maxs[live],
        )


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

    def _intern(self, keys: np.ndarray) -> np.ndarray:
        if self._keys is None:
            self._keys = keys[:0]
        pos = np.searchsorted(self._keys, keys)
        found = np.zeros(keys.shape[0], dtype=bool)
        in_range = pos < self._keys.shape[0]
        found[in_range] = self._keys[pos[in_range]] == keys[in_range]
        fresh = ~found
        if fresh.any():
            at = pos[fresh]
            self._keys = np.insert(self._keys, at, keys[fresh])
            self.cnt_a = np.insert(self.cnt_a, at, 0.0)
            self.sum_a = np.insert(self.sum_a, at, 0.0)
            self.cnt_b = np.insert(self.cnt_b, at, 0.0)
            self.sum_b = np.insert(self.sum_b, at, 0.0)
            self._dead += int(at.shape[0])
            pos = np.searchsorted(self._keys, keys)
        return pos

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
        uniq, inverse = np.unique(keys, return_inverse=True)
        w = weights.astype(np.float64)
        d_cnt = np.bincount(inverse, weights=w, minlength=uniq.shape[0])
        d_sum = np.bincount(
            inverse,
            weights=w * values.astype(np.float64),
            minlength=uniq.shape[0],
        )
        pos = self._intern(uniq)
        self._dead -= int(self._is_dead(pos).sum())
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
            self._keys = self._keys[live]
            self.cnt_a = self.cnt_a[live]
            self.sum_a = self.sum_a[live]
            self.cnt_b = self.cnt_b[live]
            self.sum_b = self.sum_b[live]
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
    uniq_a, inv_a = np.unique(keys_a, return_inverse=True)
    cnt_a = np.bincount(inv_a, minlength=uniq_a.shape[0]).astype(
        np.float64
    )
    sum_a = np.bincount(
        inv_a,
        weights=np.asarray(values_a, dtype=np.float64),
        minlength=uniq_a.shape[0],
    )
    uniq_b, inv_b = np.unique(keys_b, return_inverse=True)
    cnt_b = np.bincount(inv_b, minlength=uniq_b.shape[0]).astype(
        np.float64
    )
    sum_b = np.bincount(
        inv_b,
        weights=np.asarray(values_b, dtype=np.float64),
        minlength=uniq_b.shape[0],
    )
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


class MaintainedGridStats:
    """A maintained grid-statistics view over one array attribute.

    The incremental counterpart of a full
    :func:`~repro.query.operators.group_stats_by_grid_arrays` sweep:
    holds a :class:`GridGroupByState` plus an epoch ``cursor``, and each
    :meth:`refresh` folds only the catalog delta since the cursor —
    unless the Tempura-style planner rules the full recompute cheaper.
    Dirty min/max groups re-aggregate from a region-scoped payload
    gather clipped to the dirty buckets' bounding box inside ``domain``.

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
        if isinstance(cluster, ClusterSession):
            cluster = cluster.cluster
        self.cluster = cluster
        self.array = array
        self.attr = attr
        self.ndim = int(ndim)
        self.domain = domain
        self.cpu_intensity = float(cpu_intensity)
        self.state = GridGroupByState(dims, cell_sizes, track_minmax)
        #: Epoch cursor: the payload epoch the state has folded up to.
        #: ``-1`` means unprimed (the first refresh always recomputes).
        self.cursor = -1

    def _dirty_region(self) -> Box:
        lows, highs = self.state.dirty_cell_bounds()
        lo = list(self.domain.lo)
        hi = list(self.domain.hi)
        for d, low, high in zip(self.state.dims, lows, highs):
            lo[d] = max(lo[d], low)
            hi[d] = min(hi[d], high)
        return Box(tuple(lo), tuple(hi))

    def _refresh_full(self, session, acc, costs) -> Tuple[int, float]:
        scanned = charge_scan(
            acc, session.chunks_of_array(self.array), [self.attr], costs,
            self.cpu_intensity,
        )
        coords, values = session.array_payload(
            self.array, [self.attr], self.ndim
        )
        self.state.clear()
        if coords.shape[0]:
            self.state.apply(
                coords,
                values[self.attr],
                np.ones(coords.shape[0], dtype=np.int64),
            )
        return int(coords.shape[0]), scanned

    def _refresh_delta(self, session, acc, costs) -> Tuple[int, float]:
        delta = session.deltas_since(self.array, self.cursor)
        scanned = charge_scan(
            acc, delta, [self.attr], costs, self.cpu_intensity
        )
        coords, values, weights = delta_cells(
            delta, [self.attr], self.ndim
        )
        if coords.shape[0]:
            self.state.apply(coords, values[self.attr], weights)
        if self.state.needs_rescan:
            region = self._dirty_region()
            scanned += charge_scan(
                acc, session.chunks_in_region(self.array, region),
                [self.attr], costs, self.cpu_intensity,
            )
            live_coords, live_values = session.payload_in_region(
                self.array, region, [self.attr], self.ndim
            )
            self.state.rescan(live_coords, live_values[self.attr])
        return int(coords.shape[0]), scanned

    def refresh(self) -> MaintenanceReport:
        """Bring the view up to the array's pinned payload epoch.

        Each refresh reads through a fresh epoch-pinned session, so the
        delta fold, any dirty-bucket rescan, and the cursor all observe
        one snapshot: a mutation landing mid-refresh is folded on the
        *next* cycle instead of being half-applied or silently skipped.
        """
        session = self.cluster.session()
        acc = accumulator_for(session)
        costs = session.costs
        plan = None
        if self.cursor >= 0:
            plan = maintenance_plan(
                session, self.array, self.cursor, [self.attr],
                costs, self.cpu_intensity,
            )
        if plan is not None and plan.incremental:
            mode = "delta"
            rows, scanned = self._refresh_delta(session, acc, costs)
        else:
            mode = "full"
            rows, scanned = self._refresh_full(session, acc, costs)
        self.cursor = int(session.payload_epoch_of(self.array))
        return MaintenanceReport(
            mode=mode,
            rows=rows,
            scanned_bytes=scanned,
            seconds=acc.max_seconds(),
            plan=plan,
        )

    def result(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The maintained ``(buckets, counts, sums, mins, maxs)`` view."""
        return self.state.emit()

    def recompute(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Full-recompute oracle over the live cells (state untouched)."""
        coords, values = self.cluster.session().array_payload(
            self.array, [self.attr], self.ndim
        )
        return ops.group_stats_by_grid_arrays(
            coords,
            values[self.attr],
            self.state.dims,
            self.state.cell_sizes,
        )


@dataclass(frozen=True)
class JoinSide:
    """One side of a maintained join: what to read and how to key it."""

    #: Array name.
    array: str
    #: Attributes the side reads from the payload.
    attrs: Tuple[str, ...]
    #: ``(coords, values) -> (keys, join_values)`` column extractor;
    #: ``keys`` is a 1-d column, or an ``(n, d)`` position table.
    extract: Callable[
        [np.ndarray, Dict[str, np.ndarray]],
        Tuple[np.ndarray, np.ndarray],
    ]


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


def _declared_bounds(schema) -> Optional[np.ndarray]:
    """``[starts, ends]`` of a schema's dimensions, or ``None``; only
    the leading one may be unbounded (the top digit needs no span)."""
    if schema is None or any(d.end is None for d in schema.dimensions[1:]):
        return None
    dims = schema.dimensions
    ends = [d.start if d.end is None else d.end for d in dims]
    return np.array([[d.start for d in dims], ends], dtype=np.int64)


class MaintainedJoin:
    """A maintained position/equi join aggregate between two arrays.

    Holds a :class:`DeltaJoinState` plus one epoch cursor per side;
    each :meth:`refresh` folds both sides' deltas bilinearly (side *a*
    against the old *b* state, then side *b* against the updated *a*)
    when the planner prices the combined delta fold cheaper than
    rescanning both arrays — otherwise it rebuilds the state from full
    payloads.  Position tables key as int64 under one packing fixed at
    each rebuild from the sides' declared dimension bounds and live
    cells; a delta that does not fit it takes the rebuild arm.
    """

    def __init__(
        self,
        cluster,
        side_a: JoinSide,
        side_b: JoinSide,
        ndim: int,
        cpu_intensity: float = 0.8,
    ) -> None:
        if isinstance(cluster, ClusterSession):
            cluster = cluster.cluster
        self.cluster = cluster
        self.side_a = side_a
        self.side_b = side_b
        self.ndim = int(ndim)
        self.cpu_intensity = float(cpu_intensity)
        self.state = DeltaJoinState()
        self._packing: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Per-side epoch cursors (``-1`` = unprimed).
        self.cursors = {"a": -1, "b": -1}

    def _sides(self) -> Tuple[Tuple[str, JoinSide], ...]:
        return (("a", self.side_a), ("b", self.side_b))

    def _fold(
        self, session, acc, costs, delta: bool
    ) -> Optional[Tuple[int, float]]:
        """Read every side — its delta, or all of it — then fold them;
        ``None`` when a delta falls outside the key packing."""
        batches = []
        rows = 0
        scanned = 0.0
        for label, side in self._sides():
            attrs = list(side.attrs)
            if delta:
                read = session.deltas_since(side.array, self.cursors[label])
                scanned += charge_scan(
                    acc, read, attrs, costs, self.cpu_intensity
                )
                coords, values, weights = delta_cells(
                    read, attrs, self.ndim
                )
            else:
                scanned += charge_scan(
                    acc, session.chunks_of_array(side.array), attrs, costs,
                    self.cpu_intensity,
                )
                coords, values = session.array_payload(
                    side.array, attrs, self.ndim
                )
                weights = np.ones(coords.shape[0], dtype=np.int64)
            batches.append((label, *side.extract(coords, values), weights))
            rows += int(coords.shape[0])
        tables = [keys for _, keys, _, _ in batches if keys.ndim == 2]
        if not delta:
            self.state.clear()
            bounds = [
                _declared_bounds(session.snapshot_of(side.array).schema)
                for _, side in self._sides()
            ]
            self._packing = (
                joint_packing(*bounds, *tables)
                if tables and all(b is not None for b in bounds)
                else None
            )
        elif not all(packing_admits(t, self._packing) for t in tables):
            return None
        for label, keys, join_values, weights in batches:
            if keys.ndim == 2:
                keys = position_keys(keys, self._packing)
            self.state.apply(label, keys, join_values, weights)
        return rows, scanned

    def refresh(self) -> MaintenanceReport:
        """Bring the join up to both arrays' pinned payload epochs.

        Both sides pin at one consistent global epoch
        (:meth:`~repro.cluster.session.ClusterSession.pin`), so the
        bilinear fold never mixes a pre-mutation *a* with a
        post-mutation *b*; cursors advance to the pinned epochs.
        """
        session = self.cluster.session().pin(
            [side.array for _, side in self._sides()]
        )
        acc = accumulator_for(session)
        costs = session.costs
        plan = None
        primed = all(c >= 0 for c in self.cursors.values())
        if primed:
            plans = [
                maintenance_plan(
                    session, side.array, self.cursors[label],
                    list(side.attrs), costs, self.cpu_intensity,
                )
                for label, side in self._sides()
            ]
            delta_seconds = sum(p.delta_seconds for p in plans)
            full_seconds = sum(p.full_seconds for p in plans)
            plan = MaintenancePlan(
                choice=(
                    "delta" if delta_seconds <= full_seconds else "full"
                ),
                delta_bytes=sum(p.delta_bytes for p in plans),
                full_bytes=sum(p.full_bytes for p in plans),
                delta_seconds=delta_seconds,
                full_seconds=full_seconds,
            )
        folded = None
        if plan is not None and plan.incremental:
            folded = self._fold(session, acc, costs, delta=True)
        mode = "full" if folded is None else "delta"
        rows, scanned = folded or self._fold(
            session, acc, costs, delta=False
        )
        for label, side in self._sides():
            self.cursors[label] = int(
                session.payload_epoch_of(side.array)
            )
        return MaintenanceReport(
            mode=mode,
            rows=rows,
            scanned_bytes=scanned,
            seconds=acc.max_seconds(),
            plan=plan,
        )

    def result(self) -> Dict[str, float]:
        """The maintained ``{"pairs", "product_sum"}`` aggregates."""
        return self.state.emit()

    def recompute(self) -> Dict[str, float]:
        """Full-recompute oracle over live payloads (state untouched)."""
        session = self.cluster.session()
        columns = []
        for _, side in self._sides():
            coords, values = session.array_payload(
                side.array, list(side.attrs), self.ndim
            )
            columns.extend(side.extract(coords, values))
        return join_aggregate_full(*columns)
