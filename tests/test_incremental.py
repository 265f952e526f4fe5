"""Incremental view maintenance: delta folds ≡ full recompute.

Covers the maintenance contract:

* a maintained grid-statistics view and position join ≡ their full
  recomputes (exact on integer aggregates, 1e-9 on floats) and the
  ``deltas_since`` replay ≡ the live set, on every scheme: invariants of
  the ``tests/test_cluster_machine.py`` machine, here run on the views'
  rules and on one fixed lifecycle;
* a pure relocation (scale-out rebalance) produces an *empty* content
  delta and invalidates no maintained state;
* the Tempura-style planner picks full recompute at ~100 % churn and
  the incremental arm at small churn — the decision itself is tested;
* an unprimed cursor forces the recompute arm and still matches,
  including through the figure-8 retention staircase with the planner
  pinned to "full" from the test side;
* the mergeable state objects enforce their own invariants (dirty
  extrema refuse to emit, negative counts raise, unknown sides raise).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkData, parse_schema
from repro.arrays.coords import pack_rows_void, position_keys, row_packing
from repro.cluster import CostParameters, ElasticCluster, GB
from repro.config import parity
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.errors import ConfigError, QueryError
from repro.harness import figure8_retention, incremental_churn
from repro.query import incremental
from repro.query import operators as ops
from repro.query.cost import maintenance_plan
from repro.query.incremental import (
    DeltaJoinState,
    GridGroupByState,
    MaintainedGridStats,
    MaintainedJoin,
    delta_cells,
    equi_side,
    join_aggregate_full,
    position_side,
)
from tests.oracles import delta_cells_per_chunk, join_aggregate_scalar

GRID = Box((0, 0, 0), (10_000, 16, 16))
DOMAIN = Box((0, 0, 0), (10_000, 16, 16))
SCHEMAS = {
    "A": parse_schema("A<v:double>[t=0:*,1, x=0:15,1, y=0:15,1]"),
    "B": parse_schema("B<v:double>[t=0:*,1, x=0:15,1, y=0:15,1]"),
}


def _chunk(array, t, x, y, value, size=10.0):
    return ChunkData(
        SCHEMAS[array], (t, x, y),
        np.array([[t, x, y]], dtype=np.int64),
        {"v": np.array([float(value)])},
        size_bytes=float(size),
    )


def _make_cluster(name, nodes=2):
    partitioner = make_partitioner(
        name, list(range(nodes)), grid=GRID,
        node_capacity_bytes=1000 * GB,
    )
    return ElasticCluster(
        partitioner, 1000 * GB, costs=CostParameters(),
        ledger_compact_ratio=0.3,
    )


def _grid_view(cluster, **kwargs):
    defaults = dict(
        dims=(1, 2), cell_sizes=(4, 4), ndim=3, domain=DOMAIN,
    )
    defaults.update(kwargs)
    return MaintainedGridStats(cluster, "A", "v", **defaults)


def _assert_grid_parity(view):
    got = view.result()
    want = view.recompute()
    assert np.array_equal(got[0], want[0])       # buckets, lex order
    assert np.array_equal(got[1], want[1])       # counts exact
    np.testing.assert_allclose(got[2], want[2], rtol=1e-9, atol=1e-9)
    assert np.array_equal(got[3], want[3])       # extrema exact
    assert np.array_equal(got[4], want[4])


def _assert_join_parity(join):
    got = join.result()
    want = join.recompute()
    assert got["pairs"] == want["pairs"]
    np.testing.assert_allclose(
        got["product_sum"], want["product_sum"], rtol=1e-9, atol=1e-9
    )


class TestMaintainedViewsProperty:
    """The cluster machine on the views' rules: maintained ≡ recomputed."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_interleaved_ops(self, name):
        # imported here: the machine module imports this one's helpers
        from test_cluster_machine import run_focused

        run_focused(
            name,
            ("ingest", "expire", "scale_out", "compact", "refresh_views"),
            ("consistent", "views_equal_recompute"),
        )


class TestAllSchemesDeltaReplay:
    """deltas_since(array, 0) replays to the live set, every scheme."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_replay_reproduces_live_set(self, name):
        from test_cluster_machine import lifecycle, replay

        replay(name, lifecycle(5, cycles=5, size=10),
               ("delta_replay_equals_live_set", "consistent"))


class TestPureRelocation:
    """A rebalance is ownership-only: no content delta, no invalidation."""

    def test_empty_delta_and_untouched_state(self):
        rng = np.random.default_rng(3)
        cluster = _make_cluster("hilbert_curve")
        batch = {}
        for _ in range(40):
            key = (
                int(rng.integers(0, 4)),
                int(rng.integers(0, 16)),
                int(rng.integers(0, 16)),
            )
            batch[key] = _chunk(
                "A", *key, float(rng.normal(0, 10)),
                float(rng.lognormal(2, 1)),
            )
        cluster.ingest(list(batch.values()))
        view = _grid_view(cluster)
        view.refresh()
        cursor = view.cursor
        state = view.state
        counts_column = view.state.counts    # backing array identity
        epoch_before = cluster.catalog.epoch_of("A")

        rebalance = cluster.scale_out(2)  # pure relocation: payloads unmoved

        # epochs advance on relocation, payload epochs do not; a cursor
        # held across the rebalance must not see phantom rows
        assert rebalance.chunks_moved >= 1
        assert cluster.catalog.epoch_of("A") > epoch_before
        assert cluster.catalog.payload_epoch_of("A") == cursor
        delta = cluster.session().deltas_since("A", cursor)
        assert len(delta) == 0
        assert delta.bytes_touched == 0.0
        report = view.refresh()
        assert report.mode == "delta"
        assert report.rows == 0
        assert view.state is state            # no rebuild, and the
        assert view.state.counts is counts_column  # columns survived
        _assert_grid_parity(view)


class TestPlannerDecision:
    """The cost-based choice: delta when churn is small, full at ~100 %."""

    def _loaded(self, n=60):
        rng = np.random.default_rng(17)
        cluster = _make_cluster("hilbert_curve")
        batch = {}
        while len(batch) < n:
            key = (
                int(rng.integers(0, 4)),
                int(rng.integers(0, 16)),
                int(rng.integers(0, 16)),
            )
            batch[key] = _chunk(
                "A", *key, float(rng.normal(0, 10)),
                float(rng.lognormal(2, 1)),
            )
        cluster.ingest(list(batch.values()))
        return cluster, rng

    def test_small_churn_picks_delta(self):
        cluster, rng = self._loaded()
        view = _grid_view(cluster)
        view.refresh()
        live = [c.ref() for c, _ in cluster.session().chunks_of_array("A")]
        cluster.remove_chunks(live[:2])
        cluster.ingest([
            _chunk("A", 9, 1, 1, 1.0), _chunk("A", 9, 2, 2, 2.0),
        ])
        plan = maintenance_plan(cluster.session(), "A", view.cursor, ["v"])
        assert plan.incremental
        assert plan.delta_bytes < plan.full_bytes
        report = view.refresh()
        assert report.mode == "delta"
        _assert_grid_parity(view)

    def test_full_churn_picks_full(self):
        cluster, rng = self._loaded()
        view = _grid_view(cluster)
        view.refresh()
        live = [c.ref() for c, _ in cluster.session().chunks_of_array("A")]
        cluster.remove_chunks(live)  # 100 % churn: everything expires
        batch = {}
        while len(batch) < 50:
            key = (
                int(rng.integers(10, 14)),
                int(rng.integers(0, 16)),
                int(rng.integers(0, 16)),
            )
            batch[key] = _chunk(
                "A", *key, float(rng.normal(0, 10)),
                float(rng.lognormal(2, 1)),
            )
        cluster.ingest(list(batch.values()))
        plan = maintenance_plan(cluster.session(), "A", view.cursor, ["v"])
        # the delta carries every expiry at -1 plus every ingest at +1,
        # ≈2× the live bytes: full recompute must win
        assert not plan.incremental
        assert plan.delta_bytes > plan.full_bytes
        report = view.refresh()
        assert report.mode == "full"
        _assert_grid_parity(view)

    def test_empty_delta_is_free(self):
        cluster, _ = self._loaded()
        view = _grid_view(cluster)
        view.refresh()
        plan = maintenance_plan(cluster.session(), "A", view.cursor, ["v"])
        assert plan.incremental
        assert plan.delta_bytes == 0.0
        assert plan.delta_seconds == 0.0


class TestParityOracleMode:
    """The full-recompute arm, forced from the test side, still matches."""

    def test_full_mode_forces_recompute_arm(self):
        cluster = _make_cluster("round_robin")
        cluster.ingest([_chunk("A", 0, 1, 1, 3.0)])
        view = _grid_view(cluster)
        view.refresh()
        cluster.ingest([_chunk("A", 1, 2, 2, 4.0)])
        view.cursor = -1                     # unprimed: no delta to fold
        report = view.refresh()
        assert report.mode == "full"
        assert report.plan is None           # planner never consulted
        _assert_grid_parity(view)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            with parity(incr="full"):
                pass  # pragma: no cover

    def test_staircase_parity_both_modes(self, monkeypatch):
        # figure8_retention verifies incremental ≡ recompute inline
        # every cycle; run the staircase as planned and with the
        # planner's verdict pinned to "full"
        def always_full(*args, **kwargs):
            plan = maintenance_plan(*args, **kwargs)
            plan.choice = "full"
            return plan

        for mode in ("delta", "full"):
            with monkeypatch.context() as patch:
                if mode == "full":
                    patch.setattr(
                        incremental, "maintenance_plan", always_full
                    )
                result = figure8_retention(
                    cycles=8, verify_incremental=True
                )
            if mode == "full":
                assert set(result.maintenance_modes) == {"full"}
            else:
                assert result.maintenance_modes[0] == "full"  # unprimed
                assert "delta" in result.maintenance_modes[1:]
            assert len(result.delta_gb) == 8
            # expiry starts after the retention window fills: negative
            # rows appear in the delta from cycle 5 on
            assert result.delta_removed_chunks[0] == 0
            assert max(result.delta_removed_chunks) > 0


class TestChurnExperiment:
    """Cycle cost tracks delta size, not array size."""

    def test_speedup_and_cost_scaling(self):
        result = incremental_churn(
            churn_fractions=(0.05, 0.25, 1.0), cycles_per_fraction=2
        )
        speedups = result.speedups()
        # ≥5x modeled per-cycle speedup at 5 % churn
        assert speedups[0] >= 5.0
        # the incremental arm's cost grows with the delta fraction…
        assert (
            result.delta_arm_seconds[0]
            < result.delta_arm_seconds[1]
            < result.delta_arm_seconds[2]
        )
        assert result.delta_gb[0] < result.delta_gb[1] < result.delta_gb[2]
        # …while the full arm tracks the (fixed-size) array: its spread
        # is sampling noise (redrawn chunk sizes, placement skew), tiny
        # next to the ~20x delta-arm growth across the same fractions
        full_spread = max(result.full_arm_seconds) / min(
            result.full_arm_seconds
        )
        delta_spread = (
            result.delta_arm_seconds[2] / result.delta_arm_seconds[0]
        )
        assert full_spread < 2.5
        assert delta_spread > 4 * full_spread
        # planner: delta at small churn, full recompute at 100 %
        assert result.modes[0] == "delta"
        assert result.modes[-1] == "full"


class TestStateInvariants:
    """The mergeable state objects police their own contracts."""

    def test_dirty_extrema_refuse_to_emit(self):
        state = GridGroupByState(dims=(0,), cell_sizes=(4,))
        coords = np.array([[0], [1]], dtype=np.int64)
        state.apply(coords, np.array([1.0, 2.0]), np.array([1, 1]))
        state.apply(
            coords[:1], np.array([1.0]), np.array([-1])
        )  # removal dirties the bucket
        assert state.needs_rescan
        with pytest.raises(QueryError):
            state.emit()
        lows, highs = state.dirty_cell_bounds()
        assert lows == (0,) and highs == (4,)
        state.rescan(coords[1:], np.array([2.0]))
        buckets, counts, sums, mins, maxs = state.emit()
        assert counts.tolist() == [1]
        assert mins.tolist() == [2.0] and maxs.tolist() == [2.0]

    def test_negative_count_raises(self):
        state = GridGroupByState(
            dims=(0,), cell_sizes=(4,), track_minmax=False
        )
        with pytest.raises(QueryError):
            state.apply(
                np.array([[0]], dtype=np.int64),
                np.array([1.0]),
                np.array([-1]),
            )

    def test_minmax_requires_domain(self):
        cluster = _make_cluster("round_robin")
        with pytest.raises(QueryError):
            MaintainedGridStats(
                cluster, "A", "v", dims=(1, 2), cell_sizes=(4, 4),
                ndim=3, domain=None,
            )

    def test_join_state_rejects_unknown_side(self):
        state = DeltaJoinState()
        with pytest.raises(QueryError):
            state.apply(
                "c", np.array([1]), np.array([1.0]), np.array([1])
            )

    def test_empty_state_emits_empty(self):
        state = GridGroupByState(dims=(0, 1), cell_sizes=(2, 2))
        buckets, counts, sums, mins, maxs = state.emit()
        assert buckets.shape == (0, 2)
        assert counts.size == 0
        join = DeltaJoinState()
        assert join.emit() == {"pairs": 0, "product_sum": 0.0}


class TestJoinKernels:
    """Batch join-aggregate kernel ≡ scalar oracle ≡ maintained state."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_full_kernel_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        keys_a = rng.integers(0, 12, int(rng.integers(0, 40)))
        keys_b = rng.integers(0, 12, int(rng.integers(0, 40)))
        values_a = rng.normal(0, 3, keys_a.size)
        values_b = rng.normal(0, 3, keys_b.size)
        got = join_aggregate_full(keys_a, values_a, keys_b, values_b)
        want = join_aggregate_scalar(keys_a, values_a, keys_b, values_b)
        assert got["pairs"] == want["pairs"]
        np.testing.assert_allclose(
            got["product_sum"], want["product_sum"],
            rtol=1e-9, atol=1e-9,
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_state_converges_to_kernel_under_signed_batches(self, seed):
        rng = np.random.default_rng(seed)
        state = DeltaJoinState()
        rows = {"a": [], "b": []}
        for _ in range(int(rng.integers(1, 6))):
            side = "ab"[int(rng.integers(0, 2))]
            n = int(rng.integers(1, 15))
            keys = rng.integers(0, 8, n)
            values = rng.normal(0, 2, n)
            state.apply(side, keys, values, np.ones(n, dtype=np.int64))
            rows[side].extend(zip(keys.tolist(), values.tolist()))
            if rows[side] and rng.random() < 0.5:
                drop = int(rng.integers(0, len(rows[side])))
                key, value = rows[side].pop(drop)
                state.apply(
                    side,
                    np.array([key]),
                    np.array([value]),
                    np.array([-1]),
                )
        def cols(side):
            if not rows[side]:
                return np.empty(0, dtype=np.int64), np.empty(0)
            k, v = zip(*rows[side])
            return np.array(k), np.array(v)
        want = join_aggregate_full(*cols("a"), *cols("b"))
        got = state.emit()
        assert got["pairs"] == want["pairs"]
        np.testing.assert_allclose(
            got["product_sum"], want["product_sum"],
            rtol=1e-9, atol=1e-9,
        )

    def test_state_forgets_expired_keys_under_a_sliding_window(self):
        # 30 cycles of fresh keys in, keys older than the window out:
        # the state must track the live keys, not every key ever seen.
        rng = np.random.default_rng(17)
        state = DeltaJoinState()
        window = []
        seen = 0
        for cycle in range(30):
            keys = np.arange(cycle * 40, cycle * 40 + 40)
            batch = {
                side: (keys, rng.normal(0, 2, keys.size)) for side in "ab"
            }
            for side, (k, v) in batch.items():
                state.apply(side, k, v, np.ones(k.size, dtype=np.int64))
            window.append(batch)
            seen += keys.size
            if len(window) > 4:
                for side, (k, v) in window.pop(0).items():
                    state.apply(
                        side, k, v, -np.ones(k.size, dtype=np.int64)
                    )
            live = {
                side: [np.concatenate(col) for col in zip(
                    *(entry[side] for entry in window)
                )]
                for side in "ab"
            }
            assert len(state) <= 2 * live["a"][0].size
            assert state._dead == int(state._is_dead(slice(None)).sum())
            want = join_aggregate_full(*live["a"], *live["b"])
            got = state.emit()
            assert got["pairs"] == want["pairs"]
            np.testing.assert_allclose(
                got["product_sum"], want["product_sum"],
                rtol=1e-9, atol=1e-9,
            )
        assert seen > 2 * len(state)    # i.e. it did forget


def _signed_row_batches(rng, width, lo, hi, drift=0):
    """Random signed batches of int rows, and the rows left live.

    Inserts, then removals of rows that are live (so no count ever goes
    negative); ``drift`` moves each insert batch's range along.
    """
    live = []
    batches = []
    for step in range(int(rng.integers(2, 7))):
        n = int(rng.integers(1, 25))
        rows = rng.integers(lo, hi, size=(n, width)) + step * drift
        values = rng.integers(-9, 10, n).astype(np.float64)
        batches.append((rows, values, np.ones(n, dtype=np.int64)))
        live.extend(zip(map(tuple, rows.tolist()), values.tolist()))
        if rng.random() < 0.6:
            picks = sorted(
                rng.choice(len(live), int(rng.integers(1, 6)))
            )[::-1]
            gone = [live.pop(int(i)) for i in dict.fromkeys(picks)]
            batches.append((
                np.array([row for row, _ in gone], dtype=np.int64),
                np.array([value for _, value in gone]),
                -np.ones(len(gone), dtype=np.int64),
            ))
    return batches, live


class TestKeyEncodingParity:
    """int64 position keys vs structured-void rows: identical state."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_join_state_same_under_int64_and_void_keys(self, seed):
        rng = np.random.default_rng(seed)
        batches, _ = _signed_row_batches(rng, 3, -6, 7)
        packing = row_packing(np.concatenate([b[0] for b in batches]))
        packed, void = DeltaJoinState(), DeltaJoinState()
        for rows, values, weights in batches:
            side = "ab"[int(rng.integers(0, 2))]
            packed.apply(
                side, position_keys(rows, packing), values, weights
            )
            void.apply(side, pack_rows_void(rows), values, weights)
        assert packed._keys.dtype == np.int64
        assert void._keys.dtype.kind == "V"
        assert packed.emit() == void.emit()
        assert len(packed) == len(void)
        for column in ("cnt_a", "sum_a", "cnt_b", "sum_b"):
            assert np.array_equal(
                getattr(packed, column), getattr(void, column)
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_groupby_state_same_under_int64_and_void_keys(self, seed):
        rng = np.random.default_rng(seed)
        # Ranges that keep moving on both bucket columns force re-keying.
        batches, live = _signed_row_batches(
            rng, 3, -8, 9, drift=np.array([3, -2, 5])
        )
        live_rows = np.array(
            [row for row, _ in live], dtype=np.int64
        ).reshape(-1, 3)
        live_values = np.array([value for _, value in live])
        packed = GridGroupByState(dims=(0, 2), cell_sizes=(2, 3))
        void = GridGroupByState(dims=(0, 2), cell_sizes=(2, 3))
        for state, force_void in ((packed, False), (void, True)):
            with pytest.MonkeyPatch.context() as patch:
                if force_void:
                    patch.setattr(
                        incremental, "joint_packing", lambda *tables: None
                    )
                for rows, values, weights in batches:
                    state.apply(rows, values, weights)
                state.rescan(live_rows, live_values)
        assert packed._keys.dtype == np.int64
        assert void._keys.dtype.kind == "V"
        assert np.array_equal(packed._rows, void._rows)
        for column in ("counts", "sums", "mins", "maxs", "dirty"):
            assert np.array_equal(
                getattr(packed, column), getattr(void, column)
            )
        want = ops.group_stats_by_grid_arrays(
            live_rows, live_values, (0, 2), (2, 3)
        )
        for got, expected in zip(packed.emit(), want):
            assert np.array_equal(got, expected)

    def test_groupby_rekeys_when_a_batch_leaves_the_packing(self):
        state = GridGroupByState(dims=(0, 1), cell_sizes=(1, 1))
        first = np.array([[0, 0], [1, 1]], dtype=np.int64)
        state.apply(first, np.array([1.0, 2.0]), np.array([1, 1]))
        narrow = state._packing
        # column 1 leaves [0, 1]: the groups re-key under a wider one
        wide = np.array([[0, -5], [1, 9]], dtype=np.int64)
        state.apply(wide, np.array([3.0, 4.0]), np.array([1, 1]))
        assert state._packing[1][1] > narrow[1][1]
        # the leading column may run past its span without re-keying
        packing = state._packing
        late = np.array([[10_000, 3]], dtype=np.int64)
        state.apply(late, np.array([5.0]), np.array([1]))
        assert state._packing is packing
        buckets, counts, sums, _, _ = state.emit()
        want = ops.group_stats_by_grid_arrays(
            np.concatenate([first, wide, late]),
            np.array([1.0, 2.0, 3.0, 4.0, 5.0]), (0, 1), (1, 1),
        )
        assert np.array_equal(buckets, want[0])
        assert np.array_equal(counts, want[1])
        assert np.array_equal(sums, want[2])
        # an extent beyond int64 falls back to void rows, same answer
        state.apply(
            np.array([[0, 2**62], [0, -(2**62)]], dtype=np.int64),
            np.array([6.0, 7.0]), np.array([1, 1]),
        )
        assert state._packing is None
        assert state._keys.dtype.kind == "V"
        assert state.emit()[1].sum() == 7


class TestMaintainedJoinKeyPacking:
    """The join's int64 packing: fixed per rebuild, void on overflow."""

    def _join(self, cluster):
        return MaintainedJoin(
            cluster, position_side("A", "v"), position_side("B", "v"),
            ndim=3,
        )

    def test_growing_time_range_stays_int64_on_the_delta_arm(self):
        cluster = _make_cluster("uniform_range")
        join = self._join(cluster)
        view = _grid_view(cluster, dims=(0, 1), cell_sizes=(2, 4))
        window = []
        modes = []
        for t in range(8):
            batch = [
                _chunk(array, 40 * t, x, (x + t) % 16, x - t, 10.0 + x)
                for array in "AB" for x in range(0, 16, 2 + (t % 2))
            ]
            cluster.ingest(batch)
            window.append([c.ref() for c in batch])
            if len(window) > 3:
                cluster.remove_chunks(window.pop(0))
            if t == 4:
                cluster.scale_out(2)
            modes.append(join.refresh().mode)
            view.refresh()
            _assert_join_parity(join)
            _assert_grid_parity(view)
            assert join.state._keys.dtype == np.int64
            assert view.state._keys.dtype == np.int64
        assert modes[0] == "full" and "delta" in modes[1:]
        assert join.result()["pairs"] > 0

    def test_delta_outside_the_packing_takes_the_rebuild_arm(self):
        cluster = _make_cluster("round_robin")
        join = self._join(cluster)
        cluster.ingest([
            _chunk(array, t, x, x, 1.0 + x)
            for array in "AB" for t in range(3) for x in range(12)
        ])
        assert join.refresh().mode == "full"
        cluster.ingest([_chunk("A", 3, 1, 1, 2.0)])
        assert join.refresh().mode == "delta"
        # x = -1 lies below the declared start: outside the packing
        cluster.ingest([_chunk("A", 4, -1, 0, 5.0), _chunk("B", 4, -1, 0, 7.0)])
        report = join.refresh()
        assert report.mode == "full" and report.plan.incremental
        assert join.state._keys.dtype == np.int64  # widened, not void
        _assert_join_parity(join)
        # a leading offset beyond int64 headroom: void rows from here on
        far = 2**62
        cluster.ingest([_chunk("A", far, 2, 2, 3.0), _chunk("B", far, 2, 2, 4.0)])
        assert join.refresh().mode == "full"
        assert join.state._keys.dtype.kind == "V"
        _assert_join_parity(join)
        cluster.ingest([_chunk("B", 5, 3, 3, 1.5)])
        assert join.refresh().mode == "delta"
        _assert_join_parity(join)
        assert join.result()["pairs"] == 3 * 12 + 2


class TestMaintainedEquiJoin:
    """The equi-join flavour keys on an id attribute, not positions."""

    def test_equi_join_parity_through_churn(self):
        rng = np.random.default_rng(29)
        cluster = _make_cluster("round_robin")

        def ship_chunk(array, t, x, y):
            return ChunkData(
                SCHEMAS[array], (t, x, y),
                np.array([[t, x, y]], dtype=np.int64),
                {"v": np.array([float(rng.integers(0, 6))])},
                size_bytes=float(rng.lognormal(2, 1)),
            )

        join = MaintainedJoin(
            cluster, equi_side("A", "v", "v"), equi_side("B", "v", "v"),
            ndim=3,
        )
        window = []
        for cycle in range(6):
            batch = {}
            for _ in range(8):
                array = "AB"[int(rng.integers(0, 2))]
                key = (
                    cycle,
                    int(rng.integers(0, 16)),
                    int(rng.integers(0, 16)),
                )
                batch[(array, key)] = ship_chunk(array, *key)
            cluster.ingest(list(batch.values()))
            window.append([c.ref() for c in batch.values()])
            if len(window) > 3:
                cluster.remove_chunks(window.pop(0))
            join.refresh()
            _assert_join_parity(join)
        assert join.result()["pairs"] > 0  # ids collide by design


class TestDeltaCells:
    """Chunk-level ZSet rows lower to signed cell columns."""

    def test_signs_follow_rows(self):
        cluster = _make_cluster("round_robin")
        cluster.ingest([
            _chunk("A", 0, 1, 1, 1.0), _chunk("A", 0, 2, 2, 2.0),
        ])
        cluster.remove_chunks(
            [c.ref() for c, _ in cluster.session().chunks_of_array("A")][:1]
        )
        delta = cluster.session().deltas_since("A", 0)
        coords, values, weights = delta_cells(delta, ["v"], 3)
        assert coords.shape == (3, 3)
        assert sorted(weights.tolist()) == [-1, 1, 1]
        assert values["v"].shape == (3,)

    def test_empty_delta_shapes(self):
        cluster = _make_cluster("round_robin")
        delta = cluster.session().deltas_since("nope", 0)
        coords, values, weights = delta_cells(delta, ["v"], 3)
        assert coords.shape == (0, 3)
        assert values["v"].shape == (0,)
        assert weights.shape == (0,)

    def test_equals_per_chunk_lowering_over_a_churned_log(
        self, small_modis
    ):
        # Ingested batches (arena extents, one slab a day), merges
        # (own arrays) and expiries (the retired handles at -1), every
        # cursor: the run gather and the per-chunk walk agree exactly.
        from repro.harness import ExperimentRunner, RunConfig

        runner = ExperimentRunner(
            small_modis, RunConfig(partitioner="kd_tree", run_queries=False)
        )
        runner.run()
        cluster = runner.cluster
        pairs = list(cluster.session().chunks_of_array("band1"))
        cluster.ingest([c for c, _ in pairs[:7]])  # merge into stored
        cluster.remove_chunks([c.ref() for c, _ in pairs[3:40:2]])
        last = cluster.catalog.payload_epoch_of("band1")
        for cursor in (0, 1, last // 2, last - 1, last):
            delta = cluster.session().deltas_since("band1", cursor)
            got = delta_cells(delta, ["radiance", "radiance"], 3)
            want = delta_cells_per_chunk(delta, ["radiance", "radiance"], 3)
            assert got[0].dtype == want[0].dtype
            assert np.array_equal(got[0], want[0])
            assert got[1]["radiance"].dtype == want[1]["radiance"].dtype
            assert np.array_equal(got[1]["radiance"], want[1]["radiance"])
            assert got[2].dtype == want[2].dtype
            assert np.array_equal(got[2], want[2])
        assert len(cluster.session().deltas_since("band1", 0)) > len(pairs)
