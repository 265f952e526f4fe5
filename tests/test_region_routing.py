"""Region routing: vectorized key-interval tests ≡ per-chunk box walks.

Covers the ISSUE-5 region-routing contract:

* the schema's inverse chunk mapping
  (:meth:`ArraySchema.chunk_intervals_of`) agrees with
  ``chunk_box().intersects`` on every chunk key, including the
  end-clamped last chunk of a bounded dimension;
* ``ClusterSession.chunks_in_region`` returns exactly what the
  per-chunk ``intersects`` oracle returns (same chunk objects, same
  owners, same key-sorted order) — walked over the catalog's pairs and
  over the node stores (``tests/oracles/cluster.py``) — for drawn
  regions under the ``tests/test_cluster_machine.py`` machine's
  mutation rules and one fixed lifecycle on every scheme, for empty and
  outside regions, and for unknown array names;
* a region's ``Read`` is priced from its columns exactly as its pair
  list is (``charge_scan``), as shipped and with the per-chunk cost
  oracles substituted, and the pooled per-cluster accumulator behaves
  like a fresh one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkData, parse_schema
from repro.cluster import CostParameters, ElasticCluster, GB
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.errors import ChunkError, SchemaError
from repro.query.cost import (
    CostAccumulator,
    accumulator_for,
    charge_scan,
    charge_scan_region,
    charge_scan_routed,
    scan_columns,
)
from tests.oracles import (
    charge_scan_region_scalar,
    charge_scan_routed_scalar,
    charge_scan_scalar,
    chunks_in_region_scan,
    payload_in_region_scan,
    region_scan_columns_scan,
)
from tests.oracles.cost import pair_columns

from test_cluster_machine import lifecycle, replay, run_focused

GRID = Box((0, 0, 0), (10_000, 16, 16))
#: "A" has chunk intervals > 1 (the inverse mapping must divide), "B"
#: has unit intervals (cell space == chunk space).
SCHEMAS = {
    "A": parse_schema("A<v:double>[t=0:*,3, x=0:15,4, y=0:15,2]"),
    "B": parse_schema("B<v:double>[t=0:*,1, x=0:15,1, y=0:15,1]"),
}
#: Valid chunk-key ranges per schema dimension (t capped for tests).
KEY_HI = {"A": (8, 4, 8), "B": (8, 16, 16)}


def _chunk(array, key, size=10.0, value=1.0):
    schema = SCHEMAS[array]
    cell = tuple(
        d.chunk_low(k) for d, k in zip(schema.dimensions, key)
    )
    return ChunkData(
        schema, tuple(key),
        np.array([cell], dtype=np.int64),
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


def _random_key(rng, array):
    his = KEY_HI[array]
    return tuple(int(rng.integers(0, hi)) for hi in his)


def _random_region(rng):
    """Boxes inside, straddling, outside, and degenerate (zero extent)."""
    lo = [int(rng.integers(-6, 36)) for _ in range(3)]
    hi = [l + int(rng.integers(0, 30)) for l in lo]
    return Box(tuple(lo), tuple(hi))


def _oracle(cluster, array, region):
    """The pre-routing walk: one chunk_box().intersects() per chunk."""
    return [
        (chunk, node)
        for chunk, node in cluster.session().chunks_of_array(array)
        if chunk.schema.chunk_box(chunk.key).intersects(region)
    ]


def _assert_region_parity(cluster, array, region):
    expected = [(id(c), n) for c, n in _oracle(cluster, array, region)]
    got = [
        (id(c), n)
        for c, n in cluster.session().chunks_in_region(array, region)
    ]
    assert got == expected
    walked = [
        (id(c), n)
        for c, n in chunks_in_region_scan(cluster, array, region)
    ]
    assert walked == expected


class TestChunkIntervalMath:
    """chunk_intervals_of is the exact inverse of chunk_box."""

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.tuples(*[st.integers(-8, 40)] * 3),
        extent=st.tuples(*[st.integers(0, 30)] * 3),
    )
    def test_membership_matches_box_intersection(self, lo, extent):
        schema = SCHEMAS["A"]
        region = Box(lo, tuple(l + e for l, e in zip(lo, extent)))
        intervals = schema.chunk_intervals_of(region)
        for t in range(4):
            for x in range(4):
                for y in range(8):
                    key = (t, x, y)
                    expected = schema.chunk_box(key).intersects(region)
                    got = intervals is not None and all(
                        intervals[0][d] <= key[d] <= intervals[1][d]
                        for d in range(3)
                    )
                    assert got == expected, (key, region)

    def test_end_clamp_excludes_phantom_tail(self):
        # x=0:15,4 → last chunk 3 covers cells 12..15; a region starting
        # at 16 must miss it even though naive stride math (floor(16/4)
        # = 4 > 3… but floor((16+3)/4)) would admit a clamped-away tail.
        schema = SCHEMAS["A"]
        region = Box((0, 16, 0), (100, 20, 16))
        assert schema.chunk_intervals_of(region) is None

    def test_bounded_dim_last_chunk_clamped_high(self):
        # y=0:15,2 → chunk 7 covers 14..15; region [15, 16) hits it.
        schema = SCHEMAS["A"]
        intervals = schema.chunk_intervals_of(
            Box((0, 0, 15), (1, 16, 16))
        )
        assert intervals is not None
        assert intervals[0][2] == 7 and intervals[1][2] == 7

    def test_empty_region_maps_to_nothing(self):
        schema = SCHEMAS["A"]
        assert schema.chunk_intervals_of(
            Box((0, 0, 0), (0, 16, 16))
        ) is None

    def test_below_domain_maps_to_nothing(self):
        schema = SCHEMAS["A"]
        assert schema.chunk_intervals_of(
            Box((-5, -5, -5), (-1, -1, -1))
        ) is None

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            SCHEMAS["A"].chunk_intervals_of(Box((0, 0), (1, 1)))


class TestRegionRoutingParityProperty:
    """Routing ≡ the box-walk oracle: under the cluster machine's
    mutation rules on drawn boxes, and at the edges — unknown arrays,
    empty and outside regions, arity mismatches."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_interleaved_ops(self, name):
        run_focused(
            name,
            ("ingest", "expire", "scale_out", "route"),
            ("reads_equal_store_walks",),
        )

    def test_unknown_array_is_empty_in_both_modes(self):
        cluster = _make_cluster("round_robin")
        cluster.ingest([_chunk("A", (0, 0, 0))])
        region = Box((0, 0, 0), (10, 10, 10))
        assert list(cluster.session().chunks_in_region("nope", region)) == []
        assert chunks_in_region_scan(cluster, "nope", region) == []

    def test_empty_and_outside_regions(self):
        cluster = _make_cluster("round_robin")
        cluster.ingest(
            [_chunk("A", (t, x, y))
             for t in range(2) for x in range(4) for y in range(4)]
        )
        for region in (
            Box((0, 0, 0), (0, 16, 16)),       # zero extent
            Box((0, 16, 0), (100, 30, 16)),    # above x domain
            Box((0, -9, -9), (100, -1, -1)),   # below x/y domain
            Box((50, 0, 0), (60, 16, 16)),     # beyond observed time
        ):
            _assert_region_parity(cluster, "A", region)
            assert list(cluster.session().chunks_in_region("A", region)) == []

    def test_arity_mismatch_raises_in_both_modes(self):
        cluster = _make_cluster("round_robin")
        cluster.ingest([_chunk("A", (0, 0, 0))])
        with pytest.raises(SchemaError):
            cluster.session().chunks_in_region("A", Box((0, 0), (1, 1)))
        with pytest.raises(ChunkError):
            chunks_in_region_scan(cluster, "A", Box((0, 0), (1, 1)))


class TestAllSchemesRegionRouting:
    """Deterministic lifecycle with rebalances/removals, every scheme."""

    @pytest.mark.parametrize("name", ALL_PARTITIONERS)
    def test_fixed_lifecycle(self, name):
        replay(name, lifecycle(7, cycles=4, size=10, boxes=4),
               ("consistent", "reads_equal_store_walks"))


class TestRegionCostLowering:
    def _loaded_cluster(self):
        rng = np.random.default_rng(11)
        cluster = _make_cluster("round_robin", nodes=3)
        batch = {}
        for _ in range(60):
            key = _random_key(rng, "A")
            batch[key] = _chunk("A", key, float(rng.lognormal(2, 1)))
        cluster.ingest(list(batch.values()))
        return cluster

    def test_columns_match_pair_list_both_modes(self):
        cluster = self._loaded_cluster()
        region = Box((0, 2, 3), (9, 13, 12))
        session = cluster.session()
        read = session.chunks_in_region("A", region)
        ref_sizes, ref_nodes = pair_columns(list(read), ["v"])
        sizes, nodes = scan_columns(read, ["v"])
        assert np.allclose(sizes, ref_sizes)
        assert np.array_equal(nodes, ref_nodes)
        sizes_o, nodes_o = region_scan_columns_scan(
            cluster, "A", region, ["v"]
        )
        assert np.allclose(sizes_o, ref_sizes)
        assert np.array_equal(nodes_o, ref_nodes)

    def test_charge_scan_region_matches_charge_scan(self):
        cluster = self._loaded_cluster()
        region = Box((0, 0, 0), (9, 9, 9))
        costs = cluster.costs
        session = cluster.session()
        for region_charge, pair_charge in (
            (charge_scan_region, charge_scan),
            (charge_scan_region_scalar, charge_scan_scalar),
        ):
            acc_region = CostAccumulator(cluster.node_ids)
            scanned_region = region_charge(
                acc_region, session, "A", region, ["v"], costs, 1.5
            )
            acc_pairs = CostAccumulator(cluster.node_ids)
            scanned_pairs = pair_charge(
                acc_pairs, session.chunks_in_region("A", region),
                ["v"], costs, 1.5,
            )
            assert scanned_region == pytest.approx(scanned_pairs)
            got = acc_region.as_dict()
            ref = acc_pairs.as_dict()
            assert set(got) == set(ref)
            assert all(
                got[n] == pytest.approx(ref[n], rel=1e-12) for n in ref
            )

    def test_region_read_single_pass_matches_two_calls(self):
        # One region Read carries exactly the pairs and the byte, owner
        # and key columns of the routed chunks, from one routing pass.
        cluster = self._loaded_cluster()
        region = Box((0, 1, 1), (9, 14, 14))
        read = cluster.session().chunks_in_region("A", region)
        pairs = list(read)
        assert [read[i] for i in range(len(read))] == pairs
        ref_sizes, ref_nodes = pair_columns(pairs)
        assert np.array_equal(read.sizes, ref_sizes)
        assert np.array_equal(read.nodes, ref_nodes)
        assert read.rows.tolist() == [list(c.key) for c, _ in pairs]
        assert read.schema is SCHEMAS["A"]
        assert not read.sizes.flags.writeable
        assert [
            (id(c), n)
            for c, n in chunks_in_region_scan(cluster, "A", region)
        ] == [(id(c), n) for c, n in pairs]

    def test_charge_scan_routed_matches_charge_scan(self):
        cluster = self._loaded_cluster()
        region = Box((0, 0, 0), (9, 12, 12))
        costs = cluster.costs
        read = cluster.session().chunks_in_region("A", region)
        cols = (read.sizes, read.nodes, read.schema)
        for routed_charge, pair_charge in (
            (charge_scan_routed, charge_scan),
            (charge_scan_routed, charge_scan_scalar),
            (charge_scan_routed_scalar, charge_scan_scalar),
        ):
            acc_routed = CostAccumulator(cluster.node_ids)
            scanned_routed = routed_charge(
                acc_routed, read, cols, ["v"], costs, 1.5
            )
            acc_pairs = CostAccumulator(cluster.node_ids)
            scanned_pairs = pair_charge(
                acc_pairs, read, ["v"], costs, 1.5
            )
            assert scanned_routed == pytest.approx(scanned_pairs)
            got = acc_routed.as_dict()
            ref = acc_pairs.as_dict()
            assert set(got) == set(ref)
            assert all(
                got[n] == pytest.approx(ref[n], rel=1e-12)
                for n in ref
            )

    def test_payload_in_region_matches_scan_oracle(self):
        cluster = self._loaded_cluster()
        rng = np.random.default_rng(23)
        for _ in range(12):
            region = _random_region(rng)
            coords, values = cluster.session().payload_in_region(
                "A", region, ["v"], ndim=3
            )
            oracle_coords, oracle_values = payload_in_region_scan(
                cluster, "A", region, ["v"], ndim=3
            )
            assert np.array_equal(coords, oracle_coords)
            assert np.array_equal(values["v"], oracle_values["v"])
            # every returned cell is inside the half-open region, and
            # the clip agrees with a manual mask over the routed pairs
            if coords.shape[0]:
                for d in range(3):
                    assert (coords[:, d] >= region.lo[d]).all()
                    assert (coords[:, d] < region.hi[d]).all()

    def test_payload_in_region_cache_hit_between_mutations(self):
        cluster = self._loaded_cluster()
        region = Box((0, 2, 2), (9, 12, 12))
        misses_before = cluster.catalog.payload_misses
        first = cluster.session().payload_in_region("A", region, ["v"], ndim=3)
        assert cluster.catalog.payload_misses == misses_before + 1
        hits_before = cluster.catalog.payload_hits
        again = cluster.session().payload_in_region("A", region, ["v"], ndim=3)
        assert cluster.catalog.payload_hits == hits_before + 1
        assert first[0] is again[0]          # cached objects, not copies
        assert first[1]["v"] is again[1]["v"]

    def test_payload_in_region_invalidated_by_content_mutation(self):
        cluster = self._loaded_cluster()
        region = Box((0, 0, 0), (9, 16, 16))
        first = cluster.session().payload_in_region("A", region, ["v"], ndim=3)
        taken = {c.key for c, _ in cluster.session().chunks_of_array("A")}
        key = next(
            (t, x, y)
            for t in range(3) for x in range(4) for y in range(5)
            if (t, x, y) not in taken
        )  # a fresh chunk whose chunk-low cell lands inside the region
        cluster.ingest([_chunk("A", key, 5.0, value=9.0)])
        after = cluster.session().payload_in_region("A", region, ["v"], ndim=3)
        assert after[0] is not first[0]      # epoch bump → fresh gather
        assert after[0].shape[0] == first[0].shape[0] + 1

    def test_payload_in_region_survives_pure_relocation(self):
        cluster = self._loaded_cluster()
        region = Box((0, 0, 0), (9, 16, 16))
        first = cluster.session().payload_in_region("A", region, ["v"], ndim=3)
        cluster.scale_out(1)                 # relocation only: payloads
        after = cluster.session().payload_in_region("A", region, ["v"], ndim=3)
        assert after[0] is first[0]          # cache keyed on payload epoch
        assert after[1]["v"] is first[1]["v"]

    def test_accumulator_pool_tracks_scale_out(self):
        cluster = self._loaded_cluster()
        cluster.scale_out(1)
        grown = accumulator_for(cluster)
        new_node = max(cluster.node_ids)
        grown.add_one(new_node, 1.0)  # knows the new node
        assert grown.as_dict() == {new_node: 1.0}
