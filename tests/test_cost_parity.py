"""The column cost model must agree with the per-chunk walk it replaced.

The ISSUE-3 regression contract: the column-shaped cost model
(:class:`CostAccumulator` + ``np.bincount``/``np.add.at`` kernels) must
reproduce the per-chunk dict accounting in ``tests/oracles/cost.py`` —
unit-level against each ``*_scalar`` oracle on randomized layouts, and
end-to-end by running all six figure-benchmark queries of each workload
once as shipped and once with every charge substituted by its oracle
(the ``oracles`` fixture), comparing per-node busy-seconds, elapsed
times, byte totals, and the computed answers.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.arrays import ChunkData, parse_schema
from repro.errors import QueryError
from repro.harness.runner import ExperimentRunner, RunConfig
from repro.query import AisKnn, ais_suite, modis_suite
from repro.query.cost import (
    CostAccumulator,
    add_scan_work,
    attr_fraction,
    charge_network,
    charge_scan,
    charge_scan_array,
    charge_scan_delta,
    charge_scan_region,
    charge_scan_routed,
    colocation_shuffle_bytes,
    halo_shuffle_bytes,
    neighbor_pairs,
    node_byte_sums,
    scan_columns,
)
from repro.cluster.costs import CostParameters
from repro.core.catalog import Read
from tests.helpers import read_of
from tests.oracles import (
    account_samples_scalar,
    add_network_work_scalar,
    add_scan_work_scalar,
    colocation_shuffle_bytes_scalar,
    halo_shuffle_bytes_scalar,
    spatial_neighbors,
)
from tests.oracles.cost import add_mapping

SCHEMA = parse_schema(
    "G<a:double, b:int32, c:int64>[t=0:*,1, x=0:99,1, y=0:99,1]"
)
FAR_SCHEMA = parse_schema(
    "F<a:double, b:int32, c:int64>[t=0:*,1, x=0:*,1, y=0:*,1]"
)
COSTS = CostParameters()
#: Every charge a query makes: substituting all of them runs the query
#: through the per-chunk walk end to end.
SCALAR_COST = (
    charge_scan,
    charge_scan_array,
    charge_scan_region,
    charge_scan_routed,
    charge_scan_delta,
    charge_network,
    halo_shuffle_bytes,
    colocation_shuffle_bytes,
    AisKnn._account_samples,
)


def _layout(n, seed, nodes=4):
    """Random (chunk, node) pairs with unique 3-d keys and skewed sizes."""
    rng = np.random.default_rng(seed)
    seen = set()
    out = []
    while len(out) < n:
        key = (
            int(rng.integers(0, 6)),
            int(rng.integers(0, 8)),
            int(rng.integers(0, 8)),
        )
        if key in seen:
            continue
        seen.add(key)
        coords = np.array([[key[0], key[1], key[2]]], dtype=np.int64)
        chunk = ChunkData(
            SCHEMA, key, coords,
            {
                "a": np.array([1.0]),
                "b": np.array([1], dtype=np.int32),
                "c": np.array([1], dtype=np.int64),
            },
            size_bytes=float(rng.lognormal(18, 1.5)),
        )
        out.append((chunk, int(rng.integers(0, nodes))))
    return out


def _read(layout):
    """A :class:`Read` of ``(chunk, node)`` pairs, in their order."""
    return read_of([c for c, _ in layout], [n for _, n in layout])


def _far_chunk(key, size):
    """A chunk whose key sits in one of two clusters 2**40 apart."""
    far = 2**40 * (key[0] % 2)
    key = (key[0], key[1] + far, key[2] + far)
    return ChunkData(
        FAR_SCHEMA, key, np.array([key], dtype=np.int64),
        {
            "a": np.array([1.0]),
            "b": np.array([1], dtype=np.int32),
            "c": np.array([1], dtype=np.int64),
        },
        size_bytes=size,
    )


class TestCostAccumulator:
    def test_unknown_node_rejected(self):
        acc = CostAccumulator([0, 2, 5])
        with pytest.raises(QueryError):
            acc.add(np.array([0, 3]), np.array([1.0, 1.0]))
        with pytest.raises(QueryError):
            acc.add_one(1, 1.0)

    def test_as_dict_drops_zero_nodes(self):
        acc = CostAccumulator([0, 1, 2])
        acc.add_one(1, 3.5)
        assert acc.as_dict() == {1: 3.5}
        assert acc.max_seconds() == 3.5

    def test_duplicate_nodes_accumulate(self):
        acc = CostAccumulator([7, 9])
        acc.add(np.array([9, 9, 7]), np.array([1.0, 2.0, 4.0]))
        assert acc.as_dict() == {7: 4.0, 9: 3.0}

    def test_add_mapping_matches_add(self):
        a = CostAccumulator([0, 1])
        b = CostAccumulator([0, 1])
        a.add(np.array([0, 1, 0]), np.array([1.0, 2.0, 3.0]))
        add_mapping(b, {0: 1.0})
        add_mapping(b, {1: 2.0, 0: 3.0})
        assert a.as_dict() == pytest.approx(b.as_dict())

    def test_empty_accumulator(self):
        acc = CostAccumulator([])
        assert acc.max_seconds() == 0.0
        assert acc.as_dict() == {}


class TestScanParity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "attrs", [None, ["a"], ["a", "c"], ["a", "b", "c"]]
    )
    def test_matches_scalar(self, seed, attrs):
        layout = _layout(60, seed)
        acc = CostAccumulator(range(4))
        sizes, nodes = scan_columns(_read(layout), attrs)
        scanned = add_scan_work(acc, sizes, nodes, COSTS, 1.7)
        per_node = {}
        ref_scanned = add_scan_work_scalar(
            per_node, layout, attrs, COSTS, 1.7
        )
        assert scanned == pytest.approx(ref_scanned, rel=1e-12)
        assert acc.as_dict() == pytest.approx(per_node, rel=1e-12)

    def test_attr_fraction_matches_bytes_for(self):
        chunk, _ = _layout(1, 9)[0]
        for attrs in (["a"], ["b", "c"], ["a", "b", "c"]):
            assert chunk.size_bytes * attr_fraction(
                SCHEMA, attrs
            ) == pytest.approx(chunk.bytes_for(attrs), rel=1e-12)

    def test_unknown_attr_rejected(self):
        with pytest.raises(QueryError):
            attr_fraction(SCHEMA, ["nope"])

    def test_empty_layout(self):
        acc = CostAccumulator(range(2))
        sizes, nodes = scan_columns(read_of([]), ["a"])
        assert add_scan_work(acc, sizes, nodes, COSTS, 1.0) == 0.0
        assert acc.as_dict() == {}


class TestNetworkParity:
    def test_matches_scalar(self):
        wire = {0: 3e9, 2: 1.5e9, 3: 7e8}
        acc = CostAccumulator(range(4))
        total = charge_network(acc, wire, COSTS)
        per_node = {}
        ref_total = add_network_work_scalar(per_node, wire, COSTS)
        assert total == pytest.approx(ref_total, rel=1e-12)
        assert acc.as_dict() == pytest.approx(per_node, rel=1e-12)

    def test_node_byte_sums_matches_manual(self):
        layout = _layout(40, 4)
        sums = node_byte_sums(_read(layout), ["a"], fraction=0.01)
        manual = {}
        for chunk, node in layout:
            manual[node] = (
                manual.get(node, 0.0) + chunk.bytes_for(["a"]) * 0.01
            )
        manual = {n: v for n, v in manual.items() if v > 0}
        assert set(sums) == set(manual)
        for node, v in manual.items():
            assert sums[node] == pytest.approx(v, rel=1e-9)


class TestNeighborPairs:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_spatial_neighbors(self, seed):
        layout = _layout(50, seed)
        keys = np.array([c.key for c, _ in layout], dtype=np.int64)
        by_key = {tuple(k): i for i, k in enumerate(keys.tolist())}
        src, dst = neighbor_pairs(keys, (1, 2))
        got = set(zip(src.tolist(), dst.tolist()))
        expected = set()
        for i, (chunk, _) in enumerate(layout):
            for nkey in spatial_neighbors(chunk.key, (1, 2)):
                j = by_key.get(nkey)
                if j is not None:
                    expected.add((i, j))
        assert got == expected

    def test_empty(self):
        src, dst = neighbor_pairs(np.empty((0, 3), dtype=np.int64), (1, 2))
        assert src.size == 0 and dst.size == 0

    def test_unpackable_extent_uses_void_keys(self):
        # 2**40 apart on three axes: no int64 packing, same answer.
        far = 2**40
        keys = np.array(
            [[0, 0, 0], [0, 1, 1], [far, far, far], [far, far + 1, far]],
            dtype=np.int64,
        )
        src, dst = neighbor_pairs(keys, (0, 1, 2))
        assert sorted(zip(src.tolist(), dst.tolist())) == [
            (0, 1), (1, 0), (2, 3), (3, 2),
        ]

    def test_step_off_the_int64_range_finds_no_neighbour(self):
        # A wrapped step must not pair the two ends of the range.
        top, bottom = 2**63 - 1, -(2**63)
        keys = np.array([[top, 0], [bottom, 0]], dtype=np.int64)
        src, dst = neighbor_pairs(keys, (0, 1))
        assert src.size == 0 and dst.size == 0


class TestHaloParity:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("attrs", [None, ["a", "b"]])
    def test_matches_scalar(self, seed, attrs):
        layout = _layout(70, seed)
        wire = halo_shuffle_bytes(_read(layout), attrs, (1, 2), 0.5)
        ref = halo_shuffle_bytes_scalar(layout, attrs, (1, 2), 0.5)
        assert set(wire) == set(ref)
        for node, v in ref.items():
            assert wire[node] == pytest.approx(v, rel=1e-9)

    def test_co_located_is_free(self):
        read = read_of([c for c, _ in _layout(30, 14)])
        assert halo_shuffle_bytes(read, None, (1, 2)) == {}

    def test_matches_scalar_on_unpackable_extent(self):
        # Chunk keys 2**40 apart defeat int64 packing; the void-key arm
        # must charge exactly what the per-chunk walk charges.
        layout = [
            (_far_chunk(c.key, c.size_bytes), node)
            for c, node in _layout(40, 15)
        ]
        wire = halo_shuffle_bytes(_read(layout), ["a"], (1, 2), 0.5)
        ref = halo_shuffle_bytes_scalar(layout, ["a"], (1, 2), 0.5)
        assert ref  # the layout does have cross-node neighbours
        assert set(wire) == set(ref)
        for node, v in ref.items():
            assert wire[node] == pytest.approx(v, rel=1e-9)


class TestColocationParity:
    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize("attrs", [None, ["a"]])
    def test_matches_scalar(self, seed, attrs):
        a = _layout(40, seed)
        b = _layout(40, seed + 100)
        wire = colocation_shuffle_bytes(
            _read(a), _read(b), attrs_small=attrs
        )
        ref = colocation_shuffle_bytes_scalar(a, b, attrs_small=attrs)
        assert set(wire) == set(ref)
        for node, v in ref.items():
            assert wire[node] == pytest.approx(v, rel=1e-9)

    def test_co_located_pairs_free(self):
        side = read_of([c for c, _ in _layout(5, 30)], [1] * 5)
        assert colocation_shuffle_bytes(side, side) == {}


class TestKnnAccountingParity:
    def test_matches_scalar_on_unpackable_extent(self, small_ais):
        # The kNN sample bookkeeping on chunk keys 2**40 apart: same
        # charges, same wire bytes, same rng draws and the same sampled
        # neighbourhoods as the per-sample loop.
        layout = sorted(
            (
                (_far_chunk(c.key, c.size_bytes), n)
                for c, n in _layout(60, 16)
            ),
            key=lambda pair: pair[0].key,
        )
        chunks = np.empty(len(layout), dtype=object)
        chunks[:] = [c for c, _ in layout]
        read = Read(
            chunks,
            np.array([c.size_bytes for c, _ in layout]),
            np.array([n for _, n in layout], dtype=np.int64),
            FAR_SCHEMA,
            np.array([c.key for c, _ in layout], dtype=np.int64),
        )
        cells = np.array([c.cell_count for c, _ in layout], dtype=np.int64)
        sampled = np.random.default_rng(3).choice(len(read), size=40)
        query = AisKnn(small_ais)
        session = SimpleNamespace(costs=COSTS)
        outcomes = []
        for account in (AisKnn._account_samples, account_samples_scalar):
            acc = CostAccumulator(range(4))
            wire, queries_by_key, key_order, members = account(
                query, acc, session, read, cells, sampled,
                np.random.default_rng(4),
            )
            outcomes.append(
                (acc.as_dict(), wire, queries_by_key, key_order, members)
            )
        (busy, wire, queries, order, members), ref = outcomes
        ref_busy, ref_wire, ref_queries, ref_order, ref_members = ref
        assert [queries, order] == [ref_queries, ref_order]
        assert ref_wire  # remote neighbours exist, so dispatch is charged
        assert wire == pytest.approx(ref_wire, rel=1e-9)
        assert busy == pytest.approx(ref_busy, rel=1e-9)
        assert len(set(ref_members[0].tolist())) > 1
        for got, want in zip(members, ref_members):
            assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# end-to-end: the six figure-benchmark queries of each workload
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def modis_cluster(small_modis):
    runner = ExperimentRunner(
        small_modis, RunConfig(partitioner="hilbert_curve"), queries=()
    )
    runner.run()
    return runner.cluster


@pytest.fixture(scope="module")
def ais_cluster(small_ais):
    runner = ExperimentRunner(
        small_ais, RunConfig(partitioner="kd_tree"), queries=()
    )
    runner.run()
    return runner.cluster


def _assert_results_agree(batch, scalar, query_name):
    assert set(batch.per_node_seconds) == set(scalar.per_node_seconds), (
        query_name
    )
    for node, seconds in scalar.per_node_seconds.items():
        assert batch.per_node_seconds[node] == pytest.approx(
            seconds, rel=1e-9, abs=1e-12
        ), (query_name, node)
    assert batch.elapsed_seconds == pytest.approx(
        scalar.elapsed_seconds, rel=1e-9
    ), query_name
    assert batch.network_bytes == pytest.approx(
        scalar.network_bytes, rel=1e-9, abs=1e-6
    ), query_name
    assert batch.scanned_bytes == pytest.approx(
        scalar.scanned_bytes, rel=1e-9, abs=1e-6
    ), query_name


class TestFigureBenchmarkParity:
    """All six queries per workload agree between the two cost paths."""

    def test_modis_suite(self, small_modis, modis_cluster, oracles):
        cycle = small_modis.n_cycles
        for query in modis_suite(small_modis):
            batch = query.run(modis_cluster.session(), cycle)
            with oracles(*SCALAR_COST):
                scalar = query.run(modis_cluster.session(), cycle)
            _assert_results_agree(batch, scalar, query.name)

    def test_ais_suite(self, small_ais, ais_cluster, oracles):
        cycle = small_ais.n_cycles
        for query in ais_suite(small_ais):
            batch = query.run(ais_cluster.session(), cycle)
            with oracles(*SCALAR_COST):
                scalar = query.run(ais_cluster.session(), cycle)
            _assert_results_agree(batch, scalar, query.name)
            # Deterministic sampling: the computed answers are identical
            # (the rng stream must not depend on the cost path).
            assert batch.value == scalar.value, query.name

    def test_knn_per_node_includes_dispatch(
        self, small_ais, ais_cluster, oracles
    ):
        # The kNN query's batch bookkeeping must charge the same owners
        # the per-sample oracle charges, at every intermediate cycle.
        query = ais_suite(small_ais)[4]
        assert query.name == "knn"
        for cycle in range(2, small_ais.n_cycles + 1):
            batch = query.run(ais_cluster.session(), cycle)
            with oracles(*SCALAR_COST):
                scalar = query.run(ais_cluster.session(), cycle)
            _assert_results_agree(batch, scalar, f"knn@{cycle}")
