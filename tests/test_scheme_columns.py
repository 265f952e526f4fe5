"""Scheme columns and batch expiry ≡ the dict ledger and scalar placement.

The chunk table keeps every per-chunk fact as a column: the schemes'
curve positions, stable hashes and arrival ordinals included, interned
by the batch's key rows.  The property drives every registered scheme
through interleaved batch ingest (with duplicates and known refs), batch
expiry, scale-out and compaction on three twins:

* the array table, placing and expiring whole batches;
* the dict ledger (``tests/oracles/ledger.py``) under the same batches,
  which must agree on owners, sizes, plans and — with ``==`` — on the
  node loads and the running total;
* one-chunk-at-a-time placement and removal
  (:func:`tests.oracles.place_scalar`), which must agree on owners,
  sizes and plans (loads up to the batch contract's reassociation).

Also here: adoption rebuilds the scheme columns from the recorded
placements, the row-wise stable hash equals the per-chunk byte payload's
digest, ``ElasticCluster.remove_chunks`` refuses a non-ref item, and the
sort-based :func:`repro.arrays.coords.distinct` equals ``np.unique``.
"""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import Box, ChunkData, ChunkRef, parse_schema
from repro.arrays.coords import distinct
from repro.cluster import ElasticCluster, GB
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.core.hashing import hash_chunk_ref, hash_chunk_rows
from repro.errors import ClusterError
from tests.oracles import DictChunkLedger, Move, place_scalar

GRID = Box((0, 0, 0), (32, 8, 8))


def _make(name, ledger=None):
    p = make_partitioner(name, [0, 1], grid=GRID, node_capacity_bytes=2e3)
    if ledger is not None:  # empty-ledger swap on a fresh partitioner
        p._ledger = ledger(p.nodes)
    return p


def _batch(rng, live, n):
    """``n`` items over two arrays: fresh keys, in-batch duplicates and
    refs placed earlier."""
    items = []
    for _ in range(n):
        if live and rng.random() < 0.2:
            ref = live[int(rng.integers(len(live)))]
        elif items and rng.random() < 0.15:
            ref = items[int(rng.integers(len(items)))][0]
        else:
            ref = ChunkRef("ab"[int(rng.integers(2))], tuple(
                int(rng.integers(0, e)) for e in (40, 8, 8)
            ))
        items.append((ref, float(rng.lognormal(3, 1))))
    return items


def _state(p):
    refs = sorted(p.assignment(), key=lambda r: (r.array, r.key))
    return (
        [(r, p.locate(r), p.size_of(r)) for r in refs],
        p.node_loads(), p.total_bytes,
    )


def _moves(plan):
    return [(m.ref, m.source, m.dest, m.size_bytes) for m in Move.rows(plan)]


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    script=st.lists(
        st.sampled_from(["ingest", "ingest", "expire", "grow", "compact"]),
        min_size=3, max_size=12,
    ),
)
def test_columns_match_oracles(name, seed, script):
    rng = np.random.default_rng(seed)
    arr, dic, seq = _make(name), _make(name, DictChunkLedger), _make(
        name, DictChunkLedger
    )
    next_node = 2
    for op in ["ingest"] + script:
        live = sorted(dic.assignment(), key=lambda r: (r.array, r.key))
        if op == "ingest":
            items = _batch(rng, live, int(rng.integers(1, 40)))
            refs, sizes = [r for r, _ in items], [s for _, s in items]
            got = arr.table.owners(arr.place_batch(refs, sizes)).tolist()
            assert got == dic.table.owners(dic.place_batch(refs, sizes)).tolist()
            assert got == [place_scalar(seq, r, s) for r, s in items]
        elif op == "expire" and live:
            picks = rng.permutation(len(live))[: int(rng.integers(1, 8))]
            gone = [live[i] for i in picks]
            owners = np.atleast_1d(arr.remove(*gone)).tolist()
            assert owners == np.atleast_1d(dic.remove(*gone)).tolist()
            assert owners == [seq.remove(r) for r in gone]
        elif op == "grow":
            plan = arr.scale_out([next_node])
            assert _moves(plan) == _moves(dic.scale_out([next_node]))
            assert _moves(plan) == _moves(seq.scale_out([next_node]))
            next_node += 1
        elif op == "compact":
            arr.compact_ledger(0.0)
        (rows, loads, total) = _state(arr)
        assert (rows, loads, total) == _state(dic)  # ==, not approx
        seq_rows, seq_loads, seq_total = _state(seq)
        assert rows == seq_rows
        assert loads == pytest.approx(seq_loads, rel=1e-12)
        assert total == pytest.approx(seq_total, rel=1e-12)


#: Each column scheme's column, as its recorded placements imply it.
EXPECTED_COLUMNS = {
    "hilbert_curve": ("position", lambda p, refs: [
        p.curve_index(r) for r in refs
    ]),
    "consistent_hash": ("hash", lambda p, refs: [
        hash_chunk_ref(r) for r in refs
    ]),
    "extendible_hash": ("hash", lambda p, refs: [
        hash_chunk_ref(r) for r in refs
    ]),
    "round_robin": ("ordinal", lambda p, refs: list(range(len(refs)))),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_COLUMNS))
def test_adoption_rebuilds_scheme_columns(name):
    rng = np.random.default_rng(4)
    placed = _make(name)
    items = _batch(rng, [], 60)
    placed.place_batch([r for r, _ in items], [s for _, s in items])
    placed.scale_out([2])
    refs = sorted(placed.assignment(), key=lambda r: (r.array, r.key))[::-1]
    entries = [(r, placed.size_of(r), placed.locate(r)) for r in refs]
    revived = make_partitioner(
        name, [0, 1, 2], grid=GRID, node_capacity_bytes=2e3
    )
    revived.adopt_batch(entries)
    column, expect = EXPECTED_COLUMNS[name]
    table = revived.table
    ids = table.ids_of(refs)
    assert table.column_at(column, ids).tolist() == expect(revived, refs)
    assert [revived.locate(r) for r in refs] == [n for _, _, n in entries]
    revived.scale_out([3])  # plans from the rebuilt columns
    assert revived.chunk_count == len(refs)


def test_exact_path_matches_dict_ledger():
    """Keys of mixed arity or beyond int64 switch the table to its exact
    path mid-run; interning, expiry, compaction and scale-out agree."""
    square = [(ChunkRef("a", (i, i % 3, 1)), 1.5 + i) for i in range(12)]
    odd = [
        (ChunkRef("b", (4,)), 2.0), (ChunkRef("a", (2**70, 0, 0)), 3.0),
        square[2], (ChunkRef("b", (4,)), 0.5), (ChunkRef("a", (99, 0, 0)), 1.0),
    ]
    twins = [make_partitioner("round_robin", [0, 1]) for _ in range(2)]
    twins[1]._ledger = DictChunkLedger(twins[1].nodes)
    for p in twins:
        p.place_batch(*zip(*square))
        assert getattr(p.table, "_keys_ok", True)  # still packed keys
        p.place_batch(*zip(*odd))
        p.remove(square[0][0], odd[1][0])
        p.compact_ledger(0.0)
        p.place_batch(*zip(*(square[:3] + odd[:2])))
    arr, dic = twins
    assert not arr.table._keys_ok
    assert _state(arr) == _state(dic)
    assert _moves(arr.scale_out([2])) == _moves(dic.scale_out([2]))
    assert _state(arr) == _state(dic)


@pytest.mark.parametrize("width", [0, 1, 3])
def test_hash_rows_equal_the_payload_digest(width):
    """Row ``i`` hashes the blake2b digest of its array's UTF-8 name, a
    zero byte and its big-endian int64 key, as one ref at a time did."""
    rng = np.random.default_rng(width)
    names = ["band1", "vessél", ""]
    codes = rng.integers(0, 3, 200)
    keys = rng.integers(-(2**63), 2**63 - 1, size=(200, width))
    want = [
        int.from_bytes(hashlib.blake2b(
            names[c].encode("utf-8") + b"\x00"
            + struct.pack(f">{width}q", *k), digest_size=8,
        ).digest(), "big")
        for c, k in zip(codes.tolist(), keys.tolist())
    ]
    assert hash_chunk_rows(names, codes, keys).tolist() == want
    refs = [ChunkRef(names[c], k) for c, k in zip(codes, keys.tolist())]
    assert [hash_chunk_ref(r) for r in refs[:20]] == want[:20]


SCHEMA = parse_schema("A<v:double>[t=0:*,1, x=0:7,1, y=0:7,1]")


def test_remove_chunks_refuses_a_non_ref_item():
    cluster = ElasticCluster(
        make_partitioner("round_robin", [0, 1]), node_capacity_bytes=GB,
    )
    chunk = ChunkData(
        SCHEMA, (0, 0, 0), np.zeros((1, 3), dtype=np.int64),
        {"v": np.zeros(1)},
    )
    cluster.ingest([chunk])
    for refs, bad in (("abc", "'a'"), ([chunk.ref(), None], "None")):
        with pytest.raises(ClusterError, match=f"refs .*{bad}"):
            cluster.remove_chunks(refs)
    assert cluster.partitioner.chunk_count == 1  # nothing was touched
    cluster.check_consistency()


@pytest.mark.parametrize("values", [
    np.array([3, 1, 3, 2, 1, -7, 2**62]), np.arange(0), np.ones(5, np.int64),
    np.random.default_rng(1).integers(0, 50, 4000),
])
def test_distinct_equals_unique(values):
    assert np.array_equal(distinct(values), np.unique(values))
