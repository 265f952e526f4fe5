"""One cluster state machine over both stores.

A :class:`hypothesis.stateful.RuleBasedStateMachine` drives two
:class:`~repro.cluster.ElasticCluster` twins of one partitioning scheme
in lockstep with identical inputs: an all-in-memory twin
(``storage=None``) and a tiered twin whose per-node memory budget is
drawn at initialization from {0, 15, 60} bytes, so its payloads spill
and fault throughout.

Rules: ``ingest`` (arrays A and B — A with multi-cell chunk intervals —
with in-batch duplicate refs and re-ingests of live refs), ``expire``,
``scale_out``, ``compact`` (the catalog's and the partitioner's),
``pin`` / ``release`` of a session pinned on both arrays,
``refresh_views`` (a grid-statistics view with extrema and a position
join), ``read_twice``, ``route`` (draws a region box) and
``advance_cursor`` (moves the machine's own declared delta cursor to
the current payload epochs, so the logs fold under every other step).
Initialization declares that cursor at 0, ingests a first batch, opens
one pin and primes the views, so later mutations land under an open pin
and a primed delta cursor.

After every step, on both twins:

* ``check_consistency`` and the one-table contract
  (``test_chunk_table._assert_one_table``), plus the model's live set;
* memory ≡ tier per array — ref, node, size and payload bytes — and
  region payloads;
* session reads ≡ the store walks of ``tests/oracles/cluster.py``, and
  region routing ≡ ``chunks_in_region_scan`` on the drawn boxes;
* an explicit ``deltas_since`` replay from the declared cursor, over
  the live set recorded there, equals the live set;
* fresh maintained views ≡ their ``recompute()`` (Liu: an incremental
  program is correct iff it equals the from-scratch one);
* every open pin reads its captured fingerprint after the payload
  cache is dropped;
* tier residency ≤ budget.

The machine runs once per registered scheme, derandomized under the
tier-1 hypothesis profile and free under ``--hypothesis-profile=search``.
Each contract's own test module also runs it on a subset of rules and
invariants (:func:`run_focused`) and drives fixed lifecycles through it
(:func:`lifecycle`, :func:`replay`).
"""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.arrays import Box, ChunkData, parse_schema
from repro.cluster import CostParameters, ElasticCluster, GB, TieredStorage
from repro.core import ALL_PARTITIONERS, make_partitioner
from repro.query.cost import scan_columns
from repro.query.incremental import MaintainedJoin, position_side
from tests.oracles import (
    array_scan_columns_scan,
    chunk_data_scan,
    chunks_in_region_scan,
    chunks_of_array_scan,
)

from test_chunk_table import _assert_one_table
from test_incremental import (
    _assert_grid_parity,
    _assert_join_parity,
    _grid_view,
)
from test_snapshot import (
    GRID,
    KEY_HI,
    REGIONS,
    _drop_cached_payloads,
    _fingerprint,
    _StoreWalk,
)

ARRAYS = ("A", "B")
#: A has multi-cell chunk intervals, so routing divides; B has unit
#: intervals and carries every payload dtype the workloads store.
SCHEMAS = {
    "A": parse_schema("A<v:double>[t=0:*,3, x=0:15,4, y=0:15,2]"),
    "B": parse_schema(
        "B<v:double, n:int32, tag:string>[t=0:*,1, x=0:15,1, y=0:15,1]"
    ),
}

#: ``(array, key seed, cells, payload seed, size)``; the key seed folds
#: into the array's key range, so both arrays share one strategy.
SPECS = st.tuples(
    st.sampled_from(ARRAYS),
    st.tuples(st.integers(0, 7), st.integers(0, 15), st.integers(0, 15)),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.integers(1, 60),
)
#: Boxes inside, straddling and outside the domain, and empty ones.
BOXES = st.builds(
    lambda lo, extent: Box(lo, tuple(a + b for a, b in zip(lo, extent))),
    st.tuples(*[st.integers(-6, 35)] * 3),
    st.tuples(*[st.integers(0, 29)] * 3),
)
#: The pinned reads' regions: one inside, one straddling the domain.
PIN_REGIONS = REGIONS[:2]
PICKS = st.lists(st.integers(0, 2**16), min_size=1, max_size=6)


def _ref_of(spec):
    array, seeds = spec[0], spec[1]
    return array, tuple(s % hi for s, hi in zip(seeds, KEY_HI[array]))


def _build(spec):
    """A fresh chunk for ``spec``: equal specs give equal bytes."""
    array, key = _ref_of(spec)
    cells, seed, size = spec[2:]
    schema = SCHEMAS[array]
    box = schema.chunk_box(key)
    rng = np.random.default_rng(seed)
    coords = np.stack(
        [rng.integers(lo, hi, cells) for lo, hi in zip(box.lo, box.hi)],
        axis=1,
    ).astype(np.int64)
    attrs = {"v": rng.normal(0, 10, cells)}
    if array == "B":
        attrs["n"] = rng.integers(0, 100, cells).astype(np.int32)
        attrs["tag"] = np.array(
            [f"ship-{i}" for i in rng.integers(0, 50, cells)], dtype=object
        )
    return ChunkData(schema, key, coords, attrs, size_bytes=float(size))


def _stored(cluster, array):
    """``(ref, node, size, coords, columns)`` per chunk, from the session."""
    out = []
    for chunk, node in cluster.session().chunks_of_array(array):
        coords, cols = chunk.payload_parts()
        out.append((
            chunk.ref(), node, chunk.size_bytes, coords.tobytes(),
            [(a, cols[a].dtype.str, cols[a].tolist()) for a in sorted(cols)],
        ))
    return out


def _ids(pairs):
    """A pair list by payload identity: the same handles, owners, order."""
    return [(id(chunk), node) for chunk, node in pairs]


def _region_bytes(cluster, array, region):
    coords, values = cluster.session().payload_in_region(
        array, region, ["v"], 3
    )
    return coords.tobytes(), values["v"].tobytes()


class ClusterMachine(RuleBasedStateMachine):
    """Memory and tiered twins of one scheme, mutated in lockstep."""

    def __init__(self, scheme):
        super().__init__()
        self.scheme = scheme

    def _cluster(self, storage):
        partitioner = make_partitioner(
            self.scheme, [0, 1], grid=GRID, node_capacity_bytes=1000 * GB,
        )
        return ElasticCluster(
            partitioner, 1000 * GB, costs=CostParameters(),
            ledger_compact_ratio=0.5, storage=storage,
        )

    @initialize(
        budget=st.sampled_from([0.0, 15.0, 60.0]),
        specs=st.lists(SPECS, min_size=8, max_size=16),
    )
    def build(self, budget, specs):
        self.root = tempfile.mkdtemp(prefix="cluster-machine-")
        self.budget = budget
        self.twins = (
            self._cluster(None),
            self._cluster(TieredStorage(self.root, budget)),
        )
        self.views = [
            (
                _grid_view(cluster),
                MaintainedJoin(
                    cluster, position_side("A", "v"),
                    position_side("B", "v"), ndim=3,
                ),
            )
            for cluster in self.twins
        ]
        self.views_fresh = False
        # The replay cursor: declared before the first ingest, with the
        # live refs per array at it.
        self.replay_cursors = [
            cluster.catalog.declare(ARRAYS, [0] * len(ARRAYS))
            for cluster in self.twins
        ]
        self.replay_bases = [
            {array: set() for array in ARRAYS} for _ in self.twins
        ]
        self.live = set()
        self.pins = []
        self.regions = list(REGIONS[1:])
        self.reorganized = False
        self.ingest(specs, [], [])
        self.pin()
        self.refresh_views()

    def teardown(self):
        root = getattr(self, "root", None)
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)

    def _live(self):
        return sorted(self.live, key=lambda r: (r.array, r.key))

    def _epochs(self):
        return [
            {a: c.catalog.epoch_of(a) for a in ARRAYS} for c in self.twins
        ]

    def _content_changed(self, before, arrays):
        """Epochs of the touched arrays moved; views went stale."""
        for epochs, after in zip(before, self._epochs()):
            for array in arrays:
                assert after[array] > epochs[array]
        self.views_fresh = False
        self.reorganized = False

    # -- rules ---------------------------------------------------------
    @rule(
        specs=st.lists(SPECS, min_size=1, max_size=10),
        dups=st.lists(st.tuples(st.integers(0, 9), st.booleans()),
                      max_size=2),
        again=st.lists(st.tuples(st.integers(0, 2**16),
                                 st.integers(0, 2**16)), max_size=3),
    )
    def ingest(self, specs, dups, again):
        live = self._live()
        # fresh payloads for live refs merge onto the published chunks
        merges = [(live[i % len(live)], seed) for i, seed in again] if live else []
        specs = [*specs, *((r.array, r.key, 2, seed, 7) for r, seed in merges)]
        batches = []
        for _ in self.twins:
            batch = [_build(s) for s in specs]
            for i, same in dups:
                # the same object twice, or a second payload for the ref
                i %= len(specs)
                array, key, *_ = specs[i]
                batch.append(
                    batch[i] if same else _build((array, key, 1, i, 3))
                )
            batches.append(batch)
        before = self._epochs()
        for cluster, batch in zip(self.twins, batches):
            cluster.ingest(batch)
        self.live |= {c.ref() for c in batches[0]}
        self._content_changed(before, {c.ref().array for c in batches[0]})

    @precondition(lambda self: self.live)
    @rule(picks=PICKS)
    def expire(self, picks):
        live = self._live()
        refs = sorted({live[i % len(live)] for i in picks},
                      key=lambda r: (r.array, r.key))
        before = self._epochs()
        for cluster in self.twins:
            cluster.remove_chunks(refs)
        self.live -= set(refs)
        self._content_changed(before, {r.array for r in refs})
        self.reorganized = True

    @rule()
    def scale_out(self):
        memory, tiered = (c.scale_out(1) for c in self.twins)
        assert memory.chunks_moved == tiered.chunks_moved
        self.reorganized = True

    @rule(ledger=st.booleans())
    def compact(self, ledger):
        for cluster in self.twins:
            if ledger:
                cluster.partitioner.compact_ledger(0.0)
            else:
                cluster.catalog.compact(0.0)
            assert cluster.catalog.column_capacity == max(
                64, cluster.partitioner.chunk_count
            )
        self.reorganized = True

    @precondition(lambda self: len(self.pins) < 2)
    @rule()
    def pin(self):
        opened = []
        for cluster in self.twins:
            session = cluster.session().pin(ARRAYS)
            captured = _fingerprint(session, regions=PIN_REGIONS)
            assert captured == _fingerprint(
                _StoreWalk(cluster), regions=PIN_REGIONS
            )
            opened.append((session, captured))
        assert opened[0][1] == opened[1][1]
        self.pins.append(opened)

    @precondition(lambda self: self.pins)
    @rule()
    def release(self):
        for session, _captured in self.pins.pop(0):
            session.release()

    @rule()
    def refresh_views(self):
        results = []
        for view, join in self.views:
            view.refresh()
            join.refresh()
            results.append((view.result(), join.result()))
        (grid_m, join_m), (grid_t, join_t) = results
        assert join_m == join_t
        for got, want in zip(grid_t, grid_m):
            assert np.array_equal(got, want)
        self.views_fresh = True

    @rule(region=BOXES)
    def read_twice(self, region):
        for cluster in self.twins:
            for array in ARRAYS:
                first = cluster.session().array_payload(array, ["v"], 3)
                again = cluster.session().array_payload(array, ["v"], 3)
                assert first[0] is again[0]
                assert first[1]["v"] is again[1]["v"]
                first = cluster.session().payload_in_region(
                    array, region, ["v"], 3
                )
                again = cluster.session().payload_in_region(
                    array, region, ["v"], 3
                )
                assert first[0] is again[0]

    @rule(region=BOXES)
    def route(self, region):
        self.regions = [region, self.regions[0]]

    @rule()
    def advance_cursor(self):
        for cluster, cursors, bases in zip(
            self.twins, self.replay_cursors, self.replay_bases
        ):
            session = cluster.session()
            for i, array in enumerate(ARRAYS):
                cursors[i] = session.payload_epoch_of(array)
                bases[array] = {
                    c.ref() for c, _ in session.chunks_of_array(array)
                }

    # -- invariants ----------------------------------------------------
    @invariant()
    def consistent(self):
        for cluster in self.twins:
            _assert_one_table(cluster)  # runs check_consistency
            assert set(cluster.partitioner.table.assignment()) == self.live
            if self.reorganized:
                # every reorganization ends below the compaction ratio
                assert not cluster.partitioner.compact_ledger(
                    cluster.ledger_compact_ratio
                )

    @invariant()
    def memory_equals_tier(self):
        memory, tiered = self.twins
        for array in ARRAYS:
            assert _stored(tiered, array) == _stored(memory, array)
            for region in self.regions:
                assert _region_bytes(tiered, array, region) == \
                    _region_bytes(memory, array, region)
        for stats in tiered.storage_stats().values():
            assert stats["resident_bytes"] <= self.budget + 1e-6

    @invariant()
    def reads_equal_store_walks(self):
        # Both twins publish the handles their stores hold; the reads
        # over those handles are walked on the memory twin, and the
        # tier's bytes are held to it by memory_equals_tier.
        memory = self.twins[0]
        session = memory.session()
        assert _fingerprint(session, regions=self.regions) == \
            _fingerprint(_StoreWalk(memory), regions=self.regions)
        for array in ARRAYS:
            for got, want in zip(
                scan_columns(session.chunks_of_array(array), ["v"]),
                array_scan_columns_scan(memory, array, ["v"]),
            ):
                assert np.array_equal(got, want)
            for region in self.regions:
                assert _ids(session.chunks_in_region(array, region)) == \
                    _ids(chunks_in_region_scan(memory, array, region))
        for cluster in self.twins:
            for array in ARRAYS:
                pairs = cluster.session().chunks_of_array(array)
                assert _ids(pairs) == _ids(chunks_of_array_scan(cluster, array))
                for chunk, _node in pairs:
                    assert cluster.chunk_data(chunk.ref()) is \
                        chunk_data_scan(cluster, chunk.ref())

    @invariant()
    def delta_replay_equals_live_set(self):
        for cluster, cursors, bases in zip(
            self.twins, self.replay_cursors, self.replay_bases
        ):
            session = cluster.session()
            for i, array in enumerate(ARRAYS):
                delta = session.deltas_since(array, cursors[i])
                weight = dict.fromkeys(bases[array], 1)
                for ref, sign in zip(
                    delta.refs.tolist(), delta.signs.tolist()
                ):
                    weight[ref] = weight.get(ref, 0) + int(sign)
                assert set(weight.values()) <= {0, 1}
                assert {r for r, w in weight.items() if w == 1} == {
                    c.ref() for c, _ in session.chunks_of_array(array)
                }

    @invariant()
    def views_equal_recompute(self):
        if self.views_fresh:
            for view, join in self.views:
                _assert_grid_parity(view)
                _assert_join_parity(join)

    @invariant()
    def pins_read_their_capture(self):
        for opened in self.pins:
            for session, captured in opened:
                _drop_cached_payloads(session)
                assert _fingerprint(session, regions=PIN_REGIONS) == captured


MACHINE_SETTINGS = settings(max_examples=4, stateful_step_count=12)
#: A focused run draws from fewer rules, so each still fires about as
#: often per run as in the full machine's longer ones.  (The first
#: derandomized example repeats one rule, so two examples are too few.)
FOCUSED_SETTINGS = settings(max_examples=3, stateful_step_count=8)
RULES = ("ingest", "expire", "scale_out", "compact", "pin", "release",
         "refresh_views", "read_twice", "route", "advance_cursor")
INVARIANTS = ("consistent", "memory_equals_tier", "reads_equal_store_walks",
              "delta_replay_equals_live_set", "views_equal_recompute",
              "pins_read_their_capture")


def run_focused(scheme, rules, invariants):
    """Run the machine drawing only ``rules`` and asserting only
    ``invariants``: one contract under its own interleavings.

    Dropped rules stay callable, so ``build`` still ingests, pins and
    primes the views.
    """
    assert set(rules) <= set(RULES) and set(invariants) <= set(INVARIANTS)

    def plain(method):
        return lambda self, *args, **kwargs: method(self, *args, **kwargs)

    machine = type("FocusedMachine", (ClusterMachine,), {
        name: plain(getattr(ClusterMachine, name))
        for name in RULES + INVARIANTS
        if name not in rules + invariants
    })
    run_state_machine_as_test(
        lambda: machine(scheme), settings=FOCUSED_SETTINGS
    )


def lifecycle(seed, cycles, size, boxes=0):
    """A fixed script, as groups of steps with a check after each:
    per cycle, ``size`` chunks ingested at time ``cycle``, one scale-out
    after the second cycle and a random expiry from the third; then
    ``boxes`` routed regions, each checked on its own."""
    rng = np.random.default_rng(seed)
    for cycle in range(cycles):
        specs = [
            (ARRAYS[rng.integers(2)],
             (cycle, *map(int, rng.integers(0, 16, 2))),
             int(rng.integers(1, 4)), int(rng.integers(2**16)),
             int(rng.integers(1, 61)))
            for _ in range(size)
        ]
        if cycle == 0:
            group = [("build", {"budget": 15.0, "specs": specs})]
        else:
            group = [("ingest", {"specs": specs, "dups": [], "again": []})]
        if cycle == 1:
            group.append(("scale_out", {}))
        if cycle >= 2:
            group.append(("expire", {"picks": rng.integers(0, 2**16, size)}))
        yield group
        for _ in range(boxes):
            lo = rng.integers(-6, 36, 3)
            hi = lo + rng.integers(0, 30, 3)
            yield [("route", {"region": Box(tuple(map(int, lo)),
                                            tuple(map(int, hi)))})]


def replay(scheme, script, invariants):
    """Drive a fixed script through the machine, checking each group."""
    machine = ClusterMachine(scheme)
    try:
        for group in script:
            for name, kwargs in group:
                getattr(machine, name)(**kwargs)
            for check in invariants:
                getattr(machine, check)()
    finally:
        machine.teardown()


@pytest.mark.parametrize("scheme", ALL_PARTITIONERS)
def test_cluster_machine(scheme):
    run_state_machine_as_test(
        lambda: ClusterMachine(scheme), settings=MACHINE_SETTINGS
    )
