"""Workload generators: distributions, MODIS, AIS, cycle model."""

import numpy as np
import pytest

from repro.arrays import ChunkData
from repro.arrays.array import cell_byte_width, chunk_cells
from repro.arrays.chunk import CellArena
from repro.cluster import GB
from repro.errors import WorkloadError
from repro.workloads import (
    AisWorkload,
    ModisWorkload,
    Port,
    SpatialModel,
    port_hotspots,
    uniform_with_mild_skew,
    zipf_weights,
)


class TestSpatialModel:
    def test_weights_must_normalize(self):
        with pytest.raises(WorkloadError):
            SpatialModel(2, 2, (0.5, 0.5, 0.5, 0.5))

    def test_weight_count_must_match_grid(self):
        with pytest.raises(WorkloadError):
            SpatialModel(2, 2, (1.0,))

    def test_sampling_follows_weights(self):
        model = SpatialModel(2, 1, (0.9, 0.1))
        rng = np.random.default_rng(0)
        draws = model.sample_chunks(2000, rng)
        assert (draws == 0).mean() > 0.8

    def test_chunk_lon_lat_unflatten(self):
        model = SpatialModel(3, 2, tuple([1 / 6] * 6))
        lon, lat = model.chunk_lon_lat(np.array([0, 1, 2, 5]))
        assert lon.tolist() == [0, 0, 1, 2]
        assert lat.tolist() == [0, 1, 0, 1]

    def test_top_share(self):
        model = SpatialModel(10, 1, (0.91, *[0.01] * 9))
        assert model.top_share(0.1) == pytest.approx(0.91)
        with pytest.raises(WorkloadError):
            model.top_share(0.0)


class TestDistributionShapes:
    def test_uniform_mild_skew_targets(self):
        model = uniform_with_mild_skew(30, 15)
        assert 0.05 < model.top_share(0.05) < 0.20  # paper: ~10 %

    def test_port_hotspots_heavy_skew(self):
        ports = [Port("p", 5, 5, 1.0), Port("q", 20, 10, 0.5)]
        model = port_hotspots(29, 23, ports, hot_mass=0.9, spread=0.4)
        assert model.top_share(0.05) > 0.7

    def test_port_outside_grid_rejected(self):
        with pytest.raises(WorkloadError):
            port_hotspots(10, 10, [Port("x", 50, 5, 1.0)])

    def test_no_ports_rejected(self):
        with pytest.raises(WorkloadError):
            port_hotspots(10, 10, [])

    def test_zipf_weights(self):
        w = zipf_weights(4)
        assert w[0] > w[1] > w[2] > w[3]
        assert sum(w) == pytest.approx(1.0)
        with pytest.raises(WorkloadError):
            zipf_weights(0)


class TestModisWorkload:
    def test_batches_deterministic_and_cached(self, small_modis):
        a = small_modis.batch(1)
        b = small_modis.batch(1)
        assert a is b  # cached
        fresh = ModisWorkload(
            n_cycles=6, cells_per_band_per_cycle=400,
            target_total_gb=270.0,
        )
        c = fresh.batch(1)
        assert a.total_bytes == pytest.approx(c.total_bytes)
        assert a.chunk_count == c.chunk_count

    def test_two_bands_same_positions(self, small_modis):
        batch = small_modis.batch(2)
        band1 = {c.key: c for c in batch.chunks
                 if c.schema.name == "band1"}
        band2 = {c.key: c for c in batch.chunks
                 if c.schema.name == "band2"}
        assert set(band1) == set(band2)
        for key in band1:
            assert np.array_equal(band1[key].coords, band2[key].coords)

    def test_total_bytes_near_target(self, small_modis):
        total = sum(b.total_bytes for b in small_modis.batches())
        assert total == pytest.approx(270.0 * GB, rel=0.15)

    def test_cells_only_in_declared_day(self, small_modis):
        batch = small_modis.batch(3)
        t0, t1 = small_modis.day_time_range(3)
        for chunk in batch.chunks:
            times = chunk.dim_values("time")
            assert times.min() >= t0
            assert times.max() < t1

    def test_demand_curve_monotone(self, small_modis):
        curve = small_modis.demand_curve()
        assert all(b > a for a, b in zip(curve, curve[1:]))

    def test_grid_box_covers_batches(self, small_modis):
        grid = small_modis.grid_box()
        for batch in small_modis.batches():
            for chunk in batch.chunks:
                assert grid.contains(chunk.key)

    def test_spatial_dims(self, small_modis):
        assert small_modis.spatial_dims() == (1, 2)

    def test_query_regions_well_formed(self, small_modis):
        sel = small_modis.lower_left_sixteenth(3)
        assert sel.lo == (0, -180, -90)
        north, south = small_modis.polar_caps(1, 3)
        assert north.lo[2] == 66
        assert south.hi[2] == -66
        amazon = small_modis.amazon_box(3)
        assert amazon.lo[1] < amazon.hi[1]

    def test_time_chunk_box_spans_the_declared_domain(self, small_modis):
        slab = small_modis.time_chunk_box(2, 3)
        assert slab.lo == (2880, -180, -90)
        assert slab.hi == (4320, 181, 91)
        t0, t1 = small_modis.day_time_range(3)  # day 3 is time chunk 2
        assert (slab.lo[0], slab.hi[0]) == (t0, t1)
        assert small_modis.time_chunk_box(4, 4).is_empty()

    def test_bad_cycle_rejected(self, small_modis):
        with pytest.raises(WorkloadError):
            small_modis.batch(0)
        with pytest.raises(WorkloadError):
            small_modis.batch(99)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ModisWorkload(n_cycles=0)
        with pytest.raises(WorkloadError):
            ModisWorkload(cells_per_band_per_cycle=1)
        with pytest.raises(WorkloadError):
            ModisWorkload(target_total_gb=-5)

    @pytest.mark.parametrize(
        "total", [0.0, -5.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_target_total_must_be_positive_and_finite(self, total):
        with pytest.raises(WorkloadError):
            ModisWorkload(target_total_gb=total)


class TestAisWorkload:
    def test_heavy_chunk_skew(self):
        wl = AisWorkload(n_cycles=8, ships=400, broadcasts_per_ship=15)
        sizes = []
        for batch in wl.batches():
            sizes.extend(c.size_bytes for c in batch.chunks)
        sizes.sort(reverse=True)
        top5 = sum(sizes[: max(1, len(sizes) // 20)]) / sum(sizes)
        assert top5 > 0.6  # paper: ~85 %

    def test_seasonal_volumes_vary(self, small_ais):
        volumes = [b.total_bytes for b in small_ais.batches()]
        assert max(volumes) / min(volumes) > 1.2

    def test_vessel_columns_join_the_seed_ship_types(self, small_ais):
        from collections import Counter

        from repro.cluster import ElasticCluster
        from repro.core import make_partitioner
        from repro.query.spj import AisVesselJoin

        ids, _types = small_ais.vessel_columns()
        assert ids.tolist() == list(range(small_ais.ships))
        assert small_ais.vessel_bytes == pytest.approx(25e6)
        # The join's type histogram over cycle 1 is the raw ship-type
        # draw of the seed's vessel stream, counted per broadcast.
        cluster = ElasticCluster(make_partitioner("round_robin", [0, 1]), GB)
        batch = small_ais.batch(1)
        cluster.ingest(batch.chunks)
        drawn = np.random.default_rng((small_ais.seed, 0)).integers(
            0, 6, size=small_ais.ships
        )
        ship_ids = np.concatenate(
            [c.values("ship_id") for c in batch.chunks]
        )
        want = Counter(drawn[ship_ids].tolist())
        got = AisVesselJoin(small_ais).run(cluster, 1)
        assert got.value["broadcasts_by_type"] == dict(want)

    def test_broadcast_attrs_consistent(self, small_ais):
        batch = small_ais.batch(1)
        for chunk in batch.chunks:
            speed = chunk.values("speed")
            status = chunk.values("status")
            # in-port ships (status 1) are stationary
            assert (speed[status == 1] == 0).all()
            assert (speed[status == 0] > 0).all()
            ships = chunk.values("ship_id")
            assert ships.min() >= 0
            assert ships.max() < small_ais.ships

    def test_houston_box_contains_top_port(self, small_ais):
        box = small_ais.houston_box(2)
        port = small_ais.ports[0]
        lon = -180 + port.lon_chunk * 4 + 1
        lat = 0 + port.lat_chunk * 4 + 1
        t0, _ = small_ais.cycle_time_range(2)
        assert box.contains((t0, lon, lat))

    def test_houston_box_full_history_variant(self, small_ais):
        recent = small_ais.houston_box(3)
        full = small_ais.houston_box(3, recent_only=False)
        assert full.lo[0] == 0
        assert recent.lo[0] > 0
        assert full.hi == recent.hi

    def test_time_chunk_box_routes_exactly_the_time_slab(
        self, small_ais, table_partitioner
    ):
        from repro.core.catalog import ChunkCatalog

        partitioner = table_partitioner()
        catalog = ChunkCatalog(partitioner.table)
        for cycle in range(1, small_ais.n_cycles + 1):
            chunks = small_ais.batch(cycle).chunks
            partitioner.place_batch(
                [c.ref() for c in chunks], chunks.sizes, chunks.keys
            )
            catalog.put_batch(chunks)
        pairs = catalog.pairs_of_array("broadcast")
        last = max(c.key[0] for c, _ in pairs)
        assert last >= 7
        for lo, hi in (
            (last, last + 1), (last - 3, last + 1), (0, 4), (2, 3),
            (0, last + 1), (-4, 0), (-1, 1), (last + 1, last + 9), (3, 3),
        ):
            slab = small_ais.time_chunk_box(lo, hi)
            want = [(c, n) for c, n in pairs if lo <= c.key[0] < hi]
            assert list(catalog.pairs_in_region("broadcast", slab)) == want
        # the slab spans the declared longitude / latitude domain
        slab = small_ais.time_chunk_box(1, 2)
        assert slab.lo == (43200, -180, 0)
        assert slab.hi == (86400, -65, 91)

    def test_cells_within_cycle_time_range(self, small_ais):
        batch = small_ais.batch(2)
        t0, t1 = small_ais.cycle_time_range(2)
        for chunk in batch.chunks:
            times = chunk.dim_values("time")
            assert times.min() >= t0
            assert times.max() < t1

    def test_validation(self):
        with pytest.raises(WorkloadError):
            AisWorkload(ships=1)
        with pytest.raises(WorkloadError):
            AisWorkload(broadcasts_per_ship=1)
        with pytest.raises(WorkloadError):
            AisWorkload(seasonal_amplitude=1.5)

    @pytest.mark.parametrize(
        "total", [0.0, -5.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_target_total_must_be_positive_and_finite(self, total):
        with pytest.raises(WorkloadError):
            AisWorkload(target_total_gb=total)

    def test_schema_lookup(self, small_ais):
        assert small_ais.schema("broadcast").name == "broadcast"
        with pytest.raises(WorkloadError):
            small_ais.schema("unknown")


def _first_pass(chunks):
    """Re-chunk a batch's cells of one array at ``inflate=1.0``.

    The cells are read back from the single-pass chunks (grouped by
    chunk, batch order inside); the stable chunking sort maps them onto
    the same groups in the same order.
    """
    schema = chunks[0].schema
    coords = np.concatenate([c.coords for c in chunks])
    attrs = {
        name: np.concatenate([c.values(name) for c in chunks])
        for name in schema.attribute_names
    }
    return chunk_cells(schema, coords, attrs, inflate=1.0)


class TestSinglePassGeneration:
    """One ``chunk_cells(..., inflate)`` pass ≡ the two passes it
    replaced: chunk at 1.0, sum the footprints, then rebuild every chunk
    through the validating constructor at ``size * target / sum``."""

    def _check(self, batch, target):
        by_array = {}
        for chunk in batch.chunks:
            by_array.setdefault(chunk.schema.name, []).append(chunk)
        first = [
            c for chunks in by_array.values() for c in _first_pass(chunks)
        ]
        inflate = target / sum(c.size_bytes for c in first)
        rebuilt = [
            ChunkData(
                c.schema, c.key, c.coords, c.attributes,
                size_bytes=c.size_bytes * inflate,
            )
            for c in first
        ]
        assert [c.ref() for c in batch.chunks] == [
            c.ref() for c in rebuilt
        ]
        for got, want in zip(batch.chunks, rebuilt):
            assert got.size_bytes == want.size_bytes  # exact
            assert got.attr_bytes == want.attr_bytes  # exact
            assert list(got.attr_bytes) == list(want.attr_bytes)
            assert np.array_equal(got.coords, want.coords)
            for name in got.schema.attribute_names:
                assert np.array_equal(got.values(name), want.values(name))

    @pytest.mark.parametrize("seed", [20140622, 7, 123456])
    def test_modis_batches_match_two_pass_construction(self, seed):
        w = ModisWorkload(
            n_cycles=3, cells_per_band_per_cycle=700,
            target_total_gb=100.0, seed=seed,
        )
        for cycle in (1, 2, 3):
            noise = float(
                np.random.default_rng((seed, cycle, 7)).lognormal(
                    mean=0.0, sigma=0.05
                )
            )
            self._check(
                w.batch(cycle),
                w.target_total_bytes / w.n_cycles * noise,
            )

    @pytest.mark.parametrize("seed", [20090101, 7, 123456])
    def test_ais_batches_match_two_pass_construction(self, seed):
        w = AisWorkload(
            n_cycles=3, ships=60, broadcasts_per_ship=8,
            target_total_gb=50.0, seed=seed,
        )
        season_total = sum(w.seasonal_weight(i) for i in (1, 2, 3))
        for cycle in (1, 2, 3):
            self._check(
                w.batch(cycle),
                w.target_total_bytes * w.seasonal_weight(cycle)
                / season_total,
            )


# ----------------------------------------------------------------------
# The generators before columnar batch construction, kept as the spec:
# rows deduplicated by ``np.unique(axis=0)``, AIS's object columns built
# by per-cell f-strings, one ``chunk_cells`` per MODIS band, and every
# chunk's ``attr_bytes`` a dict of ``size * width / denom`` shares.
# ----------------------------------------------------------------------
def _reference_shares(chunk):
    widths = [(a.name, a.itemsize) for a in chunk.schema.attributes]
    denom = sum(w for _, w in widths) or 1
    return {name: chunk.size_bytes * w / denom for name, w in widths}


def _reference_modis(w, cycle):
    rng = np.random.default_rng((w.seed, cycle))
    n = w.cells_per_band_per_cycle
    lon_chunk, lat_chunk = w.spatial.chunk_lon_lat(
        w.spatial.sample_chunks(n, rng)
    )
    lon = -180 + lon_chunk * 12 + rng.integers(0, 12, size=n)
    lat = -90 + lat_chunk * 12 + rng.integers(0, 12, size=n)
    time = rng.integers(*w.day_time_range(cycle), size=n)
    coords = np.unique(
        np.stack([time, lon, lat], axis=1).astype(np.int64), axis=0
    )
    bands = [
        (schema, w._band_values(rng, schema, coords, band_idx, cycle))
        for band_idx, schema in enumerate((w.band1, w.band2))
    ]
    actual = float(
        coords.shape[0] * sum(cell_byte_width(*band) for band in bands)
    )
    noise = float(np.random.default_rng((w.seed, cycle, 7)).lognormal(
        mean=0.0, sigma=0.05
    ))
    inflate = w.target_total_bytes / w.n_cycles * noise / actual
    return [
        chunk
        for schema, attrs in bands
        for chunk in chunk_cells(schema, coords, attrs, inflate)
    ]


def _reference_ais(w, cycle):
    rng = np.random.default_rng((w.seed, cycle))
    weight = w.seasonal_weight(cycle)
    m = max(w.ships * 2, int(w.ships * w.broadcasts_per_ship * weight))
    ship_ids = rng.integers(0, w.ships, size=m)
    a_lon, a_lat = w.spatial.chunk_lon_lat(
        w.spatial.sample_chunks(w.ships, rng)
    )
    lon = (-180 + a_lon * 4 + 2)[ship_ids] + np.round(
        rng.normal(0.0, 0.45, size=m)
    ).astype(np.int64)
    lat = (a_lat * 4 + 2)[ship_ids] + np.round(
        rng.normal(0.0, 0.45, size=m)
    ).astype(np.int64)
    transit = rng.random(m) < 0.10
    lon[transit] = rng.integers(-180, -66, size=int(transit.sum()))
    lat[transit] = rng.integers(0, 91, size=int(transit.sum()))
    time = rng.integers(*w.cycle_time_range(cycle), size=m)
    coords = np.stack(
        [time, np.clip(lon, -180, -67), np.clip(lat, 0, 90)], axis=1
    ).astype(np.int64)
    coords, unique_idx = np.unique(coords, axis=0, return_index=True)
    ship_ids = ship_ids[unique_idx]
    n = coords.shape[0]
    in_port = rng.random(n) < 0.55
    speed = np.where(in_port, 0, rng.integers(1, 25, size=n))
    course = rng.integers(0, 360, size=n).astype(np.int32)
    attrs = {
        "speed": speed.astype(np.int32),
        "course": course,
        "heading": (
            (course + rng.integers(-5, 6, size=n)) % 360
        ).astype(np.int32),
        "rot": rng.integers(-30, 31, size=n).astype(np.int32),
        "status": np.where(in_port, 1, 0).astype(np.int32),
        "voyage_id": (cycle * 100000 + ship_ids).astype(np.int64),
        "ship_id": ship_ids.astype(np.int64),
        "receiver_type": rng.integers(65, 68, size=n).astype(np.uint8),
        "receiver_id": np.array(
            [f"R{int(v):03d}" for v in rng.integers(0, 200, size=n)],
            dtype=object,
        ),
        "provenance": np.array(
            [f"uscg/{cycle}" for _ in range(n)], dtype=object
        ),
    }
    actual = float(n * cell_byte_width(w.broadcast, attrs))
    season_total = sum(
        w.seasonal_weight(i) for i in range(1, w.n_cycles + 1)
    )
    inflate = w.target_total_bytes * weight / season_total / actual
    return chunk_cells(w.broadcast, coords, attrs, inflate)


def _assert_chunks_identical(got, want):
    assert [c.ref() for c in got] == [c.ref() for c in want]
    for g, r in zip(got, want):
        assert g.size_bytes == r.size_bytes
        # exact values in the same key order, against the per-chunk dict
        assert list(g.attr_bytes.items()) == list(
            _reference_shares(r).items()
        )
        assert g.coords.dtype == r.coords.dtype
        assert np.array_equal(g.coords, r.coords)
        assert list(g.attributes) == list(r.attributes)
        for name in r.schema.attribute_names:
            assert g.values(name).dtype == r.values(name).dtype
            assert g.values(name).tolist() == r.values(name).tolist()


class TestColumnarGeneration:
    """Packed-key dedupe, table-built object columns, one grouping for
    both MODIS bands and derived ``attr_bytes`` build the same batches,
    chunk for chunk, as the per-cell code they replaced."""

    @pytest.mark.parametrize("seed", [20140622, 7, 123456])
    def test_modis_batches_match_reference(self, seed):
        w = ModisWorkload(
            n_cycles=3, cells_per_band_per_cycle=2000,
            target_total_gb=100.0, seed=seed,
        )
        for cycle in (1, 2, 3):
            _assert_chunks_identical(
                w.batch(cycle).chunks, _reference_modis(w, cycle)
            )

    @pytest.mark.parametrize("seed", [20090101, 7, 123456])
    def test_ais_batches_match_reference(self, seed):
        w = AisWorkload(
            n_cycles=3, ships=120, broadcasts_per_ship=10,
            target_total_gb=50.0, seed=seed,
        )
        for cycle in (1, 2, 3):
            _assert_chunks_identical(
                w.batch(cycle).chunks, _reference_ais(w, cycle)
            )

    def test_attr_bytes_exact_on_every_constructor(self, small_ais):
        schema = small_ais.broadcast
        source = small_ais.batch(1).chunks[0]
        coords, columns = source.payload_parts()
        size = 12345.678
        validated = ChunkData(
            schema, source.key, coords, columns, size_bytes=size
        )
        arena = CellArena(coords, dict(columns))
        extent = ChunkData.from_extent(
            schema, source.key, arena, 0, len(coords), size
        )
        spilled = ChunkData.spilled(schema, source.key, size)
        for chunk in (validated, extent, spilled):
            assert list(chunk.attr_bytes.items()) == list(
                _reference_shares(chunk).items()
            )
        override = {name: float(i) for i, name in enumerate(
            reversed(schema.attribute_names)
        )}
        explicit = ChunkData.spilled(
            schema, source.key, size, attr_bytes=override
        )
        assert list(explicit.attr_bytes.items()) == list(override.items())
        assert explicit.bytes_for(["speed"]) == override["speed"]
