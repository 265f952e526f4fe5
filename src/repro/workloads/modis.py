"""Synthetic MODIS remote-sensing workload (paper §3.1).

Two 3-d "band" arrays — (time, longitude, latitude) with one-day time
chunks and 12°x12° spatial chunks — receive a daily batch of visible-light
measurements.  Both bands sample the *same* cell positions (the instrument
reads every band per pixel), which is what makes the §3.3 vegetation-index
join position-aligned.

Distribution targets (§3.1/§3.2): near-uniform spatial density with slight
skew — the top 5 % of chunks hold ~10 % of the bytes and 8 equal lat/long
regions show ~10 % RSD — 630 GB total over 14 daily cycles, ~50 MB mean
chunk footprint.  The cells are synthetic (we cannot ship NASA data); the
byte inflation maps laptop-scale cell counts onto paper-scale chunk sizes.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.arrays.array import cell_byte_width, chunk_cell_sets
from repro.arrays.coords import Box, unique_row_index
from repro.arrays.schema import ArraySchema, parse_schema
from repro.cluster.costs import GB
from repro.errors import WorkloadError
from repro.workloads.batch import InsertBatch
from repro.workloads.distributions import SpatialModel, uniform_with_mild_skew
from repro.workloads.model import CyclicWorkload

#: Paper schema (§3.1), both bands share it modulo the array name.
BAND_SCHEMA_TEXT = (
    "{name}<si_value:int32, radiance:double, reflectance:double,"
    " uncertainty_idx:int32, uncertainty_pct:float32,"
    " platform_id:int32, resolution_id:int32>"
    "[time=0,*,1440, longitude=-180,180,12, latitude=-90,90,12]"
)

MINUTES_PER_DAY = 1440
LON_CHUNKS = 30  # cells in [-180, 180) -> 30 full 12-degree columns
LAT_CHUNKS = 15  # cells in [-90, 90) -> 15 full 12-degree rows


class ModisWorkload(CyclicWorkload):
    """Daily two-band satellite imagery with slight spatial skew.

    Args:
        n_cycles: daily cycles (paper: 14).
        cells_per_band_per_cycle: real cells generated per band per day;
            controls test runtime, not modeled bytes.
        target_total_gb: modeled bytes after the final cycle (paper: 630).
        seed: reproducibility seed (also differentiates band values).
    """

    name = "modis"

    def __init__(
        self,
        n_cycles: int = 14,
        cells_per_band_per_cycle: int = 3000,
        target_total_gb: float = 630.0,
        seed: int = 20140622,
    ) -> None:
        super().__init__(n_cycles=n_cycles, seed=seed)
        if cells_per_band_per_cycle < 10:
            raise WorkloadError("need >= 10 cells per band per cycle")
        if not 0 < target_total_gb < float("inf"):
            raise WorkloadError("target_total_gb must be positive and finite")
        self.cells_per_band_per_cycle = int(cells_per_band_per_cycle)
        self.target_total_gb = float(target_total_gb)
        self.band1: ArraySchema = parse_schema(
            BAND_SCHEMA_TEXT.format(name="band1")
        )
        self.band2: ArraySchema = parse_schema(
            BAND_SCHEMA_TEXT.format(name="band2")
        )
        self.spatial: SpatialModel = uniform_with_mild_skew(
            LON_CHUNKS, LAT_CHUNKS, sigma=0.35, seed=seed ^ 0x5EED
        )

    # ------------------------------------------------------------------
    @property
    def schemas(self) -> Tuple[ArraySchema, ...]:
        return (self.band1, self.band2)

    @property
    def target_total_bytes(self) -> float:
        return self.target_total_gb * GB

    def grid_box(self) -> Box:
        # Declared extents: ceil(361/12) = 31 lon chunks, ceil(181/12) = 16
        # lat chunks (the ragged last column/row never receives cells); the
        # time extent covers the full horizon, one chunk per day.
        return Box(
            (0, 0, 0),
            (
                self.n_cycles,
                self.band1.dimension("longitude").chunk_count,
                self.band1.dimension("latitude").chunk_count,
            ),
        )

    # ------------------------------------------------------------------
    # query regions (cell coordinates), used by the §3.3 benchmarks
    # ------------------------------------------------------------------
    def day_time_range(self, cycle: int) -> Tuple[int, int]:
        """Half-open minute range of one 1-based day."""
        return ((cycle - 1) * MINUTES_PER_DAY, cycle * MINUTES_PER_DAY)

    def lower_left_sixteenth(self, cycle_hi: int) -> Box:
        """1/16 of lat/long space at the lower-left corner (selection)."""
        return Box(
            (0, -180, -90),
            (cycle_hi * MINUTES_PER_DAY, -180 + 360 // 4, -90 + 180 // 4),
        )

    def polar_caps(self, cycle_lo: int, cycle_hi: int) -> Tuple[Box, Box]:
        """North and south polar-cap boxes over a day range (statistics)."""
        t0 = (cycle_lo - 1) * MINUTES_PER_DAY
        t1 = cycle_hi * MINUTES_PER_DAY
        north = Box((t0, -180, 66), (t1, 181, 91))
        south = Box((t0, -180, -90), (t1, 181, -66))
        return north, south

    def amazon_box(self, cycle_hi: int) -> Box:
        """The Amazon-basin lat/long window (k-means modeling query)."""
        return Box(
            (0, -80, -20),
            (cycle_hi * MINUTES_PER_DAY, -44, 6),
        )

    # ------------------------------------------------------------------
    def _generate_batch(self, cycle: int) -> InsertBatch:
        rng = np.random.default_rng((self.seed, cycle))
        n = self.cells_per_band_per_cycle

        # Spatial chunk choice follows the mildly skewed earth model; the
        # cell scatters uniformly inside its 12x12-degree chunk.
        flat = self.spatial.sample_chunks(n, rng)
        lon_chunk, lat_chunk = self.spatial.chunk_lon_lat(flat)
        lon = -180 + lon_chunk * 12 + rng.integers(0, 12, size=n)
        lat = -90 + lat_chunk * 12 + rng.integers(0, 12, size=n)
        t0, t1 = self.day_time_range(cycle)
        time = rng.integers(t0, t1, size=n)
        coords = np.stack(
            [time, lon, lat], axis=1
        ).astype(np.int64)
        # The two bands read the same pixels; dedupe positions so the
        # vegetation-index join is a clean 1:1 position match.
        coords = coords[unique_row_index(coords)]
        n = coords.shape[0]

        bands = [
            (schema, self._band_values(rng, schema, coords, band_idx, cycle))
            for band_idx, schema in enumerate((self.band1, self.band2))
        ]
        # The batch's physical footprint, exact in float64: every chunk
        # is its cell count times the band's cell byte width.
        actual = float(n * sum(cell_byte_width(*band) for band in bands))
        # Daily volumes vary a few percent (orbit coverage, cloud masks,
        # downlink windows); the jitter is what Algorithm 1's what-if
        # analysis smooths over — steady growth plus i.i.d. noise is why
        # MODIS prefers a multi-sample derivative (Table 2).
        vol_rng = np.random.default_rng((self.seed, cycle, 7))
        noise = float(vol_rng.lognormal(mean=0.0, sigma=0.05))
        target = self.target_total_bytes / self.n_cycles * noise
        inflate = target / actual if actual else 1.0
        return InsertBatch(
            cycle=cycle,
            chunks=chunk_cell_sets(coords, bands, inflate),
            description=f"MODIS day {cycle}",
        )

    def _band_values(
        self,
        rng: np.random.Generator,
        schema: ArraySchema,
        coords: np.ndarray,
        band_idx: int,
        cycle: int,
    ) -> Dict[str, np.ndarray]:
        n = coords.shape[0]
        lat = coords[:, 2].astype(np.float64)
        # Light levels fall off toward the poles; band 2 (near-infrared)
        # runs hotter than band 1 over vegetated latitudes, giving the
        # NDVI join a meaningful, reproducible signal.
        sun = np.cos(np.radians(lat)) + 0.05
        base = 120.0 * sun if band_idx == 0 else 160.0 * sun
        radiance = base + rng.normal(0.0, 12.0, size=n)
        radiance = np.clip(radiance, 0.1, None)
        reflectance = np.clip(
            radiance / 400.0 + rng.normal(0, 0.02, size=n), 0.0, 1.0
        )
        return {
            "si_value": rng.integers(
                0, 32767, size=n
            ).astype(np.int32),
            "radiance": radiance,
            "reflectance": reflectance,
            "uncertainty_idx": rng.integers(0, 16, size=n).astype(np.int32),
            "uncertainty_pct": (
                rng.random(size=n).astype(np.float32) * 5.0
            ),
            "platform_id": np.full(n, 1 + band_idx, dtype=np.int32),
            "resolution_id": np.full(n, cycle % 3, dtype=np.int32),
        }
