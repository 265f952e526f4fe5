"""Synthetic AIS marine-traffic workload (paper §3.2).

A 3-d ``broadcast`` array — (time, longitude, latitude) with 30-day time
chunks and 4°x4° spatial chunks — receives quarterly (120-day) batches of
ship position reports, plus a small 1-d ``vessel`` array keyed by ship id
that is **replicated** on every node (25 MB; it never participates in
placement).

Distribution targets (§3.2): extreme point skew from ships congregating at
ports — ~85 % of bytes in ~5 % of the chunks, tiny median chunk vs.
multi-hundred-MB hot chunks — 400 GB total, with seasonal (holiday-peaked)
insert volumes that §6.3 exploits to show AIS prefers a 1-sample
derivative.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.arrays.array import cell_byte_width, chunk_cells
from repro.arrays.coords import Box, unique_row_index
from repro.arrays.schema import ArraySchema, parse_schema
from repro.cluster.costs import GB
from repro.errors import WorkloadError
from repro.workloads.batch import InsertBatch
from repro.workloads.distributions import (
    Port,
    SpatialModel,
    port_hotspots,
)
from repro.workloads.model import CyclicWorkload

BROADCAST_SCHEMA_TEXT = (
    "broadcast<speed:int32, course:int32, heading:int32, rot:int32,"
    " status:int32, voyage_id:int64, ship_id:int64,"
    " receiver_type:char, receiver_id:string, provenance:string>"
    "[time=0,*,43200, longitude=-180,-66,4, latitude=0,90,4]"
)

MINUTES_PER_DAY = 1440
DAYS_PER_TIME_CHUNK = 30
DAYS_PER_CYCLE = 120  # quarterly modeling (paper §6.1)
TIME_CHUNKS_PER_CYCLE = DAYS_PER_CYCLE // DAYS_PER_TIME_CHUNK
LON_CHUNKS = 29  # ceil((−66 − −180 + 1) / 4)
LAT_CHUNKS = 23  # ceil((90 − 0 + 1) / 4)
#: The receiving stations a broadcast's ``receiver_id`` is drawn from.
RECEIVER_IDS = np.array([f"R{i:03d}" for i in range(200)], dtype=object)

#: Major U.S. ports as chunk-grid hotspots (lon_chunk, lat_chunk relative
#: to the (-180, 0) grid origin).  Houston is first — the §3.3 selection
#: query filters to its densely trafficked area.  Large harbours are
#: modeled as *complexes* of adjacent terminal chunks (a real port's
#: anchorages, channels, and terminals span tens of nautical miles), so
#: individual chunks stay extremely hot while the complex itself offers
#: chunk boundaries a skew-aware range partitioner can split along.
DEFAULT_PORTS: Tuple[Port, ...] = (
    Port("houston_terminals", lon_chunk=21, lat_chunk=7, weight=0.50),
    Port("houston_channel", lon_chunk=22, lat_chunk=7, weight=0.35),
    Port("houston_anchorage", lon_chunk=21, lat_chunk=8, weight=0.25),
    Port("new_orleans", lon_chunk=23, lat_chunk=7, weight=0.40),
    Port("new_york_harbor", lon_chunk=26, lat_chunk=10, weight=0.45),
    Port("new_york_sound", lon_chunk=26, lat_chunk=11, weight=0.30),
    Port("los_angeles", lon_chunk=15, lat_chunk=8, weight=0.45),
    Port("long_beach", lon_chunk=14, lat_chunk=8, weight=0.30),
    Port("seattle", lon_chunk=14, lat_chunk=11, weight=0.40),
    Port("miami", lon_chunk=24, lat_chunk=6, weight=0.45),
    Port("norfolk", lon_chunk=25, lat_chunk=9, weight=0.35),
    Port("anchorage", lon_chunk=7, lat_chunk=15, weight=0.25),
)


class AisWorkload(CyclicWorkload):
    """Quarterly ship-track ingest with Zipf port skew.

    Args:
        n_cycles: 120-day cycles (default 10, the Figure-7 horizon).
        ships: distinct vessels in the fleet.
        broadcasts_per_ship: mean AIS messages per ship per cycle.
        target_total_gb: modeled bytes after the final cycle (paper: 400).
        seasonal_amplitude: relative swell of holiday-quarter inserts;
            drives the demand variance behind Table 2's AIS column.
        seed: reproducibility seed.
    """

    name = "ais"

    def __init__(
        self,
        n_cycles: int = 10,
        ships: int = 900,
        broadcasts_per_ship: int = 30,
        target_total_gb: float = 400.0,
        seasonal_amplitude: float = 0.45,
        seed: int = 20090101,
    ) -> None:
        super().__init__(n_cycles=n_cycles, seed=seed)
        if ships < 10:
            raise WorkloadError("need >= 10 ships")
        if broadcasts_per_ship < 2:
            raise WorkloadError("need >= 2 broadcasts per ship")
        if not 0 <= seasonal_amplitude < 1:
            raise WorkloadError("seasonal_amplitude must be in [0, 1)")
        if not 0 < target_total_gb < float("inf"):
            raise WorkloadError("target_total_gb must be positive and finite")
        self.ships = int(ships)
        self.broadcasts_per_ship = int(broadcasts_per_ship)
        self.target_total_gb = float(target_total_gb)
        self.seasonal_amplitude = float(seasonal_amplitude)

        self.broadcast: ArraySchema = parse_schema(BROADCAST_SCHEMA_TEXT)
        self.ports: Tuple[Port, ...] = DEFAULT_PORTS
        self.spatial: SpatialModel = port_hotspots(
            LON_CHUNKS, LAT_CHUNKS, self.ports,
            hot_mass=0.94, spread=0.35, seed=seed ^ 0xA15,
        )
        #: modeled footprint of the replicated vessel array (paper: 25 MB).
        self.vessel_bytes: float = 25e6

    # ------------------------------------------------------------------
    @property
    def schemas(self) -> Tuple[ArraySchema, ...]:
        # Only the broadcast array participates in placement; the vessel
        # array is replicated everywhere (paper §3.2).
        return (self.broadcast,)

    @property
    def target_total_bytes(self) -> float:
        return self.target_total_gb * GB

    def grid_box(self) -> Box:
        return Box(
            (0, 0, 0),
            (
                self.n_cycles * TIME_CHUNKS_PER_CYCLE,
                self.broadcast.dimension("longitude").chunk_count,
                self.broadcast.dimension("latitude").chunk_count,
            ),
        )

    # ------------------------------------------------------------------
    # replicated vessel array
    # ------------------------------------------------------------------
    def vessel_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The replicated vessel array's ``(vessel_id, ship_type)``
        columns, sorted by id: ids ``0..ships-1`` (int64), each ship's
        type the seed's first draw (int32, six types).  The join reads
        no other vessel attribute."""
        rng = np.random.default_rng((self.seed, 0))
        types = rng.integers(0, 6, size=self.ships).astype(np.int32)
        return np.arange(self.ships, dtype=np.int64), types

    # ------------------------------------------------------------------
    # query regions
    # ------------------------------------------------------------------
    def cycle_time_range(self, cycle: int) -> Tuple[int, int]:
        """Half-open minute range of one 1-based 120-day cycle."""
        minutes = DAYS_PER_CYCLE * MINUTES_PER_DAY
        return ((cycle - 1) * minutes, cycle * minutes)

    def houston_box(self, cycle_hi: int, recent_only: bool = True) -> Box:
        """The densely trafficked Houston port area (selection query).

        The benchmarks reference the newest data most (§3.3, "cooking");
        by default the box covers the latest 120-day cycle.  Pass
        ``recent_only=False`` for the full-history variant.
        """
        port = self.ports[0]
        lon0 = -180 + port.lon_chunk * 4
        lat0 = 0 + port.lat_chunk * 4
        t0, t1 = self.cycle_time_range(cycle_hi)
        if not recent_only:
            t0 = 0
        return Box((t0, lon0 - 2, lat0 - 2), (t1, lon0 + 6, lat0 + 6))

    def seasonal_weight(self, cycle: int) -> float:
        """Relative insert volume of a cycle.

        Commercial shipping swells into holiday quarters and rides
        multi-quarter economic momentum, so consecutive cycles' volumes
        trend together while cycles a year apart differ — the "noticeable
        variance in monthly demand" that makes AIS prefer a one-sample
        derivative (§6.3, Table 2).
        """
        phase = 2.0 * np.pi * ((cycle - 1) % 6) / 6.0
        wobble = 0.25 * np.sin(2.0 * np.pi * ((cycle - 1) % 2) / 2.0 + 0.7)
        return float(
            1.0 + self.seasonal_amplitude * (np.sin(phase) + wobble)
        )

    # ------------------------------------------------------------------
    def _generate_batch(self, cycle: int) -> InsertBatch:
        rng = np.random.default_rng((self.seed, cycle))
        weight = self.seasonal_weight(cycle)
        n_broadcasts = max(
            self.ships * 2,
            int(self.ships * self.broadcasts_per_ship * weight),
        )

        # Each ship anchors somewhere drawn from the port-skewed spatial
        # model this cycle (Zipf affinity: busy ships visit busy ports),
        # then its broadcasts scatter around the anchor — coherent local
        # tracks with the right aggregate skew.
        ship_ids = rng.integers(0, self.ships, size=n_broadcasts)
        anchors_flat = self.spatial.sample_chunks(self.ships, rng)
        a_lon, a_lat = self.spatial.chunk_lon_lat(anchors_flat)
        anchor_lon = -180 + a_lon * 4 + 2
        anchor_lat = 0 + a_lat * 4 + 2

        lon = anchor_lon[ship_ids] + np.round(
            rng.normal(0.0, 0.45, size=n_broadcasts)
        ).astype(np.int64)
        lat = anchor_lat[ship_ids] + np.round(
            rng.normal(0.0, 0.45, size=n_broadcasts)
        ).astype(np.int64)
        # A slice of broadcasts comes from ships in transit on the open
        # ocean: individually scattered positions that materialize the
        # long tail of tiny chunks (the paper's 924-byte median against
        # multi-hundred-MB port chunks).
        transit = rng.random(n_broadcasts) < 0.10
        n_transit = int(transit.sum())
        lon[transit] = rng.integers(-180, -66, size=n_transit)
        lat[transit] = rng.integers(0, 91, size=n_transit)
        lon = np.clip(lon, -180, -67)
        lat = np.clip(lat, 0, 90)
        t0, t1 = self.cycle_time_range(cycle)
        time = rng.integers(t0, t1, size=n_broadcasts)

        coords = np.stack([time, lon, lat], axis=1).astype(np.int64)
        unique_idx = unique_row_index(coords)
        coords = coords[unique_idx]
        ship_ids = ship_ids[unique_idx]
        n = coords.shape[0]

        in_port = rng.random(n) < 0.55
        speed = np.where(
            in_port, 0, rng.integers(1, 25, size=n)
        ).astype(np.int32)
        course = rng.integers(0, 360, size=n).astype(np.int32)
        attrs: Dict[str, np.ndarray] = {
            "speed": speed,
            "course": course,
            "heading": (
                (course + rng.integers(-5, 6, size=n)) % 360
            ).astype(np.int32),
            "rot": rng.integers(-30, 31, size=n).astype(np.int32),
            "status": np.where(in_port, 1, 0).astype(np.int32),
            "voyage_id": (
                cycle * 100000 + ship_ids
            ).astype(np.int64),
            "ship_id": ship_ids.astype(np.int64),
            "receiver_type": rng.integers(
                65, 68, size=n
            ).astype(np.uint8),
            "receiver_id": RECEIVER_IDS[
                rng.integers(0, RECEIVER_IDS.size, size=n)
            ],
            "provenance": np.full(n, f"uscg/{cycle}", dtype=object),
        }

        # The batch's physical footprint, exact in float64.
        actual = float(n * cell_byte_width(self.broadcast, attrs))
        season_total = sum(
            self.seasonal_weight(i) for i in range(1, self.n_cycles + 1)
        )
        target = self.target_total_bytes * weight / season_total
        inflate = target / actual if actual else 1.0
        return InsertBatch(
            cycle=cycle,
            chunks=chunk_cells(self.broadcast, coords, attrs, inflate),
            description=f"AIS quarter {cycle}",
        )
