"""Workload metrics: storage skew (RSD) and node-hour cost (Eq. 1).

The paper assesses partitioners on two axes: how evenly they spread bytes
(relative standard deviation of per-node load, Figure 4's labels) and what
a whole workload costs in node-hours (Eq. 1:
``cost = Σ_i N_i (I_i + r_i + w_i)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence



def relative_std(values: Sequence[float]) -> float:
    """Relative standard deviation: population σ divided by the mean.

    Returns 0 for an empty or all-zero sequence (an empty database is
    perfectly balanced).  Expressed as a fraction; multiply by 100 for the
    percent labels of Figure 4.
    """
    vals = list(values)
    if not vals:
        return 0.0
    n = len(vals)
    mean = sum(vals) / n
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in vals) / n
    return (variance ** 0.5) / mean


@dataclass
class CycleMetrics:
    """Measured phases of one workload cycle (paper §3.4).

    Times are simulated seconds; ``node_hours`` applies Eq. 1's summand.
    """

    cycle: int
    nodes: int
    demand_bytes: float
    insert_seconds: float = 0.0
    reorg_seconds: float = 0.0
    query_seconds: float = 0.0
    nodes_added: int = 0
    chunks_moved: int = 0
    bytes_moved: float = 0.0
    storage_rsd: float = 0.0
    query_seconds_by_name: Dict[str, float] = field(default_factory=dict)
    #: the arm (``"delta"`` / ``"full"``) each maintained view refreshed by
    refresh_modes: List[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.insert_seconds + self.reorg_seconds + self.query_seconds

    @property
    def node_hours(self) -> float:
        """``N_i (I_i + r_i + w_i)`` in node-hours (Eq. 1 summand)."""
        return self.nodes * self.total_seconds / 3600.0


@dataclass
class RunMetrics:
    """Accumulated metrics of a full workload run (all cycles)."""

    cycles: List[CycleMetrics] = field(default_factory=list)

    def add(self, cycle: CycleMetrics) -> None:
        self.cycles.append(cycle)

    # ------------------------------------------------------------------
    @property
    def workload_cost_node_hours(self) -> float:
        """Eq. 1: summed node-hours over all cycles."""
        return float(sum(c.node_hours for c in self.cycles))

    @property
    def total_insert_seconds(self) -> float:
        return float(sum(c.insert_seconds for c in self.cycles))

    @property
    def total_reorg_seconds(self) -> float:
        return float(sum(c.reorg_seconds for c in self.cycles))

    @property
    def total_bytes_moved(self) -> float:
        return float(sum(c.bytes_moved for c in self.cycles))

    @property
    def mean_storage_rsd(self) -> float:
        """Average post-insert storage RSD across cycles (Figure 4 labels)."""
        if not self.cycles:
            return 0.0
        return float(
            sum(c.storage_rsd for c in self.cycles) / len(self.cycles)
        )

    def query_seconds_by_name(self) -> Dict[str, float]:
        """Total simulated seconds per named benchmark query."""
        out: Dict[str, float] = {}
        for cycle in self.cycles:
            for name, seconds in cycle.query_seconds_by_name.items():
                out[name] = out.get(name, 0.0) + seconds
        return out

    def query_series(self, name: str) -> List[float]:
        """Per-cycle latency series of one query (Figures 6 and 7)."""
        series = []
        for cycle in self.cycles:
            if name in cycle.query_seconds_by_name:
                series.append(cycle.query_seconds_by_name[name])
        return series

    def nodes_series(self) -> List[int]:
        """Per-cycle provisioned node count (Figure 8)."""
        return [c.nodes for c in self.cycles]
