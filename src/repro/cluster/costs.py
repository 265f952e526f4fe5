"""Cost constants of the simulated shared-nothing platform.

The paper's analytical model (§5.2) prices every phase of a workload cycle
from two empirically derived constants — ``δ``, the I/O cost per GB, and
``t``, the network transfer cost per GB — plus the observed query latency.
Our simulator uses the same structure end to end, so measured times and the
cost model speak the same language.

Defaults correspond to ~100 MB/s effective disk bandwidth and ~40 MB/s
effective network bandwidth, which place the experiment durations in the
same minutes-range as the paper's testbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Optional

from repro.config import env_mapping
from repro.errors import ClusterError

#: One gigabyte, in bytes (decimal, as storage vendors and the paper use).
GB = 1e9

#: Environment override → dataclass field, in **seconds per byte**;
#: values are converted to the per-GB fields internally.  ``SCAN`` is
#: the per-byte operator compute of a scan charge (the ``cpu`` term),
#: ``IO`` the paper's ``δ``, ``NETWORK`` its ``t``.
ENV_COST_OVERRIDES = {
    "REPRO_COST_SCAN_S_PER_B": "cpu_seconds_per_gb",
    "REPRO_COST_IO_S_PER_B": "io_seconds_per_gb",
    "REPRO_COST_NETWORK_S_PER_B": "network_seconds_per_gb",
}


@dataclass(frozen=True)
class CostParameters:
    """Rates that convert bytes and cells into simulated seconds.

    Attributes:
        io_seconds_per_gb: ``δ`` — seconds to write or read one GB on a
            node's local disk.
        network_seconds_per_gb: ``t`` — seconds to ship one GB between two
            nodes (includes the receiving write).
        cpu_seconds_per_gb: compute cost per (modeled) GB processed by a
            query operator at intensity 1.0; math-heavy science queries
            multiply this by their intensity factor.
        query_overhead_seconds: fixed per-query coordination cost
            (planning, synchronization barriers).
        task_dispatch_seconds: cost of dispatching one distributed query
            fragment to a *remote* node and collecting its answer
            (scheduling, plan instantiation, queueing).  Interactive
            spatial operators — kNN probes one chunk neighbourhood per
            sampled ship — pay this per remote node involved, which is
            exactly what clustered placement avoids.
        fabric_concurrency: how many full-rate node-to-node transfers the
            cluster interconnect sustains simultaneously.  Global
            reshuffles push data through every link at once and are
            bounded by this fabric capacity; incremental plans (one donor,
            one newcomer) rarely hit it.  This single knob reproduces the
            paper's ~2.5x global-vs-incremental reorganization gap.
    """

    io_seconds_per_gb: float = 10.0
    network_seconds_per_gb: float = 25.0
    cpu_seconds_per_gb: float = 8.0
    query_overhead_seconds: float = 2.0
    task_dispatch_seconds: float = 8.0
    fabric_concurrency: float = 1.5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ClusterError(
                    f"{f.name} must be finite and >= 0, got {value!r}"
                )
        if self.fabric_concurrency <= 0:
            raise ClusterError("fabric_concurrency must be positive")

    # ------------------------------------------------------------------
    def io_time(self, size_bytes: float) -> float:
        """Seconds of local disk I/O for ``size_bytes``."""
        return size_bytes / GB * self.io_seconds_per_gb

    def network_time(self, size_bytes: float) -> float:
        """Seconds to transfer ``size_bytes`` over one link."""
        return size_bytes / GB * self.network_seconds_per_gb

    def cpu_time(self, size_bytes: float, intensity: float = 1.0) -> float:
        """Seconds of compute over ``size_bytes`` at a given intensity."""
        return size_bytes / GB * self.cpu_seconds_per_gb * intensity

    # ------------------------------------------------------------------
    @classmethod
    def from_env(
        cls,
        base: Optional["CostParameters"] = None,
        environ: Optional[Mapping[str, str]] = None,
    ) -> "CostParameters":
        """Build parameters with per-byte overrides from the environment.

        ``REPRO_COST_SCAN_S_PER_B`` / ``REPRO_COST_IO_S_PER_B`` /
        ``REPRO_COST_NETWORK_S_PER_B`` change a rate without editing
        code: any of those that are set replace the corresponding field
        of ``base`` (default :class:`CostParameters`) after conversion
        from seconds-per-**byte** to the per-GB unit the model uses.
        Unset or blank variables leave the base value untouched.

        Raises
        ------
        ClusterError
            If a set variable does not parse as a float (negative and
            non-finite values are rejected by ``__post_init__`` as usual).
        """
        env = env_mapping() if environ is None else environ
        changes: Dict[str, float] = {}
        for var, field in ENV_COST_OVERRIDES.items():
            raw = env.get(var)
            if raw is None or not raw.strip():
                continue
            try:
                per_byte = float(raw)
            except ValueError:
                raise ClusterError(
                    f"{var}={raw!r} is not a valid seconds-per-byte float"
                ) from None
            changes[field] = per_byte * GB
        base = cls() if base is None else base
        return replace(base, **changes) if changes else base


#: Default cost parameters shared by the harness and benchmarks.
DEFAULT_COSTS = CostParameters()
