"""One shared-nothing database node: capacity plus a chunk store."""

from __future__ import annotations

from typing import Optional

from repro.arrays.storage import ChunkStore
from repro.errors import ClusterError


class Node:
    """A homogeneous cluster node (paper §5.1: capacity ``c`` per node).

    Args:
        node_id: unique integer id; also the partitioner-facing identity.
        capacity_bytes: storage capacity ``c``.  The node never refuses
            data (the provisioner's job is to scale out first), but
            :attr:`over_capacity` flags violations for the control loop.
        store: a prebuilt chunk store — the cluster passes a tiered one
            (segment-backed, byte-budgeted) when out-of-core storage is
            configured.  Defaults to the classic all-in-memory store.
    """

    def __init__(
        self,
        node_id: int,
        capacity_bytes: float,
        store: Optional[ChunkStore] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ClusterError(
                f"node capacity must be positive, got {capacity_bytes}"
            )
        self.node_id = int(node_id)
        self.capacity_bytes = float(capacity_bytes)
        self.store = store if store is not None else ChunkStore()

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> float:
        """Modeled bytes currently stored."""
        return self.store.used_bytes

    @property
    def over_capacity(self) -> bool:
        return self.store.used_bytes > self.capacity_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Node({self.node_id}, {self.used_bytes / self.capacity_bytes:.0%}"
            f" of {self.capacity_bytes:.3g}B)"
        )
