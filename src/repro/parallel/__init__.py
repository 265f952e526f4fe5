"""Process-parallel execution backend (``REPRO_EXEC=process``).

Every simulated :class:`~repro.cluster.node.Node` gains a real worker
process; chunk payloads ship over :mod:`multiprocessing.shared_memory`
frames and a pickle-framed control pipe carries requests.  The engine
(:class:`~repro.parallel.engine.ProcessEngine`) keeps the workers'
resident chunk sets in sync with the cluster's chunk catalog and serves
real scatter/gather plus the k-means / kNN / join shuffle exchanges.
The classic in-process engine stays on as the parity oracle — results
are byte-identical across backends — and the calibration harness
(:mod:`~repro.parallel.calibrate`) fits :class:`CostParameters` rates
from measured worker wall-clock.
"""

from repro.parallel.calibrate import CalibrationResult, calibrate
from repro.parallel.engine import ProcessEngine

__all__ = [
    "CalibrationResult",
    "ProcessEngine",
    "calibrate",
]
