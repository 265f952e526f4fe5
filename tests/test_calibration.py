"""Table-3 calibration harness + environment-driven cost overrides.

The regression bar — measured per-node scan and shuffle wall-clock
correlate ≥ 0.8 with the :class:`CostAccumulator` charges for the same
work — is a wall-clock claim, so it is enforced where a red run means
something: CI's ``parallel-exec`` job
(``bench_table3_calibration.py --smoke``).  Three smoke trials on a
shared box read ρ = 0.55 one run in two; tier-1 therefore asserts only
what is deterministic: every correlation is a finite number in
[-1, 1], the samples cover every kind and size, the fitted rates are
finite.  Also covers the ``REPRO_COST_*`` loop: fitted seconds-per-byte
rates export as environment strings and re-enter via
:meth:`CostParameters.from_env`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.costs import (
    ENV_COST_OVERRIDES,
    GB,
    CostParameters,
)
from repro.errors import ClusterError
from repro.parallel import CalibrationResult, calibrate


@pytest.fixture(scope="module")
def smoke_result():
    return calibrate(smoke=True, trials=3)


def _is_correlation(value):
    return bool(np.isfinite(value)) and -1.0 <= value <= 1.0


class TestCalibrationRun:
    def test_scan_and_shuffle_correlate(self, smoke_result):
        # Deterministic half of the bar; the >= 0.8 half runs in CI's
        # calibration smoke (see the module docstring).
        assert _is_correlation(smoke_result.correlations["scan"])
        assert _is_correlation(smoke_result.correlations["shuffle"])

    def test_io_correlates_too(self, smoke_result):
        assert _is_correlation(smoke_result.correlations["io"])

    def test_samples_cover_every_kind_and_size(self, smoke_result):
        from repro.parallel.calibrate import SMOKE_SIZES

        by_kind = {}
        for s in smoke_result.samples:
            by_kind.setdefault(s["kind"], set()).add(s["bytes"])
        sizes = {int(n // 8) * 8 for n in SMOKE_SIZES}
        for kind in ("io", "scan", "shuffle"):
            assert by_kind[kind] == sizes

    def test_fitted_rates_are_finite_and_nonnegative(
        self, smoke_result
    ):
        for name in ("io", "network", "scan"):
            rate = smoke_result.rates[name]
            assert np.isfinite(rate)
            assert rate >= 0.0

    def test_as_dict_is_json_ready(self, smoke_result):
        import json

        payload = json.dumps(smoke_result.as_dict())
        assert "correlations" in payload
        assert "fitted_seconds_per_byte" in payload

    def test_render_mentions_every_kind(self, smoke_result):
        text = smoke_result.render()
        for kind in ("io", "scan", "shuffle"):
            assert kind in text

    def test_rejects_single_node(self):
        with pytest.raises(ClusterError):
            calibrate(node_ids=(0,), smoke=True)

    def test_rejects_empty_sizes(self):
        with pytest.raises(ClusterError):
            calibrate(sizes=())


class TestEnvExportLoop:
    def test_env_exports_roundtrip_through_from_env(
        self, smoke_result
    ):
        fitted = smoke_result.fitted_costs(base=CostParameters())
        exports = smoke_result.env_exports()
        for var, field in ENV_COST_OVERRIDES.items():
            per_byte = float(exports[var])
            assert getattr(fitted, field) == pytest.approx(
                per_byte * GB
            )

    def test_from_env_reads_environ_mapping(self):
        costs = CostParameters.from_env(
            environ={"REPRO_COST_IO_S_PER_B": "2.5e-9"}
        )
        assert costs.io_seconds_per_gb == pytest.approx(2.5)
        # untouched fields keep their defaults
        assert costs.network_seconds_per_gb == (
            CostParameters().network_seconds_per_gb
        )

    def test_from_env_respects_base(self):
        base = CostParameters(cpu_seconds_per_gb=99.0)
        costs = CostParameters.from_env(
            base=base,
            environ={"REPRO_COST_NETWORK_S_PER_B": "1e-9"},
        )
        assert costs.cpu_seconds_per_gb == 99.0
        assert costs.network_seconds_per_gb == pytest.approx(1.0)

    def test_from_env_ignores_blank_values(self):
        costs = CostParameters.from_env(
            environ={"REPRO_COST_SCAN_S_PER_B": "   "}
        )
        assert costs == CostParameters()

    def test_from_env_rejects_garbage(self):
        with pytest.raises(ClusterError):
            CostParameters.from_env(
                environ={"REPRO_COST_SCAN_S_PER_B": "fast"}
            )

    def test_from_env_uses_process_environ_by_default(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_COST_IO_S_PER_B", "3e-9")
        assert CostParameters.from_env().io_seconds_per_gb == (
            pytest.approx(3.0)
        )

    def test_cluster_picks_up_env_costs(self, monkeypatch):
        from repro.cluster import ElasticCluster
        from repro.core import make_partitioner
        from repro.arrays import Box

        monkeypatch.setenv("REPRO_COST_NETWORK_S_PER_B", "4e-9")
        partitioner = make_partitioner(
            "round_robin", [0, 1], grid=Box((0, 0), (4, 4)),
            node_capacity_bytes=GB,
        )
        cluster = ElasticCluster(partitioner, GB)
        assert cluster.costs.network_seconds_per_gb == (
            pytest.approx(4.0)
        )

    def test_result_defaults_are_empty(self):
        result = CalibrationResult()
        assert result.env_exports() == {}
        assert result.fitted_costs() == CostParameters()
