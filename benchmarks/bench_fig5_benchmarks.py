"""Figure 5 — benchmark times for elastic partitioners (+ §6.2.3 cost).

Paper shapes asserted:
* the science benchmarks are won by skew-aware, n-dimensionally
  clustered schemes (K-d Tree / Incr. Quadtree / Hilbert Curve);
* the range partitioners run the AIS SPJ benchmark more slowly than the
  hash schemes (coarse slicing vs fine-grained balance);
* in total workload cost (Eq. 1 node-hours) the clustered trio beats the
  Round Robin baseline by >15 % (paper: >20 %), read from
  ``headline_claims``.
"""


from benchmarks.conftest import run_once
from repro.harness import figure5_benchmarks, headline_claims
from repro.harness.experiments import CLUSTERED_TRIO


def test_figure5(benchmark, bench_sweep):
    result = run_once(benchmark, figure5_benchmarks, bench_sweep)
    print()
    print(result.render())

    # clustered trio wins the science benchmarks on both workloads
    for workload in ("modis", "ais"):
        science = {
            n: result.data[workload][n].get("science", 0.0)
            for n in result.data[workload]
        }
        trio_best = min(science[n] for n in CLUSTERED_TRIO)
        assert trio_best <= min(
            science["round_robin"], science["consistent_hash"]
        ), f"clustered trio must win {workload} science"

    # range partitioners slower on AIS SPJ (paper §6.2.2)
    spj_ais = {
        n: result.data["ais"][n].get("spj", 0.0)
        for n in result.data["ais"]
    }
    assert spj_ais["uniform_range"] > spj_ais["round_robin"]
    assert spj_ais["incremental_quadtree"] > spj_ais["consistent_hash"]

    # total-cost win over the baseline (Eq. 1)
    win = headline_claims(bench_sweep).clustered_win_pct
    print(f"clustered trio total-cost win vs baseline: {win:.0f}% "
          f"(paper: >20%)")
    assert win > 15.0


def test_headline_claims(benchmark, bench_sweep):
    """The §6.2.1/§6.2.3 prose claims, recomputed from the sweep."""
    claims = run_once(benchmark, headline_claims, bench_sweep)
    print()
    print(claims.render())
    assert claims.fine_grained_rsd_pct < 25.0
    assert claims.other_rsd_pct > 30.0
    assert claims.global_reorg_ratio > 1.4
    assert claims.clustered_win_pct > 15.0
