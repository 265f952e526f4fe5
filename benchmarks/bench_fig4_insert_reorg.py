"""Figure 4 — elastic partitioner insert and reorganization durations.

Paper shapes asserted:
* insert time near-constant across partitioners, Append slightly higher
  (it funnels every chunk over the coordinator's network link);
* Append's reorganization is exactly zero;
* the global schemes (Round Robin, Uniform Range) reorganize markedly
  longer than the incremental ones (§6.2.1: ~2.5x);
* the three fine-grained schemes (RR, Extendible, Consistent) balance
  storage far better than the rest (paper: 13 % vs 44 % mean RSD).

The two §6.2.1 means are read from ``headline_claims``, the one place
their arithmetic lives.
"""


from benchmarks.conftest import run_once
from repro.harness import figure4_insert_reorg, headline_claims


def test_figure4(benchmark, bench_sweep):
    result = run_once(benchmark, figure4_insert_reorg, bench_sweep)
    print()
    print(result.render())

    for workload in ("modis", "ais"):
        data = result.data[workload]
        inserts = [data[n][0] for n in data]

        # insert time near constant: max within 40 % of min
        assert max(inserts) < 1.4 * min(inserts)
        # Append never moves data
        assert data["append"][1] == 0.0

    claims = headline_claims(bench_sweep)

    # global reorganization penalty (averaged over both workloads)
    ratio = claims.global_reorg_ratio
    print(f"global/incremental reorg ratio: {ratio:.2f}x (paper ~2.5x)")
    assert ratio > 1.4

    # fine-grained RSD advantage
    fine = claims.fine_grained_rsd_pct
    other = claims.other_rsd_pct
    print(f"mean RSD fine-grained {fine:.0f}% vs others {other:.0f}% "
          f"(paper: 13% vs 44%)")
    assert fine * 2 < other
