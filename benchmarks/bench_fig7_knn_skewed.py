"""Figure 7 — k-nearest neighbours on skewed AIS data.

Paper shapes asserted:
* K-d Tree and Hilbert Curve are the fastest — spatial neighbourhoods
  stay on one host (paper: half the baseline's latency);
* the hash schemes and the Round Robin baseline pay remote-fragment
  costs for nearly every neighbour;
* the Incremental Quadtree starts at Uniform Range's level (its first
  split is a high-level quartering) and catches up once skew-aware
  redistributions kick in (paper §6.2.2).
"""

import statistics


from benchmarks.conftest import run_once
from repro.harness import figure7_knn_series


def test_figure7(benchmark, bench_sweep):
    result = run_once(benchmark, figure7_knn_series, bench_sweep)
    print()
    print(result.render())

    means = {
        name: statistics.mean(series)
        for name, series in result.series.items()
    }

    # clustered schemes beat the unclustered baseline and hash schemes
    for fast in ("kd_tree", "hilbert_curve"):
        for slow in ("round_robin", "consistent_hash"):
            assert means[fast] < means[slow], (
                f"{fast} should beat {slow} on spatial kNN"
            )

    ratio = means["round_robin"] / min(
        means["kd_tree"], means["hilbert_curve"]
    )
    print(f"baseline / best clustered: {ratio:.2f}x (paper ~2x)")
    assert ratio > 1.3

    # quadtree opens like uniform range, then catches up
    quad = result.series["incremental_quadtree"]
    ur = result.series["uniform_range"]
    assert abs(quad[0] - ur[0]) / ur[0] < 0.25
    late_quad = statistics.mean(quad[len(quad) // 2:])
    late_ur = statistics.mean(ur[len(ur) // 2:])
    assert late_quad <= late_ur * 1.05
