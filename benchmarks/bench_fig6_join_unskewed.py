"""Figure 6 — join duration per cycle on unskewed MODIS data.

Paper shapes asserted:
* Append's join is erratic/slow: the most recent day's chunks sit on one
  or two hosts, so its mean latency tops the balanced schemes;
* every other scheme's latency *drops* as nodes join (the queried chunks
  spread over a growing cluster).
"""

import statistics


from benchmarks.conftest import run_once
from repro.harness import figure6_join_series


def test_figure6(benchmark, bench_sweep):
    result = run_once(benchmark, figure6_join_series, bench_sweep)
    print()
    print(result.render())

    means = {
        name: statistics.mean(series)
        for name, series in result.series.items()
    }
    balanced = [n for n in means if n != "append"]

    # Append pays for its 1-2 host concentration of recent data
    assert means["append"] > min(means[n] for n in balanced)
    assert means["append"] >= statistics.median(
        [means[n] for n in means]
    )

    # parallelism grows with the cluster: late cycles beat early ones
    for name in ("consistent_hash", "kd_tree", "round_robin"):
        series = result.series[name]
        early = statistics.mean(series[:4])
        late = statistics.mean(series[-4:])
        assert late < early, f"{name} join should speed up as nodes join"

    # Append never improves much (limited parallelism)
    append = result.series["append"]
    assert statistics.mean(append[-4:]) > 0.6 * statistics.mean(
        append[:4]
    )
