"""Figure 8 companion — per-cycle maintenance cost vs churn fraction.

The DBSP-style claim behind :mod:`repro.query.incremental`, measured:
a fixed-size window sustains insert/expire churn at several fractions
of its live chunk count, and a maintained grid-statistics view refreshes
after every cycle.  Per-cycle cost should track the *delta*, not the
array — small churn folds a small signed batch while the full-recompute
arm rescans everything — and the Tempura-style planner should ride the
delta arm at small fractions but flip to full recompute when churn
rewrites the whole window (delta = removals + inserts ≈ 2x the array).

Shapes asserted:
* at ≤10% churn the delta arm beats the modeled full recompute by the
  ISSUE's >=5x floor;
* the chosen arm's modeled cost grows with the churn fraction across
  all three fractions (cycle cost tracks delta size);
* delta bytes grow with churn while the full-recompute arm stays flat;
* the planner crosses over: delta at small churn, full at 100%.
"""

from benchmarks.conftest import run_once
from repro.harness import incremental_churn


def test_incremental_churn(benchmark):
    result = run_once(benchmark, incremental_churn)
    print()
    print(result.render())

    assert result.churn_fractions == [0.05, 0.25, 1.0]

    # The headline: >=5x per-cycle speedup at <=10% churn.
    speedups = result.speedups()
    assert speedups[0] >= 5.0

    # Cycle cost tracks delta size: the chosen arm's modeled seconds
    # and the delta bytes both grow monotonically with churn...
    assert (
        result.delta_arm_seconds[0]
        < result.delta_arm_seconds[1]
        < result.delta_arm_seconds[2]
    )
    assert result.delta_gb[0] < result.delta_gb[1] < result.delta_gb[2]
    assert result.delta_chunks[0] < result.delta_chunks[2]
    # ...while the full-recompute arm prices the same window each time
    # (bounded spread, no growth with churn).
    full = result.full_arm_seconds
    assert max(full) < 2.5 * min(full)

    # Planner crossover: delta arm at small churn, full recompute once
    # churn rewrites the window (delta bytes exceed array bytes).
    assert result.modes[0] == "delta"
    assert result.modes[-1] == "full"
    assert result.delta_gb[-1] > result.full_gb[-1]
