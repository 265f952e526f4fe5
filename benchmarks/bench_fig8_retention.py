"""Figure 8 companion — a sliding retention window under churn.

The shipped paper workloads are append-only; this benchmark drives the
retention regime the expiry API (`ElasticCluster.remove_chunks`) exists
for: a heavy ingest staircase, a plateau once the window fills, and
steady insert/expire churn with periodic incremental scale-outs.

Shapes asserted:
* live storage is a staircase that plateaus at roughly the retention
  window's worth of steady-state ingest — it stops tracking cumulative
  ingest once expiry kicks in;
* ledger and catalog column capacity stay bounded by the live working
  set (compaction reclaims the ramp's slots) instead of the historical
  peak;
* the catalog epoch advances every cycle (mutations invalidate cached
  payloads) while repeated queries *between* mutations hit the
  per-epoch payload cache;
* the maintained grid view's per-cycle delta stays a small slice of
  the live window once churn reaches steady state, and the planner
  takes the delta arm on all but the priming/ramp-expiry cycles;
* provisioned capacity covers demand at every cycle.
"""

from benchmarks.conftest import run_once
from repro.harness import figure8_retention


def test_figure8_retention(benchmark):
    result = run_once(benchmark, figure8_retention, cycles=20)
    print()
    print(result.render())

    n = len(result.live_gb)
    assert n == 20

    # Expiry caps live storage: once the window slides, the live curve
    # detaches from cumulative ingest (which keeps growing).
    assert result.ingested_gb[-1] > 2.0 * result.live_gb[-1]
    # The plateau: after the ramp ages out, live bytes stay within the
    # window's worth of steady-state churn (no monotone growth).
    tail = result.live_gb[result.retention_cycles + 4:]
    assert max(tail) < 2.5 * min(tail)
    # Peak (ramp in window) clearly exceeds the steady plateau.
    assert max(result.live_gb) > 1.5 * tail[-1]

    # Bounded index memory: both the placement ledger's and the
    # catalog's column capacity track the live chunk count, not the
    # historical peak.
    live = result.live_chunks[-1]
    assert result.ledger_capacity[-1] <= max(64, 2 * live)
    assert result.catalog_capacity[-1] <= max(64, 2 * live)

    # Epochs advance with every cycle's mutations...
    epochs = result.catalog_epochs
    assert all(b > a for a, b in zip(epochs, epochs[1:]))
    # ...and repeated queries between mutations hit the payload cache:
    # of the 3 gathers per cycle only the first pays the concatenation,
    # and the parity recompute reuses it.  Misses are bounded by one
    # query gather plus at most one dirty-rescan region gather a cycle.
    assert result.payload_cache_hits >= 3 * n
    assert result.payload_cache_misses <= 2 * n

    # The maintained view's delta stream mirrors the churn: the ramp is
    # append-only, expiry starts exactly when the window slides, and in
    # steady state the per-cycle delta is a small slice of the window.
    ramp = result.retention_cycles
    assert all(r == 0 for r in result.delta_removed_chunks[:ramp])
    assert all(a > 0 for a in result.delta_added_chunks)
    assert max(result.delta_removed_chunks[ramp:]) > 0
    steady = slice(ramp + 4, None)
    churn = [
        a + r
        for a, r in zip(
            result.delta_added_chunks[steady],
            result.delta_removed_chunks[steady],
        )
    ]
    assert max(churn) < result.live_chunks[-1]
    assert max(result.delta_gb[steady]) < 0.75 * max(result.delta_gb)
    # The planner primes with a full recompute, then rides the delta
    # arm for at least two thirds of the cycles (the ramp's expiry can
    # legitimately flip it back to full).
    assert result.maintenance_modes[0] == "full"
    assert result.maintenance_modes.count("delta") >= (2 * n) // 3

    # The +2 staircase keeps capacity ahead of demand.
    assert all(nodes >= 2 for nodes in result.nodes)
    assert result.nodes == sorted(result.nodes)  # nodes never coalesce
