"""Figure 11 — speedup over Ligra-o vs the accelerated baselines."""

from repro.experiments import fig11_speedup


def test_fig11_accelerator_comparison(benchmark, config, cache, record_table):
    table = benchmark.pedantic(
        fig11_speedup.run, args=(config, cache), rounds=1, iterations=1
    )
    # one vector-backend smoke run rides this figure's metrics snapshot so
    # the perf gate (benchmarks/gate.py fig11) pins the batched
    # backend's obs.* counters alongside the scalar rows
    cache.result("depgraph-h", "GL", "pagerank", backend="vector")
    record_table(table)

    geomean_row = next(row for row in table.rows if row[0] == "geomean")
    hats, minnow, phi, depgraph_hw, depgraph_h = geomean_row[2:]

    # headline ordering: DepGraph-H beats every accelerated baseline
    assert depgraph_h > hats
    assert depgraph_h > minnow
    assert depgraph_h > phi
    # and comfortably beats Ligra-o overall
    assert depgraph_h > 1.5
    # every baseline accelerator helps at least a little on geomean
    assert min(hats, minnow, phi) > 0.9
    # hub contribution is reported for EXPERIMENTS.md
    contribution = fig11_speedup.hub_contribution(table)
    print(f"\nhub-index contribution to improvement: {contribution:.1%}")
