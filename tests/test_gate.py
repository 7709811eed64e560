"""Conformance table for ``benchmarks/gate.py``, the CI gate.

Each row is (section, payload mutation, expected exit code, FAIL
substring).  A row first runs the gate on a healthy synthetic payload
(baselined from that same payload with ``--update``) and requires a
pass, then applies its one mutation and requires the failure — so every
row pins exactly one gate condition.  Beside the table: every section
fails a missing or unreadable metrics file with one line, the ``bench``
section reads the last line of a perfbench run, the committed artifacts
pass their gates, and every bound row keeps its exact limit.  The
traffic, stream, scale and fig11 sections have further tests beside
their experiments.
"""

import copy
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

LLC = "obs.cache.llc.hit_rate"
L2 = "obs.cache.l2.hit_rate"
STEALS = "obs.sched.steals_attempted"
SPAN = "obs.span.root.cycles"
APPLIED = "obs.reorder.applied"

#: a mutation that deletes the addressed key instead of setting it
DELETE = object()


def run_gate(gate, section, metrics, baselines, update=False):
    """One gate run over ``metrics``; returns the exit code."""
    argv = [section, "--metrics", str(metrics), "--baselines", str(baselines)]
    return gate.main(argv + (["--update"] if update else []))


def traffic_payload():
    def level(p95):
        return {
            "counters": {
                "obs.traffic.latency_p95_cycles": p95,
                "obs.traffic.latency_cycles.mean": 50_000.0,
                "obs.traffic.shed_rate": 0.0,
            },
            "cold": {
                "p95_cycles": p95,
                "counters": {"obs.traffic.latency_cycles.mean": 200_000.0},
            },
        }

    return {
        "config": {"dataset": "AZ", "seed": 0, "levels": [1.0, 2.0]},
        "levels": {"closed@1": level(95_000.0), "closed@2": level(120_000.0)},
    }


def cluster_payload():
    return {
        "config": {"dataset": "AZ", "seed": 0, "worker_counts": [1, 4]},
        "workers": {
            "1": {"p95_cycles": 1_000_000.0, "shed_rate": 0.0,
                  "throughput_q_per_mcycle": 40.0},
            "4": {"p95_cycles": 600_000.0, "shed_rate": 0.0,
                  "throughput_q_per_mcycle": 84.0},
        },
        "gate_workers": 4,
        "speedup_gate_vs_1w": 2.1,
        "target_speedup": 2.0,
        "deterministic_replay": True,
        "cold": {"p95_cycles": 700_000.0},
    }


def fig11_payload():
    def run(llc, steals):
        counters = {LLC: llc, STEALS: steals, "obs.sim.cycles": 1_000.0,
                    SPAN: 4_000.0}
        return {"cores": 8, "counters": counters}

    return {
        "scale": 0.05,
        "cores": 8,
        "runs": {"a": run(0.9, 100.0), "b": run(0.5, 0.0)},
    }


def reorder_payload():
    def run(ordering, l2, llc):
        return {
            "dataset": "GL",
            "system": "depgraph-h",
            "ordering": ordering,
            "state_match": True,
            "converged": True,
            "counters": {APPLIED: float(ordering != "identity"),
                         L2: l2, LLC: llc},
        }

    return {"runs": {"id": run("identity", 0.30, 0.80),
                     "deg": run("degree", 0.35, 0.85)}}


PAYLOADS = {
    "traffic": traffic_payload,
    "cluster": cluster_payload,
    "fig11": fig11_payload,
    "reorder": reorder_payload,
}


def mutated(payload, path, value):
    target = payload
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return payload


def case(section, path, value, substring, id):
    return pytest.param(section, path, value, 1, substring, id=id)


CASES = [
    # cluster: slack per worker count, then the sweep's own checks
    case("cluster", ("workers", "1", "p95_cycles"), 1_000_000 * 1.25 + 5_001,
         "p95 latency", "cluster-p95-growth"),
    case("cluster", ("workers", "1", "shed_rate"), 0.06,
         "shed rate", "cluster-shed-rise"),
    case("cluster", ("workers", "1", "throughput_q_per_mcycle"), 35.9,
         "throughput", "cluster-throughput-drop"),
    case("cluster", ("speedup_gate_vs_1w",), 1.99,
         "below target", "cluster-speedup-below-target"),
    case("cluster", ("deterministic_replay",), False,
         "replay diverged", "cluster-replay-diverged"),
    case("cluster", ("cold", "p95_cycles"), 545_000.0,
         "exceeds cold control", "cluster-warm-p95-over-cold"),
    case("cluster", ("workers", "1"), DELETE,
         "missing from the sweep", "cluster-missing-worker-count"),
    case("cluster", ("config", "seed"), 42,
         "does not match baseline config", "cluster-config-mismatch"),
    # fig11: counter slack, span shares, coverage, config
    case("fig11", ("runs", "a", "counters", LLC), 0.9 * 0.98 - 0.001,
         "dropped more than 2%", "fig11-llc-drop"),
    case("fig11", ("runs", "a", "counters", STEALS), 121.0,
         "grew more than 20%", "fig11-steal-growth"),
    case("fig11", ("runs", "b", "counters", STEALS), 51.0,
         f"{STEALS} 0 -> 51", "fig11-zero-baseline-steals"),
    case("fig11", ("runs", "a", "counters", SPAN), 4_000.0 + 0.06 * 8_000,
         "drifted more than 0.05", "fig11-span-share-drift"),
    case("fig11", ("runs", "a", "counters", SPAN), DELETE,
         "span 'root' missing", "fig11-span-missing"),
    case("fig11", ("runs", "b"), DELETE,
         "1 baseline runs absent", "fig11-baseline-runs-absent"),
    case("fig11", ("scale",), 0.1,
         "does not match baseline config", "fig11-config-mismatch"),
    # reorder: equivalence and the identity-vs-degree pairing
    case("reorder", ("runs", "deg", "state_match"), False,
         "state mismatch", "reorder-state-mismatch"),
    case("reorder", ("runs", "deg", "converged"), False,
         "did not converge", "reorder-not-converged"),
    case("reorder", ("runs", "deg", "counters", APPLIED), 0.0,
         "obs.reorder.applied=0.0 (expected 1.0)", "reorder-applied-wrong"),
    case("reorder", ("runs", "id"), DELETE,
         "no identity baseline", "reorder-degree-without-identity"),
    case("reorder", ("runs", "deg", "counters", L2), 0.2,
         "no (dataset, system) pair", "reorder-no-improved-pair"),
    # traffic
    case("traffic", ("levels", "closed@2"), DELETE,
         "missing from the sweep", "traffic-missing-level"),
]


@pytest.mark.parametrize("section,path,value,rc,substring", CASES)
def test_gate_conformance(gate, tmp_path, capsys, section, path, value, rc,
                          substring):
    metrics = tmp_path / f"{section}.metrics.json"
    baselines = tmp_path / "baselines.json"
    (tmp_path / f"{section}.txt").write_text("table\n", encoding="utf-8")
    healthy = PAYLOADS[section]()
    metrics.write_text(json.dumps(healthy), encoding="utf-8")
    if section != "reorder":  # reorder gates within one job, no baselines
        assert run_gate(gate, section, metrics, baselines, update=True) == 0
    assert run_gate(gate, section, metrics, baselines) == 0
    assert "FAIL" not in capsys.readouterr().out

    broken = mutated(copy.deepcopy(healthy), path, value)
    metrics.write_text(json.dumps(broken), encoding="utf-8")
    assert run_gate(gate, section, metrics, baselines) == rc
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL:")]
    assert any(substring in line for line in fails), fails


#: a metrics file each section cannot read: no entries key, or no JSON
#: object on the last line of a captured stdout
UNREADABLE = {"bench": "== sim-scalar\nperfbench: crashed\n"}


@pytest.mark.parametrize("section", ["traffic", "cluster", "stream", "scale",
                                     "fig11", "reorder", "bench"])
@pytest.mark.parametrize("problem", ["missing", "unreadable"])
def test_bad_metrics_file_is_one_fail_line_and_a_summary_row(
    gate, tmp_path, capsys, monkeypatch, section, problem
):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    metrics = tmp_path / f"{section}.metrics.json"
    if problem == "unreadable":
        metrics.write_text(UNREADABLE.get(section, "{}"), encoding="utf-8")
    assert run_gate(gate, section, metrics, tmp_path / "baselines.json") == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL:")] == [
        out.strip()
    ]
    assert summary.read_text(encoding="utf-8").count("| :x: FAIL |") == 1


def test_bench_section_gates_the_last_line(gate, tmp_path, capsys):
    out = tmp_path / "bench-smoke.out"

    def bench(**record):
        line = json.dumps({"correct": True, "attempted": 4, "failed": 0, **record})
        out.write_text(f"== sim-scalar seed=1\n  ops_per_s 3.5 1/s\n{line}\n")
        return run_gate(gate, "bench", out, tmp_path / "unused.json")

    assert bench() == 0
    assert bench(correct=False) == 1
    assert "incorrect run" in capsys.readouterr().out
    assert bench(failed=3) == 1
    assert "3 failed operations" in capsys.readouterr().out


@pytest.mark.parametrize("section,artifact", [
    ("cluster", "cluster_scaling"),
    ("stream", "stream_ingest"),
    ("fig11", "fig11"),
    ("reorder", "reorder_compare"),
])
def test_committed_artifact_passes_its_gate(gate, section, artifact):
    metrics = REPO_ROOT / "results" / f"{artifact}.metrics.json"
    assert run_gate(gate, section, metrics, REPO_ROOT / "benchmarks" / "baselines.json") == 0


@pytest.mark.parametrize("section,metric,base,limit", [
    ("traffic", "p95_cycles", 100_000.0, 100_000.0 * 1.25 + 5_000),
    ("traffic", "shed_rate", 0.1, 0.1 + 0.05),
    ("cluster", "throughput_q_per_mcycle", 80.0, 80.0 * 0.9),
    ("stream", "updates_per_mcycle", 20.0, 20.0 * 0.9),
    ("stream", "staleness_p95_cycles", 700_000.0, 700_000.0 * 1.25 + 5_000),
    ("scale", "build_peak_rss_kb", 40_000.0, 40_000.0 * 1.5 + 49_152),
    ("scale", "vector_cycles", 1e6, 1e6 * 1.25),
    ("fig11", LLC, 0.9, 0.9 * 0.98),
    ("fig11", STEALS, 100.0, 100.0 * 1.2),
    ("fig11", STEALS, 0.0, 50.0),
])
def test_bound_rows_keep_their_shape(gate, section, metric, base, limit):
    """Each bound row allows exactly up to its documented limit."""
    (bound,) = [b for b in gate.SPECS[section].bounds if b.metric == metric]
    step = 1e-9 * max(abs(limit), 1.0)
    assert not bound.broken(base, limit)
    assert bound.broken(base, limit + step if bound.direction == "max" else limit - step)
