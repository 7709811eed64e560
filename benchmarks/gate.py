#!/usr/bin/env python
"""The CI gate over the experiments' metrics artifacts, one spec per section.

Usage::

    python benchmarks/gate.py SECTION [--update] [--metrics PATH] [--baselines PATH]

Each SECTION is one :class:`Spec` in :data:`SPECS`: ``traffic``,
``cluster``, ``stream`` and ``scale`` gate the serving, worker-scaling,
streaming-ingest and (reduced) memory-frugality sweeps; ``fig11`` the
fig11 smoke run's locality and steal counters; ``reorder`` the vertex
orderings' locality and answer equivalence; ``bench`` the last line of
a ``perfbench/run.py`` run.  One engine reads the files, checks the
config identity against ``baselines.json[SECTION]``, reports baselined
labels missing from the sweep, applies the spec's bounds and flags, and
runs the section's few checks that are not a bound.  Every failure is
one ``FAIL:`` line and exit code 1 (a missing or malformed file too,
never a traceback); when ``GITHUB_STEP_SUMMARY`` is set (GitHub Actions)
the verdict is also appended there as a markdown table.

The experiments are deterministic at a pinned config, so in a healthy
tree every metric equals its baseline; the slack only absorbs
*intentional* shifts.  After one, run the section's ``regenerate``
command from baselines.json: it reruns the experiment, then
``gate.py SECTION --update`` rewrites that section and keeps the others.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

BASELINES = Path(__file__).resolve().parent / "baselines.json"

P95 = "obs.traffic.latency_p95_cycles"
MEAN = "obs.traffic.latency_cycles.mean"
SHED = "obs.traffic.shed_rate"
LLC = "obs.cache.llc.hit_rate"
L2 = "obs.cache.l2.hit_rate"
STEALS = "obs.sched.steals_attempted"
SIM_CYCLES = "obs.sim.cycles"
SPAN_PREFIX = "obs.span."
SPAN_SUFFIX = ".cycles"

#: allowed relative p95 growth (latency or staleness) ...
P95_GROWTH_SLACK = 0.25
#: ... plus this many cycles, so near-zero baselines are not gated on noise
P95_ABS_SLACK = 5_000.0
#: allowed absolute shed-rate growth, in rate points
SHED_RATE_SLACK = 0.05
#: allowed relative excess of warm p95 over the cold control's p95
#: (tails in both passes sit on first-touch runs the cache cannot hide)
COLD_P95_TOLERANCE = 0.10
#: allowed relative throughput drop per worker count
THROUGHPUT_DROP_SLACK = 0.10
#: allowed relative drop in sustained ingest rate
INGEST_DROP_SLACK = 0.10
#: allowed relative growth of a level's build peak RSS over its baseline ...
RSS_GROWTH_SLACK = 0.50
#: ... plus this many KiB: interpreter/numpy baselines differ across
#: machines by tens of MB, and ru_maxrss counts them
RSS_ABS_SLACK_KB = 49_152.0
#: the largest level's build peak RSS must stay within this factor of the
#: smallest level's (plus the absolute slack): the external build's
#: defining property, checked inside one sweep so it holds on any machine
RSS_FLAT_FACTOR = 1.6
#: narrowed graph bytes must stay at or below this fraction of the int64
#: footprint (int32 indices are exactly half; slack for weights)
NARROW_RATIO_CAP = 0.75
#: allowed relative growth of a level's vector-backend cycles
CYCLES_GROWTH_SLACK = 0.25
#: allowed relative LLC hit-rate drop
LLC_DROP_SLACK = 0.02
#: allowed relative growth in steal attempts ...
STEALS_GROWTH_SLACK = 0.20
#: ... or this many attempts when the baseline is zero
STEALS_ZERO_SLACK = 50.0
#: allowed absolute drift (share points) in a span's cycle share
SPAN_SHARE_SLACK = 0.05

#: the sweep-config keys that define each baseline's identity
TRAFFIC_KEYS = (
    "dataset", "scale", "seed", "system", "cores", "backend", "reorder", "mode", "levels",
    "requests_per_level", "think_cycles", "zipf_s", "algorithms", "mutation_every_cycles",
    "mutation_edges", "queue_limit", "cache_capacity", "deadline_cycles",
)
CLUSTER_KEYS = TRAFFIC_KEYS + ("workers", "worker_counts")
STREAM_KEYS = (
    "dataset", "scale", "seed", "system", "cores", "backend", "reorder", "cadence", "events",
    "mean_gap_cycles", "event_mix", "queries", "compact_every", "keep_last", "queue_limit",
    "cache_capacity", "workers", "cadence_levels",
)
#: see ``ScaleConfig.gate_config``
SCALE_KEYS = (
    "base_vertices", "avg_degree", "alpha", "levels", "scalar_cap", "cores", "seed",
    "algorithm", "system",
)
#: the env knobs of the reduced sweep the scale baselines pin
SCALE_SMOKE_ENV = (
    "REPRO_SCALE_BASE_N=256 REPRO_SCALE_LEVELS=2,8 REPRO_SCALE_SCALAR_CAP=2 REPRO_CORES=8"
)


class GateError(Exception):
    """A structural problem that fails the gate with one clear line
    (missing file, missing section, malformed payload) — never a
    traceback."""


@dataclass(frozen=True)
class Bound:
    """``metric`` may not move past ``base * (1 ± rel) ± abs`` — up for
    ``"max"``, down for ``"min"``; ``zero`` replaces that limit when the
    baseline is 0.  ``name`` is how failure lines call the metric."""

    metric: str
    name: str
    direction: str
    rel: float
    abs: float = 0.0
    zero: Optional[float] = None

    def broken(self, base: float, value: float) -> bool:
        if base == 0 and self.zero is not None:
            limit = self.zero
        elif self.direction == "max":
            limit = base * (1.0 + self.rel) + self.abs
        else:
            limit = base * (1.0 - self.rel) - self.abs
        return value > limit if self.direction == "max" else value < limit

    def describe(self) -> str:
        parts = (self.rel and f"{self.rel:.0%}", self.abs and f"{self.abs:g}")
        zero = "" if self.zero is None else f", or past {self.zero:g} from 0"
        verb = "grew" if self.direction == "max" else "dropped"
        return f"{verb} more than {' + '.join(p for p in parts if p)}{zero}"


def _each_missing(levels_key: str, missing: list) -> list:
    return [f"{levels_key}[{label}]: missing from the sweep" for label in missing]


@dataclass(frozen=True)
class Spec:
    """One gate section; see the module docstring."""

    title: str
    metrics: str
    regenerate: str
    #: compared against ``baselines.json[SECTION]``
    baselined: bool = False
    config_keys: tuple = ()
    #: payload key holding the config (None: the payload's top level)
    config_in: Optional[str] = "config"
    #: payload key (and baseline key) of the ``{label: entry}`` dict
    levels: Optional[str] = None
    #: one entry -> ``{metric: value}``, which ``--update`` writes as is
    #: (None: the entry's bounded metrics)
    extract: Optional[Callable[[dict], dict]] = None
    bounds: Sequence[Bound] = ()
    #: ``(payload key, failure line)``: the key's value must be ``True``
    flags: Sequence[tuple] = ()
    #: payload keys ``--update`` copies into the baseline section
    pins: Sequence[str] = ()
    #: ``(payload, extracted levels, baseline section, metrics path) -> failures``
    check: Optional[Callable] = None
    #: ``(levels key, baselined labels absent from the sweep) -> failures``
    missing: Callable[[str, list], list] = _each_missing
    #: the payload is the file's last line (a program's captured stdout)
    last_line: bool = False


def _traffic_level(level: dict) -> dict:
    counters = level["counters"]
    return {"p95_cycles": counters.get(P95), "shed_rate": counters.get(SHED)}


def _traffic_checks(payload, levels, base, path) -> list:
    """At every baselined level the warm service beats its own cold
    control: mean strictly below it, p95 within the tolerance."""
    failures = []
    for label in base["levels"]:
        level = payload["levels"].get(label)
        cold = level and level.get("cold")
        if not cold:
            continue
        p95, cold_p95 = level["counters"][P95], cold["p95_cycles"]
        if p95 > cold_p95 * (1.0 + COLD_P95_TOLERANCE):
            failures.append(
                f"{label}: warm p95 {p95:.0f} exceeds cold control {cold_p95:.0f} "
                f"by more than {COLD_P95_TOLERANCE:.0%}"
            )
        mean = level["counters"].get(MEAN, 0.0)
        cold_mean = cold["counters"].get(MEAN, 0.0)
        if mean >= cold_mean:
            failures.append(
                f"{label}: warm mean latency {mean:.0f} not below cold control "
                f"{cold_mean:.0f}"
            )
    return failures


def _cluster_checks(payload, levels, base, path) -> list:
    """The gate pool holds the target speedup over 1 worker, and its warm
    p95 stays within the tolerance of the cold control."""
    failures = []
    gate_workers = payload.get("gate_workers")
    target = base.get("target_speedup", payload.get("target_speedup", 0.0))
    speedup = payload.get("speedup_gate_vs_1w", 0.0)
    if speedup < target:
        failures.append(
            f"{gate_workers}-worker speedup {speedup:.2f}x below target {target:g}x"
        )
    cold = payload.get("cold", {})
    point = payload["workers"].get(str(gate_workers))
    if cold and point and point["p95_cycles"] > cold["p95_cycles"] * (1.0 + COLD_P95_TOLERANCE):
        failures.append(
            f"warm p95 {point['p95_cycles']:.0f} exceeds cold control "
            f"{cold['p95_cycles']:.0f} by more than {COLD_P95_TOLERANCE:.0%}"
        )
    return failures


def _stream_checks(payload, levels, base, path) -> list:
    """The published snapshot-chain digest is pinned."""
    want, have = base.get("chain_sha", ""), payload.get("chain_sha", "")
    if want and have != want:
        return [
            f"published snapshot-chain digest changed: baseline {want} != sweep {have} "
            "(event stream or delta folding drifted; regenerate if intentional)"
        ]
    return []


def _scale_level(level: dict) -> dict:
    build = level["build"]["counters"]
    return {
        "build_peak_rss_kb": build.get("obs.mem.peak_rss_kb"),
        "graph_bytes": build.get("obs.mem.graph_bytes"),
        "graph_bytes_int64": build.get("obs.mem.graph_bytes_int64"),
        "index_dtype": level.get("index_dtype"),
        "vector_cycles": level["backends"]["vector"].get("cycles"),
    }


def _scale_checks(payload, levels, base, path) -> list:
    """Dtype narrowing engaged at every level, and build peak RSS stayed
    flat across the sweep."""
    failures = []
    swept = {label: levels[label] for label in base["levels"] if label in levels}
    for label, stats in swept.items():
        if stats["graph_bytes"] > stats["graph_bytes_int64"] * NARROW_RATIO_CAP:
            failures.append(
                f"{label}: narrowed graph is {stats['graph_bytes']:.0f} bytes vs "
                f"{stats['graph_bytes_int64']:.0f} at int64 — above the "
                f"{NARROW_RATIO_CAP:.0%} cap, narrowing did not engage"
            )
    rss = [stats["build_peak_rss_kb"] for stats in swept.values()]
    if len(rss) >= 2 and max(rss) > min(rss) * RSS_FLAT_FACTOR + RSS_ABS_SLACK_KB:
        failures.append(
            f"build peak RSS not flat across the sweep: {min(rss):.0f} KiB at the "
            f"smallest level vs {max(rss):.0f} KiB at the largest (cap "
            f"{RSS_FLAT_FACTOR:.1f}x + {RSS_ABS_SLACK_KB:.0f} KiB)"
        )
    return failures


def _span_shares(counters: dict, cores: float) -> dict:
    """``span name -> share of total machine cycles``: span cycles sum
    across cores, so the denominator is the makespan times the cores."""
    total = counters.get(SIM_CYCLES, 0.0) * max(cores, 1.0)
    if not total:
        return {}
    return {
        key[len(SPAN_PREFIX):-len(SPAN_SUFFIX)]: value / total
        for key, value in counters.items()
        if key.startswith(SPAN_PREFIX) and key.endswith(SPAN_SUFFIX)
    }


def _fig11_run(run: dict) -> dict:
    counters = run.get("counters") or {}
    return {
        LLC: counters.get(LLC),
        STEALS: counters.get(STEALS),
        "span_share": _span_shares(counters, run.get("cores", 1)),
    }


def _fig11_artifacts(runs: dict, table: Path) -> list:
    """What every fig11 smoke run must leave behind, baselined or not."""
    failures = []
    if not table.is_file() or table.stat().st_size == 0:
        failures.append(f"{table} is missing or empty")
    for label, run in sorted(runs.items()):
        counters = run.get("counters") or {}
        absent = [name for name in (STEALS, LLC) if name not in counters]
        if absent:
            failures.append(f"{label}: counters lack {', '.join(absent)}")
    return failures


def _fig11_checks(payload, levels, base, path) -> list:
    """The table and counters exist, and no hot span's share of the
    machine cycles drifted more than the slack."""
    table = path.with_name(path.name.replace(".metrics.json", ".txt"))
    failures = _fig11_artifacts(payload["runs"], table)
    for label, want in base["runs"].items():
        if label not in levels:
            continue
        for span, share in want.get("span_share", {}).items():
            have = levels[label]["span_share"].get(span)
            if have is None:
                failures.append(f"{label}: span '{span}' missing from obs.span.* counters")
            elif abs(have - share) > SPAN_SHARE_SLACK:
                failures.append(
                    f"{label}: span '{span}' cycle share {share:.3f} -> {have:.3f} "
                    f"(drifted more than {SPAN_SHARE_SLACK:.2f})"
                )
    return failures


def _fig11_missing(levels_key: str, missing: list) -> list:
    return [
        f"{len(missing)} baseline runs absent from metrics (first: {missing[0]}); "
        "regenerate baselines if the sweep changed"
    ] if missing else []


def _reorder_checks(payload, levels, base, path) -> list:
    """Every run reproduced the identity states, and on at least one
    (dataset, system) pair the degree ordering holds both L2 and LLC hit
    rates at or above the identity run from the same job."""
    failures, identity, improved = [], {}, []
    runs = payload["runs"]
    for label, run in runs.items():
        if not run["state_match"]:
            failures.append(f"state mismatch vs identity: {label}")
        if not run["converged"]:
            failures.append(f"run did not converge: {label}")
        applied = run["counters"].get("obs.reorder.applied")
        expected = 0.0 if run["ordering"] == "identity" else 1.0
        if applied != expected:
            failures.append(f"obs.reorder.applied={applied} (expected {expected}): {label}")
        if run["ordering"] == "identity":
            identity[(run["dataset"], run["system"])] = run["counters"]
    for label, run in runs.items():
        if run["ordering"] != "degree":
            continue
        ref = identity.get((run["dataset"], run["system"]))
        if ref is None:
            failures.append(f"no identity baseline in the same job for {label}")
            continue
        have = run["counters"]
        print(
            f"{run['dataset']}/{run['system']}: degree l2 {ref[L2]:.4f} -> {have[L2]:.4f}, "
            f"llc {ref[LLC]:.4f} -> {have[LLC]:.4f}"
        )
        if have[L2] >= ref[L2] and have[LLC] >= ref[LLC]:
            improved.append(label)
    if not improved:
        failures.append(
            "no (dataset, system) pair where the degree ordering holds both L2 and LLC "
            "hit rates at or above the identity run"
        )
    return failures


def _bench_checks(payload, levels, base, path) -> list:
    failed = payload.get("failed")
    return [] if failed == 0 else [f"perfbench: {failed} failed operations"]


P95_LATENCY = Bound("p95_cycles", "p95 latency", "max", P95_GROWTH_SLACK, P95_ABS_SLACK)
SHED_RATE = Bound("shed_rate", "shed rate", "max", 0.0, SHED_RATE_SLACK)

SPECS = {
    "traffic": Spec(
        "SLO gate (traffic)", "results/traffic_slo.metrics.json",
        "PYTHONPATH=src python -m repro traffic",
        baselined=True, config_keys=TRAFFIC_KEYS, levels="levels", extract=_traffic_level,
        bounds=(P95_LATENCY, SHED_RATE), check=_traffic_checks,
    ),
    "cluster": Spec(
        "SLO gate (cluster)", "results/cluster_scaling.metrics.json",
        "PYTHONPATH=src python -m repro experiment cluster",
        baselined=True, config_keys=CLUSTER_KEYS, levels="workers",
        bounds=(
            P95_LATENCY,
            SHED_RATE,
            Bound("throughput_q_per_mcycle", "throughput", "min", THROUGHPUT_DROP_SLACK),
        ),
        flags=(("deterministic_replay",
                "same-seed replay diverged on obs.cluster.*/obs.serve.* counters"),),
        pins=("target_speedup",), check=_cluster_checks,
    ),
    "stream": Spec(
        "SLO gate (stream)", "results/stream_ingest.metrics.json",
        "PYTHONPATH=src python -m repro experiment stream",
        baselined=True, config_keys=STREAM_KEYS, levels="levels",
        bounds=(
            Bound("updates_per_mcycle", "sustained ingest", "min", INGEST_DROP_SLACK),
            Bound("staleness_p95_cycles", "p95 staleness", "max",
                  P95_GROWTH_SLACK, P95_ABS_SLACK),
        ),
        flags=(
            ("deterministic_replay", "same-seed replay diverged on obs.stream.*/obs.serve.* "
             "counters or the snapshot-chain digest"),
            ("states_match", "warm standing-query states diverged from the cold control"),
        ),
        pins=("chain_sha",), check=_stream_checks,
    ),
    "scale": Spec(
        "SLO gate (scale)", "results/scale_sweep.metrics.json",
        f"{SCALE_SMOKE_ENV} PYTHONPATH=src python -m repro experiment scale",
        baselined=True, config_keys=SCALE_KEYS, levels="levels", extract=_scale_level,
        bounds=(
            Bound("build_peak_rss_kb", "build peak RSS", "max",
                  RSS_GROWTH_SLACK, RSS_ABS_SLACK_KB),
            Bound("vector_cycles", "vector cycles", "max", CYCLES_GROWTH_SLACK),
        ),
        flags=(
            ("state_match", "narrowed/mmap'd states diverged from the int64 in-RAM "
             "control at the sweep's match_level"),
            ("cycles_match", "simulated cycles changed with the host storage width at "
             "the sweep's match_level (modelled layout must keep fixed strides)"),
        ),
        check=_scale_checks,
    ),
    "fig11": Spec(
        "perf gate (fig11 counters)", "results/fig11.metrics.json",
        "REPRO_SCALE=0.05 REPRO_CORES=8 PYTHONPATH=src "
        "python -m pytest benchmarks/test_fig11.py -x -q",
        baselined=True, config_keys=("scale", "cores"), config_in=None, levels="runs",
        extract=_fig11_run,
        bounds=(
            Bound(LLC, LLC, "min", LLC_DROP_SLACK),
            Bound(STEALS, STEALS, "max", STEALS_GROWTH_SLACK, zero=STEALS_ZERO_SLACK),
        ),
        check=_fig11_checks, missing=_fig11_missing,
    ),
    "reorder": Spec(
        "reorder gate (locality + equivalence)", "results/reorder_compare.metrics.json",
        "REPRO_SCALE=0.3 REPRO_CORES=8 PYTHONPATH=src python -m repro experiment reorder",
        levels="runs", check=_reorder_checks,
    ),
    "bench": Spec(
        "bench gate (sim-scalar smoke)", "bench-smoke.out",
        "python3 perfbench/run.py --workload sim-scalar --seed 1 --seconds 5 --trace 0 "
        "> bench-smoke.out",
        flags=(("correct", "perfbench: incorrect run (a wrong answer or a repeat that "
                "did not reproduce its first run)"),),
        check=_bench_checks, last_line=True,
    ),
}


def _read_json(path: Path, what: str, last_line: bool = False) -> dict:
    if not path.is_file():
        raise GateError(f"{what} {path} not found")
    text = path.read_text(encoding="utf-8")
    if last_line:
        text = (text.strip().splitlines() or [""])[-1]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GateError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise GateError(f"{what} {path} is not a JSON object")
    return payload


def _read_metrics(name: str, spec: Spec, path: Path) -> dict:
    payload = _read_json(path, "metrics file", spec.last_line)
    if spec.levels:
        if payload.get(spec.levels) is None:
            raise GateError(
                f"metrics file {path} has no {spec.levels!r} key — not a {name!r} "
                f"sweep? regenerate with `{spec.regenerate}`"
            )
        if not payload[spec.levels]:
            raise GateError(f"{path} recorded no {spec.levels}")
    return payload


def _config(spec: Spec, payload: dict) -> dict:
    source = payload.get(spec.config_in, {}) if spec.config_in else payload
    return {key: source.get(key) for key in spec.config_keys}


def _extract(spec: Spec, payload: dict) -> dict:
    def pick(entry):
        return {bound.metric: entry.get(bound.metric) for bound in spec.bounds}

    entries = sorted(payload[spec.levels].items()) if spec.levels else ()
    return {label: (spec.extract or pick)(entry) for label, entry in entries}


def _evaluate(name: str, spec: Spec, payload: dict, path: Path, baselines: Path) -> tuple:
    """``(failures, ok line)`` for one section's metrics."""
    base = {}
    if spec.baselined:
        base = _read_json(baselines, "baselines file").get(name)
        if not base:
            raise GateError(
                f"{baselines} has no {name!r} section; run `python benchmarks/gate.py "
                f"{name} --update` on a healthy sweep"
            )
        want, have = base.get("config") or {}, _config(spec, payload)
        if base.get("config") != have:
            return [
                "sweep config does not match baseline config; run the config documented "
                f"in baselines.json[{name!r}]['regenerate']"
            ] + [
                f"  {key}: baseline {want.get(key)!r} != sweep {have[key]!r}"
                for key in spec.config_keys
                if want.get(key) != have[key]
            ], ""

    failures = [line for key, line in spec.flags if payload.get(key) is not True]
    levels = _extract(spec, payload)
    baselined = base.get(spec.levels, {})
    failures += spec.missing(spec.levels, [label for label in baselined if label not in levels])
    for label, want in baselined.items():
        for bound in spec.bounds if label in levels else ():
            ref, value = want.get(bound.metric), levels[label].get(bound.metric)
            if ref is None or value is None:
                where = "baseline" if ref is None else "metrics"
                failures.append(f"{spec.levels}[{label}]: {bound.name} missing from the {where}")
            elif bound.broken(ref, value):
                failures.append(
                    f"{spec.levels}[{label}]: {bound.name} {ref:.6g} -> {value:.6g} "
                    f"({bound.describe()})"
                )
    if spec.check:
        failures += spec.check(payload, levels, base, path)

    notes = [f"{key} holds" for key, _ in spec.flags]
    if baselined:
        names = ", ".join(bound.name for bound in spec.bounds)
        notes.insert(0, f"{len(baselined)} {spec.levels} within slack on {names}")
    elif spec.levels:
        notes.insert(0, f"{len(payload[spec.levels])} {spec.levels} checked")
    return failures, f"{spec.title} OK: " + "; ".join(notes)


def _update(name: str, spec: Spec, payload: dict, baselines: Path) -> int:
    if not spec.baselined:
        raise GateError(f"section {name!r} keeps no baselines to update")
    levels = _extract(spec, payload)
    for label, metrics in levels.items():
        absent = [metric for metric, value in metrics.items() if value is None]
        if absent:
            raise GateError(
                f"{spec.levels}[{label}] lacks {', '.join(absent)}; not updating the "
                "baselines from an incomplete sweep"
            )
    written = _read_json(baselines, "baselines file") if baselines.exists() else {}
    written[name] = {
        "config": _config(spec, payload),
        "regenerate": f"{spec.regenerate} && python benchmarks/gate.py {name} --update",
        spec.levels: levels,
        **{key: payload[key] for key in spec.pins if key in payload},
    }
    baselines.write_text(json.dumps(written, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {baselines} [{name}] ({len(levels)} {spec.levels})")
    return 0


def write_step_summary(
    gate: str, failures: Sequence[str], ok_note: str = "", path: Optional[str] = None
) -> bool:
    """Append one gate's pass/fail table to the GitHub step summary.

    ``failures`` become one FAIL row each; none renders a single PASS row
    carrying ``ok_note``.  ``path`` overrides the target file; by default
    ``GITHUB_STEP_SUMMARY`` is honoured, and the call is a no-op returning
    ``False`` when it is unset (local runs).
    """
    target = path if path is not None else os.environ.get("GITHUB_STEP_SUMMARY")
    if not target:
        return False
    lines = [f"### {gate}", "", "| status | detail |", "| --- | --- |"]
    for failure in failures:
        detail = str(failure).replace("|", "\\|").replace("\n", " ")
        lines.append(f"| :x: FAIL | {detail} |")
    if not failures:
        note = (ok_note or "all checks within slack").replace("|", "\\|")
        lines.append(f"| :white_check_mark: PASS | {note} |")
    with open(target, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n\n")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("section", choices=SPECS, help="the spec to gate on")
    parser.add_argument(
        "--update", action="store_true", help="rewrite the section from the metrics"
    )
    parser.add_argument("--metrics", type=Path, help="default: the section's Spec.metrics")
    parser.add_argument("--baselines", type=Path, default=BASELINES, help="default: %(default)s")
    args = parser.parse_args(argv)
    spec = SPECS[args.section]
    metrics = args.metrics or Path(spec.metrics)
    ok_line = ""
    try:
        payload = _read_metrics(args.section, spec, metrics)
        if args.update:
            return _update(args.section, spec, payload, args.baselines)
        failures, ok_line = _evaluate(args.section, spec, payload, metrics, args.baselines)
    except GateError as exc:
        failures = [str(exc)]
    except (AttributeError, KeyError, TypeError) as exc:
        # the experiments' payloads are outside input: a missing field
        # fails the gate with one line, like a missing file
        failures = [f"metrics file {metrics} is malformed: {exc!r}"]

    for failure in failures:
        print(f"FAIL: {failure}")
    write_step_summary(spec.title, failures, ok_line)
    if failures:
        return 1
    print(ok_line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
