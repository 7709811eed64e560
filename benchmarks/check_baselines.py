#!/usr/bin/env python
"""CI perf-regression gate over the ``obs.*`` counters.

Compares the fig11 smoke run's per-run counters
(``results/fig11.metrics.json``) against the checked-in
``benchmarks/baselines.json`` and fails when locality or scheduling
regressed beyond the documented slack:

* ``obs.cache.llc.hit_rate`` dropped by more than 2 % (relative), or
* ``obs.sched.steals_attempted`` grew by more than 20 % (relative;
  baselines of zero allow an absolute slack of 50 attempts), or
* a hot span's share of the run's simulated machine-cycles
  (``obs.span.<name>.cycles / (obs.sim.cycles * cores)`` — span cycles
  sum across cores, so the denominator is the makespan times the core
  count; recorded always-on by the execution kernel) drifted by more
  than 5 points in either direction —
  either someone made the hot path do more simulated work, or the span
  accounting itself broke.

It also fails when the harness left a broken artifact behind, baselined
or not: an empty or missing ``results/fig11.txt``, or any recorded run
whose counters lack ``obs.sched.steals_attempted`` or
``obs.cache.llc.hit_rate``.

The simulator is deterministic at a pinned config, so in a healthy tree
every counter matches its baseline exactly; the slack only absorbs
*intentional* small shifts (e.g. a new tie-break in the scheduler) so
that honest-to-goodness regressions still fail loudly.

Regenerate the baselines after an intentional change with::

    REPRO_SCALE=0.05 REPRO_CORES=8 PYTHONPATH=src \
        python -m pytest benchmarks/test_fig11.py -x -q \
        && python benchmarks/check_baselines.py --update
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# the gate scripts are run as files (CI) and loaded via
# spec_from_file_location (tests) — neither puts benchmarks/ on the
# path, so add it before importing the shared step-summary helper
sys.path.insert(0, str(Path(__file__).resolve().parent))

from gate_summary import write_step_summary  # noqa: E402

BASELINES = Path(__file__).resolve().parent / "baselines.json"
METRICS = Path("results/fig11.metrics.json")

LLC = "obs.cache.llc.hit_rate"
STEALS = "obs.sched.steals_attempted"
SIM_CYCLES = "obs.sim.cycles"
SPAN_PREFIX = "obs.span."
SPAN_SUFFIX = ".cycles"

#: allowed relative LLC hit-rate drop before the gate fails
LLC_DROP_SLACK = 0.02
#: allowed relative growth in steal attempts before the gate fails
STEALS_GROWTH_SLACK = 0.20
#: absolute steal-attempt slack when the baseline is zero
STEALS_ZERO_SLACK = 50.0
#: allowed absolute drift (share points) in a span's cycle share
SPAN_SHARE_SLACK = 0.05


def _span_shares(counters: dict, cores: float) -> dict:
    """``span name -> share of total machine cycles`` per recorded span."""
    total = counters.get(SIM_CYCLES, 0.0) * max(cores, 1.0)
    if not total:
        return {}
    return {
        key[len(SPAN_PREFIX):-len(SPAN_SUFFIX)]: value / total
        for key, value in counters.items()
        if key.startswith(SPAN_PREFIX) and key.endswith(SPAN_SUFFIX)
    }


def _artifact_failures(runs: dict, table: Path) -> list:
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


def _load_runs(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    return payload["runs"], {
        "scale": payload.get("scale"),
        "cores": payload.get("cores"),
    }


def _update(runs: dict, config: dict) -> int:
    # preserve sections owned by other gates (e.g. check_slo.py's
    # "traffic" key) — this gate only owns config/regenerate/runs
    baselines = {}
    if BASELINES.exists():
        baselines = json.loads(BASELINES.read_text(encoding="utf-8"))
    baselines.update({
        "config": config,
        "regenerate": (
            "REPRO_SCALE=0.05 REPRO_CORES=8 PYTHONPATH=src "
            "python -m pytest benchmarks/test_fig11.py -x -q "
            "&& python benchmarks/check_baselines.py --update"
        ),
        "runs": {
            label: {
                LLC: run["counters"][LLC],
                STEALS: run["counters"][STEALS],
                "span_share": _span_shares(run["counters"], run.get("cores", 1)),
            }
            for label, run in sorted(runs.items())
        },
    })
    BASELINES.write_text(
        json.dumps(baselines, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {BASELINES} ({len(runs)} runs at config {config})")
    return 0


def _check(runs: dict, config: dict, table: Path) -> int:
    baselines = json.loads(BASELINES.read_text(encoding="utf-8"))
    failures = _artifact_failures(runs, table)
    if baselines.get("config") != config:
        failures.append(
            f"metrics config {config} does not match baseline config "
            f"{baselines.get('config')}; run the smoke config documented in "
            "baselines.json['regenerate']"
        )
        for failure in failures:
            print(f"FAIL: {failure}")
        write_step_summary("perf gate (fig11 counters)", failures)
        return 1
    missing = []
    for label, base in baselines["runs"].items():
        run = runs.get(label)
        if run is None:
            missing.append(label)
            continue
        llc = run["counters"].get(LLC)
        steals = run["counters"].get(STEALS)
        if llc is None or steals is None:
            failures.append(f"{label}: missing {LLC} or {STEALS}")
            continue
        if llc < base[LLC] * (1.0 - LLC_DROP_SLACK):
            failures.append(
                f"{label}: {LLC} {base[LLC]:.4f} -> {llc:.4f} "
                f"(dropped more than {LLC_DROP_SLACK:.0%})"
            )
        allowed = (
            base[STEALS] * (1.0 + STEALS_GROWTH_SLACK)
            if base[STEALS] > 0
            else STEALS_ZERO_SLACK
        )
        if steals > allowed:
            failures.append(
                f"{label}: {STEALS} {base[STEALS]:.0f} -> {steals:.0f} "
                f"(grew more than {STEALS_GROWTH_SLACK:.0%})"
            )
        shares = _span_shares(run["counters"], run.get("cores", 1))
        for span, want in base.get("span_share", {}).items():
            have = shares.get(span)
            if have is None:
                failures.append(
                    f"{label}: span '{span}' missing from obs.span.* counters"
                )
            elif abs(have - want) > SPAN_SHARE_SLACK:
                failures.append(
                    f"{label}: span '{span}' cycle share {want:.3f} -> "
                    f"{have:.3f} (drifted more than {SPAN_SHARE_SLACK:.2f})"
                )
    if missing:
        failures.append(
            f"{len(missing)} baseline runs absent from metrics (first: "
            f"{missing[0]}); regenerate baselines if the sweep changed"
        )
    ok_line = (
        f"perf gate OK: {len(baselines['runs'])} runs within slack "
        f"(llc drop < {LLC_DROP_SLACK:.0%}, steal growth < "
        f"{STEALS_GROWTH_SLACK:.0%}, span-share drift < "
        f"{SPAN_SHARE_SLACK:.2f})"
    )
    write_step_summary("perf gate (fig11 counters)", failures, ok_line)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(ok_line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite baselines.json from the current metrics",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=METRICS,
        help=f"metrics.json to gate on (default: {METRICS}); its table "
        "is the .txt beside it",
    )
    args = parser.parse_args(argv)
    runs, config = _load_runs(args.metrics)
    if not runs:
        print(f"FAIL: {args.metrics} recorded no runs")
        return 1
    if args.update:
        return _update(runs, config)
    table = args.metrics.with_name(
        args.metrics.name.replace(".metrics.json", ".txt")
    )
    return _check(runs, config, table)


if __name__ == "__main__":
    sys.exit(main())
