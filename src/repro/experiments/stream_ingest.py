"""``experiment stream``: sustained ingest vs staleness vs warm share.

Extends Figure 10 into a serving scenario: instead of one-shot
``GraphDelta`` batches, a seeded edge-event stream is ingested
continuously (:mod:`repro.serve.stream`), snapshots publish on a
configurable cadence, and the standing-query set is re-answered warm at
every publication.  The sweep varies the *publication cadence* — the
batching knob Dann et al. frame as the real axis for streaming systems —
and reports, per level:

* **sustained ingest rate** (events per million simulated cycles of
  makespan — GraphScale-style bandwidth accounting on the model clock);
* **p50/p95 staleness** (cycles from an event's arrival to the first
  standing-query result reflecting it) — small windows publish often and
  keep staleness low, wide windows amortise refresh cost but let results
  age;
* **warm share and warm-vs-cold engine cost** — every level runs a cold
  control (warm-start off, caches disabled) over the *same* seeded
  stream; the warm runs must answer with bit-matching min/max states
  (sum-type within tolerance) for strictly less engine work.

Two structural checks land in the committed artifacts
(``results/stream_ingest.txt`` + ``.metrics.json``) and are re-checked
by ``benchmarks/gate.py stream`` in the ``stream-smoke``
CI job:

* **determinism** — the gate level is replayed with the same seed;
  every ``obs.stream.*`` / ``obs.serve.*`` counter and the published
  snapshot-chain digest must be bit-identical;
* **state match** — each warm standing-query refresh agrees with the
  cold control's answer at the same (version, query) point.

Environment knobs follow the harness conventions: ``REPRO_SCALE``,
``REPRO_CORES``, ``REPRO_BACKEND``, ``REPRO_REORDER``, plus
``REPRO_STREAM_EVENTS`` for the nightly larger-scale run.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..serve.config import compare_states
from ..serve.stream import StreamConfig, StreamStats, run_stream
from .common import ExperimentTable

#: the cadence sweep: (cadence, window) levels — count windows from
#: eager to wide, plus one interval level (fixed simulated-time windows)
CADENCE_LEVELS: Tuple[Tuple[str, float], ...] = (
    ("count", 4.0),
    ("count", 8.0),
    ("count", 16.0),
    ("interval", 250_000.0),
)

#: the acceptance point: the defaults the CI smoke gates on
GATE_LEVEL: Tuple[str, float] = ("count", 8.0)


def default_config() -> StreamConfig:
    """The smoke-scale streaming config, environment-overridable."""
    return StreamConfig(
        scale=float(os.environ.get("REPRO_SCALE") or 0.1),
        cores=int(os.environ.get("REPRO_CORES") or 4),
        backend=os.environ.get("REPRO_BACKEND") or "scalar",
        reorder=os.environ.get("REPRO_REORDER") or "identity",
        events=int(os.environ.get("REPRO_STREAM_EVENTS") or 48),
    )


def level_label(cadence: str, window: float) -> str:
    return f"{cadence}@{window:g}"


def _stream_counters(stats: StreamStats) -> Dict[str, float]:
    """The deterministic families the replay check compares."""
    return {
        key: value
        for key, value in stats.counters.items()
        if key.startswith("obs.stream.") or key.startswith("obs.serve.")
    }


def match_states(warm: StreamStats, cold: StreamStats) -> Tuple[bool, int]:
    """Compare every warm refresh against the cold control's answer at
    the same (version, query) point.  Returns ``(all_match, compared)``."""
    cold_by_point = {
        (record.version, record.query): record for record in cold.refreshes
    }
    compared = 0
    for record in warm.refreshes:
        control = cold_by_point.get((record.version, record.query))
        if control is None or record.states is None or control.states is None:
            continue
        compared += 1
        ok, _ = compare_states(
            record.algorithm, record.states, control.states
        )
        if not ok:
            return False, compared
    return True, compared


def run(
    config: Optional[StreamConfig] = None,
) -> Tuple[ExperimentTable, Dict[str, object]]:
    """Run the cadence sweep; returns the table + the metrics payload."""
    config = config or default_config()

    runs: List[Tuple[str, StreamStats, StreamStats]] = []
    for cadence, window in CADENCE_LEVELS:
        level = replace(config, cadence=cadence, window=window)
        warm = run_stream(level, warm=True)
        cold = run_stream(level, warm=False)
        runs.append((level_label(cadence, window), warm, cold))

    # determinism: replay the acceptance point with the same seed
    gate_label = level_label(*GATE_LEVEL)
    gate_warm = next(w for label, w, _ in runs if label == gate_label)
    replay = run_stream(
        replace(config, cadence=GATE_LEVEL[0], window=GATE_LEVEL[1]),
        warm=True,
    )
    deterministic = (
        _stream_counters(gate_warm) == _stream_counters(replay)
        and gate_warm.chain_sha == replay.chain_sha
    )

    table = ExperimentTable(
        "stream_ingest",
        f"streaming ingestion: cadence vs staleness vs warm share "
        f"({config.events} events, mean gap "
        f"{config.mean_gap_cycles / 1e3:g} kcyc, standing queries "
        f"{'/'.join(q.label() for q in config.queries)}; dataset "
        f"{config.dataset}, scale {config.scale}, seed {config.seed}, "
        f"system {config.system}, {config.cores} cores)",
        [
            "cadence",
            "snaps",
            "compactions",
            "ev_per_Mcyc",
            "stale_p50_kcyc",
            "stale_p95_kcyc",
            "warm_share",
            "warm_upd",
            "cold_upd",
            "upd_ratio",
            "states",
        ],
    )
    level_payload: Dict[str, object] = {}
    all_match = True
    warm_always_cheaper = True
    for label, warm, cold in runs:
        match, compared = match_states(warm, cold)
        all_match = all_match and match
        ratio = (
            warm.engine_updates / cold.engine_updates
            if cold.engine_updates
            else 0.0
        )
        if warm.engine_updates >= cold.engine_updates:
            warm_always_cheaper = False
        table.add(
            label,
            warm.snapshots,
            warm.compactions,
            round(warm.updates_per_mcycle, 3),
            int(warm.staleness_quantile(0.50) / 1e3),
            int(warm.staleness_quantile(0.95) / 1e3),
            round(warm.warm_share, 3),
            int(warm.engine_updates),
            int(cold.engine_updates),
            round(ratio, 3),
            f"match({compared})" if match else "MISMATCH",
        )
        level_payload[label] = {
            "cadence": warm.cadence,
            "window": warm.window,
            "events": warm.events,
            "snapshots": warm.snapshots,
            "compactions": warm.compactions,
            "updates_per_mcycle": warm.updates_per_mcycle,
            "staleness_p50_cycles": warm.staleness_quantile(0.50),
            "staleness_p95_cycles": warm.staleness_quantile(0.95),
            "warm_share": warm.warm_share,
            "warm_engine_updates": warm.engine_updates,
            "cold_engine_updates": cold.engine_updates,
            "states_match": match,
            "states_compared": compared,
            "sim_cycles": warm.sim_cycles,
            "chain_sha": warm.chain_sha,
            "counters": warm.counters,
        }
    table.note(
        "staleness = simulated cycles from event arrival to the first "
        "standing-query result reflecting it; eager cadences publish "
        "often (low staleness, more refresh work), wide cadences "
        "amortise refreshes but let answers age"
    )
    table.note(
        "cold control replays the same seeded stream with warm-start "
        "off and caches disabled; states must match per "
        "(version, query) under the accumulator-kind rules = "
        + ("PASS" if all_match else "FAIL")
    )
    table.note(
        f"deterministic replay (same seed, {gate_label}): obs.stream.* / "
        "obs.serve.* counters + snapshot-chain digest bit-identical = "
        + ("PASS" if deterministic else "FAIL")
    )

    payload: Dict[str, object] = {
        "config": {
            **config.gate_config(),
            "cadence_levels": [list(level) for level in CADENCE_LEVELS],
        },
        "levels": level_payload,
        "gate_level": gate_label,
        "states_match": all_match,
        "warm_cheaper_everywhere": warm_always_cheaper,
        "deterministic_replay": deterministic,
        "chain_sha": gate_warm.chain_sha,
    }
    return table, payload


def write_artifacts(
    table: ExperimentTable,
    payload: Dict[str, object],
    out_dir: str = "results",
) -> Tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "stream_ingest.txt"
    table_path.write_text(table.render() + "\n", encoding="utf-8")
    metrics_path = out / "stream_ingest.metrics.json"
    metrics_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return table_path, metrics_path


def main() -> None:  # pragma: no cover - exercised via the CLI
    table, payload = run()
    table.print()
    table_path, metrics_path = write_artifacts(table, payload)
    print(f"\ntable:   {table_path}")
    print(f"metrics: {metrics_path}")
    if not payload["deterministic_replay"]:
        raise SystemExit("FAIL: same-seed stream replay diverged")
    if not payload["states_match"]:
        raise SystemExit(
            "FAIL: warm standing-query states diverged from the cold control"
        )
