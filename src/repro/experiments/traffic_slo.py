"""``experiment traffic``: the serving-tier load sweep.

The serving analogue of Figure 11: instead of scaling cores against a
fixed workload, :mod:`repro.serve.traffic` scales *offered load* against
a fixed service and reports p50/p95/p99 latency, shed rate, cache-hit
rate, and warm-start share per level, alongside a cold-control column
(warm-start off, cache disabled) per level.

Environment knobs follow the harness conventions: ``REPRO_SCALE``,
``REPRO_CORES``, ``REPRO_BACKEND``, ``REPRO_REORDER`` (the defaults
below are the CI ``slo-smoke`` config, which `benchmarks/gate.py traffic`
gates against `benchmarks/baselines.json`).
"""

from __future__ import annotations

import os
from typing import Optional

from ..serve.traffic import (
    SweepResult,
    TrafficConfig,
    run_sweep,
    write_artifacts,
)


def default_config() -> TrafficConfig:
    """The smoke-scale sweep config, environment-overridable."""
    return TrafficConfig(
        scale=float(os.environ.get("REPRO_SCALE") or 0.1),
        cores=int(os.environ.get("REPRO_CORES") or 4),
        backend=os.environ.get("REPRO_BACKEND") or "scalar",
        reorder=os.environ.get("REPRO_REORDER") or "identity",
    )


def run(config: Optional[TrafficConfig] = None) -> SweepResult:
    return run_sweep(config or default_config())


def main() -> None:  # pragma: no cover - exercised via the CLI
    sweep = run()
    sweep.table().print()
    table_path, metrics_path = write_artifacts(sweep)
    print(f"\ntable:   {table_path}")
    print(f"metrics: {metrics_path}")
