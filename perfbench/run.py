"""The repository benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Workloads (see README.md in this directory): ``sim-scalar``, ``serve-zipf``
and ``http-writes``.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation installed; ``--trace 1`` is a separate run that installs the
layer ledger (``layers.py``) and reports the per-layer metrics.  Every
answer is checked against ``repro.algorithms.reference`` after the timed
window.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sim-scalar", "serve-zipf", "http-writes")

#: the end-to-end metrics every workload reports (see README.md for what
#: each means on each workload)
E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "share"),
    ("ops_per_s", "1/s"),
    ("host_p50_ms", "ms"),
    ("sim_p50_kcyc", "kcycles"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=1,
        help="input seed (default 1; 9001 is held out for checking claims)",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """Digest of the code that decides the deterministic counts: the
    program under ``src/`` and the benchmark's own modules."""
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.py")) + list(HERE.glob("*.py"))):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_determinism(key: str, counts: dict) -> str:
    """Compare this run's deterministic counts with the first run of the
    same code and inputs recorded in this checkout; returns a difference,
    or ''.  Records are kept per source digest, so runs of another commit
    never count against this one and the file compares commits side by
    side."""
    from common import OUT

    path = OUT / "determinism.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    mine = record.setdefault(source_digest(), {})
    earlier = mine.get(key)
    if earlier is None:
        mine[key] = counts
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        tmp.replace(path)
        return ""
    for name in sorted(set(earlier) | set(counts)):
        if earlier.get(name) != counts.get(name):
            return f"{name}: {earlier.get(name)!r} earlier, {counts.get(name)!r} now"
    return ""


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from common import OUT

    OUT.mkdir(parents=True, exist_ok=True)
    module = importlib.import_module(args.workload.replace("-", "_"))
    out = module.run(args.seed, args.seconds, bool(args.trace))

    if out.determinism:
        key = f"{args.workload}/seed={args.seed}/seconds={args.seconds:g}"
        if args.workload == "sim-scalar":
            key = args.workload  # the seed only orders the specs
        diff = _check_determinism(key, out.determinism)
        if diff:
            out.wrong.append(f"determinism {key}: {diff}")

    failed = len(out.failures)
    out.e2e["ok_rate"] = 1.0 - failed / out.attempted
    window = "traced window" if args.trace else "untraced window"
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} ({window})")
    for name, value, unit, note in out.report:
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:34s} {shown} {unit}  ({note})")
    print(f"  {'fail_rate':34s} {failed / out.attempted:.6g} share  ({failed} of {out.attempted})")
    rows = layers.PER_LAYER if args.trace else E2E
    values = out.layers if args.trace else out.e2e
    for name, unit in rows:
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    for what in out.failures + [w for w in out.wrong if w not in out.failures]:
        print(f"  FAILED: {what}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in rows}
    print(json.dumps({
        "correct": not out.wrong,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
