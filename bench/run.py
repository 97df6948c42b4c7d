"""Benchmark entry point for gridroots.

Usage, from the root of a checkout:

    python3 bench/run.py --workload coarse --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that records spans around the calls into each layer and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The package is imported from ``src/`` of the checkout the
script sits in; without it the script exits with status 2 and prints no
result.  Scratch files go to ``.bench_work/`` and are removed at exit,
except the span file of a traced run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 7


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default: the baseline's, {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import gridroots from this checkout's ``src/``, or return None."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    try:
        import gridroots
    except ImportError as exc:
        print(f"cannot import gridroots from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(gridroots.__file__).resolve().is_relative_to(src):
        print(f"gridroots was imported from {gridroots.__file__}, not {src}", file=sys.stderr)
        return None
    return gridroots


def stored_digests(workload: str, seed: int) -> dict[str, str]:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed), {})


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_package() is None:
        return 2
    from harness import Run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_dir = work_root / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, work_dir,
              stored_digests(args.workload, args.seed))
    try:
        if args.trace:
            result = run.measure_traced(work_root / f"spans-{args.workload}-s{args.seed}.jsonl")
        else:
            result = run.measure()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"gridroots benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in result.lines:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
