"""Record the bundle digests that benchmark runs compare against.

    python3 bench/record_digests.py FIRST_SEED LAST_SEED

Builds every workload at each seed in the inclusive range, takes each
instance through one operation, and merges the sha256 of every bundle
into ``bench/digests.json``.  Record only on a commit whose bundles are
known good: every later commit must write the same bytes, and a run
that does not counts the operation as failed.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or run.import_package() is None:
        print(__doc__, file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    stored = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.exists() else {}
    work_root = run.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    try:
        for seed in range(int(args[0]), int(args[1]) + 1):
            for name, workload in WORKLOADS.items():
                r = harness.Run(workload, seed, 0.0, Path(work) / f"{name}-{seed}")
                result = r.measure(setup_repeats=1, setup_budget=0.0)
                if not result.correct:
                    print(f"{name} seed {seed} failed: {result.problems}", file=sys.stderr)
                    return 1
                stored.setdefault(name, {})[str(seed)] = dict(sorted(r.first.items()))
                print(f"{name} seed {seed}: {len(r.first)} bundles", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
