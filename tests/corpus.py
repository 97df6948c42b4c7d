"""Byte-identity corpus: every delivered byte of a fixed set of runs, pinned by sha256.

Each case builds one instance, writes it with ``write_instance``, reads
it back through ``read_json`` and the document readers (as the CLI
does), and hashes what the run delivers:

- ``instance``: the written graph.json, roots.json and model.json;
- ``hypothesis``: the ``check_hypothesis`` verdict, with its certificate;
- ``find-separation``: one ``find_row_blocking_separation`` scan over the
  full rows at order k, as ``gridroots find-separation`` prints it;
- ``extract``: the files ``gridroots extract`` writes (result, base and
  augmented model and trace, or certificate and trace), or the error
  document of a rejected problem.

The cases are grid-plus-roots and random-attachment recipes with k = 1,
2 and 3 roots (8/1/1, 13/2/2 and 28/3/3, degree k + 1) at seeds 0-7,
each also broken by ``detach`` and ``hang``, and the coarse 2 x 2-block
models with n = 3, 4, 5, 7 and 8 at all four corners (n = 3 and 4 fail
``validate_problem``; the corpus pins that rejection too).  No case
hits the open band-choice bug: problems that do belong to a property
test, not to a byte corpus.  Four full-run cases reach the scale of
CI's smoke instances and beyond: grid-plus-roots and random-attachment
36/4/3 and 64/4/3 at seed 7, degree 4, not in ``SUBSET``.  One case,
``pendant-roots/13/depth1`` (``test_reductions.pendant_roots_problem``),
is refuted below a recursion.

    PYTHONPATH=src python tests/corpus.py           # check every case
    PYTHONPATH=src python tests/corpus.py --write   # rewrite the digest file

Rewriting the digest file changes the byte contract: name every rewrite
in CHANGES.md.  Tier-1 checks ``SUBSET`` (``tests/test_corpus.py``).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

from gridroots import (
    BREAK_MODES,
    ExtractionProblem,
    HypothesisViolated,
    InstanceRecipe,
    MalformedInput,
    break_instance,
    canonical_json,
    certificate_to_dict,
    check_hypothesis,
    extract,
    generate_instance,
    graph_from_dict,
    model_from_dict,
    model_to_dict,
    read_json,
    result_to_dict,
    separation_to_dict,
    trace_to_jsonl,
    vertex_set_from_dict,
    write_instance,
)
from gridroots.extraction import _full_rows
from gridroots.separations import find_row_blocking_separation

from test_reductions import CORNERS, coarse_problem, pendant_roots_problem

DIGEST_FILE = Path(__file__).with_name("corpus_digests.json")
RECIPE_KINDS = ("grid-plus-roots", "random-attachment")
RECIPE_SIZES = {1: (8, 1), 2: (13, 2), 3: (28, 3)}  # k -> (n, g)
SEEDS = range(8)
COARSE_SIDES = (3, 4, 5, 7, 8)
SCALE_SIZES = {36: (4, 3), 64: (4, 3)}  # n -> (g, k) of the full-run cases at seed 7, degree k + 1
DEPTH_ONE = "pendant-roots/13/depth1"

# the cases tier-1 runs: every kind, root count, break mode and coarse side once
SUBSET = (
    "grid-plus-roots/k1/s0",
    "grid-plus-roots/k2/s1/detach",
    "grid-plus-roots/k3/s2/hang",
    "random-attachment/k1/s3/hang",
    "random-attachment/k2/s4",
    "random-attachment/k3/s5/detach",
    "coarse/3/top-left",
    "coarse/4/bottom-right",
    "coarse/5/top-right",
    "coarse/7/bottom-left",
    "coarse/8/top-right",
    DEPTH_ONE,
)


def case_ids() -> list[str]:
    ids = []
    for kind in RECIPE_KINDS:
        for k in RECIPE_SIZES:
            for seed in SEEDS:
                ids += [f"{kind}/k{k}/s{seed}"] + [f"{kind}/k{k}/s{seed}/{m}" for m in BREAK_MODES]
    ids += [f"coarse/{n}/{corner}" for n in COARSE_SIDES for corner in CORNERS]
    ids += [f"{kind}/n{n}/s7" for kind in RECIPE_KINDS for n in SCALE_SIZES]
    return ids + [DEPTH_ONE]


def build(case: str) -> ExtractionProblem:
    if case == DEPTH_ONE:
        return pendant_roots_problem()
    parts = case.split("/")
    if parts[0] == "coarse":
        return coarse_problem(int(parts[1]), parts[2])
    size, seed = int(parts[1][1:]), int(parts[2][1:])
    if parts[1][0] == "n":
        n, (g, k) = size, SCALE_SIZES[size]
    else:
        k, (n, g) = size, RECIPE_SIZES[size]
    problem = generate_instance(InstanceRecipe(parts[0], n, g, k, seed, k + 1))
    return problem if len(parts) == 3 else break_instance(problem, parts[3], seed)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _json_sha(obj) -> str:
    return _sha(canonical_json(obj).encode())


def run_case(case: str, work: Path) -> dict[str, str]:
    """The case's outputs, by name, as sha256 hex digests."""
    built = build(case)
    paths = write_instance(built, work)
    host = graph_from_dict(read_json(paths["graph"]))
    roots = vertex_set_from_dict(read_json(paths["roots"]))
    doc = read_json(paths["model"])
    model = model_from_dict(doc, host)
    problem = ExtractionProblem(host, roots, model, doc["pattern"]["n"], built.g, built.k)
    out = {"instance": _sha(*(paths[name].read_bytes() for name in ("graph", "roots", "model")))}

    verdict = check_hypothesis(problem)
    out["hypothesis"] = _json_sha({
        "holds": verdict.holds,
        "row": None if verdict.row is None else sorted(verdict.row),
        "separation": None if verdict.separation is None else separation_to_dict(verdict.separation),
    })

    rows = _full_rows(problem.n, model.pattern)
    block = find_row_blocking_separation(host, roots, model, rows, problem.k)
    out["find-separation"] = _json_sha({"found": False} if block is None else {
        "found": True,
        "kind": block.kind,
        "row": sorted(block.row),
        "order": block.separation.order,
        "separation": separation_to_dict(block.separation),
    })

    try:
        res = extract(problem)
    except MalformedInput as exc:
        out["extract"] = _json_sha({"error": "malformed-input", "message": str(exc),
                                    "problems": exc.problems})
    except HypothesisViolated as exc:
        out["extract"] = _sha(
            canonical_json(certificate_to_dict(exc.separation, exc.row, exc.depth)).encode(),
            trace_to_jsonl(exc.trace).encode(),
        )
    else:
        g = problem.g
        out["extract"] = _sha(
            canonical_json(result_to_dict(res)).encode(),
            canonical_json(model_to_dict(res.witness.base, g)).encode(),
            canonical_json(model_to_dict(res.witness.augmented, g)).encode(),
            trace_to_jsonl(res.trace).encode(),
        )
    return out


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the digest file")
    args = parser.parse_args(argv)
    expected = {} if args.write else load_digests()
    ids = case_ids()
    got, bad = {}, []
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(ids):
            got[case] = run_case(case, Path(tmp) / str(i))
            want = expected.get(case, {})
            if not args.write and got[case] != want:
                bad.append((case, sorted(name for name in got[case] | want
                                         if got[case].get(name) != want.get(name))))
    elapsed = time.perf_counter() - t0
    if args.write:
        DIGEST_FILE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} cases to {DIGEST_FILE} in {elapsed:.1f} s")
        return 0
    missing = sorted(set(expected) - set(got))
    for case, names in bad:
        print(f"differs: {case} ({', '.join(names)})", file=sys.stderr)
    for case in missing:
        print(f"not generated: {case}", file=sys.stderr)
    print(f"{len(ids) - len(bad)} of {len(ids)} cases match ({elapsed:.1f} s)")
    return 1 if bad or missing else 0


if __name__ == "__main__":
    sys.exit(main())
