"""Kept mutants: deliberate bugs that named tests must catch.

Each entry is a file under ``src/``, an exact text in it, the text that
replaces it, and the tests that must fail once it is replaced.  The
script first runs every named test on an unchanged copy of ``src/``,
where they must pass.  Then, for each entry, it applies that one
replacement to a fresh temporary copy of ``src/`` and runs
``pytest -x`` on the entry's tests against the copy; they must fail
(pytest exit status 1).  An entry whose old text is no longer in its
file, or is there more than once, stops the script: a refactor that
moves the text must update the entry.  A mutant that its tests let
pass fails the script.  Hypothesis tests run from a fixed seed, with
no example database and no shrinking (the ``mutants`` profile), so a
verdict is the same on every run, a mutant's failing examples are not
kept for later runs of the unchanged tests, and a failure is reported
as first drawn.

Standard library only; pytest and hypothesis run the tests, as for
tier-1.  Run from the repository root::

    python tests/mutants.py              # every entry
    python tests/mutants.py NAME ...     # the named entries
    python tests/mutants.py --list       # the entry names
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 0  # hypothesis seed of every run, so a verdict does not depend on the draw


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "grid-side-trusted-for-any-n",
        "gridroots/extraction.py",
        'if getattr(pattern, "_grid_side", None) != n:',
        'if getattr(pattern, "_grid_side", None) is None:',
        ("tests/test_extraction.py::test_grid_side_memo_changes_no_verdict",),
    ),
    Mutant(
        "reader-marks-an-off-grid-edge",
        "gridroots/formats.py",
        "    return eid, min(u, v), max(u, v)\n",
        "    return eid + 1, min(u, v), max(u, v)\n",
        ("tests/test_extraction.py::test_grid_side_memo_changes_no_verdict",),
    ),
    Mutant(
        "scan-ignores-edges-inside-the-cut",
        "gridroots/separations.py",
        "elif len(cut) + reach.count(1) < g.num_vertices or _has_edge_inside(g, cut):",
        "elif len(cut) + reach.count(1) < g.num_vertices:",
        ("tests/test_extraction.py::test_no_reduction_in_extract_has_both_ends_in_the_roots",),
    ),
    Mutant(
        "picker-forgets-a-contractions-parallel-copies",
        "gridroots/extraction.py",
        "for f in sorted(work.around[i][i]):",
        "for f in ():",
        ("tests/test_separations.py::test_reduction_picker_gives_the_reference_reduction_at_every_step",),
    ),
    Mutant(
        "schedule-contracts-the-greatest-branch-edge-first",
        "gridroots/extraction.py",
        "for e in sorted(owner):",
        "for e in sorted(owner, reverse=True):",
        ("tests/test_separations.py::test_reduction_picker_gives_the_reference_reduction_at_every_step",),
    ),
    Mutant(
        "flow-seeds-only-the-least-free-source",
        "gridroots/separations.py",
        "            for u in starts:\n"
        "                parent[u] = top\n"
        "            queue = list(starts)\n",
        "            queue = [min([u for u in starts if prev[u >> 1] != _END] or starts)]\n"
        "            parent[queue[0]] = top\n",
        ("tests/test_separations.py::test_menger_paths_meet_sources_and_targets_only_at_their_ends",),
    ),
    Mutant(
        "flow-search-runs-on-past-a-target",
        "gridroots/separations.py",
        "                        end = i\n"
        "                        break\n",
        "                        end = i\n",
        ("tests/test_separations.py::test_menger_paths_meet_sources_and_targets_only_at_their_ends",),
    ),
    Mutant(
        "contraction-drops-a-root",
        "gridroots/extraction.py",
        "            roots.discard(v)\n"
        "            roots.add(u)\n",
        "            roots.discard(v)\n",
        ("tests/test_separations.py::test_strict_blocker_comes_only_from_a_first_scan",),
    ),
    Mutant(
        "json-rows-without-the-empty-row-guard",
        "gridroots/formats.py",
        "type(o[0]) is list and o[0] and _int_rows(o, len(o[0]))",
        "type(o[0]) is list and _int_rows(o, len(o[0]))",
        ("tests/test_formats.py::test_canonical_json_edge_cases",
         "tests/test_formats.py::test_canonical_json_equals_json_dumps"),
    ),
    Mutant(
        "json-ints-with-an-isinstance-guard",
        "gridroots/formats.py",
        "if _all_of(int, o):",
        "if all(isinstance(x, int) for x in o):",
        ("tests/test_formats.py::test_canonical_json_edge_cases",
         "tests/test_formats.py::test_canonical_json_equals_json_dumps"),
    ),
    Mutant(
        "json-rows-width-checked-on-the-first-row-only",
        "gridroots/formats.py",
        "o[0] and _int_rows(o, len(o[0]))",
        "o[0] and _all_of(list, o) and _all_of(int, chain.from_iterable(o))",
        ("tests/test_formats.py::test_canonical_json_edge_cases",
         "tests/test_formats.py::test_canonical_json_equals_json_dumps"),
    ),
    Mutant(
        "json-records-without-the-shared-key-check",
        "gridroots/formats.py",
        "fields and all(map(fields.__eq__, map(dict.keys, records)))",
        "fields",
        ("tests/test_formats.py::test_canonical_json_edge_cases",
         "tests/test_formats.py::test_canonical_json_equals_json_dumps"),
    ),
    Mutant(
        "json-record-columns-with-an-isinstance-guard",
        "gridroots/formats.py",
        "_all_of(int, chain.from_iterable(values))",
        "all(isinstance(x, int) for x in chain.from_iterable(values))",
        ("tests/test_formats.py::test_canonical_json_edge_cases",
         "tests/test_formats.py::test_canonical_json_equals_json_dumps"),
    ),
    Mutant(
        "json-record-columns-without-the-empty-list-guard",
        "gridroots/formats.py",
        '{close}" if v else "[]" for v in values]',
        '{close}" for v in values]',
        ("tests/test_formats.py::test_canonical_json_edge_cases",
         "tests/test_formats.py::test_canonical_json_equals_json_dumps"),
    ),
    Mutant(
        "working-graph-keys-in-edge-id-order",
        "gridroots/graph.py",
        "for eid, (u, v) in sorted(edges.items(), key=itemgetter(1)):",
        "for eid, (u, v) in sorted(edges.items()):",
        ("tests/test_graph.py::test_working_graph_builds_the_reference_adjacency",),
    ),
    Mutant(
        "working-graph-parallel-edges-in-edge-map-order",
        "gridroots/graph.py",
        "near[j] = around[j][i] = tuple(sorted((*near[j], eid)))",
        "near[j] = around[j][i] = (*near[j], eid)",
        ("tests/test_graph.py::test_working_graph_builds_the_reference_adjacency",),
    ),
    Mutant(
        "graph-incidence-in-edge-map-order",
        "gridroots/graph.py",
        "for eid, (x, y) in sorted(self._edges.items()):",
        "for eid, (x, y) in self._edges.items():",
        ("tests/test_graph.py::test_incidence_built_on_first_use_answers_as_built_eagerly",),
    ),
    Mutant(
        "working-graph-reads-the-host-incidence",
        "gridroots/graph.py",
        "        self._fill(g._vertices, dict(g._edges))\n",
        "        [g.incident_edges(v) for v in g._vertices]\n"
        "        self._fill(g._vertices, dict(g._edges))\n",
        ("tests/test_graph.py::test_reading_and_refuting_leave_the_incidence_unbuilt",),
    ),
    Mutant(
        "bulk-branches-skip-the-host-vertex-check",
        "gridroots/formats.py",
        "    if not host.vertices.issuperset(chain.from_iterable(vertex_lists)):\n"
        "        return None\n",
        "",
        ("tests/test_readers.py::test_the_first_failure_in_input_order_wins",
         "tests/test_readers.py::test_model_from_dict_matches_the_reference"),
    ),
    Mutant(
        "break-builds-branches-in-the-old-host",
        "gridroots/instances.py",
        "pv: Subgraph._unchecked(host, br.vertices, br.edge_ids)",
        "pv: Subgraph._unchecked(problem.host, br.vertices, br.edge_ids)",
        ("tests/test_instances.py::test_break_equals_deleting_edges_one_by_one",),
    ),
    Mutant(
        "break-drops-edges-by-one-end-only",
        "gridroots/instances.py",
        "if u in victims or v in victims}",
        "if u in victims}",
        ("tests/test_instances.py::test_break_equals_deleting_edges_one_by_one",),
    ),
    Mutant(
        "certificate-moves-a-separator-vertex-to-b",
        "gridroots/extraction.py",
        "        return HypothesisViolated(separation, row, depth)\n",
        "        for x in sorted(separation.separator)[:1]:\n"
        "            a, b, host = separation.a, separation.b, separation.host\n"
        "            moved = {e for e in a.edge_ids if x in host.endpoints(e)}\n"
        "            separation = Separation(\n"
        "                Subgraph._unchecked(host, a.vertices - {x}, a.edge_ids - moved),\n"
        "                Subgraph._unchecked(host, b.vertices, b.edge_ids | moved),\n"
        "            )\n"
        "        return HypothesisViolated(separation, row, depth)\n",
        ("tests/test_certificate_referee.py",),
    ),
)


def run_tests(src: Path, tests, seed: int = SEED) -> int:
    """pytest's exit status for ``tests`` run against the package in ``src``,
    with hypothesis drawing from ``seed``, keeping no example database and
    not shrinking."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutants", f"--hypothesis-seed={seed}", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def apply(mutant: Mutant, src: Path) -> None:
    path = src / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        sys.exit(f"{mutant.name}: its old text occurs {count} times in src/{mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    with tempfile.TemporaryDirectory() as tmp:
        for m in chosen:
            apply(m, copy_src(Path(tmp) / m.name))  # every old text, before any run
        tests = sorted({t for m in chosen for t in m.tests})
        start = time.perf_counter()
        status = run_tests(copy_src(Path(tmp) / "unchanged"), tests)
        print(f"unchanged source: pytest exit {status} ({time.perf_counter() - start:.1f} s)")
        if status != 0:
            print("the named tests must pass on the unchanged source: run them with pytest to see why")
            return 1
        survivors = []
        for m in chosen:
            start = time.perf_counter()
            status = run_tests(Path(tmp) / m.name / "src", m.tests)
            verdict = "caught" if status == 1 else f"NOT CAUGHT (pytest exit {status})"
            print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)")
            if status != 1:
                survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} of {len(chosen)} mutants not caught: {', '.join(survivors)}")
        return 1
    print(f"all {len(chosen)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
