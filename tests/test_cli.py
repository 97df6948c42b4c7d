"""Command-line interface: exit codes, files written, stdout documents."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gridroots import (
    InstanceRecipe,
    break_instance,
    canonical_json,
    generate_instance,
    graph_from_dict,
    graph_to_dict,
    grid_plus_roots_problem,
    identity_problem,
    model_from_dict,
    read_json,
    separation_from_dict,
    trace_from_jsonl,
    write_instance,
    write_json,
)
from gridroots.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_process(*argv, timeout=60):
    """``python -m gridroots argv`` in a separate process, so a traceback shows on stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "gridroots", *map(str, argv)],
                          capture_output=True, text=True, timeout=timeout, env=env)


def test_gen_grid_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen-grid", "--n", 3)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 9
    assert len(doc["edges"]) == 12

    target = tmp_path / "grid.json"
    code, _, _ = run(capsys, "gen-grid", "--n", 3, "--out", target)
    assert code == 0
    assert read_json(target) == doc


def test_gen_grid_rejects_empty_side(capsys):
    code, out, err = run(capsys, "gen-grid", "--n", 0)
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "malformed-input"


@pytest.mark.parametrize("command", [
    ("check-tangle", "--order"),
    ("oracle", "tangles", "--order"),
    ("oracle", "grid-model", "--side"),
])
@pytest.mark.parametrize("value", [0, -1])
def test_oracle_commands_reject_a_non_positive_order_or_side(tmp_path, capsys, command, value):
    grid = tmp_path / "g.json"
    run(capsys, "gen-grid", "--n", 2, "--out", grid)
    *words, flag = command
    code, out, err = run(capsys, *words, "--graph", grid, flag, value)
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "malformed-input"


@pytest.mark.parametrize("kind", ["separations", "row-property"])
def test_oracle_commands_reject_a_negative_max_order(tmp_path, capsys, kind):
    """A negative bound would enumerate nothing, and report a count of 0 or
    a row property that holds over no separation."""
    inst = tmp_path / "inst"
    run(capsys, "gen-instance", "--kind", "identity-grid", "--n", 5, "--g", 2, "--k", 1, "--out", inst)
    files = ["--graph", inst / "graph.json"]
    if kind == "row-property":
        files += ["--roots", inst / "roots.json", "--model", inst / "model.json", "--g", 2, "--k", 1]
    code, out, err = run(capsys, "oracle", kind, *files, "--max-order", -1)
    assert code == 64
    assert out == ""
    assert json.loads(err)["error"] == "malformed-input"


def test_gen_instance_rejects_degree_above_side(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "gen-instance",
        "--kind", "grid-plus-roots", "--n", 13, "--g", 2, "--k", 2, "--degree", 99,
        "--out", tmp_path / "inst",
    )
    assert code == 64
    assert "degree" in json.loads(err)["message"]


def test_gen_instance_rejects_an_explicit_zero_degree(tmp_path, capsys):
    # --degree 0 is a degree below k, not a missing flag that defaults to k
    code, out, err = run(
        capsys,
        "gen-instance",
        "--kind", "grid-plus-roots", "--n", 13, "--g", 2, "--k", 2, "--degree", 0,
        "--out", tmp_path / "inst",
    )
    assert code == 64
    assert out == ""
    assert json.loads(err)["message"] == "attachment degree 0 must be at least k=2"
    assert not (tmp_path / "inst").exists()


def test_gen_instance_rejects_more_roots_than_the_subgrid_side(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "gen-instance",
        "--kind", "grid-plus-roots", "--n", 25, "--g", 2, "--k", 3,
        "--out", tmp_path / "inst",
    )
    assert code == 64
    assert out == ""
    assert json.loads(err)["message"] == "need 1 <= k <= g, got k=3, g=2"
    assert not (tmp_path / "inst").exists()


@pytest.mark.parametrize("kind,n,g,k", [
    ("grid-plus-roots", 2, 2, 2),  # one 2-column set for two roots
    ("random-attachment", 1, 1, 1),  # no vertex pair for a chord
])
def test_gen_instance_rejects_unsatisfiable_recipe(tmp_path, kind, n, g, k):
    # a separate process with a timeout, so a generator that never returns
    # fails the test instead of hanging the suite
    proc = _run_process("gen-instance", "--kind", kind, "--n", n, "--g", g, "--k", k,
                        "--out", tmp_path / "inst")
    assert proc.returncode == 64, proc.stderr
    assert json.loads(proc.stderr)["error"] == "malformed-input"
    assert "Traceback" not in proc.stderr


def test_gen_instance_exits_3_when_a_build_is_refuted(tmp_path, capsys, monkeypatch):
    """A random build the hypothesis check refutes is a bug (exit 3)
    naming the certificate, and writes no instance."""
    import gridroots.instances as instances
    from gridroots import check_hypothesis

    refuted = check_hypothesis(break_instance(
        generate_instance(InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=0, degree=3)),
        "hang", 0,
    ))
    checked = []
    monkeypatch.setattr(instances, "check_hypothesis", lambda problem: checked.append(problem) or refuted)
    code, out, err = run(
        capsys, "gen-instance", "--kind", "grid-plus-roots", "--n", 13, "--g", 2, "--k", 2,
        "--out", tmp_path / "inst",
    )
    assert code == 3
    assert len(checked) == 1
    assert out == ""
    assert json.loads(err) == {
        "error": "internal-invariant",
        "message": f"generated instance refuted: order 1 at row {refuted.row}",
    }
    assert not (tmp_path / "inst").exists()


def test_gen_instance_then_extract_then_validate(tmp_path, capsys):
    inst = tmp_path / "inst"
    code, out, _ = run(
        capsys,
        "gen-instance",
        "--kind", "grid-plus-roots",
        "--n", 13, "--g", 2, "--k", 2,
        "--seed", 5, "--degree", 3,
        "--out", inst,
    )
    assert code == 0
    assert (inst / "recipe.json").exists()
    assert read_json(inst / "recipe.json")["seed"] == 5

    outdir = tmp_path / "run"
    code, out, _ = run(
        capsys,
        "extract",
        "--graph", inst / "graph.json",
        "--roots", inst / "roots.json",
        "--model", inst / "model.json",
        "--g", 2, "--k", 2,
        "--out", outdir,
    )
    assert code == 0
    summary = json.loads(out)
    assert len(summary["subgrid"]) == 4  # the g x g block, g = 2
    assert {"i0", "j0", "files"} <= summary.keys()
    assert (outdir / "result.json").exists()
    assert (outdir / "base-model.json").exists()
    assert (outdir / "augmented-model.json").exists()
    assert (outdir / "trace.jsonl").exists()

    # the augmented model must itself validate against the instance host
    code, out, _ = run(
        capsys,
        "validate-model",
        "--graph", inst / "graph.json",
        "--model", outdir / "augmented-model.json",
        "--strict-model",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_extract_writes_failure_json_on_a_broken_invariant(tmp_path, capsys, monkeypatch):
    import gridroots.extraction as extraction
    from gridroots.separations import CutResult

    def no_paths(g, sources, targets, k, forbidden=()):
        return CutResult(paths=None, cut=frozenset({1, 2}), separation=None)

    # two recursions, then the innermost band step's disjoint-paths search fails
    paths = write_instance(grid_plus_roots_problem(13, 2, 2, ((1, 3), (5, 7))), tmp_path / "inst")
    monkeypatch.setattr(extraction, "_route", no_paths)
    outdir = tmp_path / "run"
    code, out, err = run(
        capsys, "extract", "--graph", paths["graph"], "--roots", paths["roots"],
        "--model", paths["model"], "--g", 2, "--k", 2, "--out", outdir,
    )
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "error": "internal-invariant",
        "message": "the final disjoint-paths search returned a cut",
        "failure": str(outdir / "failure.json"),
    }
    trace = trace_from_jsonl((outdir / "trace.jsonl").read_text(encoding="utf-8"))
    assert [r["kind"] for r in trace] == [
        "edge-delete", "separation-recursion", "edge-delete", "separation-recursion",
        "band-selected",
    ]
    text = (outdir / "failure.json").read_text(encoding="utf-8")
    failure = json.loads(text)
    assert text == canonical_json(failure)
    assert failure == {
        "message": "the final disjoint-paths search returned a cut",
        "payload": {"cut": [1, 2], "targets": failure["payload"]["targets"]},
        "lastRecord": trace[-1],
    }
    assert trace[-1]["depth"] == 2

    # a failure before the first record leaves an empty trace
    def broken_start(self, problem):
        raise extraction.InternalInvariantBroken("injected", payload=[7])

    monkeypatch.setattr(extraction._Runner, "start", broken_start)
    code, _, _ = run(
        capsys, "extract", "--graph", paths["graph"], "--roots", paths["roots"],
        "--model", paths["model"], "--g", 2, "--k", 2, "--out", outdir,
    )
    assert code == 3
    assert (outdir / "trace.jsonl").read_text(encoding="utf-8") == ""
    assert read_json(outdir / "failure.json") == {
        "message": "injected", "payload": [7], "lastRecord": None,
    }


def test_extract_checks_its_certificate(tmp_path, capsys, monkeypatch):
    """A certificate whose B side misses a vertex of the input model's
    image of its row is a broken invariant (exit 3), not a refutation."""
    import gridroots.separations as separations

    broken = break_instance(
        generate_instance(InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=0, degree=3)),
        "hang", 0,
    )
    paths = write_instance(broken, tmp_path / "broken")
    sides = separations._Blocker.sides
    row_vertex = 5  # the refuted row is the first, whose image is {1, ..., 13}

    def leaky_sides(self, g, roots):
        va, ea, vb, eb = sides(self, g, roots)
        return va | {row_vertex}, ea, vb - {row_vertex}, eb

    monkeypatch.setattr(separations._Blocker, "sides", leaky_sides)
    outdir = tmp_path / "run"
    code, out, err = run(
        capsys, "extract", "--graph", paths["graph"], "--roots", paths["roots"],
        "--model", paths["model"], "--g", 2, "--k", 2, "--out", outdir,
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "internal-invariant"
    assert not (outdir / "certificate.json").exists()
    failure = read_json(outdir / "failure.json")
    assert failure["message"] == "delivered certificate failed its own check"
    assert failure["payload"] == {
        "row": list(range(1, 14)), "depth": 0, "row_outside_b": [row_vertex],
    }


def test_extract_exits_3_when_the_host_does_not_cut_a_refuted_row(tmp_path, capsys, monkeypatch):
    """Below a recursion a refutation is certified by a strict scan of its
    row in the input host.  A row the host does not cut below k (here the
    first row of an instance the hypothesis holds on, refuted at depth 1
    by a stand-in run) is a broken invariant (exit 3), not a refutation."""
    import gridroots.extraction as extraction

    paths = write_instance(
        generate_instance(InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=0, degree=3)),
        tmp_path / "inst",
    )

    def refute_the_first_row(self, work, roots, pattern, branches, images, depth):
        raise self._refutation(extraction._full_rows(self.n, pattern)[0], depth + 1, None)

    monkeypatch.setattr(extraction._Runner, "run", refute_the_first_row)
    outdir = tmp_path / "run"
    code, out, err = run(
        capsys, "extract", "--graph", paths["graph"], "--roots", paths["roots"],
        "--model", paths["model"], "--g", 2, "--k", 2, "--out", outdir,
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "internal-invariant"
    assert not (outdir / "certificate.json").exists()
    failure = read_json(outdir / "failure.json")
    assert failure["message"] == "the input host does not cut the refuted row below k"
    assert failure["payload"] == {"row": list(range(1, 14)), "depth": 1}


def test_extract_reports_certificate(tmp_path, capsys):
    problem = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=5, degree=3)
    )
    broken = break_instance(problem, "detach", 5)
    inst = tmp_path / "broken"
    paths = write_instance(broken, inst)
    outdir = tmp_path / "run"
    code, out, err = run(
        capsys,
        "extract",
        "--graph", paths["graph"],
        "--roots", paths["roots"],
        "--model", paths["model"],
        "--g", 2, "--k", 2,
        "--out", outdir,
    )
    assert code == 2
    assert "hypothesis" in err.lower()
    cert = read_json(outdir / "certificate.json")
    host = graph_from_dict(read_json(paths["graph"]))
    sep = separation_from_dict(cert["separation"], host)
    assert cert["order"] == sep.order < 2
    assert broken.roots <= sep.a.vertices
    assert (outdir / "trace.jsonl").exists()


def test_extract_rejects_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(
        capsys,
        "extract",
        "--graph", bad, "--roots", bad, "--model", bad,
        "--g", 2, "--k", 1, "--out", tmp_path,
    )
    assert code == 64
    assert err


def test_validate_model_flags_broken_model(tmp_path, capsys):
    problem = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=1, degree=2)
    )
    paths = write_instance(problem, tmp_path)
    doc = read_json(paths["model"])
    doc["branches"]["1,1"]["vertices"] = []  # null branch
    doc["branches"]["1,1"]["edges"] = []
    write_json(tmp_path / "model-broken.json", doc)
    code, out, _ = run(
        capsys,
        "validate-model",
        "--graph", paths["graph"],
        "--model", tmp_path / "model-broken.json",
        "--pseudo",
    )
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert any(f["code"] == "branch-null" for f in report["findings"])


def test_find_separation_exit_codes(tmp_path, capsys):
    clean = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=1, degree=2)
    )
    cp = write_instance(clean, tmp_path / "clean")
    code, out, _ = run(
        capsys,
        "find-separation",
        "--graph", cp["graph"], "--roots", cp["roots"], "--model", cp["model"],
        "--max-order", 2,
    )
    assert code == 0
    assert json.loads(out)["found"] is False

    broken = break_instance(clean, "hang", 2)
    bp = write_instance(broken, tmp_path / "broken")
    code, out, _ = run(
        capsys,
        "find-separation",
        "--graph", bp["graph"], "--roots", bp["roots"], "--model", bp["model"],
        "--max-order", 2,
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["kind"] in ("strict", "reducible")
    assert doc["order"] <= 2


def test_find_separation_rejects_bad_roots_and_order(tmp_path, capsys):
    clean = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=1, degree=2)
    )
    cp = write_instance(clean, tmp_path / "clean")
    stray = tmp_path / "stray-roots.json"
    write_json(stray, {"vertices": [10**6]})
    for roots, max_order in ((stray, 2), (cp["roots"], -1)):
        code, _, err = run(
            capsys,
            "find-separation",
            "--graph", cp["graph"], "--roots", roots, "--model", cp["model"],
            "--max-order", max_order,
        )
        assert code == 64
        assert json.loads(err)["error"] == "malformed-input"


def test_malformed_model_exits_64(tmp_path, capsys):
    paths = write_instance(identity_problem(3, 1, 1), tmp_path)
    good = read_json(paths["model"])
    lacking = {**good, "branches": {k: v for k, v in good["branches"].items() if k != "1,1"}}
    listed = {**good, "branches": list(good["branches"].values())}
    # the pair [1, 1] written as the string "11", and a fractional edge image
    pattern, images = good["pattern"], good["edgeImages"]
    stringly = {**good, "pattern": {**pattern, "coords": ["11", *pattern["coords"][1:]]}}
    first_edge = next(iter(images))
    fractional = {**good, "edgeImages": {**images, first_edge: images[first_edge] + 0.7}}
    cases = [
        ("find-separation", lacking),
        ("find-separation", listed),
        ("validate-model", listed),
        ("validate-model", stringly),
        ("validate-model", fractional),
    ]
    for command, doc in cases:
        write_json(tmp_path / "bad-model.json", doc)
        extra = ["--roots", paths["roots"], "--max-order", 1] if command == "find-separation" else []
        code, _, err = run(
            capsys, command, "--graph", paths["graph"], "--model", tmp_path / "bad-model.json", *extra
        )
        assert code == 64
        assert json.loads(err)["error"] == "malformed-input"


def test_extract_rejects_a_huge_declared_pattern_side_quickly(tmp_path, capsys):
    # the 13/2/2 demo's model with its side declared as a million: finding
    # full rows must not cost the square of the declared side
    problem = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=5, degree=3)
    )
    paths = write_instance(problem, tmp_path / "inst")
    doc = read_json(paths["model"])
    doc["pattern"]["n"] = 1000000
    write_json(paths["model"], doc)
    proc = _run_process("extract", "--graph", paths["graph"], "--roots", paths["roots"],
                        "--model", paths["model"], "--g", 2, "--k", 2, "--out", tmp_path / "run",
                        timeout=20)
    assert proc.returncode == 64, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "malformed-input"
    assert "pattern-row: pattern contains no full grid row" in err["problems"]


def test_menger_paths_and_cut(tmp_path, capsys):
    grid = tmp_path / "g.json"
    run(capsys, "gen-grid", "--n", 3, "--out", grid)
    for vs, name in (({1, 3}, "src.json"), ({7, 9}, "tgt.json")):
        write_json(tmp_path / name, {"vertices": sorted(vs)})
    code, out, _ = run(
        capsys,
        "menger",
        "--graph", grid,
        "--sources", tmp_path / "src.json",
        "--targets", tmp_path / "tgt.json",
        "--k", 2,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["paths"] == [[1, 4, 7], [3, 6, 9]]
    assert doc["cut"] is None

    code, out, _ = run(
        capsys,
        "menger",
        "--graph", grid,
        "--sources", tmp_path / "src.json",
        "--targets", tmp_path / "tgt.json",
        "--k", 3,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["paths"] is None
    assert doc["cut"] == [7, 9]
    assert "separation" in doc


def test_check_tangle(tmp_path, capsys):
    grid = tmp_path / "g.json"
    run(capsys, "gen-grid", "--n", 3, "--out", grid)
    code, out, _ = run(capsys, "check-tangle", "--graph", grid, "--order", 3)
    assert code == 0
    doc = json.loads(out)
    assert doc["tangles"] == 1

    ident = tmp_path / "m.json"
    from gridroots import identity_grid_model, model_to_dict

    write_json(ident, model_to_dict(identity_grid_model(3), 3))
    code, out, _ = run(
        capsys, "check-tangle", "--graph", grid, "--order", 3, "--grid-model", ident
    )
    assert code == 0
    assert json.loads(out)["ok"] is True

    # four vertices of the declared 3 x 3 grid: a square count, but not a
    # square grid's ids, so it cannot orient the separations (exit 64)
    doc = model_to_dict(identity_grid_model(3), 3)
    corner = {"1,1", "1,2", "2,1", "2,2"}
    doc["pattern"]["coords"] = [c for c in doc["pattern"]["coords"] if f"{c[0]},{c[1]}" in corner]
    doc["branches"] = {key: br for key, br in doc["branches"].items() if key in corner}
    doc["edgeImages"] = {key: e for key, e in doc["edgeImages"].items()
                         if set(key.split("|")) <= corner}
    write_json(ident, doc)
    code, out, err = run(
        capsys, "check-tangle", "--graph", grid, "--order", 2, "--grid-model", ident
    )
    assert code == 64
    assert out == ""
    assert json.loads(err)["message"] == (
        "grid model cannot orient the separations: pattern is not a square grid"
    )


def test_oracle_separations_and_tangles(tmp_path, capsys):
    grid = tmp_path / "g.json"
    run(capsys, "gen-grid", "--n", 3, "--out", grid)
    code, out, _ = run(capsys, "oracle", "separations", "--graph", grid, "--max-order", 2)
    assert code == 0
    assert json.loads(out)["count"] == 124

    code, out, _ = run(capsys, "oracle", "tangles", "--graph", grid, "--order", 3)
    assert code == 0
    assert json.loads(out)["count"] == 1

    code, out, _ = run(capsys, "oracle", "grid-model", "--graph", grid, "--side", 3)
    assert code == 0
    assert json.loads(out)["found"] is True

    # a grid of more vertices than the host's has no model: answered at once
    for side in (4, 100000):
        start = time.perf_counter()
        code, out, _ = run(capsys, "oracle", "grid-model", "--graph", grid, "--side", side)
        assert time.perf_counter() - start < 1
        assert code == 0
        assert json.loads(out)["found"] is False


def _fan(path):
    """A 12-vertex fan, apex 0 on the path 1..11: treewidth 2, so no 3x3 grid minor."""
    ends = [(0, v) for v in range(1, 12)] + [(v, v + 1) for v in range(1, 11)]
    edges = [[e, u, v] for e, (u, v) in enumerate(ends)]
    path.write_text(json.dumps({"vertices": list(range(12)), "edges": edges}))


@pytest.mark.parametrize("host,words", [
    (12, ["check-tangle", "--order", 3]),
    (3, ["oracle", "separations", "--max-order", 9]),
    (_fan, ["oracle", "grid-model", "--side", 3]),
])
def test_oracle_budget_bounds_the_work(tmp_path, capsys, host, words):
    """The default enumeration budget (10 vertices, order 3, 2,000,000
    search steps) turns a query too large for brute force away within
    seconds; ``host`` is a grid side or writes the graph."""
    graph = tmp_path / "g.json"
    if callable(host):
        host(graph)
    else:
        run(capsys, "gen-grid", "--n", host, "--out", graph)
    start = time.perf_counter()
    code, out, err = run(capsys, *words, "--graph", graph)
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "failed"


def test_oracle_row_property(tmp_path, capsys):
    inst = tmp_path / "inst"
    run(
        capsys,
        "gen-instance",
        "--kind", "identity-grid", "--n", 5, "--g", 2, "--k", 1,
        "--out", inst,
    )
    code, out, _ = run(
        capsys,
        "oracle", "row-property",
        "--graph", inst / "graph.json",
        "--roots", inst / "roots.json",
        "--model", inst / "model.json",
        "--g", 2, "--k", 1,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["separations"] == 52
    assert doc["ok"] is True


def test_oracle_row_property_exits_2_on_a_refuted_instance(tmp_path, capsys):
    """The extraction ``oracle row-property`` runs first may refute the
    hypothesis; that is exit 2 with a ``hypothesis-violated`` document."""
    problem = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=0, degree=3)
    )
    paths = write_instance(break_instance(problem, "hang", 0), tmp_path / "broken")
    code, out, err = run(
        capsys, "oracle", "row-property", "--graph", paths["graph"], "--roots", paths["roots"],
        "--model", paths["model"], "--g", 2, "--k", 2,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "hypothesis-violated",
        "message": "blocking separation of order 1 found for row "
                   "(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)",
    }


def test_oracle_row_property_enumerates_only_below_g(tmp_path, capsys):
    """Separations of order g or more cannot break the row property, so
    ``--max-order 3`` with g = 1 enumerates order 0 only: on the 65-vertex
    8/1/1 instance it ends in seconds with what ``--max-order 0`` gives,
    instead of listing the 112,000 separations up to order 3."""
    inst = tmp_path / "inst"
    run(
        capsys,
        "gen-instance",
        "--kind", "grid-plus-roots", "--n", 8, "--g", 1, "--k", 1, "--seed", 0,
        "--out", inst,
    )
    files = ("--graph", inst / "graph.json", "--roots", inst / "roots.json",
             "--model", inst / "model.json", "--g", 1, "--k", 1)
    docs = []
    for max_order in (0, 3):
        start = time.perf_counter()
        code, out, _ = run(capsys, "oracle", "row-property", *files, "--max-order", max_order)
        assert time.perf_counter() - start < 5
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0] == docs[1] == {"separations": 2, "ok": True, "findings": []}


def test_seed_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEED", "5")
    inst = tmp_path / "env"
    code, _, _ = run(
        capsys,
        "gen-instance",
        "--kind", "grid-plus-roots", "--n", 13, "--g", 2, "--k", 2, "--degree", 3,
        "--out", inst,
    )
    assert code == 0
    assert read_json(inst / "recipe.json")["seed"] == 5
    envgraph = read_json(inst / "graph.json")

    direct = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=5, degree=3)
    )
    assert canonical_json(envgraph) == canonical_json(graph_to_dict(direct.host))


def test_seed_env_variable_must_be_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEED", "x")
    code, out, err = run(
        capsys,
        "gen-instance",
        "--kind", "identity-grid", "--n", 13, "--g", 2, "--k", 2, "--out", tmp_path / "d",
    )
    assert code == 64
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "malformed-input"
    assert "SEED" in doc["message"]
    assert not (tmp_path / "d").exists()


def test_recipe_file_with_seed_override(tmp_path, capsys):
    recipe = tmp_path / "recipe.json"
    write_json(
        recipe,
        {"kind": "grid-plus-roots", "n": 13, "g": 2, "k": 2, "seed": 1, "degree": 2},
    )
    inst = tmp_path / "out"
    code, _, _ = run(
        capsys, "gen-instance", "--recipe", recipe, "--seed", 4, "--out", inst
    )
    assert code == 0
    assert read_json(inst / "recipe.json")["seed"] == 4


def test_unknown_input_file_exits_64(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "validate-model",
        "--graph", tmp_path / "absent.json",
        "--model", tmp_path / "absent.json",
    )
    assert code == 64
    assert "no such file" in err


def _assert_unreadable_graph_exits_64(graph, model):
    proc = _run_process("validate-model", "--graph", graph, "--model", model)
    assert proc.returncode == 64, proc.stderr
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "malformed-input"
    assert str(graph) in err["message"]
    return err["message"]


def test_a_directory_given_as_a_file_exits_64(tmp_path):
    paths = write_instance(identity_problem(3, 1, 1), tmp_path / "inst")
    message = _assert_unreadable_graph_exits_64(tmp_path, paths["model"])
    assert "Is a directory" in message


def test_a_file_that_is_not_utf8_exits_64(tmp_path):
    paths = write_instance(identity_problem(3, 1, 1), tmp_path / "inst")
    paths["graph"].write_bytes(b"\xff" + paths["graph"].read_bytes())
    assert "not UTF-8" in _assert_unreadable_graph_exits_64(paths["graph"], paths["model"])


def test_a_too_deeply_nested_file_exits_64(tmp_path):
    paths = write_instance(identity_problem(3, 1, 1), tmp_path / "inst")
    paths["graph"].write_text("[" * 100000)
    assert "nested too deeply" in _assert_unreadable_graph_exits_64(paths["graph"], paths["model"])


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts integers of any length")
def test_a_too_long_integer_exits_64(tmp_path):
    paths = write_instance(identity_problem(3, 1, 1), tmp_path / "inst")
    digits = sys.get_int_max_str_digits() + 1
    paths["graph"].write_text('{"vertices": [%s], "edges": []}' % ("1" * digits))
    assert "cannot be read as JSON" in _assert_unreadable_graph_exits_64(paths["graph"], paths["model"])


def _assert_unwritable_out_exits_64(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "malformed-input"
    return doc["message"]


def test_extract_out_an_existing_file_exits_64(tmp_path, capsys):
    paths = write_instance(identity_problem(3, 1, 1), tmp_path / "inst")
    taken = tmp_path / "taken"
    taken.write_text("")
    message = _assert_unwritable_out_exits_64(
        capsys, "extract", "--graph", paths["graph"], "--roots", paths["roots"],
        "--model", paths["model"], "--g", 1, "--k", 1, "--out", taken,
    )
    assert message.startswith(f"cannot create directory {taken}")
    assert taken.read_text() == ""


def test_gen_instance_out_an_existing_file_exits_64(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    message = _assert_unwritable_out_exits_64(
        capsys, "gen-instance", "--kind", "grid-plus-roots", "--n", 13, "--g", 2, "--k", 2,
        "--out", taken,
    )
    assert message.startswith(f"cannot create directory {taken}")


def test_gen_grid_out_a_directory_exits_64(tmp_path, capsys):
    message = _assert_unwritable_out_exits_64(capsys, "gen-grid", "--n", 3, "--out", tmp_path)
    assert message == f"cannot write {tmp_path}: Is a directory"


def test_gen_grid_out_in_a_missing_directory_exits_64(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    message = _assert_unwritable_out_exits_64(capsys, "gen-grid", "--n", 3, "--out", target)
    assert message == f"cannot write {target}: No such file or directory"
    assert not target.parent.exists()


def test_replayed_trace_matches_run(tmp_path, capsys):
    inst = tmp_path / "inst"
    run(
        capsys,
        "gen-instance",
        "--kind", "grid-plus-roots", "--n", 13, "--g", 2, "--k", 2, "--seed", 7,
        "--out", inst,
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for outdir in (out1, out2):
        code, _, _ = run(
            capsys,
            "extract",
            "--graph", inst / "graph.json",
            "--roots", inst / "roots.json",
            "--model", inst / "model.json",
            "--g", 2, "--k", 2,
            "--out", outdir,
        )
        assert code == 0
    for name in ("result.json", "base-model.json", "augmented-model.json", "trace.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert trace_from_jsonl((out1 / "trace.jsonl").read_text())
