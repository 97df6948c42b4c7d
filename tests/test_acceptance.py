"""Acceptance gate: the eight shipping criteria, one printed line each.

Each test prints ``[criterion N] PASS/FAIL - summary`` through the
capture so the line lands in plain pytest output, then asserts the
criterion itself.  Tolerances (runtimes, instance counts) follow the
stated contract.
"""
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import pytest

from gridroots import (
    AugmentationWitness,
    EnumerationBudget,
    ExtractionProblem,
    Graph,
    InstanceRecipe,
    Pseudomodel,
    Subgraph,
    Tangle,
    break_instance,
    check_augmentation,
    check_hypothesis,
    check_tangle_axioms,
    enumerate_blocking_separations,
    enumerate_cuts,
    enumerate_separations,
    extract,
    generate_instance,
    graph_from_dict,
    grid_graph,
    grid_tangle_member,
    identity_grid_model,
    identity_problem,
    image_of_vertices,
    menger,
    model_from_dict,
    read_json,
    replay,
    result_to_dict,
    separation_from_dict,
    separation_sort_key,
    trace_from_jsonl,
    validate_model,
    verify_output_row_property,
    write_instance,
)
from gridroots.cli import main


@contextmanager
def criterion(capfd, num: int, desc: str):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"[criterion {num}] FAIL - {desc}")
        raise
    with capfd.disabled():
        print(f"[criterion {num}] PASS - {desc}")


@dataclass
class CorpusRun:
    recipe: InstanceRecipe
    problem: object
    inst_dir: Path
    out_dir: Path
    exit_code: int
    elapsed: float
    trace: list = field(default_factory=list)


def _cli_extract(inst_dir: Path, out_dir: Path, g: int, k: int) -> int:
    return main([
        "extract",
        "--graph", str(inst_dir / "graph.json"),
        "--roots", str(inst_dir / "roots.json"),
        "--model", str(inst_dir / "model.json"),
        "--g", str(g),
        "--k", str(k),
        "--out", str(out_dir),
    ])


def corpus_recipes() -> list[InstanceRecipe]:
    recipes = [InstanceRecipe(kind="identity-grid", n=8, g=2, k=1)]
    for seed in range(20):
        recipes.append(
            InstanceRecipe(
                kind="grid-plus-roots", n=13, g=2, k=2, seed=seed, degree=2 + seed % 3
            )
        )
    return recipes


@pytest.fixture(scope="session")
def corpus(tmp_path_factory) -> list[CorpusRun]:
    base = tmp_path_factory.mktemp("corpus")
    runs = []
    for idx, recipe in enumerate(corpus_recipes()):
        problem = generate_instance(recipe)
        inst_dir = base / f"instance-{idx}"
        out_dir = base / f"run-{idx}"
        write_instance(problem, inst_dir)
        start = perf_counter()
        code = _cli_extract(inst_dir, out_dir, recipe.g, recipe.k)
        elapsed = perf_counter() - start
        trace = trace_from_jsonl((out_dir / "trace.jsonl").read_text())
        runs.append(CorpusRun(recipe, problem, inst_dir, out_dir, code, elapsed, trace))
    return runs


def test_criterion_1_end_to_end_extraction(corpus, capfd):
    desc = "end-to-end extraction on identity 8/1/2 and 20 grid-plus-roots 13/2/2 instances"
    with criterion(capfd, 1, desc):
        assert len(corpus) == 21
        for run in corpus:
            assert run.exit_code == 0, run.recipe
            assert run.elapsed < 5.0, (run.recipe, run.elapsed)
            host = graph_from_dict(read_json(run.inst_dir / "graph.json"))
            base = model_from_dict(read_json(run.out_dir / "base-model.json"), host)
            augmented = model_from_dict(
                read_json(run.out_dir / "augmented-model.json"), host
            )
            assert validate_model(augmented).ok, run.recipe
            assert validate_model(base).ok, run.recipe
            witness = AugmentationWitness(base=base, augmented=augmented, roots=run.problem.roots)
            assert check_augmentation(witness).ok, run.recipe
            # Z-freeness: no root vertex inside any extracted-block branch
            for pv, br in base.branches.items():
                assert not br.vertices & run.problem.roots, (run.recipe, pv)


def test_criterion_2_certificates_on_broken_instances(tmp_path, capfd):
    desc = "order < k certificates on 50 deliberately broken instances"
    with criterion(capfd, 2, desc):
        for i in range(50):
            recipe = InstanceRecipe(
                kind="grid-plus-roots", n=13, g=2, k=2, seed=i, degree=2 + i % 3
            )
            problem = generate_instance(recipe)
            mode = "detach" if i % 2 == 0 else "hang"
            broken = break_instance(problem, mode, i)
            inst_dir = tmp_path / f"broken-{i}"
            out_dir = tmp_path / f"run-{i}"
            write_instance(broken, inst_dir)
            start = perf_counter()
            code = _cli_extract(inst_dir, out_dir, recipe.g, recipe.k)
            elapsed = perf_counter() - start
            assert code == 2, (i, mode, code)
            assert elapsed < 5.0, (i, elapsed)
            cert = read_json(out_dir / "certificate.json")
            sep = separation_from_dict(cert["separation"], broken.host)
            assert sep.order == cert["order"] < broken.k
            assert broken.roots <= sep.a.vertices
            row_image = image_of_vertices(broken.model, cert["row"])
            assert row_image <= sep.b.vertices


def _random_menger_case(seed: int):
    rng = random.Random(f"menger-duality:{seed}")
    nv = rng.randint(4, 12)
    verts = list(range(1, nv + 1))
    edges = []
    for eid in range(1, rng.randint(nv, 2 * nv) + 1):
        u, v = rng.sample(verts, 2)
        edges.append((eid, u, v))
    g = Graph(verts, edges)
    sources = frozenset(rng.sample(verts, rng.randint(1, 3)))
    targets = frozenset(rng.sample(verts, rng.randint(1, 3)))
    return g, sources, targets


def test_criterion_3_menger_duality(capfd):
    desc = "menger path count equals exhaustive min cut size on 100 random graphs"
    with criterion(capfd, 3, desc):
        start = perf_counter()
        for seed in range(100):
            g, sources, targets = _random_menger_case(seed)
            limit = min(len(sources), len(targets))
            cuts = enumerate_cuts(g, sources, targets, limit)
            min_cut = min(len(c) for c in cuts)
            if min_cut > 0:
                res = menger(g, sources, targets, min_cut)
                assert res.found_paths, seed
                assert len(res.paths) == min_cut
            over = menger(g, sources, targets, min_cut + 1)
            assert not over.found_paths, seed
            assert len(over.cut) == min_cut, seed
            budget = EnumerationBudget(max_vertices=12, max_order=max(min_cut, 1))
            seps = enumerate_separations(g, min_cut, budget)
            assert over.separation in seps, seed
        assert perf_counter() - start < 60.0


def test_criterion_4_grid_tangle_axioms(capfd):
    desc = "grid-induced tangle on G_3 satisfies all axioms over 124 separations"
    with criterion(capfd, 4, desc):
        start = perf_counter()
        g3 = grid_graph(3)
        seps = enumerate_separations(g3, 2)
        assert len(seps) == 124
        model = identity_grid_model(3)
        members = {grid_tangle_member(model, s) for s in seps}
        tangle = Tangle(
            host=g3, order=3, members=tuple(sorted(members, key=separation_sort_key))
        )
        report = check_tangle_axioms(tangle, seps)
        assert report.ok, [f.message for f in report.findings]
        assert perf_counter() - start < 120.0


def test_criterion_5_row_order_property(capfd):
    desc = "no order < 2 separation swallows an output row on the 5x5 host"
    with criterion(capfd, 5, desc):
        start = perf_counter()
        problem = identity_problem(5, 2, 1)
        result = extract(problem)
        budget = EnumerationBudget(max_vertices=25, max_order=1)
        seps = enumerate_separations(problem.host, 1, budget)
        report = verify_output_row_property(result, seps, 2)
        assert report.ok, [f.message for f in report.findings]
        assert perf_counter() - start < 60.0


def _tiny_instance(seed: int) -> ExtractionProblem:
    """A G_2 pattern instance on at most 8 host vertices."""
    rng = random.Random(f"hypothesis-oracle:{seed}")
    g2 = grid_graph(2)
    k = 1 + seed % 2
    extras = list(range(5, 5 + k + rng.randint(0, 2)))
    vertices = sorted(g2.vertices) + extras
    edges = list(g2.edges())
    eid = len(edges) + 1
    for x in extras:
        for target in rng.sample(range(1, 5), rng.randint(0, 3)):
            edges.append((eid, x, target))
            eid += 1
    host = Graph(vertices, edges)
    model = Pseudomodel(
        host,
        g2,
        {v: Subgraph(host, {v}) for v in g2.vertices},
        {e: e for e in g2.edge_ids},
    )
    return ExtractionProblem(
        host=host, roots=frozenset(extras[:k]), model=model, n=2, g=2, k=k
    )


def test_criterion_6_hypothesis_oracle_agreement(capfd):
    desc = "check_hypothesis agrees with exhaustive blocking search on 36 tiny instances"
    with criterion(capfd, 6, desc):
        rows = [(1, 2), (3, 4)]
        checked = 0
        for seed in range(36):
            problem = _tiny_instance(seed)
            assert problem.host.num_vertices <= 8
            verdict = check_hypothesis(problem)
            blockers = enumerate_blocking_separations(
                problem.host, problem.roots, problem.model, rows, problem.k - 1
            )
            assert verdict.holds == (not blockers), seed
            if not verdict.holds:
                assert verdict.separation in blockers, seed
            checked += 1
        assert checked >= 30


def test_criterion_7_determinism_and_replay(tmp_path, capfd):
    desc = "identical recipes give byte-identical bundles and replayable traces"
    with criterion(capfd, 7, desc):
        recipes = [
            InstanceRecipe(kind="identity-grid", n=8, g=2, k=1),
            InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=7, degree=3),
            InstanceRecipe(kind="random-attachment", n=13, g=2, k=2, seed=3, degree=2),
        ]
        for idx, recipe in enumerate(recipes):
            first = generate_instance(recipe)
            second = generate_instance(recipe)
            dir_a = tmp_path / f"{idx}-a"
            dir_b = tmp_path / f"{idx}-b"
            write_instance(first, dir_a)
            write_instance(second, dir_b)
            for name in ("graph.json", "roots.json", "model.json"):
                assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

            out_a = tmp_path / f"{idx}-run-a"
            out_b = tmp_path / f"{idx}-run-b"
            assert _cli_extract(dir_a, out_a, recipe.g, recipe.k) == 0
            assert _cli_extract(dir_a, out_b, recipe.g, recipe.k) == 0
            names = (
                "result.json",
                "base-model.json",
                "augmented-model.json",
                "trace.jsonl",
            )
            for name in names:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

            trace = trace_from_jsonl((out_a / "trace.jsonl").read_text())
            replayed = replay(first, trace)
            assert result_to_dict(replayed) == read_json(out_a / "result.json")
            assert list(replayed.trace) == trace


def test_criterion_8_induction_measure_decreases(corpus, capfd):
    desc = "host measure strictly decreases across reduction records in every trace"
    with criterion(capfd, 8, desc):
        reduction_kinds = {
            "separation-recursion",
            "edge-delete",
            "branch-edge-delete",
            "branch-edge-contract",
        }
        nonempty = 0
        for run in corpus:
            measures = [
                record["measure"]
                for record in run.trace
                if record["kind"] in reduction_kinds
            ]
            assert all(a > b for a, b in zip(measures, measures[1:])), run.recipe
            if measures:
                nonempty += 1
                assert measures[0] < run.problem.host.measure
        assert nonempty >= 19  # all grid-plus-roots runs reduce at least once
