"""End-to-end extraction: validation, frozen runs, certificates, replay."""
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridroots import (
    ExtractionProblem,
    Graph,
    HypothesisViolated,
    InternalInvariantBroken,
    MalformedInput,
    Pseudomodel,
    Subgraph,
    break_instance,
    check_augmentation,
    check_hypothesis,
    extract,
    extract_via_tangle_statement,
    generate_instance,
    graph_from_dict,
    graph_to_dict,
    grid_graph,
    grid_plus_roots_problem,
    identity_grid_model,
    identity_problem,
    image_of_vertices,
    model_from_dict,
    model_to_dict,
    AugmentationWitness,
    BREAK_MODES,
    InstanceRecipe,
    replay,
    row_vertices,
    validate_model,
    validate_problem,
    vertex_coord,
    vertex_id,
)
from gridroots import extraction, models
from gridroots.extraction import _full_rows, _pattern_boundary
from gridroots.graph import WorkingGraph, boundary, subgraph_components
from gridroots.grid import first_off_grid_edge, grid_edge_id, grid_edges_among
from gridroots.models import validate_pseudomodel
from gridroots.separations import _RowScanner
from gridroots.validation import ValidationReport

import corpus
from test_reductions import coarse_problem
from test_separations import linked_level_case


def test_validate_problem_parameter_codes():
    good = identity_problem(8, 2, 1)
    assert validate_problem(good).ok

    bad_k = ExtractionProblem(
        host=good.host, roots=good.roots, model=good.model, n=8, g=1, k=2
    )
    assert "params" in validate_problem(bad_k).codes()

    small = identity_problem(5, 2, 1)
    assert validate_problem(small).ok  # 5 > 1*(2+2)
    too_small = ExtractionProblem(
        host=grid_graph(4),
        roots=frozenset({1}),
        model=identity_grid_model(4),
        n=4,
        g=2,
        k=1,
    )
    assert "params" in validate_problem(too_small).codes()


def test_validate_problem_root_codes():
    good = identity_problem(8, 2, 1)
    wrong_count = ExtractionProblem(
        host=good.host, roots=frozenset({1, 2}), model=good.model, n=8, g=2, k=1
    )
    assert "roots" in validate_problem(wrong_count).codes()
    outside = ExtractionProblem(
        host=good.host, roots=frozenset({999}), model=good.model, n=8, g=2, k=1
    )
    assert "roots" in validate_problem(outside).codes()


def test_validate_problem_model_codes():
    good = identity_problem(8, 2, 1)
    other_host = identity_grid_model(8)
    rebased = ExtractionProblem(
        host=grid_graph(8).delete_edge(1),
        roots=frozenset({1}),
        model=other_host,
        n=8,
        g=2,
        k=1,
    )
    assert "model-host" in validate_problem(rebased).codes()

    # pattern edge 1 in the 8-grid joins 1-2; claim it joins 1-9 instead
    host = good.host
    pat = Graph([1, 9], [(1, 1, 9)])
    model = Pseudomodel(
        host, pat, {1: Subgraph(host, {1}), 9: Subgraph(host, {9})}, {1: 8}
    )
    mismatch = ExtractionProblem(
        host=host, roots=frozenset({1}), model=model, n=8, g=2, k=1
    )
    assert "pattern-grid" in validate_problem(mismatch).codes()

    # pattern misses every full row
    pat2 = Graph([1, 2], [(1, 1, 2)])
    model2 = Pseudomodel(
        host, pat2, {1: Subgraph(host, {1}), 2: Subgraph(host, {2})}, {1: 1}
    )
    rowless = ExtractionProblem(
        host=host, roots=frozenset({1}), model=model2, n=8, g=2, k=1
    )
    assert "pattern-row" in validate_problem(rowless).codes()


def test_validate_problem_rejects_loops_and_non_grid_pairs_as_pattern_edges():
    host = grid_graph(8)
    for pat in (Graph([1], [(1, 1, 1)]), Graph([1, 10], [(2, 1, 10)])):
        model = Pseudomodel(host, pat, {v: Subgraph(host, {v}) for v in pat.vertices}, {})
        problem = ExtractionProblem(host=host, roots=frozenset({1}), model=model, n=8, g=2, k=1)
        assert validate_problem(problem).codes() == ["pattern-grid"]


@pytest.mark.parametrize("seed", range(40))
def test_pattern_boundary_from_coordinates_matches_the_grid_boundary(seed):
    rng = random.Random(f"pattern-boundary:{seed}")
    n = rng.randint(1, 7)
    grid = grid_graph(n)
    vertices = {v for v in grid.vertices if rng.random() < 0.85}
    edges = [
        (e, u, v) for e, u, v in grid.edges()
        if u in vertices and v in vertices and rng.random() < 0.8
    ]
    pattern = Graph(vertices, edges)
    expected = boundary(grid, Subgraph(grid, pattern.vertices, pattern.edge_ids))
    assert _pattern_boundary(n, pattern) == expected


def reference_validate_problem(problem: ExtractionProblem) -> ValidationReport:
    """validate_problem written plainly: ``grid_edge_id`` per pattern edge,
    the boundary taken in ``grid_graph(n)`` and ``subgraph_components``
    for every branch."""
    report = ValidationReport()
    n, g, k = problem.n, problem.g, problem.k
    if not 1 <= k <= g:
        report.add("params", f"need 1 <= k <= g, got k={k}, g={g}")
        return report
    if n <= k * (g + 2 * k):
        report.add("params", f"grid side {n} too small, need n > k*(g+2k) = {k * (g + 2 * k)}")
    if len(problem.roots) != k:
        report.add("roots", f"expected {k} roots, got {len(problem.roots)}")
    if not problem.roots <= problem.host.vertices:
        report.add("roots", "roots must be vertices of the host")
    if problem.model.host != problem.host:
        report.add("model-host", "model does not live in the problem host")
        return report
    pattern = problem.model.pattern
    for pv in sorted(pattern.vertices):
        if not 1 <= pv <= n * n:
            report.add("pattern-grid", f"pattern vertex {pv} is not an {n}x{n} grid id")
            return report
    for pe in sorted(pattern.edge_ids):
        try:
            matches = grid_edge_id(n, *pattern.endpoints(pe)) == pe
        except ValueError:
            matches = False
        if not matches:
            report.add("pattern-grid", f"pattern edge {pe} does not match the {n}x{n} grid")
            return report
    if not any(set(row_vertices(n, i)) <= pattern.vertices for i in range(1, n + 1)):
        report.add("pattern-row", "pattern contains no full grid row")
    sub_report = validate_pseudomodel(problem.model)
    if not sub_report.ok:
        return report.merged(sub_report)
    grid = grid_graph(n)
    bnd = boundary(grid, Subgraph(grid, pattern.vertices, pattern.edge_ids))
    for pv in sorted(pattern.vertices):
        comps = subgraph_components(problem.model.branches[pv])
        if len(comps) == 1 and pv not in bnd:
            continue
        if all(comp.vertices & problem.roots for comp in comps):
            continue
        report.add(
            "hypothesis-i",
            f"branch of pattern vertex {pv} is disconnected or boundary-touching "
            "without every component meeting the roots",
        )
    return report


def random_grid_problem(rng: random.Random) -> ExtractionProblem:
    """A small seeded problem on the n x n grid plus pendant vertices, often broken.

    Branches are mostly single grid vertices, some holding a loop, some
    grown by a pendant vertex with or without its edge (connected or
    not); some overlap a neighbour's.  Patterns may carry a loop, a
    non-adjacent pair or a wrong id, and images may miss their branches.
    """
    n = rng.randint(1, 8)
    grid = grid_graph(n)
    grid_vertices = sorted(grid.vertices)
    pendants = list(range(n * n + 1, n * n + 1 + rng.randint(0, 4)))
    triples = list(grid.edges())
    next_eid = grid.num_edges + 1
    loops = {}
    for v in rng.sample(grid_vertices, rng.randint(0, min(4, n * n))):
        triples.append((next_eid, v, v))
        loops[v] = next_eid
        next_eid += 1
    hangs = {}  # grid vertex -> [(pendant, edge)]
    for x in pendants:
        v = rng.choice(grid_vertices)
        triples.append((next_eid, v, x))
        hangs.setdefault(v, []).append((x, next_eid))
        next_eid += 1
    host = Graph(grid_vertices + pendants, triples)

    keep = 1.0 if rng.random() < 0.3 else 0.85  # the whole grid has no boundary
    vertices = {v for v in grid_vertices if rng.random() < keep}
    if rng.random() < 0.6:
        vertices |= set(row_vertices(n, rng.randint(1, n)))
    edges = [
        (e, u, v) for e, u, v in grid.edges()
        if u in vertices and v in vertices and rng.random() < keep
    ]
    used = {e for e, _u, _v in edges}
    defect = rng.random()
    sorted_vertices = sorted(vertices)
    if defect < 0.05 and sorted_vertices:  # a loop
        v = rng.choice(sorted_vertices)
        edges.append((rng.choice([e for e in range(1, next_eid + 2) if e not in used]), v, v))
    elif defect < 0.10 and len(sorted_vertices) > 1:  # any pair under any free id
        u, v = rng.sample(sorted_vertices, 2)
        edges.append((rng.choice([e for e in range(-1, next_eid + 2) if e not in used]), u, v))
    elif defect < 0.15 and edges:  # a pattern edge renumbered
        i = rng.randrange(len(edges))
        e, u, v = edges[i]
        edges[i] = (rng.choice([x for x in range(0, 2 * n * n + 2) if x not in used]), u, v)
    elif defect < 0.18:  # a vertex past the grid
        vertices.add(n * n + rng.randint(1, 3))
    pattern = Graph(vertices, edges)

    model_host = host
    if rng.random() < 0.03:
        model_host = Graph(list(host.vertices) + [next_eid], list(host.edges()))
    branches = {}
    for pv in sorted(pattern.vertices):
        if pv not in host.vertices or rng.random() < 0.01:
            continue  # no branch
        vs, es = {pv}, set()
        if pv in loops and rng.random() < 0.6:
            es.add(loops[pv])
        if pv in hangs and rng.random() < 0.5:
            x, e = rng.choice(hangs[pv])
            vs.add(x)
            if rng.random() < 0.6:
                es.add(e)
        if rng.random() < 0.01:
            vs.add(rng.choice(grid_vertices))  # may overlap another branch
        branches[pv] = Subgraph(model_host, vs, es)
    images = {}
    for e, _u, _v in pattern.edges():
        if model_host.has_edge_id(e) and rng.random() > 0.01:
            images[e] = e
        else:
            images[e] = rng.choice(sorted(model_host.edge_ids))
    model = Pseudomodel(model_host, pattern, branches, images)

    k = rng.choice([1, 1, 2, 3])
    g = rng.choice([k, k, k + 1, max(1, k - 1)])
    in_branches = sorted(set().union(*(br.vertices for br in branches.values())) - vertices)
    candidates = in_branches + rng.sample(grid_vertices, min(2, n * n))
    roots = set(rng.sample(candidates, min(len(candidates), k)))
    if rng.random() < 0.05:
        roots.add(10_000)
    return ExtractionProblem(host, frozenset(roots), model, n, g, k)


def test_validate_problem_matches_the_plain_reference():
    rng = random.Random("validate-problem-reference")
    codes = Counter()
    reached = Counter()  # branches that reached the hypothesis-i check, by feature
    for case in range(400):
        problem = random_grid_problem(rng)
        expected = reference_validate_problem(problem)
        assert validate_problem(problem).as_dict() == expected.as_dict(), case
        codes.update(set(expected.codes()) or {"ok"})
        model = problem.model
        if set(expected.codes()) <= {"params", "roots", "pattern-row", "hypothesis-i"} and (
            problem.k <= problem.g and validate_pseudomodel(model).ok
        ):
            for br in model.branches.values():
                if len(br.vertices) == 1:
                    reached["singleton with a loop" if br.edge_ids else "singleton"] += 1
                else:
                    reached["connected" if br.edge_ids else "disconnected"] += 1
                reached["branch with a root" if br.vertices & problem.roots else "rootless"] += 1
    assert set(codes) >= {
        "ok", "params", "roots", "model-host", "pattern-grid", "pattern-row",
        "branch-missing", "branch-overlap", "edge-ends", "hypothesis-i",
    }, codes
    assert len(reached) == 6 and min(reached.values()) >= 5, reached


def test_validate_problem_merges_pseudomodel_findings():
    good = identity_problem(8, 2, 1)
    branches = dict(good.model.branches)
    branches[1] = Subgraph(good.host, set())  # null branch
    broken = Pseudomodel(good.host, good.model.pattern, branches, good.model.edge_images)
    problem = ExtractionProblem(
        host=good.host, roots=good.roots, model=broken, n=8, g=2, k=1
    )
    assert "branch-null" in validate_problem(problem).codes()


def test_validate_problem_hypothesis_i():
    g5 = grid_graph(5)
    host = Graph(
        sorted(g5.vertices) + [26], list(g5.edges()) + [(41, 25, 26)]
    )
    branches = {v: Subgraph(host, {v}) for v in range(1, 26)}
    branches[1] = Subgraph(host, {1, 26})  # disconnected, 26 rootless
    model = Pseudomodel(host, grid_graph(5), branches, {e: e for e in g5.edge_ids})
    problem = ExtractionProblem(
        host=host, roots=frozenset({1}), model=model, n=5, g=2, k=1
    )
    assert "hypothesis-i" in validate_problem(problem).codes()


@st.composite
def grid_model_documents(draw):
    """``(n, grid_graph(n), doc)``: a model document of a subgraph of the
    n x n grid, each pattern vertex modelled by itself in the grid.

    The coordinates are all of the grid's or a drawn part, listed in a
    drawn order, and so are the edge keys; a key may be reversed
    (``b|a``) or carry a zero-padded row (``01,2|1,3``), so that it
    misses the reader's canonical key table and is parsed on its own.
    """
    n = draw(st.integers(1, 6))
    grid = grid_graph(n)
    every = sorted(grid.vertices)
    keep = every if draw(st.booleans()) else draw(st.lists(st.sampled_from(every), min_size=1, unique=True))
    among = grid_edges_among(n, set(keep))
    edges = among if draw(st.booleans()) else [t for t in among if draw(st.booleans())]

    def key(v):
        i, j = vertex_coord(n, v)
        return f"{i},{j}"

    images = []
    for e, u, v in edges:
        a, b = key(u), key(v)
        spelling = draw(st.sampled_from(["canonical", "reversed", "padded"]))
        if spelling == "reversed":
            a, b = b, a
        elif spelling == "padded":
            a = "0" + a
        images.append((f"{a}|{b}", e))
    doc = {
        "pattern": {"n": n, "coords": draw(st.permutations([list(vertex_coord(n, v)) for v in keep]))},
        "branches": {key(v): {"vertices": [v], "edges": []} for v in draw(st.permutations(keep))},
        "edgeImages": dict(draw(st.permutations(images))),
    }
    return n, grid, doc


@given(grid_model_documents(), st.integers(-2, 2), st.data())
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
def test_grid_side_memo_changes_no_verdict(case, shift, data):
    """A pattern marked as lying on the n-grid is one that the full check
    passes, and ``validate_problem`` reports on a marked pattern exactly
    what it reports on an unmarked copy, for the document's n and for
    others, and again when asked twice."""
    n, grid, doc = case
    assert grid._grid_side == n and identity_grid_model(n).pattern._grid_side == n
    read = model_from_dict(doc, grid)
    pattern = read.pattern
    assert pattern._grid_side == n
    assert all(1 <= v <= n * n for v in pattern.vertices) and first_off_grid_edge(n, pattern) is None
    unmarked = Graph(pattern.vertices, list(pattern.edges()))
    assert unmarked._grid_side is None
    rebuilt = Pseudomodel(grid, unmarked, read.branches, read.edge_images)
    side = max(1, n + shift)
    g = data.draw(st.integers(1, 2))
    k = data.draw(st.integers(1, g))
    roots = frozenset(data.draw(st.sets(st.sampled_from(sorted(grid.vertices)), max_size=2)))
    reports = []
    for model in (read, rebuilt):
        problem = ExtractionProblem(grid, roots, model, side, g, k)
        first = validate_problem(problem).as_dict()
        assert validate_problem(problem).as_dict() == first
        reports.append(first)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("mode", BREAK_MODES)
def test_read_problems_skip_the_grid_check(mode, monkeypatch):
    """A pattern read from its document carries the document's n, so
    ``extract`` and ``replay`` of the read problem never number the grid."""
    broken = break_instance(generate_instance(InstanceRecipe("grid-plus-roots", 13, 2, 2, 7, 3)), mode, 7)
    host = graph_from_dict(graph_to_dict(broken.host))
    doc = model_to_dict(broken.model, broken.n)
    model = model_from_dict(doc, host)
    assert model.pattern._grid_side == doc["pattern"]["n"]
    problem = replace(broken, host=host, model=model)

    def numbering(*args):
        raise AssertionError("the grid was numbered again")

    monkeypatch.setattr("gridroots.grid.grid_edges_among", numbering)
    monkeypatch.setattr(extraction, "grid_edges_among", numbering)
    with pytest.raises(HypothesisViolated) as refuted:
        extract(problem)
    with pytest.raises(HypothesisViolated):
        replay(problem, refuted.value.trace)


def test_extract_rejects_invalid_problem():
    too_small = ExtractionProblem(
        host=grid_graph(4),
        roots=frozenset({1}),
        model=identity_grid_model(4),
        n=4,
        g=2,
        k=1,
    )
    with pytest.raises(MalformedInput) as exc:
        extract(too_small)
    assert any("params" in p for p in exc.value.problems)


def test_identity_extraction_frozen_run():
    problem = identity_problem(8, 2, 1)
    result = extract(problem)
    assert (result.atlas.i0, result.atlas.j0) == (3, 2)
    assert [t["kind"] for t in result.trace] == ["band-selected", "menger-augment"]
    assert tuple(sorted(result.atlas.central_vertices())) == (18, 19, 26, 27)
    assert not set(result.atlas.central_vertices()) & problem.roots
    base = result.witness.base
    assert {pv: set(sg.vertices) for pv, sg in base.branches.items()} == {
        1: {18}, 2: {19}, 3: {26}, 4: {27}
    }
    aug = result.witness.augmented
    assert aug.branches[1].vertices == frozenset({1, 2, 10, 18})
    assert aug.branches[2] == base.branches[2]
    assert validate_model(aug).ok
    assert check_augmentation(result.witness).ok
    assert result.witness.roots == problem.roots


def test_grid_plus_roots_frozen_trace():
    problem = grid_plus_roots_problem(13, 2, 2, ((1, 3), (5, 7)))
    assert sorted(problem.roots) == [170, 171]
    result = extract(problem)
    kinds = [t["kind"] for t in result.trace]
    assert kinds == [
        "edge-delete",
        "separation-recursion",
        "edge-delete",
        "separation-recursion",
        "band-selected",
        "menger-augment",
    ]
    assert [t.get("measure") for t in result.trace] == [486, 484, 483, 481, None, None]
    deletes = [t["edge"] for t in result.trace if t["kind"] == "edge-delete"]
    assert deletes == [313, 315]
    separators = [
        t["separator"] for t in result.trace if t["kind"] == "separation-recursion"
    ]
    assert separators == [[3, 171], [3, 7]]
    band = next(t for t in result.trace if t["kind"] == "band-selected")
    assert (band["top"], band["i0"], band["j0"]) == (2, 4, 3)
    assert (result.atlas.i0, result.atlas.j0) == (4, 3)

    base = result.witness.base
    assert {pv: set(sg.vertices) for pv, sg in base.branches.items()} == {
        1: {42}, 2: {43}, 3: {55}, 4: {56}
    }
    aug = result.witness.augmented
    assert aug.branches[1].vertices == frozenset({3, 16, 29, 42, 170})
    assert aug.branches[3].vertices == frozenset(
        {5, 6, 7, 18, 31, 44, 55, 57, 68, 69, 70, 171}
    )
    assert validate_model(aug).ok
    assert check_augmentation(result.witness).ok
    assert not set(result.atlas.central_vertices()) & problem.roots


def test_trace_measures_strictly_decrease():
    problem = grid_plus_roots_problem(13, 2, 2, ((1, 3), (5, 7)))
    result = extract(problem)
    measures = [t["measure"] for t in result.trace if "measure" in t]
    assert all(a > b for a, b in zip(measures, measures[1:]))
    assert measures[0] < problem.host.measure


def test_one_working_graph_per_extract(monkeypatch):
    """A run copies its host into one working graph, which every recursion
    level edits in place; the graphs the splice and band paths run in (the
    A side of a splice, and g*) are cut from it, one per flow call."""
    problem = corpus.build("random-attachment/k2/s4")
    counts = Counter()
    build, cut = WorkingGraph.__init__, WorkingGraph.induced

    def counted_build(self, g):
        counts["working"] += 1
        build(self, g)

    def counted_cut(self, vertices):
        counts["cut"] += 1
        return cut(self, vertices)

    monkeypatch.setattr(WorkingGraph, "__init__", counted_build)
    monkeypatch.setattr(WorkingGraph, "induced", counted_cut)
    result = extract(problem)
    recursions = sum(t["kind"] == "separation-recursion" for t in result.trace)
    assert recursions == 2
    assert counts == {"working": 1, "cut": recursions + 1}


@pytest.mark.parametrize("mode", BREAK_MODES)
def test_valid_models_never_enter_the_per_item_pass(monkeypatch, mode):
    """A valid model is accepted by the bulk checks alone: with
    ``validate_pseudomodel``'s per-item pass raising, a 36/4/3 certificates
    instance (refuted at its first row) and a coarse instance still
    extract, and their replays too."""
    def entered(*_args):
        raise AssertionError("the per-item pseudomodel pass ran on a valid model")

    monkeypatch.setattr(models, "_pseudomodel_findings", entered)
    broken = break_instance(corpus.build("grid-plus-roots/n36/s7"), mode, 7)
    with pytest.raises(HypothesisViolated) as refuted:
        extract(broken)
    with pytest.raises(HypothesisViolated):
        replay(broken, refuted.value.trace)
    coarse = corpus.build("coarse/5/top-right")
    result = extract(coarse)
    assert replay(coarse, result.trace).atlas == result.atlas


@pytest.mark.parametrize("case,recursions", [
    ("random-attachment/k2/s4", 2),
    ("grid-plus-roots/n36/s7", 3),
])
def test_no_graph_built_inside_the_extraction_loop(monkeypatch, case, recursions):
    """Whatever the recursion depth, an extract builds two ``Graph``s, the
    g x g grids of ``_finish`` and ``check_augmentation``, and one working
    graph from a ``Graph``, the problem's host."""
    problem = corpus.build(case)
    counts = Counter()
    fill, build = Graph._fill, WorkingGraph.__init__

    def counted_fill(self, *args):
        counts["graph"] += 1
        fill(self, *args)

    def counted_build(self, g):
        counts["working"] += 1
        build(self, g)

    monkeypatch.setattr(Graph, "_fill", counted_fill)
    monkeypatch.setattr(WorkingGraph, "__init__", counted_build)
    result = extract(problem)
    assert sum(t["kind"] == "separation-recursion" for t in result.trace) == recursions
    assert counts == {"graph": 2, "working": 1}


def test_replay_reproduces_result():
    problem = grid_plus_roots_problem(13, 2, 2, ((1, 3), (5, 7)))
    result = extract(problem)
    again = replay(problem, result.trace)
    assert again.witness.augmented == result.witness.augmented
    assert again.witness.base == result.witness.base
    assert list(again.trace) == list(result.trace)


def test_a_level_deletes_its_branch_loops_before_any_contraction():
    """A loop inside a branch is deleted by the level-start loop of
    ``_reductions``: no contraction precedes the first reduction record,
    so it cannot be a contraction's parallel copy."""
    base = identity_problem(8, 2, 1)
    grid = base.host
    edges = [(e, *grid.endpoints(e)) for e in sorted(grid.edge_ids)] + [(113, 64, 64)]
    host = Graph(grid.vertices, edges)
    branches = {pv: Subgraph(host, br.vertices, br.edge_ids)
                for pv, br in base.model.branches.items()}
    branches[64] = Subgraph(host, {64}, {113})
    model = Pseudomodel(host, base.model.pattern, branches, base.model.edge_images)
    problem = replace(base, host=host, model=model)
    assert validate_problem(problem).ok
    assert check_hypothesis(problem).holds
    result = extract(problem)
    first = result.trace[0]
    assert (first["kind"], first["edge"], first["branch"], first["measure"]) == (
        "branch-edge-delete", 113, 64, 176)
    assert check_augmentation(result.witness).ok
    assert list(replay(problem, result.trace).trace) == list(result.trace)


def test_replay_rejects_tampered_trace():
    problem = grid_plus_roots_problem(13, 2, 2, ((1, 3), (5, 7)))
    result = extract(problem)

    tampered = [dict(t) for t in result.trace]
    tampered[0]["edge"] = 314
    with pytest.raises(InternalInvariantBroken):
        replay(problem, tampered)

    reordered = [dict(t) for t in result.trace]
    reordered[1]["separator"] = [2, 171]
    with pytest.raises(InternalInvariantBroken):
        replay(problem, reordered)

    extra = [dict(t) for t in result.trace] + [dict(result.trace[0])]
    with pytest.raises(InternalInvariantBroken):
        replay(problem, extra)

    def tampered_record(kind, change):
        records = [dict(t) for t in result.trace]
        index = next(i for i, t in enumerate(records) if t["kind"] == kind)
        change(records[index])
        return records, index

    for kind, change in (
        ("menger-augment", lambda t: t.update(paths=t["paths"][::-1])),
        ("separation-recursion", lambda t: t.update(splicePaths=t["splicePaths"][::-1])),
        ("edge-delete", lambda t: t.pop("edge")),
    ):
        records, index = tampered_record(kind, change)
        with pytest.raises(InternalInvariantBroken) as exc:
            replay(problem, records)
        assert exc.value.payload["index"] == index
        assert exc.value.payload["expected"] == records[index]
        assert exc.value.payload["recomputed"] == result.trace[index]

    with pytest.raises(InternalInvariantBroken) as exc:
        replay(problem, result.trace[:-1])
    assert exc.value.payload == {
        "index": len(result.trace) - 1, "expected": None, "recomputed": result.trace[-1],
    }

    refuted = _detached_13_2_2()
    invented = {"kind": "edge-delete", "depth": 0, "edge": 1, "measure": 1}
    with pytest.raises(InternalInvariantBroken) as exc:
        replay(refuted, [invented])
    assert exc.value.payload == {"index": 0, "expected": invented, "recomputed": None}


def _detached_13_2_2() -> ExtractionProblem:
    recipe = InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=5, degree=3)
    return break_instance(generate_instance(recipe), "detach", 5)


def test_replay_of_refuted_run_reraises_the_certificate():
    broken = _detached_13_2_2()
    with pytest.raises(HypothesisViolated) as first:
        extract(broken)
    assert first.value.trace == ()
    with pytest.raises(HypothesisViolated) as again:
        replay(broken, first.value.trace)
    assert again.value.separation == first.value.separation
    assert (again.value.row, again.value.depth) == (first.value.row, first.value.depth)


def test_detached_root_yields_certificate():
    broken = _detached_13_2_2()
    with pytest.raises(HypothesisViolated) as exc:
        extract(broken)
    cert = exc.value
    assert cert.depth == 0
    assert cert.separation.order < broken.k
    assert broken.roots <= cert.separation.a.vertices
    image = image_of_vertices(broken.model, cert.row)
    assert image <= cert.separation.b.vertices
    assert isinstance(cert.trace, tuple)


def test_hanging_root_yields_certificate():
    recipe = InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=9, degree=2)
    problem = generate_instance(recipe)
    broken = break_instance(problem, "hang", 3)
    with pytest.raises(HypothesisViolated) as exc:
        extract(broken)
    cert = exc.value
    assert cert.separation.order < broken.k
    assert broken.roots <= cert.separation.a.vertices
    assert image_of_vertices(broken.model, cert.row) <= cert.separation.b.vertices


def test_check_hypothesis_on_clean_and_broken():
    clean = identity_problem(8, 2, 1)
    verdict = check_hypothesis(clean)
    assert verdict.holds and verdict.separation is None and verdict.row is None

    problem = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=1, degree=2)
    )
    assert check_hypothesis(problem).holds
    broken = break_instance(problem, "detach", 1)
    verdict2 = check_hypothesis(broken)
    assert not verdict2.holds
    assert verdict2.separation.order < broken.k


@pytest.mark.parametrize("change, problem_text", [
    ({"k": 0}, "max_order must be positive, got 0"),
    ({"k": -1}, "max_order must be positive, got -1"),
    ({"roots": frozenset()}, "empty root set"),
    ({"roots": frozenset({1, 10**6})}, "roots must be vertices of the graph"),
])
def test_check_hypothesis_rejects_bad_parameters(change, problem_text):
    """A strict scan asked for no paths would pass every row: k below 1 is
    rejected, as are an empty root set and roots outside the host."""
    with pytest.raises(MalformedInput) as exc:
        check_hypothesis(replace(identity_problem(8, 2, 1), **change))
    assert exc.value.problems == [problem_text]


def test_extract_via_tangle_statement_identity():
    model = identity_grid_model(8)
    result = extract_via_tangle_statement(model, {1}, 2, 1)
    direct = extract(identity_problem(8, 2, 1))
    assert result.witness.augmented == direct.witness.augmented
    assert result.atlas == direct.atlas


def test_extract_via_tangle_statement_needs_full_grid():
    host = grid_graph(8)
    pat = Graph([1, 2], [(1, 1, 2)])
    model = Pseudomodel(
        host, pat, {1: Subgraph(host, {1}), 2: Subgraph(host, {2})}, {1: 1}
    )
    with pytest.raises(MalformedInput):
        extract_via_tangle_statement(model, {1}, 2, 1)

    partial = identity_grid_model(8)
    chopped = Pseudomodel(
        partial.host,
        partial.pattern.delete_edge(1),
        partial.branches,
        {e: f for e, f in partial.edge_images.items() if e != 1},
    )
    with pytest.raises(MalformedInput):
        extract_via_tangle_statement(chopped, {1}, 2, 1)


def test_augmented_witness_reuses_problem_host():
    problem = grid_plus_roots_problem(13, 2, 2, ((1, 3), (5, 7)))
    result = extract(problem)
    assert result.witness.augmented.host == problem.host
    assert result.witness.base.host == problem.host
    w = AugmentationWitness(
        base=result.witness.base, augmented=result.witness.augmented, roots=problem.roots
    )
    assert check_augmentation(w).ok


def test_full_rows_counts_each_rows_pattern_vertices():
    rng = random.Random(0)
    for n in (1, 2, 3, 5):
        for _ in range(50):
            cells = range(1, n * n + 1)
            full = [i for i in range(1, n + 1) if rng.random() < 0.4]
            vertices = {v for i in full for v in row_vertices(n, i)}
            vertices |= set(rng.sample(cells, rng.randint(0, n * n)))
            vertices |= set(rng.sample([-1, 0, *range(n * n + 1, n * n + 3 * n)], rng.randint(0, n)))
            pattern = Graph(vertices)
            expected = [row_vertices(n, i) for i in range(1, n + 1)
                        if set(row_vertices(n, i)) <= pattern.vertices]
            assert _full_rows(n, pattern) == expected


def extract_levels(problem, monkeypatch, refuted=False):
    """Each recursion level of one extract: its pattern and the row scanner
    it built.  With ``refuted``, the extract must raise HypothesisViolated."""
    patterns, scanners = [problem.model.pattern], []
    derive = extraction._derive_subproblem

    class Recorded(_RowScanner):
        def __init__(self, *args):
            super().__init__(*args)
            scanners.append(self)

    def recorded_derive(*args):
        sub = derive(*args)
        patterns.append(sub[0])
        return sub

    monkeypatch.setattr(extraction, "_RowScanner", Recorded)
    monkeypatch.setattr(extraction, "_derive_subproblem", recorded_derive)
    if refuted:
        with pytest.raises(HypothesisViolated):
            extract(problem)
    else:
        extract(problem)
    assert len(patterns) == len(scanners)
    return list(zip(patterns, scanners))


def scanner_counts(problem, monkeypatch):
    """Total cold and reused row evaluations of the row scanners of one extract."""
    scanners = [s for _pattern, s in extract_levels(problem, monkeypatch)]
    return sum(s.cold for s in scanners), sum(s.reused for s in scanners)


@pytest.mark.parametrize("case", [
    "grid-plus-roots/n36/s7", "grid-plus-roots/n36/s7/hang", "coarse/7/top-left",
])
def test_every_level_is_given_its_first_k_plus_1_full_rows(case, monkeypatch):
    """Every level builds its scanner on its first k + 1 full rows."""
    problem = corpus.build(case)
    n, k = problem.n, problem.k
    cut = 0
    for pattern, scanner in extract_levels(problem, monkeypatch, case.endswith("/hang")):
        rows = _full_rows(n, pattern)
        assert scanner.rows == rows[:k + 1]
        cut += len(rows) > k + 1
        assert len(scanner.marks) == len(scanner.rows)
    assert cut  # some level had rows to leave out


def columns_not_full(n, pattern):
    """The columns that miss a vertex or a vertical edge between the first
    and the last full row of the pattern, counted cell by cell."""
    rows = _full_rows(n, pattern)
    first, last = (vertex_coord(n, row[0])[0] for row in (rows[0], rows[-1]))
    return sum(
        not (all(vertex_id(n, i, j) in pattern.vertices for i in range(first, last + 1))
             and all(grid_edge_id(n, vertex_id(n, i, j), vertex_id(n, i + 1, j))
                     in pattern.edge_ids for i in range(first, last)))
        for j in range(1, n + 1)
    )


def levels_and_saturations(problem):
    """Each level of one extract (its pattern and row scanner), and what
    ``_saturated_state`` got and gave: pattern, branches, atlas and Z'."""
    saturations = []
    saturated = extraction._saturated_state

    def recorded(roots, pattern, branches, n, g, k):
        atlas, z_prime = saturated(roots, pattern, branches, n, g, k)
        saturations.append((pattern, branches, atlas, z_prime))
        return atlas, z_prime

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extraction, "_saturated_state", recorded)
        levels = extract_levels(problem, mp)
    return levels, saturations


# the default profile's 100 examples (never fewer than 30), more under a higher-count one
@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=max(30, settings.default.max_examples), deadline=None)
def test_every_level_has_at_most_k_boundary_vertices_and_a_full_band(seed):
    """Hypothesis (i) bounds the pattern's boundary at every level of an
    extract: at most k pattern vertices lack a grid edge, so at most k
    columns are not full between the first and the last full row
    (``_rows_to_scan``).  At saturation every row free of Z' is a full
    pattern row with no boundary vertex, and every window cell's branch
    is a singleton (``_saturated_state``).  Roots anywhere in the coarse
    side-13 case are left out: they can leave no clean band at all."""
    problem, _rng = linked_level_case(seed, roots_anywhere=False)
    n, k = problem.n, problem.k
    levels, saturations = levels_and_saturations(problem)
    for pattern, scanner in levels:
        assert len(_pattern_boundary(n, pattern)) <= k
        assert columns_not_full(n, pattern) <= k
        assert scanner.rows == _full_rows(n, pattern)[:k + 1]
    assert len(saturations) == 1  # the innermost level's
    pattern, branches, atlas, z_prime = saturations[0]
    bnd = _pattern_boundary(n, pattern)
    for i in range(1, n + 1):
        row = set(row_vertices(n, i))
        if row.isdisjoint(z_prime):
            assert row <= pattern.vertices and row.isdisjoint(bnd)
    assert all(len(branches[pv][0]) == 1 for pv in atlas.window_vertices(0))


def test_linked_levels_read_at_most_k_plus_1_clear_rows_a_scan(monkeypatch):
    """A linked level's scanner holds only its first k + 1 full rows, so few
    rows are ever read: every full row of grid-plus-roots 36/4/3 was read
    cold (363 evaluations) and 1,955 rows of coarse n = 7 (23 cold, 1,932
    reused) when every scan read every row."""
    cold, _reused = scanner_counts(corpus.build("grid-plus-roots/n36/s7"), monkeypatch)
    assert cold <= 60
    cold, reused = scanner_counts(corpus.build("coarse/7/top-left"), monkeypatch)
    assert cold + reused <= 600


def coarse_with_two_roots_in_one_block():
    """Coarse n = 13 with k = 2 roots, the upper corners of the block of
    pattern vertex (7, 7): the branch edge joining them lies inside Z."""
    problem = coarse_problem(13, "top-left")
    return replace(problem, roots=frozenset(vertex_id(26, 13, j) for j in (13, 14)), k=2)


def applied_reductions(problem, monkeypatch):
    """Each edge reduction one extract applies: the edge's ends just before
    it, and the roots then."""
    seen = []
    apply = extraction._apply_edge_reduction

    def recorded(work, roots, branches, kind, eid, branch_key):
        seen.append((set(work.endpoints(eid)), set(roots)))
        return apply(work, roots, branches, kind, eid, branch_key)

    monkeypatch.setattr(extraction, "_apply_edge_reduction", recorded)
    extract(problem)
    return seen


@pytest.mark.parametrize("case", [
    "coarse/13/two-roots-in-a-block", "coarse/7/top-left", "grid-plus-roots/n36/s7",
])
def test_no_reduction_in_extract_has_both_ends_in_the_roots(case, monkeypatch):
    """An edge with both ends in Z makes every full row a blocker, and every
    level has a full row, so a level recurses before any reduction reaches
    such an edge: the reduction schedule (``_reductions``) needs no rule
    for a branch edge between two roots, and no contraction merges two
    roots."""
    if case == "coarse/13/two-roots-in-a-block":
        problem = coarse_with_two_roots_in_one_block()
        assert any(problem.roots <= br.vertices for br in problem.model.branches.values())
    else:
        problem = corpus.build(case)
    reductions = applied_reductions(problem, monkeypatch)
    assert reductions
    assert not [ends for ends, roots in reductions if ends <= roots]


def identity_rooted_at(n, g, k, cells):
    """``identity_problem(n, g, k)`` with its roots at the grid ``cells``."""
    return replace(identity_problem(n, g, k), roots=frozenset(vertex_id(n, i, j) for i, j in cells))


@pytest.mark.xfail(raises=InternalInvariantBroken, strict=True,
                   reason="known defect: choose_band finds no g + 2k consecutive rows free of Z'")
@pytest.mark.parametrize("build", [
    lambda: identity_rooted_at(13, 2, 2, [(5, 1), (9, 1)]),
    lambda: identity_rooted_at(4, 1, 1, [(2, 1)]),
    lambda: identity_rooted_at(4, 1, 1, [(2, 2)]),
    lambda: linked_level_case(151)[0],
    lambda: linked_level_case(236)[0],
], ids=["identity-13-2-2-at-5,1-9,1", "identity-4-1-1-at-2,1", "identity-4-1-1-at-2,2",
        "linked-level-151", "linked-level-236"])
def test_valid_problem_with_roots_off_every_clean_band_extracts(build):
    """A valid problem whose hypothesis holds must extract a witness.  On
    these five, Z' at saturation leaves no g + 2k consecutive rows free,
    ``choose_band`` finds no band, and ``extract`` raises "no clean row
    band exists".  The strict xfail records that known defect; the fix
    turns each case into a pass, and strictness then asks for the
    marker's removal."""
    problem = build()
    assert validate_problem(problem).ok and check_hypothesis(problem).holds
    try:
        result = extract(problem)
    except InternalInvariantBroken as exc:
        assert str(exc) == "no clean row band exists"
        raise
    assert check_augmentation(result.witness).ok
