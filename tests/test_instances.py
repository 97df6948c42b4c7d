"""Deterministic instance generation and deliberate breakage."""
import random
import time
from dataclasses import replace
from math import comb

import pytest

from gridroots import (
    BREAK_MODES,
    InstanceRecipe,
    MalformedInput,
    RECIPE_KINDS,
    break_instance,
    check_hypothesis,
    generate_instance,
    graph_to_dict,
    grid_plus_roots_problem,
    identity_problem,
    model_to_dict,
    validate_problem,
)
from gridroots import ExtractionProblem, Graph, Pseudomodel, Subgraph, grid_graph, vertex_id
from gridroots.instances import _chords


def test_recipe_rejects_bad_fields():
    with pytest.raises(MalformedInput):
        InstanceRecipe(kind="moebius", n=8, g=2, k=1)
    with pytest.raises(MalformedInput):
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, degree=1)
    with pytest.raises(MalformedInput):
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, degree=14)
    with pytest.raises(MalformedInput):
        InstanceRecipe(kind="identity-grid", n=0, g=2, k=1, degree=1)
    # C(2, 2) = 1 column set cannot give k = 2 roots distinct attachments
    with pytest.raises(MalformedInput, match="distinct sets"):
        InstanceRecipe(kind="grid-plus-roots", n=2, g=2, k=2, degree=2)
    # the 1x1 grid has no vertex pair to draw a chord between
    with pytest.raises(MalformedInput, match="non-adjacent"):
        InstanceRecipe(kind="random-attachment", n=1, g=1, k=1, degree=1)
    # k outside 1..g: extract would reject every instance with "params"
    for g, k in ((2, 3), (2, 0), (0, 1)):
        with pytest.raises(MalformedInput, match="1 <= k <= g"):
            InstanceRecipe(kind="grid-plus-roots", n=25, g=g, k=k, degree=3)
    # at the limits the recipes are accepted and the generators finish
    InstanceRecipe(kind="identity-grid", n=2, g=2, k=2, degree=2)  # degree unused
    InstanceRecipe(kind="grid-plus-roots", n=3, g=2, k=2, degree=2)  # C(3, 2) = 3 sets
    tiny = generate_instance(InstanceRecipe("random-attachment", 2, 1, 1, 0, 2))
    assert tiny.host.num_edges == 4 + 2 + 2  # both diagonals are the only chords
    assert "identity-grid" in RECIPE_KINDS
    assert BREAK_MODES == ("detach", "hang")


def test_recipe_rejection_messages():
    cases = [
        (("moebius", 8, 2, 1), "unknown recipe kind 'moebius'"),
        (("identity-grid", 0, 2, 1, 0, 1), "grid side must be at least 1, got n=0"),
        (("grid-plus-roots", 25, 2, 3, 0, 3), "need 1 <= k <= g, got k=3, g=2"),
        (("grid-plus-roots", 13, 2, 2, 0, 1), "attachment degree 1 must be at least k=2"),
        (("grid-plus-roots", 13, 2, 2, 0, 14), "attachment degree 14 exceeds the 13 row-1 columns"),
        (("grid-plus-roots", 2, 2, 2, 0, 2),
         "only 1 distinct sets of 2 row-1 columns exist for k=2 roots"),
        (("grid-plus-roots", 5, 4, 4, 0, 5),
         "only 1 distinct sets of 5 row-1 columns exist for k=4 roots"),
        (("random-attachment", 1, 1, 1, 0, 1),
         "the 1x1 grid has 0 non-adjacent vertex pairs, fewer than the 1 chords asked for"),
    ]
    for args, message in cases:
        with pytest.raises(MalformedInput) as exc:
            InstanceRecipe(*args)
        assert str(exc.value) == message


def test_recipe_column_sets_are_counted_only_up_to_k():
    """A huge attachment degree is accepted without computing C(n, degree),
    and a recipe is refused for too few column sets exactly when
    C(n, degree) < k, over every valid (k, degree) for n <= 12."""
    start = time.perf_counter()
    InstanceRecipe("grid-plus-roots", 400_000, 1, 1, 0, 200_000)
    assert time.perf_counter() - start < 0.1
    for n in range(1, 13):
        for k in range(1, n + 1):
            for degree in range(k, n + 1):
                message = None
                try:
                    InstanceRecipe("grid-plus-roots", n, k, k, 0, degree)
                except MalformedInput as exc:
                    message = str(exc)
                if comb(n, degree) < k:
                    assert message == (f"only 1 distinct sets of {degree} row-1 columns "
                                       f"exist for k={k} roots")
                else:
                    assert message is None


def test_identity_recipe_matches_direct_constructor():
    recipe = InstanceRecipe(kind="identity-grid", n=8, g=2, k=1)
    generated = generate_instance(recipe)
    direct = identity_problem(8, 2, 1)
    assert generated.host == direct.host
    assert generated.roots == direct.roots
    assert generated.model == direct.model


def test_grid_plus_roots_ids_are_sequential():
    problem = grid_plus_roots_problem(13, 2, 2, ((1, 3), (5, 7)))
    grid_edges = 2 * 13 * 12
    assert sorted(problem.roots) == [170, 171]  # root i gets id n*n+1+i
    attach = [
        (e, u, v)
        for e, u, v in problem.host.edges()
        if e > grid_edges
    ]
    assert [(e, v) for e, u, v in attach] == [
        (313, 170), (314, 170), (315, 171), (316, 171)
    ]
    assert [u for e, u, v in attach] == [1, 3, 5, 7]
    assert validate_problem(problem).ok


def test_generation_is_deterministic():
    recipe = InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=7, degree=3)
    a = generate_instance(recipe)
    b = generate_instance(recipe)
    assert graph_to_dict(a.host) == graph_to_dict(b.host)
    assert model_to_dict(a.model, a.n) == model_to_dict(b.model, b.n)
    assert a.roots == b.roots


def test_distinct_seeds_give_distinct_attachments():
    hosts = set()
    for seed in range(6):
        recipe = InstanceRecipe(
            kind="grid-plus-roots", n=13, g=2, k=2, seed=seed, degree=2
        )
        problem = generate_instance(recipe)
        hosts.add(frozenset(problem.host.edges()))
    assert len(hosts) >= 5  # seeds shuffle the attachment columns


def test_generated_instances_satisfy_hypothesis():
    for kind in ("grid-plus-roots", "random-attachment"):
        for seed in range(3):
            recipe = InstanceRecipe(kind=kind, n=13, g=2, k=2, seed=seed, degree=2)
            problem = generate_instance(recipe)
            assert check_hypothesis(problem).holds
            assert validate_problem(problem).ok
            assert all(br.host is problem.host for br in problem.model.branches.values())


def test_generation_exhausted_names_the_last_certificate(monkeypatch):
    """A recipe refuted at every one of its GENERATION_RETRIES attempts
    raises RuntimeError naming the last attempt's certificate."""
    import gridroots.instances as instances

    refuted = check_hypothesis(break_instance(
        generate_instance(InstanceRecipe("grid-plus-roots", 13, 2, 2, 0, 3)), "hang", 0
    ))
    assert not refuted.holds and refuted.separation.order == 1
    attempts = []

    def refute(problem):
        attempts.append(problem)
        # the attempt's number as the row, so the message must name the last
        return replace(refuted, row=(len(attempts),))

    monkeypatch.setattr(instances, "check_hypothesis", refute)
    with pytest.raises(RuntimeError) as exhausted:
        generate_instance(InstanceRecipe("random-attachment", 13, 2, 2, 0, 3))
    retries = instances.GENERATION_RETRIES
    assert len(attempts) == retries
    assert str(exhausted.value) == (
        f"instance generation exhausted {retries} retries; last certificate: order 1 at row ({retries},)"
    )


def test_random_attachment_adds_chords():
    plain = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=4, degree=2)
    )
    chorded = generate_instance(
        InstanceRecipe(kind="random-attachment", n=13, g=2, k=2, seed=4, degree=2)
    )
    assert chorded.host.num_edges > plain.host.num_edges


def test_break_detach_strips_some_roots():
    problem = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=2, degree=3)
    )
    broken = break_instance(problem, "detach", 0)
    assert broken.host.vertices == problem.host.vertices
    assert broken.host.num_edges < problem.host.num_edges
    assert any(broken.host.degree(r) == 0 for r in broken.roots)
    assert not check_hypothesis(broken).holds
    # deterministic
    again = break_instance(problem, "detach", 0)
    assert graph_to_dict(again.host) == graph_to_dict(broken.host)


def test_break_hang_moves_roots_behind_one_vertex():
    problem = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=2, degree=3)
    )
    broken = break_instance(problem, "hang", 1)
    assert not check_hypothesis(broken).holds
    # every root's edges lead to a single middleman vertex
    for r in sorted(broken.roots):
        ends = {
            v for e in broken.host.incident_edges(r)
            for v in broken.host.endpoints(e) if v != r
        }
        assert len(ends) == 1


def test_break_rejects_bad_input():
    problem = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=2, degree=3)
    )
    with pytest.raises(MalformedInput):
        break_instance(problem, "melt", 0)
    with pytest.raises(MalformedInput):
        break_instance(identity_problem(8, 2, 1), "detach", 0)  # grid-vertex roots
    # a branch that holds a root's edge would lose it
    problem = grid_plus_roots_problem(8, 1, 1, [(1,)])
    (z,) = problem.roots
    (e,) = problem.host.incident_edges(z)
    branches = dict(problem.model.branches)
    branches[1] = Subgraph(problem.host, {1, z}, {e})
    model = Pseudomodel(problem.host, problem.model.pattern, branches, problem.model.edge_images)
    held = ExtractionProblem(problem.host, problem.roots, model, 8, 1, 1)
    for mode in BREAK_MODES:
        with pytest.raises(MalformedInput, match="edge of a branch"):
            break_instance(held, mode, 0)


def chained_break_host(problem, mode, seed):
    """``break_instance``'s host rebuilt one ``delete_edge`` at a time."""
    n, roots = problem.n, sorted(problem.roots)
    rng = random.Random(f"break:{mode}:{seed}")
    host = problem.host
    if mode == "detach":
        for z in rng.sample(roots, rng.randrange(1, len(roots) + 1)):
            for e in sorted(host.incident_edges(z)):
                host = host.delete_edge(e)
        return host
    middleman = vertex_id(n, 1, rng.randrange(1, n + 1))
    for z in roots:
        for e in sorted(host.incident_edges(z)):
            host = host.delete_edge(e)
    next_eid = max(problem.host.edge_ids) + 1
    triples = [(e, *host.endpoints(e)) for e in sorted(host.edge_ids)]
    for z in roots:
        triples.append((next_eid, z, middleman))
        next_eid += 1
    return Graph(sorted(host.vertices), triples)


@pytest.mark.parametrize("mode", BREAK_MODES)
def test_break_equals_deleting_edges_one_by_one(mode):
    problems = [
        generate_instance(InstanceRecipe(kind, 9, 3, k, seed, k + 1))
        for kind, k, seed in (("grid-plus-roots", 2, 0), ("random-attachment", 3, 1))
    ]
    for problem in problems:
        for seed in range(50):
            broken = break_instance(problem, mode, seed)
            expected = chained_break_host(problem, mode, seed)
            assert broken.host == expected
            assert graph_to_dict(broken.host) == graph_to_dict(expected)
            assert broken.model.pattern == problem.model.pattern
            assert broken.model.edge_images == problem.model.edge_images
            assert {pv: (br.vertices, br.edge_ids) for pv, br in broken.model.branches.items()} == {
                pv: (br.vertices, br.edge_ids) for pv, br in problem.model.branches.items()
            }
            assert all(br.host is broken.host for br in broken.model.branches.values())


def test_chords_avoid_grid_edges_like_the_grid_does():
    for n in (3, 4, 7):
        grid = grid_graph(n)
        for seed in range(20):
            count = 1 + seed % 6
            rng, again = random.Random(seed), random.Random(seed)
            expected = []
            while len(expected) < count:
                u, v = again.sample(range(1, n * n + 1), 2)
                u, v = min(u, v), max(u, v)
                if v not in grid.neighbors(u) and (u, v) not in expected:
                    expected.append((u, v))
            assert _chords(rng, n, count) == expected
