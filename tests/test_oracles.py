"""Brute-force oracles and their agreement with the fast algorithms."""
import pytest

from gridroots import (
    BudgetExceeded,
    EnumerationBudget,
    ExtractionProblem,
    Graph,
    Pseudomodel,
    Subgraph,
    check_hypothesis,
    check_tangle_axioms,
    enumerate_blocking_separations,
    enumerate_cuts,
    enumerate_separations,
    enumerate_tangles,
    brute_force_grid_model,
    extract,
    grid_graph,
    grid_tangle_member,
    identity_grid_model,
    identity_problem,
    menger,
    validate_model,
    verify_output_row_property,
)


def test_budget_rejects_nonpositive_limits():
    with pytest.raises(ValueError):
        EnumerationBudget(max_vertices=0)
    with pytest.raises(ValueError):
        EnumerationBudget(search_steps=-1)


def test_separation_counts_on_reference_graphs():
    k2 = Graph([1, 2], [(1, 1, 2)])
    assert len(enumerate_separations(k2, 0)) == 2
    assert len(enumerate_separations(k2, 1)) == 6
    assert len(enumerate_separations(grid_graph(3), 2)) == 124


def test_enumerated_separations_are_valid_and_distinct():
    g = grid_graph(2)
    seps = enumerate_separations(g, 1)
    assert len(seps) == 10
    assert len(set(seps)) == len(seps)
    for s in seps:
        assert s.order <= 1
        assert s.a.vertices | s.b.vertices == g.vertices
        assert s.a.edge_ids | s.b.edge_ids == g.edge_ids
        assert not s.a.edge_ids & s.b.edge_ids
    # closed under flipping
    assert {s.flipped() for s in seps} == set(seps)


def test_separation_enumeration_budgets():
    big = grid_graph(4)
    with pytest.raises(BudgetExceeded):
        enumerate_separations(big, 1)  # 16 vertices over default budget
    with pytest.raises(BudgetExceeded):
        enumerate_separations(grid_graph(2), 4)  # order over default budget


def test_enumerate_cuts_reference():
    p3 = Graph([1, 2, 3], [(1, 1, 2), (2, 2, 3)])
    assert enumerate_cuts(p3, [1], [3], 1) == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    ]
    assert enumerate_cuts(p3, [1], [3], 0) == []
    with pytest.raises(BudgetExceeded):
        enumerate_cuts(grid_graph(4), [1], [16], 2)


def test_enumerate_cuts_agrees_with_menger():
    g = grid_graph(3)
    cuts = enumerate_cuts(g, [1, 3], [7, 9], 3)
    smallest = min(len(c) for c in cuts)
    res = menger(g, {1, 3}, {7, 9}, smallest)
    assert res.found_paths  # smallest cut size = max disjoint paths
    res_over = menger(g, {1, 3}, {7, 9}, smallest + 1)
    assert not res_over.found_paths
    assert frozenset(res_over.cut) in cuts


def test_tangle_counts_on_reference_graphs():
    k2 = Graph([1, 2], [(1, 1, 2)])
    tangles = enumerate_tangles(k2, 1)
    assert len(tangles) == 1
    (t,) = tangles
    assert len(t.members) == 1
    member = t.members[0]
    assert member.a.vertices == frozenset()
    assert member.b.vertices == k2.vertices

    # edgeless pair: two tangles, one per vertex
    e2 = Graph([1, 2], [])
    assert len(enumerate_tangles(e2, 1)) == 2

    assert len(enumerate_tangles(grid_graph(2), 2)) == 1


def test_tangles_satisfy_axioms():
    g = grid_graph(2)
    seps = enumerate_separations(g, 1)
    for t in enumerate_tangles(g, 2):
        assert check_tangle_axioms(t, seps).ok


def test_grid_tangle_is_the_unique_grid_3_tangle():
    g3 = grid_graph(3)
    tangles = enumerate_tangles(g3, 3)
    assert len(tangles) == 1
    seps = enumerate_separations(g3, 2)
    m = identity_grid_model(3)
    oriented = {grid_tangle_member(m, s) for s in seps}
    assert set(tangles[0].members) == oriented
    assert check_tangle_axioms(tangles[0], seps).ok


def test_tangle_search_step_budget():
    e2 = Graph([1, 2], [])
    with pytest.raises(BudgetExceeded):
        enumerate_tangles(e2, 1, EnumerationBudget(search_steps=1))


def test_brute_force_grid_model():
    g3 = grid_graph(3)
    m = brute_force_grid_model(g3, 3)
    assert m is not None
    assert validate_model(m).ok
    assert m.pattern == grid_graph(3)

    star = Graph([1, 2, 3, 4], [(1, 1, 2), (2, 1, 3), (3, 1, 4)])
    assert brute_force_grid_model(star, 2) is None

    with pytest.raises(BudgetExceeded):
        brute_force_grid_model(g3, 4)  # side over max_pattern_side
    with pytest.raises(BudgetExceeded):
        brute_force_grid_model(grid_graph(4), 2)  # 16 > 12 vertices


def test_grid_model_search_step_budget():
    """A 12-vertex fan (apex 0 on the path 1..11) has treewidth 2, so no
    3x3 grid minor, and the search for one would run for minutes; the
    step budget stops it.  The 3x3 grid finds its model in 267 tries."""
    path = [(v, v, v + 1) for v in range(1, 11)]
    fan = Graph(range(12), path + [(10 + v, 0, v) for v in range(1, 12)])
    with pytest.raises(BudgetExceeded):
        brute_force_grid_model(fan, 3, EnumerationBudget(search_steps=1000))
    with pytest.raises(BudgetExceeded):
        brute_force_grid_model(fan, 3)
    assert brute_force_grid_model(grid_graph(3), 3, EnumerationBudget(search_steps=267))
    with pytest.raises(BudgetExceeded):
        brute_force_grid_model(grid_graph(3), 3, EnumerationBudget(search_steps=266))


def test_brute_force_model_found_in_subdivided_grid():
    # grid 2x2 with edge 1-2 subdivided by vertex 5: branches must absorb it
    g = Graph(
        [1, 2, 3, 4, 5],
        [(1, 1, 5), (2, 5, 2), (3, 1, 3), (4, 2, 4), (5, 3, 4)],
    )
    m = brute_force_grid_model(g, 2)
    assert m is not None
    assert validate_model(m).ok


def test_row_property_of_identity_extraction():
    problem = identity_problem(5, 2, 1)
    result = extract(problem)
    budget = EnumerationBudget(max_vertices=25, max_order=1)
    seps = enumerate_separations(problem.host, 1, budget)
    assert len(seps) == 52
    assert verify_output_row_property(result, seps, 2).ok


def _tiny_problem(attach: bool):
    g2 = grid_graph(2)
    edges = list(g2.edges()) + ([(9, 1, 5)] if attach else [])
    host = Graph([1, 2, 3, 4, 5], edges)
    ident = identity_grid_model(2)
    model = Pseudomodel(
        host,
        ident.pattern,
        {v: Subgraph(host, {v}) for v in range(1, 5)},
        dict(ident.edge_images),
    )
    return ExtractionProblem(
        host=host, roots=frozenset({5}), model=model, n=2, g=2, k=1
    )


def test_hypothesis_checker_agrees_with_blocking_oracle():
    rows = [(1, 2), (3, 4)]
    good = _tiny_problem(attach=True)
    hc = check_hypothesis(good)
    blockers = enumerate_blocking_separations(good.host, good.roots, good.model, rows, 0)
    assert hc.holds and not blockers

    bad = _tiny_problem(attach=False)
    hc2 = check_hypothesis(bad)
    blockers2 = enumerate_blocking_separations(bad.host, bad.roots, bad.model, rows, 0)
    assert not hc2.holds
    assert blockers2
    assert hc2.separation in blockers2
    assert hc2.row == (1, 2)
    assert hc2.separation.order == 0
