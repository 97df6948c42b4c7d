"""Multigraph core and subgraph algebra.

CI runs the working graph's adjacency referee again under the
``graph-fuzz`` profile (``tests/conftest.py``)."""
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridroots import (
    BREAK_MODES,
    Graph,
    HypothesisViolated,
    InstanceRecipe,
    Subgraph,
    boundary,
    break_instance,
    components,
    extract,
    generate_instance,
    graph_from_dict,
    graph_to_dict,
    model_from_dict,
    model_to_dict,
    reachable_from,
    subgraph_components,
    subgraph_is_connected,
)
from gridroots.graph import WorkingGraph
from gridroots.separations import _split_sides


def triangle():
    return Graph([1, 2, 3], [(1, 1, 2), (2, 2, 3), (3, 1, 3)])


def test_construction_and_queries():
    g = Graph([1, 2, 3], [(10, 2, 1), (11, 2, 3)])
    assert g.vertices == frozenset({1, 2, 3})
    assert g.edge_ids == frozenset({10, 11})
    assert g.endpoints(10) == (1, 2)  # endpoints are normalised
    assert g.neighbors(2) == [1, 3]
    assert g.degree(2) == 2
    assert g.measure == 5
    assert list(g.edges()) == [(10, 1, 2), (11, 2, 3)]


def test_loops_and_parallels():
    g = Graph([1, 2], [(1, 1, 2), (2, 1, 2), (3, 1, 1)])
    assert g.degree(1) == 4  # loop counts twice
    assert g.neighbors(1) == [2]  # no self entry for the loop
    assert g.incident_edges(1) == (1, 2, 3)


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 1, 2), (1, 2, 1)])  # duplicate id
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 1, 3)])  # endpoint outside


def test_delete_edge():
    g = triangle()
    h = g.delete_edge(2)
    assert h.edge_ids == frozenset({1, 3})
    assert h.vertices == g.vertices
    assert h.measure == g.measure - 1
    with pytest.raises(ValueError):
        g.delete_edge(99)


def test_working_graph_reads_like_its_graph():
    g = Graph([1, 2, 3, 4], [(1, 1, 2), (2, 2, 3), (3, 3, 3), (4, 1, 2)])
    w = WorkingGraph(g)
    assert w.vertices == g.vertices
    assert set(w.edge_ids) == g.edge_ids
    assert list(w.freeze().edges()) == list(g.edges())
    assert all(w.incident_edges(v) == set(g.incident_edges(v)) for v in g.vertices)
    assert (w.num_vertices, w.measure) == (g.num_vertices, g.measure)
    assert w.freeze() == g


def test_working_graph_delete_edge():
    g = triangle()
    w = WorkingGraph(g)
    w.delete_edge(2)
    assert w.freeze() == g.delete_edge(2)
    assert w.incident_edges(3) == {3}
    assert w.measure == g.measure - 1
    with pytest.raises(ValueError):
        w.delete_edge(2)
    assert g == triangle()  # the source graph is untouched


def test_contract_edge_survivor_and_rename():
    g = triangle()
    w = WorkingGraph(g)
    assert w.contract_edge(2) == (2, 3)  # contracts 2-3, survivor 2
    assert w.vertices == {1, 2}
    # former 1-3 edge now runs 1-2, parallel to edge 1
    assert w.endpoints(3) == (1, 2)
    assert w.incident_edges(2) == {1, 3}
    assert w.measure == g.measure - 2
    assert w.freeze() == Graph([1, 2], [(1, 1, 2), (3, 1, 2)])


def test_contract_parallel_makes_loop():
    w = WorkingGraph(Graph([1, 2, 3], [(1, 1, 2), (2, 1, 2), (3, 2, 2), (4, 2, 3)]))
    assert w.contract_edge(1) == (1, 2)
    assert w.freeze() == Graph([1, 3], [(2, 1, 1), (3, 1, 1), (4, 1, 3)])
    assert w.incident_edges(1) == {2, 3, 4}


def test_contract_loop_rejected():
    w = WorkingGraph(Graph([1], [(1, 1, 1)]))
    with pytest.raises(ValueError):
        w.contract_edge(1)
    with pytest.raises(ValueError):
        w.contract_edge(2)


def test_induced_and_remove_vertices():
    g = triangle()
    h = g.induced([1, 2])
    assert h.edge_ids == frozenset({1})
    assert g.remove_vertices([3]) == h
    with pytest.raises(ValueError):
        g.induced([1, 9])


def test_graph_equality_is_structural():
    g = triangle()
    assert g == g and not g != g
    assert g == triangle() and g is not triangle()
    assert hash(g) == hash(triangle())
    assert g != triangle().delete_edge(1)
    assert g != Graph([1, 2, 3], [(1, 1, 2), (2, 2, 3), (3, 1, 1)])
    assert g != "triangle"


def test_subgraph_incidence_closure():
    g = triangle()
    with pytest.raises(ValueError):
        Subgraph(g, {1, 2}, {2})  # edge 2 needs vertex 3
    h = Subgraph(g, {1, 2}, {1})
    assert Subgraph(g, ()).is_null()
    assert not h.is_null()


def test_subgraph_components_sorted_by_least_vertex():
    g = Graph([1, 2, 3, 4, 5], [(1, 4, 5), (2, 1, 2)])
    h = Subgraph(g, {1, 2, 3, 4, 5}, {1, 2})
    comps = subgraph_components(h)
    assert [sorted(c.vertices) for c in comps] == [[1, 2], [3], [4, 5]]
    assert subgraph_is_connected(comps[0])
    assert not subgraph_is_connected(h)
    # a connected subgraph, loops included, is its own single piece
    loops = Graph([1, 2], [(1, 1, 2), (2, 2, 2)])
    whole = Subgraph(loops, {1, 2}, {1, 2})
    assert subgraph_components(whole) == [whole]


def test_boundary():
    g = triangle()
    h = Subgraph(g, {1, 2}, {1})
    assert boundary(g, h) == frozenset({1, 2})  # edges 2 and 3 leave h
    assert boundary(g, Subgraph(g, g.vertices, g.edge_ids)) == frozenset()


def test_reachable_from_with_forbidden():
    g = Graph([1, 2, 3, 4], [(1, 1, 2), (2, 2, 3), (3, 3, 4)])
    assert reachable_from(g, [1]) == {1, 2, 3, 4}
    assert reachable_from(g, [1], forbidden={3}) == {1, 2}
    assert reachable_from(g, [3], forbidden={3}) == set()


def test_components_and_connectivity():
    g = Graph([1, 2, 3], [(1, 1, 2)])
    assert components(g) == [frozenset({1, 2}), frozenset({3})]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    verts = list(range(1, n + 1))
    pairs = [(u, v) for u in verts for v in verts if u <= v]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=12))
    return Graph(verts, [(i + 1, u, v) for i, (u, v) in enumerate(picked)])


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_components_partition_vertices(g):
    comps = components(g)
    seen = set()
    for comp in comps:
        assert not comp & seen
        seen |= comp
    assert seen == g.vertices


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_contraction_shrinks_measure_by_two(g):
    w = WorkingGraph(g)
    rename = {v: v for v in g.vertices}
    for _ in range(3):
        non_loops = [e for e, u, v in w.freeze().edges() if u != v]
        if not non_loops:
            break
        before = w.measure
        e = non_loops[0]
        u, v = w.endpoints(e)
        assert w.contract_edge(e) == (u, v)
        rename = {x: u if y == v else y for x, y in rename.items()}
        assert w.measure == before - 2
        assert w.vertices == set(rename.values())
        h = w.freeze()  # every edge's ends follow the rename; incidence is consistent
        for eid, a, b in h.edges():
            x, y = g.endpoints(eid)
            assert (a, b) == tuple(sorted((rename[x], rename[y])))
        assert all(w.incident_edges(x) == set(h.incident_edges(x)) for x in h.vertices)


def adjacency(w):
    """``w.around`` in vertex ids, live vertices only: each neighbour (the
    vertex itself included) -> the set of ids of the edges joining them."""
    order = w.order
    return {
        order[i]: {order[j]: set(edges) for j, edges in near.items()}
        for i, near in enumerate(w.around)
        if order[i] in w.vertices
    }


def check_adjacency(w):
    """``w`` against a fresh build of its frozen graph, and that build against
    the frozen graph's edges; returns the frozen graph."""
    h = w.freeze()
    fresh = WorkingGraph(h)
    joining = {x: {x: set()} for x in h.vertices}
    for e, a, b in h.edges():
        joining[a].setdefault(b, set()).add(e)
        joining[b].setdefault(a, set()).add(e)
    assert adjacency(fresh) == joining
    assert fresh.order == sorted(h.vertices)
    for i, near in enumerate(fresh.around):
        assert list(near) == sorted(near)
        assert all(list(edges) == sorted(edges) for edges in near.values())
    assert adjacency(w) == adjacency(fresh)
    for i, near in enumerate(w.around):
        assert all(near[j] is w.around[j][i] for j in near)
    assert all(w.incident_edges(x) == set(h.incident_edges(x)) for x in h.vertices)
    assert all(w.endpoints(e) == h.endpoints(e) for e in h.edge_ids)
    return h


def numbered_alike(a, b):
    """``a`` and ``b`` hold the same vertices and edge map, number them alike,
    and list every neighbour map's keys and tuples in the same order."""
    assert (a.vertices, a._edges) == (b.vertices, b._edges)
    assert (a.order, list(a.index.items())) == (b.order, list(b.index.items()))
    assert [list(near.items()) for near in a.around] == [list(near.items()) for near in b.around]


@pytest.mark.parametrize("seed", range(40))
def test_edited_adjacency_equals_a_fresh_build(seed):
    """Deletions and contractions keep the adjacency a fresh build of the
    frozen graph gives, with one edge tuple per pair of neighbours, and so
    does cutting the graph down to one side of a separation, as an
    extraction level does before it recurses, and editing on after.  A
    part copied out at any step (``induced``) is what a fresh build of that
    part as a ``Graph`` gives, and stays so while the source is edited."""
    rng = random.Random(f"working-adjacency:{seed}")
    verts = rng.sample(range(1, 60), rng.randint(1, 12))
    edges = []
    for eid in rng.sample(range(1, 300), rng.randint(0, 3 * len(verts))):
        u = rng.choice(verts)
        v = u if rng.random() < 0.15 else rng.choice(verts)
        edges.append((eid, u, v))
    for eid in range(300, 300 + (rng.randint(0, 6) if edges else 0)):  # parallel copies
        _, u, v = rng.choice(edges)
        edges.append((eid, u, v))
    w = WorkingGraph(Graph(verts, edges))
    cut_at = rng.randint(0, len(edges))  # edits before the cut
    parts = random.Random(f"working-adjacency-parts:{seed}")  # leaves rng's edits as they were
    copies = []  # (part copied out of w, a fresh build of that part)
    for step in range(len(edges) + 1):
        check_adjacency(w)
        for copy, fresh in copies:
            numbered_alike(copy, fresh)
        if parts.random() < 0.3:
            part = {x for x in w.vertices if parts.random() < 0.6}
            inside = [(e, *w.endpoints(e)) for e in w.edge_ids if set(w.endpoints(e)) <= part]
            copies.append((w.induced(part), WorkingGraph(Graph(part, inside))))
            numbered_alike(*copies[-1])
        if step == cut_at:
            cut = {x for x in w.vertices if rng.random() < 0.3}
            a_only = set()
            for x in sorted(w.vertices - cut):
                if x not in a_only and rng.random() < 0.5:
                    a_only |= reachable_from(w, [x], cut)
            va, ea, vb, eb = _split_sides(w, frozenset(cut), a_only)
            for e in ea:
                w.delete_edge(e)
            w.vertices -= va - vb
            h = check_adjacency(w)
            assert (h.vertices, h.edge_ids) == (vb, eb)
        if not w.edge_ids:
            break
        eid = rng.choice(sorted(w.edge_ids))
        u, v = w.endpoints(eid)
        if u != v and rng.random() < 0.5:
            w.contract_edge(eid)
        else:
            w.delete_edge(eid)


# -- the adjacency and incidence against the two-stage build they replaced --


def reference_incidence(g):
    """Each vertex of ``g`` -> the ids of its edges, ascending, loops once."""
    incidence = {v: [] for v in g.vertices}
    for eid, u, v in g.edges():
        incidence[u].append(eid)
        if v != u:
            incidence[v].append(eid)
    return {v: tuple(lst) for v, lst in incidence.items()}


def reference_adjacency(g):
    """The numbering and ``around`` maps of ``g`` as a working graph once
    built them, in two stages: the incidence tuples, then vertex by vertex
    in ascending order, key a entering every map while vertex a is read,
    and each edge joining its tuple from its smaller end."""
    incidence = reference_incidence(g)
    order = sorted(incidence)
    index = {v: i for i, v in enumerate(order)}
    around = [{} for _ in order]
    for a, v in enumerate(order):
        mine = around[a]
        mine[a] = ()
        for eid in incidence[v]:
            x, y = g.endpoints(eid)
            b = index[y if x == v else x]
            if b < a:
                around[b][a] = mine[b]
            else:
                near = around[b]
                near[a] = near.get(a, ()) + (eid,)
    return order, around


@st.composite
def multigraphs(draw):
    """A multigraph on sparse vertex and edge ids, with loops, parallel
    edges and isolated vertices likely, its edges listed in a drawn order."""
    verts = draw(st.lists(st.integers(0, 10**6), max_size=10, unique=True))
    if not verts:
        return Graph([])
    pool = draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)), min_size=1, max_size=8))
    pairs = draw(st.lists(st.sampled_from(pool), max_size=24))
    eids = draw(st.lists(st.integers(0, 10**6), min_size=len(pairs), max_size=len(pairs), unique=True))
    return Graph(verts, draw(st.permutations([(e, u, v) for e, (u, v) in zip(eids, pairs)])))


@given(multigraphs(), st.data())
@settings(deadline=None)
def test_working_graph_builds_the_reference_adjacency(g, data):
    """``WorkingGraph(g)``, and a part of it copied out by ``induced``,
    number the vertices and list every map's keys and tuples as the
    two-stage reference build does, whatever order the edges came in,
    with one tuple shared by each pair of neighbours."""
    w = WorkingGraph(g)
    part = data.draw(st.sets(st.sampled_from(sorted(g.vertices)))) if g.vertices else set()
    for built, want in ((w, g), (w.induced(part), g.induced(part))):
        order, around = reference_adjacency(want)
        assert built.order == order and built.index == {v: i for i, v in enumerate(order)}
        assert [list(near.items()) for near in built.around] == [list(near.items()) for near in around]
        assert all(near[j] is built.around[j][i] for i, near in enumerate(built.around) for j in near)
        assert built._edges == dict(want.edge_map)


QUERIES = {
    "incident_edges": lambda g, v: g.incident_edges(v),
    "neighbors": lambda g, v: g.neighbors(v),
    "degree": lambda g, v: g.degree(v),
    "boundary": lambda g, v: boundary(g, Subgraph(g, [v], [e for e in g.edge_ids if g.endpoints(e) == (v, v)])),
    "reachable_from": lambda g, v: reachable_from(g, [v]),
}


@pytest.mark.parametrize("first", sorted(QUERIES))
@given(g=multigraphs())
@settings(deadline=None, max_examples=30)
def test_incidence_built_on_first_use_answers_as_built_eagerly(first, g):
    """A graph builds its incidence at its first query, whichever query
    that is, and then answers every query as a graph whose incidence was
    built at construction does."""
    edges = [(e, *ends) for e, ends in g.edge_map.items()]  # in the drawn order
    eager, lazy = Graph(g.vertices, edges), Graph(g.vertices, edges)
    object.__setattr__(eager, "_incidence", reference_incidence(eager))
    assert lazy._incidence is None
    for name in (first, *QUERIES):
        for v in sorted(g.vertices):
            assert QUERIES[name](lazy, v) == QUERIES[name](eager, v)


@pytest.mark.parametrize("mode", BREAK_MODES)
def test_reading_and_refuting_leave_the_incidence_unbuilt(mode):
    """Nothing in reading a problem's documents or in refuting it asks the
    host or the pattern for its incidence: the working graph builds its
    adjacency from the host's edge map, and the pattern is only checked.
    Nor does breaking an instance ask its input host."""
    problem = generate_instance(InstanceRecipe("grid-plus-roots", 13, 2, 2, 7, 3))
    broken = break_instance(problem, mode, 7)
    assert problem.host._incidence is None
    host = graph_from_dict(graph_to_dict(broken.host))
    model = model_from_dict(model_to_dict(broken.model, broken.n), host)
    assert host._incidence is None and model.pattern._incidence is None
    with pytest.raises(HypothesisViolated):
        extract(replace(broken, host=host, model=model))
    assert host._incidence is None and model.pattern._incidence is None
