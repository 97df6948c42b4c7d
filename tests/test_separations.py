"""Separations, disjoint-path search, row blockers, and tangle axioms."""
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridroots import (
    EnumerationBudget,
    Graph,
    HypothesisViolated,
    InstanceRecipe,
    MalformedInput,
    Pseudomodel,
    Separation,
    Subgraph,
    Tangle,
    blocking_separation,
    check_tangle_axioms,
    enumerate_cuts,
    extract,
    find_row_blocking_separation,
    generate_instance,
    grid_graph,
    grid_tangle_member,
    identity_grid_model,
    menger,
    reachable_from,
    row_vertices,
    validate_problem,
    vertex_id,
)
from gridroots import extraction
from gridroots.graph import WorkingGraph
from gridroots.extraction import (
    _apply_edge_reduction,
    _derive_subproblem,
    _full_rows,
    _reductions,
    _rows_to_scan,
)
from gridroots.instances import _attachment_columns, _chords, grid_plus_roots_problem
from gridroots.separations import _END, _FREE, RowBlock, _RowScanner, _separation_from_sides

from test_reductions import CORNERS, coarse_problem


def p3():
    return Graph([1, 2, 3], [(1, 1, 2), (2, 2, 3)])


def test_separation_constructor_checks():
    g = p3()
    a = Subgraph(g, {1, 2}, {1})
    b = Subgraph(g, {2, 3}, {2})
    s = Separation(a, b)
    assert s.order == 1
    assert s.separator == frozenset({2})
    assert s.flipped() == Separation(b, a)
    assert s.flipped().flipped() == s
    assert hash(s) == hash(Separation(a, b))

    with pytest.raises(ValueError):
        Separation(a, Subgraph(g, {2}, set()))  # does not cover vertex 3
    with pytest.raises(ValueError):
        Separation(Subgraph(g, g.vertices, g.edge_ids), Subgraph(g, g.vertices, g.edge_ids))  # shares edges
    other = grid_graph(2)
    with pytest.raises(ValueError):
        Separation(a, Subgraph(other, other.vertices, other.edge_ids))
    with pytest.raises(AttributeError):
        s.a = b


def test_menger_rejects_bad_queries():
    g = p3()
    for kwargs in (
        dict(sources=[], targets=[3], k=1),
        dict(sources=[1], targets=[], k=1),
        dict(sources=[1], targets=[3], k=0),
        dict(sources=[1], targets=[3], k=1, forbidden=[1]),
        dict(sources=[9], targets=[3], k=1),
    ):
        with pytest.raises(MalformedInput) as exc:
            menger(g, **kwargs)
        assert exc.value.problems


def test_menger_finds_disjoint_paths():
    g = grid_graph(3)
    res = menger(g, {1, 3}, {7, 9}, 2)
    assert res.found_paths
    assert res.paths == ((1, 4, 7), (3, 6, 9))
    seen = set()
    for path in res.paths:
        assert path[0] in {1, 3} and path[-1] in {7, 9}
        assert not (set(path) & seen)
        seen |= set(path)
        for u, v in zip(path, path[1:]):
            assert v in g.neighbors(u)


def test_menger_trims_to_single_vertex_when_source_is_target():
    g = grid_graph(3)
    res = menger(g, {1}, {1, 9}, 1)
    assert res.paths == ((1,),)


def test_menger_respects_vertex_capacities_of_endpoints():
    # a single source vertex can carry at most one path
    g = grid_graph(3)
    res = menger(g, {1}, {9}, 2)
    assert not res.found_paths
    assert res.cut == frozenset({9})


def test_menger_cut_and_separation():
    g = p3()
    res = menger(g, {1}, {3}, 2)
    assert not res.found_paths
    assert len(res.cut) == 1
    s = res.separation
    assert s.order == 1
    assert s.separator == res.cut
    assert 1 in s.a.vertices
    assert 3 in s.b.vertices

    g3 = grid_graph(3)
    res3 = menger(g3, {1, 3}, {7, 9}, 3)
    assert res3.cut == frozenset({7, 9})
    assert res3.separation.a.vertices == g3.vertices


def test_menger_forbidden_vertices_are_avoided():
    g = grid_graph(3)
    res = menger(g, {1, 3}, {7, 9}, 2, forbidden={5})
    assert res.found_paths
    assert all(5 not in path for path in res.paths)
    # forbidding the middle column chokes the corner-to-corner routes
    res2 = menger(g, {1, 3}, {7, 9}, 2, forbidden={4, 5, 6})
    assert not res2.found_paths
    assert res2.cut == frozenset()


def test_menger_cancels_a_unit_whose_head_still_follows_it():
    """The second augmenting path on this 13-vertex graph runs back along
    an edge x -> y that carries a unit while ``nxt[x]`` is still y, so
    ``_FlowNetwork.solve`` frees x's successor when it cancels that unit
    (a seeded search found the input).  The two paths it returns are
    vertex-disjoint paths of the graph, and no cut below 2 exists."""
    g = Graph(range(1, 14), [
        (1, 1, 12), (2, 3, 9), (3, 7, 5), (4, 11, 4), (5, 13, 9), (6, 2, 3), (7, 11, 9),
        (8, 6, 4), (9, 13, 11), (10, 3, 8), (11, 3, 8), (12, 12, 10), (13, 5, 7),
        (14, 4, 6), (15, 3, 7), (16, 8, 4), (17, 2, 7),
    ])
    sources, targets = {4, 5, 10}, {3, 9}
    res = menger(g, sources, targets, 2)
    assert res.found_paths
    assert res.paths == ((4, 11, 9), (5, 7, 3))
    assert not set(res.paths[0]) & set(res.paths[1])
    for path in res.paths:
        assert path[0] in sources and path[-1] in targets
        assert all(v in g.neighbors(u) for u, v in zip(path, path[1:]))
    assert enumerate_cuts(g, sources, targets, 1, EnumerationBudget(max_vertices=13)) == []


def menger_ends_case(seed):
    """A seeded multigraph of up to 20 vertices (a long path through all of
    them, more edges, loops and parallel copies), up to four sources and
    up to four targets that may meet them, a few forbidden vertices, and
    k up to one past what both sets can carry."""
    rng = random.Random(f"menger-ends:{seed}")
    verts = list(range(1, rng.randint(1, 20) + 1))
    chain = rng.sample(verts, len(verts))
    pairs = list(zip(chain, chain[1:]))
    for _ in range(rng.randint(0, len(verts))):
        u = rng.choice(verts)
        pairs.append((u, u if rng.random() < 0.15 else rng.choice(verts)))
    for _ in range(rng.randint(0, 3) if pairs else 0):
        pairs.append(rng.choice(pairs))  # a parallel copy
    g = Graph(verts, [(eid, u, v) for eid, (u, v) in enumerate(pairs, 1)])
    sources = frozenset(rng.sample(verts, rng.randint(1, min(4, len(verts)))))
    targets = frozenset(rng.sample(verts, rng.randint(1, min(4, len(verts)))))
    if rng.random() < 0.3:
        targets |= {rng.choice(sorted(sources))}
    spare = sorted(g.vertices - sources - targets)
    forbidden = rng.sample(spare, rng.randint(0, min(3, len(spare)))) if rng.random() < 0.3 else []
    k = rng.randint(1, min(len(sources), len(targets)) + 1)
    return g, sources, targets, k, frozenset(forbidden)


# 300 examples in the default profile, more under a higher-count one
@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_menger_paths_meet_sources_and_targets_only_at_their_ends(seed):
    """On seeded multigraphs with loops, parallel edges and sources that are
    also targets, the flow's own paths meet the sources only at their first
    vertex and the targets only at their last; they step along edges
    between distinct vertices and share no vertex."""
    g, sources, targets, k, forbidden = menger_ends_case(seed)
    res = menger(g, sources, targets, k, forbidden)
    if not res.found_paths:
        assert len(res.cut) < k
        return
    assert len(res.paths) == k
    used = set()
    for path in res.paths:
        assert path[0] in sources and path[-1] in targets
        assert not set(path[1:]) & sources and not set(path[:-1]) & targets
        assert not set(path) & (used | forbidden) and len(set(path)) == len(path)
        used |= set(path)
        for u, v in zip(path, path[1:]):
            assert u != v and v in g.neighbors(u)


def test_blocking_separation_sends_neutral_components_to_a():
    g = Graph([1, 2, 3, 4], [(1, 1, 2), (2, 2, 3), (3, 2, 4)])
    s = blocking_separation(g, frozenset({2}), frozenset({1}), frozenset({3}))
    assert s.a.vertices == frozenset({1, 2, 4})  # source and neutral sides
    assert s.a.edge_ids == frozenset({1, 3})
    assert s.b.vertices == frozenset({2, 3})
    assert s.b.edge_ids == frozenset({2})


def reference_blocking_separation(g, cut, sources, targets):
    """``blocking_separation`` spelled out as a walk over every component of
    g minus the cut, each sent to A when it holds a source or no target."""
    a_only, seen = set(), set(cut)
    for start in sorted(g.vertices - cut):
        if start in seen:
            continue
        comp = reachable_from(g, [start], cut)
        seen |= comp
        if comp & sources or not comp & targets:
            a_only |= comp
    b_only = g.vertices - cut - a_only
    b_edges = {e for e, u, v in g.edges() if u in b_only or v in b_only}
    return Separation(Subgraph(g, a_only | cut, g.edge_ids - b_edges), Subgraph(g, b_only | cut, b_edges))


def test_blocking_separation_matches_the_component_walk():
    """``blocking_separation`` equals the component walk on 3,000 seeded
    multigraphs of up to 14 vertices, with a random cut, sources and
    targets (which may meet each other and the cut), whether or not the
    cut separates the sources from the targets."""
    separating = 0
    for seed in range(3000):
        rng = random.Random(f"blocking:{seed}")
        verts = list(range(1, rng.randint(1, 14) + 1))
        edges = []
        for eid in range(1, rng.randint(0, 2 * len(verts)) + 1):
            u = rng.choice(verts)
            edges.append((eid, u, u if rng.random() < 0.1 else rng.choice(verts)))
        g = Graph(verts, edges)
        cut, sources, targets = (
            frozenset(rng.sample(verts, rng.randint(least, min(4, len(verts))))) for least in (0, 1, 1))
        assert blocking_separation(g, cut, sources, targets) == \
            reference_blocking_separation(g, cut, sources, targets), seed
        separating += not reachable_from(g, sources, cut) & targets
    assert 300 < separating < 2700  # both kinds of cut are well represented


def test_row_scan_reports_reducible_block():
    g3 = grid_graph(3)
    ident = identity_grid_model(3)
    host = Graph(list(range(1, 11)), list(g3.edges()) + [(13, 1, 10)])
    model = Pseudomodel(
        host,
        ident.pattern,
        {v: Subgraph(host, {v}) for v in range(1, 10)},
        dict(ident.edge_images),
    )
    rows = [row_vertices(3, i) for i in (1, 2, 3)]
    rb = find_row_blocking_separation(host, [10], model, rows, 1)
    assert rb.kind == "reducible"
    assert rb.row == (1, 2, 3)
    assert rb.separation.separator == frozenset({1})
    assert 10 in rb.separation.a.vertices
    assert rb.separation.b.vertices == frozenset(range(1, 10))


def test_row_scan_reports_strict_block():
    g3 = grid_graph(3)
    ident = identity_grid_model(3)
    host = Graph(list(range(1, 11)), list(g3.edges()))  # root 10 isolated
    model = Pseudomodel(
        host,
        ident.pattern,
        {v: Subgraph(host, {v}) for v in range(1, 10)},
        dict(ident.edge_images),
    )
    rows = [row_vertices(3, i) for i in (1, 2, 3)]
    rb = find_row_blocking_separation(host, [10], model, rows, 1)
    assert rb.kind == "strict"
    assert rb.separation.order == 0
    assert rb.separation.a.vertices == frozenset({10})


def test_row_scan_passes_well_connected_root():
    g3 = grid_graph(3)
    ident = identity_grid_model(3)
    rows = [row_vertices(3, i) for i in (1, 2, 3)]
    assert find_row_blocking_separation(g3, [1], ident, rows, 1) is None


def test_row_scan_rejects_malformed_queries():
    g3 = grid_graph(3)
    ident = identity_grid_model(3)
    rows = [row_vertices(3, 1)]
    for roots, max_order in (([1], -1), ([], 1), ([99], 1)):
        with pytest.raises(MalformedInput) as exc:
            find_row_blocking_separation(g3, roots, ident, rows, max_order)
        assert exc.value.problems
    empty_row = Pseudomodel(g3, ident.pattern, {v: Subgraph(g3, ()) for v in range(1, 10)}, {})
    with pytest.raises(MalformedInput):
        find_row_blocking_separation(g3, [1], empty_row, rows, 1)
    no_branch = {v: br for v, br in ident.branches.items() if v != 2}
    lacking = Pseudomodel(g3, ident.pattern, no_branch, ident.edge_images)
    with pytest.raises(MalformedInput) as exc:
        find_row_blocking_separation(g3, [1], lacking, rows, 1)
    assert exc.value.problems == ["pattern vertex 2 of row [1, 2, 3] has no branch"]


def test_row_scan_edge_inside_cut_is_reducible():
    # roots 1 and 2 form the cut of row 1; everything else hangs off
    # vertex 3, so edge 1-2 is the only thing private to side A
    g3 = grid_graph(3)
    rows = [row_vertices(3, i) for i in (1, 2, 3)]
    rb = find_row_blocking_separation(g3, [1, 2], identity_grid_model(3), rows, 2)
    assert rb.kind == "reducible"
    assert rb.row == (1, 2, 3)
    edge_12 = next(e for e, u, v in g3.edges() if (u, v) == (1, 2))
    assert rb.separation.a.vertices == frozenset({1, 2})
    assert rb.separation.a.edge_ids == frozenset({edge_12})
    assert rb.separation.b.vertices == g3.vertices
    assert rb.separation.b.edge_ids == g3.edge_ids - {edge_12}


def test_row_scan_loop_inside_cut_is_reducible():
    g3 = grid_graph(3)
    ident = identity_grid_model(3)
    rows = [row_vertices(3, i) for i in (1, 2, 3)]
    # roots 1 and 3 cut every row off and share no edge: not a blocker
    assert find_row_blocking_separation(g3, [1, 3], ident, rows, 2) is None
    host = Graph(g3.vertices, list(g3.edges()) + [(13, 1, 1)])
    model = Pseudomodel(
        host, ident.pattern, {v: Subgraph(host, {v}) for v in range(1, 10)}, dict(ident.edge_images)
    )
    rb = find_row_blocking_separation(host, [1, 3], model, rows, 2)
    assert rb.kind == "reducible"
    assert rb.separation.a.vertices == frozenset({1, 3})
    assert rb.separation.a.edge_ids == frozenset({13})
    assert rb.separation.b.vertices == host.vertices


def test_row_scan_cut_with_targets_on_every_side_is_no_blocker():
    # root 11 sits between the two branch vertices of the only row:
    # both sides of the order-1 cut hold a target, and no edge lies in it
    host = Graph([10, 11, 12], [(1, 10, 11), (2, 11, 12)])
    pattern = Graph([1, 2], [])
    model = Pseudomodel(host, pattern, {1: Subgraph(host, {10}), 2: Subgraph(host, {12})}, {})
    assert find_row_blocking_separation(host, [11], model, [(1, 2)], 1) is None
    s = blocking_separation(host, frozenset({11}), frozenset({11}), frozenset({10, 12}))
    assert s.b.vertices == host.vertices and s.b.edge_ids == host.edge_ids


def reference_row_scan(g, roots, images, rows, max_order):
    """The row scan spelled out from public pieces, one menger call a row.

    ``images`` maps each pattern vertex to its branch vertex set.
    """
    roots = frozenset(roots)
    for row in rows:
        if any(v not in images for v in row):
            raise MalformedInput("bad row scan", ["a row vertex has no branch"])
        targets = frozenset().union(*(images[v] for v in row))
        result = menger(g, roots, targets, max_order + 1)  # raises at a bad image
        if result.found_paths:
            continue
        if len(result.cut) < max_order:
            return "strict", tuple(row), result.separation
        s = blocking_separation(g, result.cut, roots, targets)
        if s.b.vertices != g.vertices or s.b.edge_ids != g.edge_ids:
            return "reducible", tuple(row), s
    return None


def random_scan_case(seed):
    """A seeded multigraph (loops and parallel edges included) with a
    pseudomodel of the 2x2 or 3x3 grid on random disjoint vertex sets."""
    rng = random.Random(f"row-scan:{seed}")
    side = rng.choice((2, 3))
    nv = rng.randint(side * side, 16)
    verts = list(range(1, nv + 1))
    edges = []
    for eid in range(1, rng.randint(nv - 1, 3 * nv) + 1):
        u = rng.choice(verts)
        v = u if rng.random() < 0.05 else rng.choice(verts)
        edges.append((eid, u, v))
    host = Graph(verts, edges)
    pool = verts[:]
    rng.shuffle(pool)
    branches = {}
    for pv in range(1, side * side + 1):
        size = 1 if len(pool) <= side * side - pv + 1 else rng.randint(1, 2)
        branches[pv] = Subgraph(host, {pool.pop() for _ in range(size)})
    model = Pseudomodel(host, grid_graph(side), branches, {})
    roots = rng.sample(verts, rng.randint(1, 3))
    rows = [row_vertices(side, i) for i in range(1, side + 1)]
    return host, roots, model, rows, rng.randint(0, 3)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_row_scan_matches_per_row_menger_reference(seed):
    host, roots, model, rows, max_order = random_scan_case(seed)
    block = find_row_blocking_separation(host, roots, model, rows, max_order)
    images = {v: br.vertices for v, br in model.branches.items()}
    expected = reference_row_scan(host, roots, images, rows, max_order)
    if expected is None:
        assert block is None
    else:
        assert (block.kind, block.row, block.separation) == expected


def _flow_edge(rng, scanner, work):
    """An edge both of whose ends carry flow that some row keeps, or None."""
    verts, edges = scanner.net.vertices, set()
    for state in scanner.states:
        if state is not None:
            used = {verts[i] for i, p in enumerate(state.prev) if p != _FREE}
            edges |= {e for x in used for e in work.incident_edges(x) if set(work.endpoints(e)) <= used}
    return rng.choice(sorted(edges)) if edges else None


def _next_edge(rng, scanner, work, roots):
    """An edge between flow-carrying vertices, a root-incident edge or any edge."""
    pick = rng.random()
    if pick < 0.4:
        e = _flow_edge(rng, scanner, work)
        if e is not None:
            return e
    if pick < 0.7:
        at_roots = sorted({e for z in roots for e in work.incident_edges(z)})
        if at_roots:
            return rng.choice(at_roots)
    return rng.choice(sorted(work.edge_ids))


def assert_states_are_proofs(scanner, work, roots, images, k):
    """Every row state the scanner keeps proves, in the working graph as it
    is, that its row is no blocker: a valid flow of value k from the roots
    to the row's image, and levels under which every out-node but a
    target's has a residual successor at a strictly lower level."""
    index, order = scanner.net.index, scanner.net.vertices
    present = {index[v] for v in work.vertices}
    adjacent = {i: set() for i in present}
    for e in work.edge_ids:
        x, y = (index[w] for w in work.endpoints(e))
        if x != y:
            adjacent[x].add(y)
            adjacent[y].add(x)
    root_ids = {index[z] for z in roots}
    for r, state in enumerate(scanner.states):
        if state is None:
            continue
        row = scanner.rows[r]
        marks = scanner.marks[r]
        image = set().union(*(images[v] for v in row))
        assert {i for i, m in enumerate(marks) if m} == {index[v] for v in image}
        prev, nxt, level = state.prev, state.nxt, state.level
        assert level is not None
        # the flow: one path from each of the k roots to a target
        starts = [i for i in present if prev[i] == _END]
        assert len(roots) == k and set(starts) == root_ids
        on_paths = 0
        for i in starts:
            on_paths += 1
            while nxt[i] != _END:
                j = nxt[i]
                assert j in adjacent[i] and prev[j] == i, (order[i], j)
                i = j
                on_paths += 1
            assert marks[i]
        assert on_paths == sum(prev[i] != _FREE for i in present)
        # the certificate: every present out-node reaches the sink
        for a in present:
            assert level[a] >= 0, order[a]
            if marks[a]:
                continue  # its arc to the sink
            # out(a) enters in(b) for each neighbour b, and in(a) when a
            # carries flow; in(b) leads to out(b) when b is free, else to
            # out(prev[b]), and nowhere from a root
            ins = adjacent[a] | ({a} if prev[a] != _FREE else set())
            assert any(
                0 <= level[w] < level[a]
                for b in ins
                for w in [b if prev[b] == _FREE else prev[b]]
                if w >= 0
            ), order[a]


# 150 examples in the default profile, more under a higher-count one
@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
def test_scanner_fed_each_reduction_answers_like_a_fresh_scan(seed):
    """Deletions and contractions, applied to a working graph and fed to one
    scanner, leave it answering exactly what a fresh scan of the graph does,
    and every row state it keeps is a proof in the reduced graph."""
    host, roots, model, rows, _ = random_scan_case(seed)
    rng = random.Random(f"row-scanner:{seed}")
    k = len(roots)
    roots = set(roots)
    images = {v: set(br.vertices) for v, br in model.branches.items()}
    work = WorkingGraph(host)
    scanner = _RowScanner(work, images, rows, k)
    for _ in range(rng.randint(1, 16)):
        g = work.freeze()
        block = scanner.scan(roots)
        found = None if block is None else (
            block.kind, block.row, _separation_from_sides(g, block.sides(work, roots)))
        fresh = find_row_blocking_separation(g, roots, images, rows, k)
        assert found == (None if fresh is None else (fresh.kind, fresh.row, fresh.separation))
        assert found == reference_row_scan(g, roots, images, rows, k)
        if not work.edge_ids:
            break
        eid = _next_edge(rng, scanner, work, roots)
        u, v = work.endpoints(eid)
        rule = "edge-delete" if u == v or rng.random() < 0.5 else "branch-edge-contract"
        scanner.feed(_apply_edge_reduction(work, roots, {}, rule, eid, None))
        if rule == "branch-edge-contract":
            # the images are arbitrary vertex sets, not the loop's branches
            for image in images.values():
                if v in image:
                    image.discard(v)
                    image.add(u)
        assert_states_are_proofs(scanner, work, roots, images, k)


@pytest.mark.parametrize("seed", range(60))
def test_scanner_fed_before_its_first_scan_follows_the_contractions(seed):
    """Every row's target marks are made when the scanner is built, from the
    images it is given: reductions fed before any scan, with those images
    left as they were, still give the fresh scan of the reduced graph with
    the images carried along."""
    host, roots, model, rows, _ = random_scan_case(seed)
    rng = random.Random(f"row-scanner-unscanned:{seed}")
    k = len(roots)
    roots = set(roots)
    images = {v: set(br.vertices) for v, br in model.branches.items()}
    work = WorkingGraph(host)
    scanner = _RowScanner(work, {v: frozenset(vs) for v, vs in images.items()}, rows, k)
    for _ in range(rng.randint(1, 6)):
        if not work.edge_ids:
            break
        eid = rng.choice(sorted(work.edge_ids))
        u, v = work.endpoints(eid)
        rule = "edge-delete" if u == v or rng.random() < 0.3 else "branch-edge-contract"
        scanner.feed(_apply_edge_reduction(work, roots, {}, rule, eid, None))
        if rule == "branch-edge-contract":
            for image in images.values():
                if v in image:
                    image.discard(v)
                    image.add(u)
    g = work.freeze()
    block = scanner.scan(roots)
    found = None if block is None else (
        block.kind, block.row, _separation_from_sides(g, block.sides(work, roots)))
    fresh = find_row_blocking_separation(g, roots, images, rows, k)
    assert found == (None if fresh is None else (fresh.kind, fresh.row, fresh.separation))


def test_contract_drops_a_state_whose_ends_carry_two_units(monkeypatch):
    """Contracting an edge whose ends carry two different units of a kept
    row's flow drops that row's state (``_merge_flow`` refuses), and the
    next scan answers as a fresh scan of the contracted graph."""
    # roots 1 and 2, the row's image {5, 6, 7}; the flow runs 1-3-5 and
    # 2-4-6, and edge 5 joins 3 and 4; the detours 1-8-9-5 and 2-10-11-7
    # leave Z the only minimum cut, so the row is clear
    ends = [(1, 3), (3, 5), (2, 4), (4, 6), (3, 4), (1, 8), (8, 9), (9, 5),
            (2, 10), (10, 11), (11, 7), (3, 6), (4, 7), (3, 7), (4, 5)]
    host = Graph(range(1, 12), [(e, u, v) for e, (u, v) in enumerate(ends, 1)])
    roots, images, rows, k = {1, 2}, {1: {5, 6, 7}}, [(1,)], 2
    work = WorkingGraph(host)
    scanner = _RowScanner(work, images, rows, k)
    assert scanner.scan(roots) is None
    state, index = scanner.states[0], scanner.net.index
    i, j = index[3], index[4]
    assert (state.prev[i], state.nxt[i]) == (index[1], index[5])
    assert (state.prev[j], state.nxt[j]) == (index[2], index[6])
    merges = []
    merge_flow = _RowScanner._merge_flow

    def recording(state, i, j):
        merges.append(merge_flow(state, i, j))
        return merges[-1]

    monkeypatch.setattr(_RowScanner, "_merge_flow", staticmethod(recording))
    scanner.feed(_apply_edge_reduction(work, roots, {}, "branch-edge-contract", 5, None))
    assert merges == [False]
    assert scanner.states == [None]
    g = work.freeze()
    block = scanner.scan(roots)
    found = None if block is None else (
        block.kind, block.row, _separation_from_sides(g, block.sides(work, roots)))
    fresh = find_row_blocking_separation(g, roots, images, rows, k)
    assert found == (None if fresh is None else (fresh.kind, fresh.row, fresh.separation))
    assert scanner.cold == 2 and scanner.reused == 0


def linked_level_case(seed, roots_anywhere=True):
    """A seeded problem that ``validate_problem`` accepts, as the extraction
    loop holds it: a coarse model at a random side and corner (k = 1), one
    at side 13 with two roots, in one block half the time (k = 2), or a
    grid-plus-roots or random-attachment recipe (k = 1 or 2).  Without
    ``roots_anywhere`` the two roots always lie in one block: roots
    anywhere can leave no g + 2k consecutive rows free of Z' at
    saturation, where ``choose_band`` finds no band and ``extract``
    raises InternalInvariantBroken (seeds 151 and 236)."""
    rng = random.Random(f"linked-level:{seed}")
    kind = rng.choice(("coarse", "coarse", "grid-plus-roots", "random-attachment"))
    if kind == "coarse" and rng.random() < 0.2:
        problem = coarse_problem(13, "top-left")
        i, j = 2 * rng.randint(1, 13), 2 * rng.randint(1, 13)
        block = [vertex_id(26, i - a, j - b) for a in (0, 1) for b in (0, 1)]
        pool = block if rng.random() < 0.5 or not roots_anywhere else sorted(problem.host.vertices)
        roots = rng.sample(pool, 2)
        problem = replace(problem, roots=frozenset(roots), k=2)
    elif kind == "coarse":
        problem = coarse_problem(rng.randint(5, 7), rng.choice(sorted(CORNERS)))
    else:
        k = rng.randint(1, 2)
        n, g = (rng.randint(4, 8), 1) if k == 1 else (13, 2)
        problem = generate_instance(InstanceRecipe(kind, n, g, k, rng.randint(0, 99), k + 1))
    assert validate_problem(problem).ok
    return problem, rng


# 30 examples in the default profile, more under a higher-count one
@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=max(30, settings.default.max_examples), deadline=None)
def test_scan_stopped_after_k_plus_1_clear_rows_equals_the_full_scan(seed):
    """On the extraction's own levels, fed its own reductions (on some
    levels past every blocker) and recursing into the B side as it does,
    the scanner given the rows ``extraction._rows_to_scan`` picks (the
    level's first k + 1 full rows) gives the full scan's blocker, or
    None, at every step; the cold per-row ``menger``
    reference agrees at the first scan of each level, at each blocker that
    ends a level and at a few random steps.  A level reduced past its
    blockers ends where the next reduction's edge has both ends in Z:
    contracting it would merge two roots, and ``extract`` never gets
    there, since such an edge makes every full row a blocker."""
    problem, rng = linked_level_case(seed)
    n, k, model = problem.n, problem.k, problem.model
    roots = set(problem.roots)
    pattern = Subgraph(model.pattern, model.pattern.vertices, model.pattern.edge_ids)
    branches = {pv: (br.vertices, br.edge_ids) for pv, br in model.branches.items()}
    images = dict(model.edge_images)
    work = WorkingGraph(problem.host)
    while True:
        rows = _full_rows(n, pattern)
        vertex_sets = {pv: vs for pv, (vs, _es) in branches.items()}
        stopping = _RowScanner(work, vertex_sets, _rows_to_scan(n, k, pattern), k)
        full = _RowScanner(work, vertex_sets, rows, k)
        reductions = _reductions(work, branches, images)
        first, past = True, rng.random() < 0.5  # reduce past every blocker at this level
        while True:
            block = stopping.scan(roots)
            assert block == full.scan(roots)
            reduction = next(reductions, None)
            inside = reduction is not None and set(work.endpoints(reduction[1])) <= roots
            assert block is not None or not inside
            leave = block is not None and (not past or inside)
            if first or leave or rng.random() < 0.002:
                g = work.freeze()
                found = None if block is None else (
                    block.kind, block.row, _separation_from_sides(g, block.sides(work, roots)))
                current = {pv: vs for pv, (vs, _es) in branches.items()}
                assert found == reference_row_scan(g, roots, current, rows, k)
            first = False
            if leave:
                break
            if reduction is None:
                return
            entry = _apply_edge_reduction(work, roots, branches, *reduction)
            for scanner in (stopping, full):
                scanner.feed(entry)
        if block.kind == "strict":
            return
        sides = va, ea, vb, _eb = block.sides(work, roots)
        for e in ea:
            work.delete_edge(e)
        work.vertices -= va - vb
        roots = va & vb
        pattern, branches, images = _derive_subproblem(pattern, branches, images, sides)


def reference_reduction(work, branches, images):
    """The reduction schedule's rule order from scratch: the least plain
    edge still present (in no branch and no image), else the least branch
    loop, else the least branch edge, as ``(rule, edge, branch)``; None
    when no edge is left to reduce."""
    owner = {e: pv for pv, (_vs, es) in branches.items() for e in es}
    image_set = set(images.values())
    plain = [e for e in work.edge_ids if e not in owner and e not in image_set]
    if plain:
        return ("edge-delete", min(plain), None)
    loops = [e for e, (x, y) in zip(owner, map(work.endpoints, owner)) if x == y]
    for rule, edges in (("branch-edge-delete", loops), ("branch-edge-contract", owner)):
        if edges:
            e = min(edges)
            return (rule, e, owner[e])
    return None


# 30 examples in the default profile, more under a higher-count one
@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=max(30, settings.default.max_examples), deadline=None)
def test_reduction_picker_gives_the_reference_reduction_at_every_step(seed):
    """On the extraction's own levels, fed its own reductions (on some
    levels past every blocker, until the next edge has both ends in Z)
    and recursing into the B side as it does, every reduction the
    reduction schedule (``_reductions``) yields equals
    ``reference_reduction`` of the level as it stands."""
    problem, rng = linked_level_case(seed)
    n, k, model = problem.n, problem.k, problem.model
    roots = set(problem.roots)
    pattern = Subgraph(model.pattern, model.pattern.vertices, model.pattern.edge_ids)
    branches = {pv: (br.vertices, br.edge_ids) for pv, br in model.branches.items()}
    images = dict(model.edge_images)
    work = WorkingGraph(problem.host)
    while True:
        vertex_sets = {pv: vs for pv, (vs, _es) in branches.items()}
        scanner = _RowScanner(work, vertex_sets, _rows_to_scan(n, k, pattern), k)
        reductions = _reductions(work, branches, images)
        past = rng.random() < 0.5  # reduce past every blocker at this level
        while True:
            block = scanner.scan(roots)
            reduction = next(reductions, None)
            assert reduction == reference_reduction(work, branches, images)
            inside = reduction is not None and set(work.endpoints(reduction[1])) <= roots
            if block is not None and (not past or inside):
                break
            if reduction is None:
                return
            entry = _apply_edge_reduction(work, roots, branches, *reduction)
            scanner.feed(entry)
        if block.kind == "strict":
            return
        sides = va, ea, vb, _eb = block.sides(work, roots)
        for e in ea:
            work.delete_edge(e)
        work.vertices -= va - vb
        roots = va & vb
        pattern, branches, images = _derive_subproblem(pattern, branches, images, sides)


def plain_edges_dropped(problem, rng):
    """``problem`` with one to four plain host edges (in no branch and no
    edge image) deleted at random, a root's edge half the time."""
    model, host = problem.model, problem.host
    used = set(model.edge_images.values()).union(*(br.edge_ids for br in model.branches.values()))
    plain = sorted(host.edge_ids - used)
    at_roots = sorted({e for z in problem.roots for e in host.incident_edges(z)} - used)
    for _ in range(rng.randint(1, 4)):
        e = rng.choice(at_roots if at_roots and rng.random() < 0.5 else plain)
        if e in host.edge_ids:
            host = host.delete_edge(e)
    branches = {pv: Subgraph(host, br.vertices, br.edge_ids) for pv, br in model.branches.items()}
    model = Pseudomodel(host, model.pattern, branches, model.edge_images)
    return replace(problem, host=host, model=model)


def first_scan_case(seed):
    """A seeded problem that ``validate_problem`` accepts: a coarse model at a
    random side and corner (k = 1) or a grid-plus-roots recipe (k = 1 or 2),
    broken more than half the time by ``plain_edges_dropped``."""
    rng = random.Random(f"first-scan:{seed}")
    if rng.random() < 0.4:
        problem = coarse_problem(rng.randint(5, 7), rng.choice(sorted(CORNERS)))
    else:
        k = rng.randint(1, 2)
        n, g = (rng.randint(4, 8), 1) if k == 1 else (13, 2)
        problem = generate_instance(InstanceRecipe("grid-plus-roots", n, g, k, rng.randint(0, 99), k + 1))
    if rng.random() < 0.6:
        problem = plain_edges_dropped(problem, rng)
    assert validate_problem(problem).ok
    return problem


# 100 examples in the default profile, more under a higher-count one
@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
def test_strict_blocker_comes_only_from_a_first_scan(seed):
    """Every strict blocker an extract meets comes from the first ``scan`` of
    its row scanner: a level reduces only once every row is clear, and no
    reduction of a clear row's graph leaves the row a cut below k.  A run
    is refuted exactly when it meets one."""
    problem = first_scan_case(seed)
    strict = []

    class Recording(_RowScanner):
        def __init__(self, *args):
            super().__init__(*args)
            self.scans = 0

        def scan(self, *args, **kwargs):
            self.scans += 1
            block = super().scan(*args, **kwargs)
            if block is not None and block.kind == "strict":
                strict.append(self.scans)
            return block

    refuted = False
    with mock.patch.object(extraction, "_RowScanner", Recording):
        try:
            extract(problem)
        except HypothesisViolated:
            refuted = True
    assert set(strict) <= {1}
    assert bool(strict) == refuted


def reference_row_cut(g, roots, images, rows, k):
    """The strict row scan spelled out: every row solved from scratch by ``menger``, in order."""
    roots = frozenset(roots)
    for row in rows:
        if any(v not in images for v in row):
            raise MalformedInput("bad row scan", ["a row vertex has no branch"])
        targets = frozenset().union(*(images[v] for v in row))
        if not targets or not targets <= g.vertices:
            raise MalformedInput("bad row scan", ["bad row image"])
        result = menger(g, roots, targets, k)
        if not result.found_paths:
            return RowBlock(result.separation, tuple(row), "strict")
    return None


def strict_scan(g, roots, images, rows, k):
    return find_row_blocking_separation(g, roots, images, rows, k, strict_only=True)


def _row_cut_outcome(scan):
    try:
        block = scan()
    except MalformedInput:
        return "malformed"
    return None if block is None else (tuple(block.row), block.separation)


def random_row_cut_case(seed):
    """A seeded grid-plus-roots or random-attachment host with a few edges
    deleted (root edges most often), its identity row images, and its full
    rows in a shuffled order."""
    rng = random.Random(f"row-cut:{seed}")
    n = rng.randint(3, 7)
    k = rng.randint(1, 3)
    degree = rng.randint(1, min(n - 1, k + 2))  # n - 1 leaves n > k distinct column sets
    columns = _attachment_columns(rng, n, k, degree)
    chords = _chords(rng, n, rng.randint(1, n)) if rng.random() < 0.5 else None
    problem = grid_plus_roots_problem(n, n, k, columns, chords)
    host = problem.host
    for _ in range(rng.randint(0, 4)):
        at_roots = sorted({e for z in problem.roots for e in host.incident_edges(z)})
        pool = at_roots if at_roots and rng.random() < 0.6 else sorted(host.edge_ids)
        if pool:
            host = host.delete_edge(rng.choice(pool))
    images = {v: {v} for v in problem.model.pattern.vertices}
    rows = [row_vertices(n, i) for i in range(1, n + 1)]
    rng.shuffle(rows)
    return host, problem.roots, images, rows[: rng.randint(1, n)], k


def test_row_cut_matches_per_row_cold_reference():
    """Warm-started rows give the row and separation of a cold scan, on
    1,000 seeded instances and on random multigraphs; on the seeded
    instances the full scan gives the cold full verdicts too, many of them
    with the last row blocked as well as the row returned."""
    failed = reducible = last_too = 0
    for seed in range(1000):
        host, roots, images, rows, k = random_row_cut_case(seed)
        found = _row_cut_outcome(lambda: strict_scan(host, roots, images, rows, k))
        assert found == _row_cut_outcome(lambda: reference_row_cut(host, roots, images, rows, k)), seed
        failed += found is not None
        block = find_row_blocking_separation(host, roots, images, rows, k)
        full = None if block is None else (block.kind, block.row, block.separation)
        assert full == reference_row_scan(host, roots, images, rows, k), seed
        if full is not None:
            reducible += full[0] == "reducible"
            last_too += full[1] != tuple(rows[-1]) and bool(
                reference_row_scan(host, roots, images, rows[-1:], k))
    assert 100 < failed < 900  # both verdicts are well represented
    assert reducible > 100 and last_too > 100
    for seed in range(300):
        host, roots, model, rows, _ = random_scan_case(seed)
        images = {v: br.vertices for v, br in model.branches.items()}
        k = random.Random(seed).randint(1, 3)
        found = _row_cut_outcome(lambda: strict_scan(host, roots, images, rows, k))
        assert found == _row_cut_outcome(lambda: reference_row_cut(host, roots, images, rows, k)), seed


def split_grid_case(bridges=()):
    """Grid-plus-roots 5/5/2, and a copy with the edges between rows 3 and 4
    deleted except in the ``bridges`` columns (rows 4 and 5 then fail strictly
    when there is at most one), its identity row images and its rows top to
    bottom."""
    n, k = 5, 2
    problem = grid_plus_roots_problem(n, n, k, [(1, 2), (4, 5)])
    host, roots = problem.host, problem.roots
    cut_host = host
    for j in sorted(set(range(1, n + 1)) - set(bridges)):
        cut_host = cut_host.delete_edge(next(
            e for e in cut_host.incident_edges(2 * n + j)
            if set(cut_host.endpoints(e)) == {2 * n + j, 3 * n + j}
        ))
    images = {v: {v} for v in problem.model.pattern.vertices}
    return host, cut_host, roots, images, [row_vertices(n, i) for i in range(1, n + 1)], k


@pytest.mark.parametrize("strict_only", [False, True])
def test_row_cut_raises_at_a_malformed_row_only_when_it_gets_there(strict_only):
    """A malformed row at any position raises only when no row before it
    blocks; the rows are checked before the scan, which then runs on the
    rows before the first bad one."""
    host, cut_host, roots, images, rows, k = split_grid_case()
    n = len(rows)
    images[99] = {10**6}  # a branch outside the host
    images[97] = set()  # an empty branch
    no_branch = (98,)  # a row vertex without a branch
    first = 3 if strict_only else 0  # the first row the cut host blocks

    def scan(g, order):
        return find_row_blocking_separation(g, roots, images, order, k, strict_only)

    def reference(g, order):
        if strict_only:
            return reference_row_cut(g, roots, images, order, k)
        found = reference_row_scan(g, roots, images, order, k)
        return None if found is None else RowBlock(found[2], found[1], found[0])

    for bad in ((99,), (97,), no_branch):
        for g, body, fails in ((host, rows, False), (cut_host, rows, True)):
            for at in range(len(body) + 1):
                order = body[:at] + [bad] + body[at:]
                found = _row_cut_outcome(lambda: scan(g, order))
                expected = _row_cut_outcome(lambda: reference(g, order))
                assert found == expected
                if not fails or at <= first:
                    assert found == "malformed"  # no failing row comes before it
                else:
                    assert found[0] == row_vertices(n, first + 1)  # the failing row comes first
    # the last row is malformed while a row before it fails
    order = [rows[0], rows[4], (99,)]
    expected = rows[4] if strict_only else rows[0]
    assert _row_cut_outcome(lambda: scan(cut_host, order))[0] == expected
    # a second malformed row after the first is never read
    with pytest.raises(MalformedInput) as exc:
        scan(host, [rows[0], no_branch, (99,)])
    assert exc.value.problems == ["pattern vertex 98 of row [98] has no branch"]


@pytest.mark.parametrize("strict_only", [False, True])
def test_row_scan_of_no_rows_finds_nothing(strict_only):
    host, _cut_host, roots, images, _rows, k = split_grid_case()
    assert find_row_blocking_separation(host, roots, images, [], k, strict_only) is None
    scanner = _RowScanner(WorkingGraph(host), images, [], k)
    assert scanner.scan(roots, strict_only) is None
    assert scanner.cold == scanner.reused == 0


@pytest.mark.parametrize("strict_only", [False, True])
def test_row_scan_returns_a_middle_blocker_before_the_blocked_last_row(strict_only):
    """The last row is solved right after the first, yet a blocked row
    between them is still the one returned."""
    _host, cut_host, roots, images, rows, k = split_grid_case(bridges=(1,))
    for order, first in (([rows[0], rows[3], rows[4]], rows[3]),
                         ([rows[0], rows[1], rows[4], rows[3]], rows[4])):
        block = find_row_blocking_separation(cut_host, roots, images, order, k, strict_only)
        expected = reference_row_scan(cut_host, roots, images, order, k)
        assert expected == ("strict", first, reference_row_cut(cut_host, roots, images, order, k).separation)
        assert (block.kind, block.row, block.separation) == expected


@pytest.mark.parametrize("strict_only", [False, True])
def test_row_scan_raises_at_a_malformed_last_row_after_the_rows_before_it(strict_only):
    host, cut_host, roots, images, rows, k = split_grid_case(bridges=(1,))
    images[99] = {10**6}  # a branch outside the host
    order = [*rows, (99,)]
    with pytest.raises(MalformedInput) as exc:
        find_row_blocking_separation(host, roots, images, order, k, strict_only)
    assert exc.value.problems == ["the image of row [99] is empty or not in the graph"]
    # the rows before it are scanned first and still stop at the first failing row
    block = find_row_blocking_separation(cut_host, roots, images, order, k, strict_only)
    expected = reference_row_scan(cut_host, roots, images, order[:-1], k)
    assert expected[:2] == ("strict", rows[3])
    assert (block.kind, block.row, block.separation) == expected


def two_point_separations():
    """All four order-0 orientations of the 2-vertex edgeless graph."""
    g = Graph([1, 2], [])
    sg = lambda vs: Subgraph(g, vs)
    return g, [
        Separation(sg(set()), sg({1, 2})),
        Separation(sg({1, 2}), sg(set())),
        Separation(sg({1}), sg({2})),
        Separation(sg({2}), sg({1})),
    ]


def test_tangle_axioms_accept_valid_tangle():
    g, seps = two_point_separations()
    t = Tangle(host=g, order=1, members=(seps[0], seps[2]))
    assert check_tangle_axioms(t, seps).ok


def test_tangle_axioms_reject_violations():
    g, seps = two_point_separations()

    full = Tangle(host=g, order=1, members=(seps[1], seps[2]))
    assert "tangle-avoid-full" in check_tangle_axioms(full, seps).codes()

    missing = Tangle(host=g, order=1, members=(seps[0],))
    assert "tangle-completeness" in check_tangle_axioms(missing, seps).codes()

    covering = Tangle(host=g, order=1, members=(seps[0], seps[2], seps[3]))
    assert "tangle-cover" in check_tangle_axioms(covering, seps).codes()

    other = grid_graph(2)
    alien = Separation(Subgraph(other, other.vertices, other.edge_ids), Subgraph(other, ()))
    bad_host = Tangle(host=g, order=1, members=(alien,))
    assert "tangle-member-host" in check_tangle_axioms(bad_host, seps).codes()

    s1 = Separation(Subgraph(g, {1, 2}), Subgraph(g, {2}))  # separator {2}
    high = Tangle(host=g, order=1, members=(s1,))
    assert "tangle-member-order" in check_tangle_axioms(high, seps).codes()

    with pytest.raises(ValueError):
        Tangle(host=g, order=0, members=())


def test_grid_tangle_member_orients_by_rows():
    g3 = grid_graph(3)
    m = identity_grid_model(3)
    res = menger(g3, {1, 3}, {7, 9}, 3)
    s = res.separation  # order 2, A holds everything, B just the cut
    member = grid_tangle_member(m, s)
    assert member in (s, s.flipped())
    rows = [set(row_vertices(3, i)) for i in (1, 2, 3)]
    assert not any(r <= member.a.vertices for r in rows)
    assert any(r <= member.b.vertices for r in rows)


def test_grid_tangle_member_rejections():
    m = identity_grid_model(3)
    g3 = m.host
    s_small = Separation(
        Subgraph(g3, {1, 2}, {1}),
        Subgraph(g3, g3.vertices, g3.edge_ids - {1}),
    )
    assert s_small.order == 2
    member = grid_tangle_member(m, s_small)
    assert member.a.vertices == frozenset({1, 2})

    # order not below the grid side
    big = menger(g3, {1, 3, 7}, {2, 6, 8}, 4).separation
    if big.order >= 3:
        with pytest.raises(ValueError):
            grid_tangle_member(m, big)

    # pattern is not a square grid
    pat = Graph([1, 2], [(1, 1, 2)])
    notgrid = Pseudomodel(g3, pat, {1: Subgraph(g3, {1}), 2: Subgraph(g3, {2})}, {1: 1})
    with pytest.raises(ValueError):
        grid_tangle_member(notgrid, s_small)

    # overlapping branches make both orientations rowless: ambiguous
    g2 = grid_graph(2)
    degenerate = Pseudomodel(
        g2, g2, {v: Subgraph(g2, {1}) for v in g2.vertices}, {e: e for e in g2.edge_ids}
    )
    amb = Separation(Subgraph(g2, {1}), Subgraph(g2, g2.vertices, g2.edge_ids))
    with pytest.raises(ValueError):
        grid_tangle_member(degenerate, amb)
