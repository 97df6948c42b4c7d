"""The row scan against networkx vertex connectivity on graphs of hundreds of vertices.

The cold reference scans in ``test_separations`` solve every row with
``menger``; this cross-check takes the cut sizes from networkx instead,
and a reducible blocker's B side from networkx's connected components,
at the sizes the extraction runs on, and checks that a scanner kept
across reductions answers like a fresh scan there too, with every row
state it keeps a proof in the reduced graph.  networkx is a
test-only dependency, so the module is skipped where it is not installed.
"""
import random

import pytest

nx = pytest.importorskip("networkx")

from gridroots import Graph, find_row_blocking_separation, reachable_from  # noqa: E402
from gridroots.extraction import _apply_edge_reduction  # noqa: E402
from gridroots.graph import WorkingGraph  # noqa: E402
from gridroots.separations import _FREE, _RowScanner  # noqa: E402
from test_separations import assert_states_are_proofs  # noqa: E402


def random_case(seed):
    """A seeded multigraph of 200-400 vertices, 1-4 roots and 3-6 rows
    with pairwise disjoint images of 1-9 vertices.

    Odd seeds give a dense graph around a Hamiltonian cycle, where most
    rows are no blocker and a kept scanner reuses their verdicts; even
    seeds a sparse one, where rows block at every order.
    """
    rng = random.Random(f"row-scan-oracle:{seed}")
    nv = rng.randint(200, 400)
    verts = list(range(1, nv + 1))
    edges = []
    dense = seed % 2
    if dense:
        cycle = rng.sample(verts, nv)
        edges = [(i + 1, u, v) for i, (u, v) in enumerate(zip(cycle, cycle[1:] + cycle[:1]))]
    for eid in range(len(edges) + 1, len(edges) + rng.randint(nv, (3 + dense) * nv) + 1):
        u = rng.choice(verts)
        v = u if rng.random() < 0.02 else rng.choice(verts)
        edges.append((eid, u, v))
    for _ in range(rng.randint(0, 10)):  # parallel copies
        _, u, v = rng.choice(edges)
        edges.append((len(edges) + 1, u, v))
    roots = frozenset(rng.sample(verts, rng.randint(1, 4)))
    pool = rng.sample(verts, 60)
    images, rows = {}, []
    for _ in range(rng.randint(3, 6)):
        row = []
        for _ in range(rng.randint(1, 3)):
            pv = len(images) + 1
            images[pv] = {pool.pop() for _ in range(rng.randint(1 + dense, 3 + dense))}
            row.append(pv)
        rows.append(tuple(row))
    return Graph(verts, edges), roots, images, rows


def connectivity(g, roots, image):
    """Size of a minimum vertex cut between the roots and the image, any vertex cuttable."""
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from((u, v) for _e, u, v in g.edges() if u != v)
    h.add_edges_from(("s", z) for z in roots)
    h.add_edges_from((t, "t") for t in image)
    return len(nx.minimum_node_cut(h, "s", "t"))


def assert_reducible_b_side_matches_networkx(g, roots, images, block):
    """A reducible blocker's cut has k vertices, k being the connectivity,
    and meets every path from the roots to the row's image; its B-only
    part is the union of the components of g minus the cut that meet the
    image and hold no root, and B's edges are those with a B-only end."""
    sep = block.separation
    cut = sep.separator
    image = set().union(*(images[pv] for pv in block.row))
    assert len(cut) == len(roots) == connectivity(g, roots, image)
    assert not reachable_from(g, sorted(roots), cut) & image
    h = nx.Graph()
    h.add_nodes_from(g.vertices - cut)
    h.add_edges_from((u, v) for _e, u, v in g.edges() if u not in cut and v not in cut)
    b_only = set().union(*(c for c in nx.connected_components(h) if c & image and not c & roots))
    assert sep.b.vertices == cut | b_only
    assert sep.b.edge_ids == {e for e, u, v in g.edges() if u in b_only or v in b_only}


def test_reducible_first_blocks_match_networkx_components():
    reducible = 0
    for seed in range(12):
        g, roots, images, rows = random_case(seed)
        block = find_row_blocking_separation(g, roots, images, rows, len(roots))
        if block is not None and block.kind == "reducible":
            assert_reducible_b_side_matches_networkx(g, roots, images, block)
            reducible += 1
    assert reducible  # 7 of the 12 first blockers are reducible


@pytest.mark.parametrize("seed", range(12))
def test_strict_row_scan_matches_networkx_min_vertex_cut(seed):
    g, roots, images, rows = random_case(seed)
    k = len(roots)
    block = find_row_blocking_separation(g, roots, images, rows, k, strict_only=True)
    for row in rows:
        image = set().union(*(images[pv] for pv in row))
        best = connectivity(g, roots, image)
        if best >= k:
            assert block is None or block.row != row
            continue
        assert block is not None and block.row == row and block.kind == "strict"
        sep = block.separation
        assert sep.order == best
        assert roots <= sep.a.vertices and image <= sep.b.vertices
        assert not reachable_from(g, sorted(roots), sep.separator) & image
        break
    else:
        assert block is None


def _next_edge(rng, scanner, work, roots):
    """An edge between vertices some kept row flow uses, a root's edge, or any edge."""
    pick = rng.random()
    if pick < 0.4:
        order = scanner.net.vertices
        used = {order[i] for s in scanner.states if s is not None
                for i, p in enumerate(s.prev) if p != _FREE}
        on_flow = sorted({e for x in used for e in work.incident_edges(x)
                          if set(work.endpoints(e)) <= used})
        if on_flow:
            return rng.choice(on_flow)
    if pick < 0.7:
        at_roots = sorted({e for z in roots for e in work.incident_edges(z)})
        if at_roots:
            return rng.choice(at_roots)
    return rng.choice(sorted(work.edge_ids))


@pytest.mark.parametrize("seed", range(12))
def test_scanner_fed_reductions_answers_like_a_fresh_scan(seed):
    g, roots, images, rows = random_case(seed)
    rng = random.Random(f"row-scan-oracle-feed:{seed}")
    k = len(roots)
    roots = set(roots)
    work = WorkingGraph(g)
    scanner = _RowScanner(work, {pv: frozenset(vs) for pv, vs in images.items()}, rows, k)
    for _ in range(rng.randint(5, 20)):
        frozen = work.freeze()
        block = scanner.scan(roots)
        fresh = find_row_blocking_separation(frozen, roots, images, rows, k)
        if fresh is None:
            assert block is None
        else:
            assert (block.kind, block.row) == (fresh.kind, fresh.row)
            assert block.sides(work, roots) == (
                fresh.separation.a.vertices, fresh.separation.a.edge_ids,
                fresh.separation.b.vertices, fresh.separation.b.edge_ids,
            )
            if fresh.kind == "reducible":
                assert_reducible_b_side_matches_networkx(frozen, roots, images, fresh)
        eid = _next_edge(rng, scanner, work, roots)
        u, v = work.endpoints(eid)
        rule = "edge-delete" if u == v or rng.random() < 0.5 else "branch-edge-contract"
        scanner.feed(_apply_edge_reduction(work, roots, {}, rule, eid, None))
        if rule == "branch-edge-contract":
            for image in images.values():
                if v in image:
                    image.discard(v)
                    image.add(u)
        assert_states_are_proofs(scanner, work, roots, images, k)
