"""menger against networkx vertex connectivity on graphs of hundreds of vertices.

The brute-force oracles stop near 12 vertices; this cross-check covers the
flow at the sizes the extraction runs on.  networkx is a test-only
dependency, so the module is skipped where it is not installed.
"""
import random

import pytest

nx = pytest.importorskip("networkx")

from gridroots import Graph, menger, reachable_from  # noqa: E402


def random_case(seed):
    """A seeded sparse multigraph of 200-400 vertices with query sets."""
    rng = random.Random(f"menger-oracle:{seed}")
    nv = rng.randint(200, 400)
    verts = list(range(1, nv + 1))
    edges = []
    for eid in range(1, rng.randint(nv, 2 * nv) + 1):
        u = rng.choice(verts)
        v = u if rng.random() < 0.02 else rng.choice(verts)
        edges.append((eid, u, v))
    for _ in range(rng.randint(0, 10)):  # parallel copies
        _, u, v = rng.choice(edges)
        edges.append((len(edges) + 1, u, v))
    picked = rng.sample(verts, 30)
    sources = frozenset(picked[: rng.randint(1, 10)])
    targets = frozenset(picked[10 : 10 + rng.randint(1, 10)])
    if rng.random() < 0.3:  # a source that is also a target
        targets |= {min(sources)}
    forbidden = frozenset(picked[20 : 20 + rng.randint(0, 10)])
    return Graph(verts, edges), sources, targets, forbidden


def connectivity(g, sources, targets, forbidden):
    """Size of a minimum vertex cut between a super-source and a super-sink."""
    h = nx.Graph()
    h.add_nodes_from(g.vertices - forbidden)
    h.add_edges_from(
        (u, v) for _e, u, v in g.edges() if u != v and not {u, v} & forbidden
    )
    h.add_edges_from(("s", z) for z in sources)
    h.add_edges_from((t, "t") for t in targets)
    return len(nx.minimum_node_cut(h, "s", "t"))


@pytest.mark.parametrize("seed", range(12))
def test_menger_matches_networkx_min_vertex_cut(seed):
    g, sources, targets, forbidden = random_case(seed)
    best = connectivity(g, sources, targets, forbidden)
    for k in sorted({max(best, 1), best + 1}):
        res = menger(g, sources, targets, k, forbidden)
        if k <= best:
            assert res.found_paths and len(res.paths) == k
            used = set()
            for path in res.paths:
                assert path[0] in sources and path[-1] in targets
                assert not set(path[1:]) & sources and not set(path[:-1]) & targets
                assert not set(path) & (used | forbidden)
                used |= set(path)
                for u, v in zip(path, path[1:]):
                    assert v in g.neighbors(u)
        else:
            assert not res.found_paths
            assert len(res.cut) == best
            reach = reachable_from(g, sorted(sources), res.cut | forbidden)
            assert not reach & targets
