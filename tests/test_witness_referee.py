"""Grid witnesses checked by networkx in the input host.

``extract`` checks its own witness (``check_augmentation``) before it
returns.  This referee checks the delivered base and augmented models
again with none of the package's graph code: the g x g grid is built
here from coordinates, and every branch and edge image is read against
the input host as a networkx multigraph.  In each model every branch is
a connected subgraph of the host, the branches are disjoint, and each
grid edge's image is a host edge joining its ends' branches; the first
k first-column augmented branches hold the k roots, one each, and no
base branch meets a root.

The inputs are every case of the byte-identity corpus
(``tests/corpus.py``) that ``extract`` answers with a witness.  networkx
is a test-only dependency, so the module is skipped where it is not
installed.
"""
import pytest

nx = pytest.importorskip("networkx")

from gridroots import HypothesisViolated, MalformedInput, extract  # noqa: E402
from corpus import build, case_ids  # noqa: E402


def grid_edges(g):
    """The g x g grid's edges as sets of row-major vertex ids, (a, b) -> (a-1)g + b."""
    def vid(a, b):
        return (a - 1) * g + b
    return ({frozenset((vid(a, b), vid(a, b + 1))) for a in range(1, g + 1) for b in range(1, g)}
            | {frozenset((vid(a, b), vid(a + 1, b))) for a in range(1, g) for b in range(1, g + 1)})


def referee_model(host, model, g):
    """Assert that ``model`` is a g x g grid model in the networkx multigraph ``host``."""
    ends = {e: (u, v) for u, v, e in host.edges(keys=True)}
    pattern = {e: (u, v) for e, u, v in model.pattern.edges()}
    assert set(model.pattern.vertices) == set(model.branches) == set(range(1, g * g + 1))
    grid = grid_edges(g)
    assert len(pattern) == len(grid) and set(map(frozenset, pattern.values())) == grid
    nodes, seen = set(host.nodes), set()
    for pv, branch in model.branches.items():
        vertices = set(branch.vertices)
        assert vertices and vertices <= nodes, f"branch {pv} leaves the host"
        assert not vertices & seen, f"branch {pv} meets another branch"
        seen |= vertices
        piece = nx.Graph()
        piece.add_nodes_from(vertices)
        for e in branch.edge_ids:
            assert e in ends and set(ends[e]) <= vertices, f"edge {e} of branch {pv} is not a branch edge"
            piece.add_edge(*ends[e])
        assert nx.is_connected(piece), f"branch {pv} is not connected"
    for pe, (u, v) in pattern.items():
        image = model.edge_images[pe]
        x, y = ends[image]
        bu, bv = model.branches[u].vertices, model.branches[v].vertices
        assert (x in bu and y in bv) or (y in bu and x in bv), f"image {image} of {pe} misses its ends"


def referee(problem, result):
    """Assert that ``result``'s witness is a rooted g x g grid model in ``problem``'s host."""
    host = nx.MultiGraph()
    host.add_nodes_from(problem.host.vertices)
    host.add_edges_from((u, v, e) for e, u, v in problem.host.edges())
    g, k, roots = problem.g, problem.k, problem.roots
    witness = result.witness
    for model in (witness.base, witness.augmented):
        referee_model(host, model, g)
    for branch in witness.base.branches.values():
        assert not branch.vertices & roots, "a base branch meets a root"
    held = [witness.augmented.branches[(a - 1) * g + 1].vertices & roots for a in range(1, k + 1)]
    assert all(len(h) == 1 for h in held) and set().union(*held) == roots, f"roots held as {held}"


def test_every_answered_corpus_case_passes_the_referee():
    answered = 0
    for case in case_ids():
        problem = build(case)
        try:
            result = extract(problem)
        except (HypothesisViolated, MalformedInput):  # no witness
            continue
        referee(problem, result)
        answered += 1
    assert answered == 80
