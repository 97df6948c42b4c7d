"""End-to-end runs through every reduction kind, pinned by digest.

The coarse-model instances (the n x n grid modelled in the 2n x 2n grid
by 2 x 2 blocks, rooted at a host corner) are the smallest inputs whose
runs delete plain edges, delete branch edges, contract branch edges and
recurse into the B side of a reducible separation.  Each run is replayed
and its canonical bundle hashed, so a change to reductions, journal
unwinding or splicing that alters any delivered byte fails here.  Three
seeded two-root recipe runs are pinned the same way, so the splice and
band steps graft more than one path.

The tests at the end certify a refutation met below a recursion in
the input host.
"""
import hashlib

import pytest

from gridroots import (
    ExtractionProblem,
    Graph,
    HypothesisViolated,
    InstanceRecipe,
    Pseudomodel,
    Subgraph,
    break_instance,
    canonical_json,
    check_hypothesis,
    extract,
    generate_instance,
    grid_edge_id,
    grid_graph,
    image_of_vertices,
    model_to_dict,
    replay,
    result_to_dict,
    trace_to_jsonl,
    validate_problem,
    vertex_coord,
    vertex_id,
)
from gridroots import extraction

CORNERS = {
    "top-left": lambda side: (1, 1),
    "top-right": lambda side: (1, side),
    "bottom-left": lambda side: (side, 1),
    "bottom-right": lambda side: (side, side),
}


def coarse_problem(n: int, corner: str) -> ExtractionProblem:
    """Pattern vertex (i, j) -> the 4-cycle on host rows 2i-1, 2i and columns 2j-1, 2j.

    Of the two host edges joining adjacent blocks, the one in the upper
    row (horizontal) or left column (vertical) is the edge image; the
    other stays a plain host edge.  g = 2, k = 1.
    """
    side = 2 * n
    host = grid_graph(side)
    pattern = grid_graph(n)

    def hv(i, j):
        return vertex_id(side, i, j)

    def he(a, b):
        return grid_edge_id(side, hv(*a), hv(*b))

    branches = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            t, l = 2 * i - 1, 2 * j - 1
            cells = [(t, l), (t, l + 1), (t + 1, l), (t + 1, l + 1)]
            edges = [he(cells[0], cells[1]), he(cells[2], cells[3]),
                     he(cells[0], cells[2]), he(cells[1], cells[3])]
            branches[vertex_id(n, i, j)] = Subgraph(host, [hv(*c) for c in cells], edges)
    images = {}
    for e, u, v in pattern.edges():
        (i, j), (i2, _) = vertex_coord(n, u), vertex_coord(n, v)
        if i2 == i:
            images[e] = he((2 * i - 1, 2 * j), (2 * i - 1, 2 * j + 1))
        else:
            images[e] = he((2 * i, 2 * j - 1), (2 * i + 1, 2 * j - 1))
    root = hv(*CORNERS[corner](side))
    model = Pseudomodel(host, pattern, branches, images)
    return ExtractionProblem(host, frozenset({root}), model, n, 2, 1)


def pendant_roots_problem() -> ExtractionProblem:
    """The 13 x 13 grid modelled by itself, with two pendant roots hung on
    cell (1, 5): root 170 by edge 313, inside that cell's branch
    ``{5, 170}``, and root 171 by the plain edge 314.  g = 2, k = 2.

    Row 1 blocks reducibly at depth 0 with cut ``{5, 170}``, and the
    sub-level, which has lost edge 313 (it lies inside the cut), finds
    row 2 blocked strictly below k: a refutation met below a recursion.
    """
    grid = grid_graph(13)
    host = Graph(sorted(grid.vertices) + [170, 171],
                 list(grid.edges()) + [(313, 5, 170), (314, 5, 171)])
    branches = {pv: Subgraph(host, [pv]) for pv in grid.vertices}
    branches[5] = Subgraph(host, [5, 170], [313])
    model = Pseudomodel(host, grid, branches, {e: e for e in grid.edge_ids})
    return ExtractionProblem(host, frozenset({170, 171}), model, 13, 2, 2)


def bundle_digest(res) -> str:
    w = res.witness
    bundle = {
        "result": result_to_dict(res),
        "base": model_to_dict(w.base, res.problem.g),
        "augmented": model_to_dict(w.augmented, res.problem.g),
        "trace": trace_to_jsonl(res.trace),
    }
    return hashlib.sha256(canonical_json(bundle).encode()).hexdigest()


CASES = {
    (5, "top-left"):
        "ead183e1c4c327cc376893d79dc6e98f39f89e3368ed7b40f71d76e92b7ba6c7",
    (5, "top-right"):
        "b87bf50e1f1ab165d9d419cd9f36bb8895a029aa90db5cd4eee1db1394c94d02",
    (5, "bottom-left"):
        "8c8c8c6c04201dbc67b2da06d2838f23086e30a1a6b703f25c574ac236f76baa",
    (5, "bottom-right"):
        "4dd4a58c30911921ef935fc933eebdd20e610c8b8c0b9afbe5d566deedab2d82",
    (7, "top-left"):
        "2ae04e0491667ea74978dd35fba3fd83507fe276c1516f96b2d36737c8acf466",
    (7, "top-right"):
        "69694726c4bda730b7bb8888c2f3c9fa941093503816b49d83d76ff61cb3eaca",
    (7, "bottom-left"):
        "952d0a14c83d51ec9c4fabf5f334bd75c7c328fca4efd7b723aff4288553e001",
    (7, "bottom-right"):
        "04bbb5e76279ec172ee608e7ceebb82a3977a17c5ab563b9ea5bc0706392d47e",
    (9, "top-left"):
        "b55c283d296c9a1fa980b9b07599ea60d67c22897c26464b153f7a978f81d547",
    (9, "top-right"):
        "7354f73e1524a270d8fb73dfb3d49852d4805dc2799b85c02f84487084c8ad1d",
    (9, "bottom-left"):
        "8cbac0369b5bbc136e4ea6cb4604ea8398ade5b7b97fdbc89dc0bbb3585debac",
    (9, "bottom-right"):
        "662852557d4618b402b89c15cd10a2a84f1aa4479449fe4d86c5dfb2dec17ff9",
}


@pytest.mark.parametrize("n,corner", sorted(CASES))
def test_coarse_run_reaches_every_reduction_and_replays(n, corner):
    problem = coarse_problem(n, corner)
    assert validate_problem(problem).ok
    assert check_hypothesis(problem).holds
    res = extract(problem)
    kinds = {record["kind"] for record in res.trace}
    assert {"edge-delete", "branch-edge-delete", "branch-edge-contract",
            "separation-recursion"} <= kinds
    again = replay(problem, res.trace)
    assert again.trace == res.trace
    assert result_to_dict(again) == result_to_dict(res)
    assert bundle_digest(again) == bundle_digest(res) == CASES[(n, corner)]


@pytest.mark.parametrize("corner", sorted(CORNERS))
def test_extraction_does_not_depend_on_branch_set_order(corner):
    # At n = 8 the host side is 16, so each block's ids v, v + 1, v + 16 and
    # v + 17 collide in a set's table, and a set iterates in insertion order.
    problem = coarse_problem(8, corner)
    model, host = problem.model, problem.host
    reordered = {
        pv: Subgraph(host, sorted(br.vertices, reverse=True), sorted(br.edge_ids, reverse=True))
        for pv, br in model.branches.items()
    }
    assert all(list(reordered[pv].vertices) != list(br.vertices) for pv, br in model.branches.items())
    twin = ExtractionProblem(
        host, problem.roots, Pseudomodel(host, model.pattern, reordered, model.edge_images),
        problem.n, problem.g, problem.k,
    )
    assert bundle_digest(extract(twin)) == bundle_digest(extract(problem))


# Recipe runs with k = 2 roots, so every splice and band step grafts two
# paths: (kind, n, g, k, seed, degree) -> (recursions, bundle sha256).
RECIPE_CASES = {
    ("grid-plus-roots", 13, 2, 2, 5, 3):
        (2, "322e091508827ddb2bb7ec4dad77b30daf33f77c9e03a21801ebad6b0712b1c1"),
    ("random-attachment", 13, 2, 2, 0, 3):
        (2, "9b11eb8ed2a0df0b69d754a1ccead224c3bf6e43787df287a757dcaf01548f66"),
    ("grid-plus-roots", 21, 3, 2, 4, 3):
        (3, "b4dfb3196f89eaa31ec1473b27dfa14e07da045b5ffe60d98357bf69d11bce48"),
}


@pytest.mark.parametrize("recipe", sorted(RECIPE_CASES))
def test_recipe_run_with_several_roots_replays_to_pinned_bytes(recipe):
    problem = generate_instance(InstanceRecipe(*recipe))
    res = extract(problem)
    recursions, digest = RECIPE_CASES[recipe]
    assert sum(r["kind"] == "separation-recursion" for r in res.trace) == recursions
    again = replay(problem, res.trace)
    assert bundle_digest(again) == bundle_digest(res) == digest


def test_row_scanner_reuses_most_row_verdicts(monkeypatch):
    """After a level's first scan, at most 10% of row evaluations are cold."""
    scanners = []

    class Recording(extraction._RowScanner):
        def __init__(self, *args):
            super().__init__(*args)
            self.first = None
            scanners.append(self)

        def scan(self, *args):
            block = super().scan(*args)
            if self.first is None:
                self.first = self.cold
            return block

    monkeypatch.setattr(extraction, "_RowScanner", Recording)
    extract(coarse_problem(7, "top-left"))
    cold = sum(s.cold - s.first for s in scanners)
    reused = sum(s.reused for s in scanners)
    assert reused > 0
    assert cold <= 0.10 * (cold + reused)


# -- refutations certify in the input host -----------------------------------


def test_refutation_below_a_recursion_certifies_in_the_input_host(monkeypatch):
    """A strict blocker met below a recursion is certified by a strict scan
    of its row in the input host.  Every run level is moved one level down,
    so the refutation this broken instance meets at its first scan takes
    that path: it reports depth 1, and its certificate is a separation of
    the input host of order below k, with the roots in A and the input
    model's image of the row in B, the one the depth-0 run delivers."""
    problem = break_instance(
        generate_instance(InstanceRecipe("grid-plus-roots", 13, 2, 2, 5, 3)), "detach", 5
    )
    with pytest.raises(HypothesisViolated) as top:
        extract(problem)
    run = extraction._Runner.run

    def one_level_down(self, work, roots, pattern, branches, images, depth):
        return run(self, work, roots, pattern, branches, images, depth + 1)

    monkeypatch.setattr(extraction._Runner, "run", one_level_down)
    with pytest.raises(HypothesisViolated) as below:
        extract(problem)
    cert, sep = below.value, below.value.separation
    assert (top.value.depth, cert.depth) == (0, 1)
    assert sep.host == problem.host
    assert sep.order < problem.k
    assert problem.roots <= sep.a.vertices
    assert image_of_vertices(problem.model, cert.row) <= sep.b.vertices
    assert (cert.row, sep) == (top.value.row, top.value.separation)


def test_refutation_met_below_a_recursion_unaided():
    """``pendant_roots_problem`` is refuted at depth 1 with no test hook:
    depth 0 recurses on row 1's reducible blocker, and the sub-level's
    first scan finds row 2 strict.  The certificate is the input host's
    own cut for that row, the one ``check_hypothesis`` returns."""
    problem = pendant_roots_problem()
    assert validate_problem(problem).ok
    verdict = check_hypothesis(problem)
    with pytest.raises(HypothesisViolated) as raised:
        extract(problem)
    cert, sep = raised.value, raised.value.separation
    (record,) = cert.trace
    assert (record["kind"], record["depth"], record["row"]) == ("separation-recursion", 0, list(range(1, 14)))
    assert record["separator"] == [5, 170]
    assert set(record["aVertices"]) - set(record["bVertices"]) == {171}
    assert 313 in record["aEdges"] and 313 not in record["bEdges"]
    assert cert.depth == 1
    assert cert.row == tuple(range(14, 27))
    assert sep.host == problem.host
    assert sep.order == 1
    assert problem.roots <= sep.a.vertices
    assert image_of_vertices(problem.model, cert.row) <= sep.b.vertices
    assert (verdict.holds, verdict.row, verdict.separation) == (False, cert.row, sep)
