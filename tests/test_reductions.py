"""End-to-end runs through every reduction kind, pinned by digest.

The coarse-model instances (the n x n grid modelled in the 2n x 2n grid
by 2 x 2 blocks, rooted at a host corner) are the smallest inputs whose
runs delete plain edges, delete branch edges, contract branch edges and
recurse into the B side of a reducible separation.  Each run is replayed
and its canonical bundle hashed, so a change to reductions, journal
unwinding or splicing that alters any delivered byte fails here.  Three
seeded two-root recipe runs are pinned the same way, so the splice and
band steps graft more than one path.

The lifting tests below pull a certificate back through one journal
entry or one recursion frame on hosts of at most eight vertices.
"""
import hashlib

import pytest

from gridroots import (
    ExtractionProblem,
    Graph,
    InstanceRecipe,
    InternalInvariantBroken,
    Pseudomodel,
    Separation,
    Subgraph,
    canonical_json,
    check_hypothesis,
    extract,
    generate_instance,
    grid_edge_id,
    grid_graph,
    model_to_dict,
    replay,
    result_to_dict,
    trace_to_jsonl,
    validate_problem,
    vertex_coord,
    vertex_id,
)
from gridroots import extraction
from gridroots.extraction import (
    _lift_certificate_through_frame,
    _lift_certificate_through_journal,
)
from gridroots.graph import WorkingGraph

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


# -- certificate lifting ----------------------------------------------------


def path5(*extra):
    """The path 1-2-3-4-5 (edges 1..4) plus extra ``(eid, u, v)`` edges."""
    return Graph(range(1, 6), [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 5), *extra])


def step(host, kind, eid):
    """Apply one journal step to a working copy; the smaller host and the entry."""
    work = WorkingGraph(host)
    u, v = work.endpoints(eid)
    (work.delete_edge if kind == "delete" else work.contract_edge)(eid)
    return work.freeze(), [(kind, eid, u, v)]


def lifted(host, sides, journal, k, roots=frozenset({1})):
    """Lift ``sides`` and check the result is a separation of ``host`` with the roots on A."""
    va, ea, vb, eb = _lift_certificate_through_journal(sides, journal, k)
    sep = Separation(Subgraph(host, va, ea), Subgraph(host, vb, eb))
    assert roots <= sep.a.vertices
    return sep


def test_lift_deletion_inside_a():
    host = path5((5, 1, 3))
    small, journal = step(host, "delete", 5)
    sep = lifted(host, ({1, 2, 3}, {1, 2}, {3, 4, 5}, {3, 4}), journal, 2)
    assert sep.order == 1
    assert 5 in sep.a.edge_ids
    assert small.measure == host.measure - 1


def test_lift_deletion_inside_b():
    host = path5((5, 3, 5))
    _small, journal = step(host, "delete", 5)
    sep = lifted(host, ({1, 2, 3}, {1, 2}, {3, 4, 5}, {3, 4}), journal, 2)
    assert sep.order == 1
    assert 5 in sep.b.edge_ids


def test_lift_deletion_straddling_takes_far_end_into_a():
    host = path5((5, 2, 4))
    _small, journal = step(host, "delete", 5)
    sides = ({1, 2, 3}, {1, 2}, {3, 4, 5}, {3, 4})
    sep = lifted(host, sides, journal, 3)
    assert sep.order == 2
    assert sep.separator == {3, 4}
    assert 5 in sep.a.edge_ids
    with pytest.raises(InternalInvariantBroken, match="edge deletion lost strictness"):
        _lift_certificate_through_journal(sides, journal, 2)  # order k - 1 = 1


def test_lift_contraction_survivor_in_a_only():
    host = path5()
    small, journal = step(host, "contract", 1)  # 1-2 into 1
    assert small.vertices == {1, 3, 4, 5}
    sep = lifted(host, ({1, 3}, {2}, {3, 4, 5}, {3, 4}), journal, 2)
    assert sep.order == 1
    assert sep.a.vertices == {1, 2, 3} and sep.a.edge_ids == {1, 2}


def test_lift_contraction_survivor_in_b_only():
    host = path5()
    small, journal = step(host, "contract", 4)  # 4-5 into 4
    assert small.vertices == {1, 2, 3, 4}
    sep = lifted(host, ({1, 2, 3}, {1, 2}, {3, 4}, {3}), journal, 2)
    assert sep.order == 1
    assert sep.b.vertices == {3, 4, 5} and sep.b.edge_ids == {3, 4}


def test_lift_contraction_survivor_in_both():
    host = path5((5, 3, 4))  # a parallel copy of 3-4 becomes a loop at 3
    small, journal = step(host, "contract", 3)
    assert small.endpoints(5) == (3, 3)
    sides = ({1, 2, 3}, {1, 2, 5}, {3, 5}, {4})
    sep = lifted(host, sides, journal, 3)
    assert sep.order == 2
    assert sep.separator == {3, 4}
    assert 3 in sep.a.edge_ids and 5 in sep.a.edge_ids
    with pytest.raises(InternalInvariantBroken, match="contraction lost strictness"):
        _lift_certificate_through_journal(sides, journal, 2)


def test_lift_through_frame_glues_the_a_side():
    host = Graph(range(1, 7), [(e, e, e + 1) for e in range(1, 6)])  # path 1-...-6
    frame = ({1, 2, 3}, {1, 2}, {3, 4, 5, 6}, {3, 4, 5})  # the frame separation's sides
    # a certificate of the B side, rooted at the frame's separator {3}
    va, ea, vb, eb = _lift_certificate_through_frame(({3, 4}, {3}, {4, 5, 6}, {4, 5}), frame)
    sep = Separation(Subgraph(host, va, ea), Subgraph(host, vb, eb))
    assert sep.order == 1
    assert sep.a.vertices == {1, 2, 3, 4} and sep.b.vertices == {4, 5, 6}
    assert 1 in sep.a.vertices
    # a sub-certificate whose A side misses the frame's separator gains order
    with pytest.raises(InternalInvariantBroken, match="order changed"):
        _lift_certificate_through_frame(({5, 6}, {5}, {3, 4, 5}, {3, 4}), frame)
