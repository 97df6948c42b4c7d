"""Pseudomodel validation, row images, and root augmentation."""
import random

import pytest

from gridroots import (
    AugmentationWitness,
    Graph,
    GridAtlas,
    Pseudomodel,
    Subgraph,
    ValidationReport,
    check_augmentation,
    grid_edge_id,
    grid_graph,
    identity_grid_model,
    image_of_vertices,
    validate_model,
    validate_pseudomodel,
    vertex_id,
)


def path_host():
    # 1-2-3-4 path plus isolated 5
    return Graph([1, 2, 3, 4, 5], [(1, 1, 2), (2, 2, 3), (3, 3, 4)])


def edge_pattern():
    return Graph([1, 2], [(1, 1, 2)])


def test_identity_model_is_valid():
    m = identity_grid_model(3)
    assert validate_pseudomodel(m).ok
    assert validate_model(m).ok


def test_pseudomodel_constructor_checks_host():
    g = path_host()
    other = edge_pattern()
    with pytest.raises(ValueError):
        Pseudomodel(g, other, {1: Subgraph(other, {1})}, {})
    m = identity_grid_model(2)
    with pytest.raises(AttributeError):
        m.host = g


def test_branch_bullet_codes():
    g = path_host()
    pat = edge_pattern()
    missing = Pseudomodel(g, pat, {1: Subgraph(g, {1})}, {1: 1})
    assert "branch-missing" in validate_pseudomodel(missing).codes()

    unknown = Pseudomodel(
        g, pat, {1: Subgraph(g, {1}), 2: Subgraph(g, {3}), 7: Subgraph(g, {4})}, {1: 2}
    )
    assert "branch-unknown" in validate_pseudomodel(unknown).codes()

    null = Pseudomodel(g, pat, {1: Subgraph(g, set()), 2: Subgraph(g, {3})}, {1: 2})
    assert "branch-null" in validate_pseudomodel(null).codes()

    overlap = Pseudomodel(
        g, pat, {1: Subgraph(g, {1, 2}, {1}), 2: Subgraph(g, {2, 3}, {2})}, {1: 3}
    )
    assert "branch-overlap" in validate_pseudomodel(overlap).codes()


def test_edge_image_bullet_codes():
    g = path_host()
    pat = edge_pattern()
    branches = {1: Subgraph(g, {1}), 2: Subgraph(g, {3})}

    assert "edge-image-missing" in validate_pseudomodel(
        Pseudomodel(g, pat, branches, {})
    ).codes()
    assert "edge-image-unknown" in validate_pseudomodel(
        Pseudomodel(g, pat, branches, {1: 2, 9: 3})
    ).codes()
    assert "edge-image-absent" in validate_pseudomodel(
        Pseudomodel(g, pat, branches, {1: 99})
    ).codes()
    # image edge 2-3 has an end outside the branch of pattern vertex 1
    assert "edge-ends" in validate_pseudomodel(
        Pseudomodel(g, pat, {1: Subgraph(g, {1}), 2: Subgraph(g, {4})}, {1: 2})
    ).codes()


def test_edge_image_duplicate_and_inside_branch():
    g = Graph([1, 2, 3], [(1, 1, 2), (2, 2, 3), (3, 1, 3)])
    pat = Graph([1, 2], [(1, 1, 2), (2, 1, 2)])
    branches = {1: Subgraph(g, {1}), 2: Subgraph(g, {2})}
    dup = Pseudomodel(g, pat, branches, {1: 1, 2: 1})
    assert "edge-image-duplicate" in validate_pseudomodel(dup).codes()

    pat2 = edge_pattern()
    inside = Pseudomodel(
        g, pat2, {1: Subgraph(g, {1, 2}, {1}), 2: Subgraph(g, {3})}, {1: 1}
    )
    assert "edge-image-in-branch" in validate_pseudomodel(inside).codes()


def test_loop_image_needs_both_ends_in_branch():
    g = Graph([1, 2], [(1, 1, 1), (2, 1, 2)])
    pat = Graph([1], [(1, 1, 1)])
    good = Pseudomodel(g, pat, {1: Subgraph(g, {1})}, {1: 1})
    assert validate_pseudomodel(good).ok
    bad = Pseudomodel(g, pat, {1: Subgraph(g, {1})}, {1: 2})
    assert "edge-ends" in validate_pseudomodel(bad).codes()


def test_disconnected_branch_is_a_model_failure_only():
    g = path_host()
    pat = Graph([1], [])
    p = Pseudomodel(g, pat, {1: Subgraph(g, {1, 5})}, {})
    assert validate_pseudomodel(p).ok
    report = validate_model(p)
    assert not report.ok
    assert report.codes() == ["branch-disconnected"]


def pairwise_reference(p):
    """The quadratic validator ``validate_pseudomodel`` replaced, kept as its oracle.

    It compares every pair of branches and scans every branch for every
    edge image; the findings, their messages and their order define the
    contract.
    """
    report = ValidationReport()
    pattern = p.pattern
    for v in sorted(pattern.vertices):
        if v not in p.branches:
            report.add("branch-missing", f"pattern vertex {v} has no branch")
    for v in sorted(p.branches):
        if v not in pattern.vertices:
            report.add("branch-unknown", f"branch key {v} is not a pattern vertex")
        elif p.branches[v].is_null():
            report.add("branch-null", f"branch of pattern vertex {v} is null")
    keys = sorted(v for v in p.branches if v in pattern.vertices)
    for idx, v in enumerate(keys):
        bv = p.branches[v].vertices
        for w in keys[idx + 1:]:
            shared = bv & p.branches[w].vertices
            if shared:
                report.add(
                    "branch-overlap",
                    f"branches of {v} and {w} share vertices {sorted(shared)}",
                )
    seen_hosts = {}
    for e in sorted(pattern.edge_ids):
        if e not in p.edge_images:
            report.add("edge-image-missing", f"pattern edge {e} has no host edge")
    for e in sorted(p.edge_images):
        if e not in pattern.edge_ids:
            report.add("edge-image-unknown", f"edge image key {e} is not a pattern edge")
            continue
        f = p.edge_images[e]
        if not p.host.has_edge_id(f):
            report.add("edge-image-absent", f"host edge {f} for pattern edge {e} does not exist")
            continue
        if f in seen_hosts:
            report.add(
                "edge-image-duplicate",
                f"host edge {f} images both pattern edges {seen_hosts[f]} and {e}",
            )
        else:
            seen_hosts[f] = e
        for v, br in p.branches.items():
            if f in br.edge_ids:
                report.add(
                    "edge-image-in-branch",
                    f"host edge {f} (image of pattern edge {e}) lies inside branch {v}",
                )
        u, v = pattern.endpoints(e)
        x, y = p.host.endpoints(f)
        bu = p.branches.get(u)
        bv = p.branches.get(v)
        if bu is None or bv is None:
            continue
        if u == v:
            if not (x in bu.vertices and y in bu.vertices):
                report.add(
                    "edge-ends",
                    f"loop image {f} of pattern edge {e} has an end outside branch {u}",
                )
        elif not (
            (x in bu.vertices and y in bv.vertices)
            or (x in bv.vertices and y in bu.vertices)
        ):
            report.add(
                "edge-ends",
                f"host edge {f} does not join the branches of pattern edge {e}={u}~{v}",
            )
    return report


def random_multigraph(rng, num_vertices, num_edges):
    """Vertices 1..num_vertices; sparse edge ids, loops and parallel edges."""
    vertices = range(1, num_vertices + 1)
    eids = rng.sample(range(1, 3 * num_edges + 2), num_edges)
    return Graph(vertices, [(e, rng.choice(vertices), rng.choice(vertices)) for e in eids])


def random_pseudomodel(rng):
    """A small, usually broken pseudomodel: branch keys and image keys may be
    unknown or missing, branches null or overlapping (often three at a
    vertex), images absent, duplicated or inside branches.  Branch keys are
    inserted in random order."""
    host = random_multigraph(rng, rng.randint(1, 7), rng.randint(0, 9))
    pattern = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 6))
    keys = rng.sample(range(0, 8), rng.randint(0, 7))
    branches = {}
    for key in keys:
        vs = set(rng.sample(sorted(host.vertices), rng.randint(0, min(3, host.num_vertices))))
        inside = [e for e in host.edge_ids if set(host.endpoints(e)) <= vs]
        branches[key] = Subgraph(host, vs, rng.sample(inside, rng.randint(0, len(inside))))
    image_keys = [e for e in pattern.edge_ids if rng.random() < 0.85]
    image_keys += rng.sample(range(0, 30), rng.randint(0, 2))
    targets = sorted(host.edge_ids) + [97, 98]
    images = {e: rng.choice(targets) for e in image_keys}
    return Pseudomodel(host, pattern, branches, images)


def ends_checked(p):
    """How many edge images reach the edge-ends check: a pattern edge's
    image is a host edge and both its ends have branches."""
    return sum(
        1 for e, f in p.edge_images.items()
        if e in p.pattern.edge_ids and p.host.has_edge_id(f)
        and all(v in p.branches for v in p.pattern.endpoints(e))
    )


def test_validate_pseudomodel_matches_pairwise_reference():
    rng = random.Random(20240607)
    codes = set()
    overlapping = {True: 0, False: 0}  # edge-ends findings among overlap cases with checked ends
    for case in range(3000):
        p = random_pseudomodel(rng)
        expected = pairwise_reference(p).as_dict()
        assert validate_pseudomodel(p).as_dict() == expected, case
        found = {f["code"] for f in expected["findings"]}
        codes.update(found)
        if "branch-overlap" in found and ends_checked(p):
            overlapping["edge-ends" in found] += 1
    assert codes == {
        "branch-missing", "branch-unknown", "branch-null", "branch-overlap",
        "edge-image-missing", "edge-image-unknown", "edge-image-absent",
        "edge-image-duplicate", "edge-image-in-branch", "edge-ends",
    }
    # overlapping branches check edge ends through per-vertex owner lists
    assert min(overlapping.values()) >= 50, overlapping


def test_edge_ends_at_a_shared_vertex_count_for_every_owner():
    # vertex 1 lies in branches 2 and 5; edge 1 (1-3) joins branch 2 to
    # branch 3 and edge 2 (2-3) joins branch 5 to branch 3
    g = Graph([1, 2, 3], [(1, 1, 3), (2, 2, 3)])
    pat = Graph([2, 3, 5], [(10, 2, 3), (11, 3, 5)])
    branches = {2: Subgraph(g, {1}), 3: Subgraph(g, {3}), 5: Subgraph(g, {1, 2})}
    p = Pseudomodel(g, pat, branches, {10: 1, 11: 2})
    report = validate_pseudomodel(p)
    assert [f.message for f in report.findings] == ["branches of 2 and 5 share vertices [1]"]
    assert report.as_dict() == pairwise_reference(p).as_dict()
    # without the overlap the same images are checked through the one-owner map
    branches[5] = Subgraph(g, {2})
    p = Pseudomodel(g, pat, branches, {10: 1, 11: 2})
    assert validate_pseudomodel(p).ok
    p = Pseudomodel(g, pat, branches, {10: 2, 11: 1})
    assert [f.message for f in validate_pseudomodel(p).findings] == [
        "host edge 2 does not join the branches of pattern edge 10=2~3",
        "host edge 1 does not join the branches of pattern edge 11=3~5",
    ]


def test_overlap_and_in_branch_findings_keep_their_order():
    # branches 5, 2 and 3 all hold vertex 1; host edge 1 lies in 5 and 2
    g = Graph([1, 2, 3], [(1, 1, 2), (2, 2, 3)])
    pat = Graph([2, 3, 5], [(1, 2, 3)])
    branches = {
        5: Subgraph(g, {1, 2}, {1}),
        2: Subgraph(g, {1, 2}, {1}),
        3: Subgraph(g, {1, 3}),
    }
    p = Pseudomodel(g, pat, branches, {1: 1})
    messages = [f.message for f in validate_pseudomodel(p).findings]
    assert messages == [
        "branches of 2 and 3 share vertices [1]",
        "branches of 2 and 5 share vertices [1, 2]",
        "branches of 3 and 5 share vertices [1]",
        "host edge 1 (image of pattern edge 1) lies inside branch 5",
        "host edge 1 (image of pattern edge 1) lies inside branch 2",
    ]
    assert validate_pseudomodel(p).as_dict() == pairwise_reference(p).as_dict()


def test_large_identity_model_is_valid():
    m = identity_grid_model(60)
    assert validate_pseudomodel(m).ok
    assert validate_model(m).ok


def test_image_of_vertices():
    m = identity_grid_model(2)
    assert image_of_vertices(m, [1, 4]) == frozenset({1, 4})
    with pytest.raises(KeyError):
        image_of_vertices(m, [9])


def block_base(host_n=4, i0=2, j0=2, g=2):
    """Base model: the g x g block of the host grid, singleton branches."""
    host = grid_graph(host_n)
    cell = GridAtlas(host_n, i0, j0, g, k=1).cell
    pat = grid_graph(g)
    branches = {}
    for a in range(1, g + 1):
        for b in range(1, g + 1):
            branches[vertex_id(g, a, b)] = Subgraph(host, {cell(a, b)})
    images = {}
    for eid, u, v in pat.edges():
        coords = [divmod(x - 1, g) for x in (u, v)]
        big = [cell(i + 1, j + 1) for i, j in coords]
        images[eid] = grid_edge_id(host_n, big[0], big[1])
    return host, Pseudomodel(host, pat, branches, images)


def grafted(host, base):
    """``base`` with the path 1-2-6 from root 1 grafted onto the branch of
    (1,1), host vertex 6."""
    branches = dict(base.branches)
    branches[1] = Subgraph(host, {1, 2, 6}, {grid_edge_id(4, 1, 2), grid_edge_id(4, 2, 6)})
    return Pseudomodel(host, base.pattern, branches, dict(base.edge_images))


def test_check_augmentation_accepts_valid_witness():
    host, base = block_base()
    aug = grafted(host, base)
    w = AugmentationWitness(base=base, augmented=aug, roots=frozenset({1}))
    assert check_augmentation(w).ok


def test_check_augmentation_codes():
    host, base = block_base()
    aug = grafted(host, base)

    # pattern mismatch
    w = AugmentationWitness(identity_grid_model(3), aug, frozenset({1}))
    assert "aug-pattern" in check_augmentation(w).codes()

    # g is read off the base pattern: an empty one, or one that is no square
    # grid, is no witness
    empty = Pseudomodel(host, Graph([], []), {}, {})
    w = AugmentationWitness(empty, empty, frozenset({1}))
    assert check_augmentation(w).codes() == ["aug-pattern"]
    path = Graph([1, 2, 3, 4, 5], [(1, 1, 2)])
    odd = Pseudomodel(host, path, {v: Subgraph(host, {v}) for v in path.vertices}, {1: 1})
    w = AugmentationWitness(odd, odd, frozenset({1}))
    assert check_augmentation(w).codes() == ["aug-pattern"]

    # the same 2x2 pattern, modelled in another host
    _, elsewhere = block_base(host_n=5)
    w = AugmentationWitness(base, elsewhere, frozenset({1}))
    report = check_augmentation(w)
    assert report.codes() == ["aug-pattern"]
    assert report.findings[0].message == "base and augmented models live in different hosts"

    # root never captured
    w = AugmentationWitness(base, base, frozenset({1}))
    assert "aug-root-missing" in check_augmentation(w).codes()

    # touched a branch outside the first k rows of column 1
    moved = dict(aug.branches)
    moved[4] = Subgraph(host, {11, 12}, {grid_edge_id(4, 11, 12)})
    tampered = Pseudomodel(host, aug.pattern, moved, dict(aug.edge_images))
    w = AugmentationWitness(base, tampered, frozenset({1}))
    assert "aug-branch-changed" in check_augmentation(w).codes()

    # a branch missing from either side
    missing = dict(aug.branches)
    del missing[4]
    tampered = Pseudomodel(host, aug.pattern, missing, dict(aug.edge_images))
    for w in (AugmentationWitness(base, tampered, frozenset({1})),
              AugmentationWitness(tampered, aug, frozenset({1}))):
        changed = [f.message for f in check_augmentation(w).findings if f.code == "aug-branch-changed"]
        assert changed == ["branch of (2,2) missing from a side"]

    # augmented branch lost the base vertex
    shrunk = dict(aug.branches)
    shrunk[1] = Subgraph(host, {1})
    tampered = Pseudomodel(host, aug.pattern, shrunk, dict(aug.edge_images))
    w = AugmentationWitness(base, tampered, frozenset({1}))
    assert "aug-branch-shrunk" in check_augmentation(w).codes()

    # edge image rewritten
    images = dict(aug.edge_images)
    first = sorted(images)[0]
    images[first] = grid_edge_id(4, 1, 2)
    tampered = Pseudomodel(host, aug.pattern, dict(aug.branches), images)
    w = AugmentationWitness(base, tampered, frozenset({1}))
    assert "aug-edge-image" in check_augmentation(w).codes()
