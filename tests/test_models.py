"""Pseudomodel validation, row images, and root augmentation."""
import pytest

from gridroots import (
    AugmentationWitness,
    Graph,
    GridLabeling,
    Pseudomodel,
    Subgraph,
    apply_augmentation,
    check_augmentation,
    grid_edge_id,
    grid_graph,
    identity_grid_model,
    image_of_vertices,
    validate_model,
    validate_pseudomodel,
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


def test_image_of_vertices():
    m = identity_grid_model(2)
    assert image_of_vertices(m, [1, 4]) == frozenset({1, 4})
    with pytest.raises(KeyError):
        image_of_vertices(m, [9])


def test_grid_labeling_maps_block():
    lab = GridLabeling(n=4, i0=2, j0=2, g=2)
    assert lab.big_vertex(1, 1) == 6
    assert lab.big_vertex(2, 2) == 11
    assert lab.small_vertex(2, 1) == 3
    with pytest.raises(ValueError):
        lab.big_vertex(3, 1)
    with pytest.raises(ValueError):
        lab.small_vertex(0, 1)


def block_base(host_n=4, i0=2, j0=2, g=2):
    """Base model: the g x g block of the host grid, singleton branches."""
    host = grid_graph(host_n)
    lab = GridLabeling(n=host_n, i0=i0, j0=j0, g=g)
    pat = grid_graph(g)
    branches = {}
    for a in range(1, g + 1):
        for b in range(1, g + 1):
            branches[lab.small_vertex(a, b)] = Subgraph(host, {lab.big_vertex(a, b)})
    images = {}
    for eid, u, v in pat.edges():
        coords = [divmod(x - 1, g) for x in (u, v)]
        big = [lab.big_vertex(i + 1, j + 1) for i, j in coords]
        images[eid] = grid_edge_id(host_n, big[0], big[1])
    return host, lab, Pseudomodel(host, pat, branches, images)


def test_apply_augmentation_grafts_path():
    host, lab, base = block_base()
    assert validate_model(base).ok
    aug = apply_augmentation(base, [[1, 2, 6]], {1}, lab)
    assert aug.branches[1].vertices == frozenset({1, 2, 6})
    assert aug.branches[1].edge_ids == frozenset({1, 4})
    # other branches untouched
    assert aug.branches[2] == base.branches[2]
    assert validate_model(aug).ok


def test_apply_augmentation_length_zero_path():
    host, lab, base = block_base()
    aug = apply_augmentation(base, [[6]], {6}, lab)
    assert aug.branches[1] == base.branches[1]


def test_apply_augmentation_rejections():
    host, lab, base = block_base()
    with pytest.raises(ValueError):
        apply_augmentation(base, [], {1}, lab)  # wrong path count
    with pytest.raises(ValueError):
        apply_augmentation(base, [[2, 6]], {1}, lab)  # not starting at a root
    with pytest.raises(ValueError):
        apply_augmentation(base, [[1, 2]], {1}, lab)  # does not reach the branch
    with pytest.raises(ValueError):
        apply_augmentation(base, [[1, 6]], {1}, lab)  # diagonal non-edge
    with pytest.raises(ValueError):
        # walks through the branch of (1,2) before ending
        apply_augmentation(base, [[4, 3, 7, 6]], {4}, lab)


def test_apply_augmentation_disjointness():
    host, lab, base = block_base()
    # two roots, paths crossing at vertex 2 must be rejected
    with pytest.raises(ValueError):
        apply_augmentation(base, [[1, 2, 6], [3, 2, 6]], {1, 3}, lab)


def test_check_augmentation_accepts_valid_witness():
    host, lab, base = block_base()
    aug = apply_augmentation(base, [[1, 2, 6]], {1}, lab)
    w = AugmentationWitness(base=base, augmented=aug, roots=frozenset({1}), labeling=lab)
    assert check_augmentation(w).ok


def test_check_augmentation_codes():
    host, lab, base = block_base()
    aug = apply_augmentation(base, [[1, 2, 6]], {1}, lab)

    # pattern mismatch
    w = AugmentationWitness(identity_grid_model(3), aug, frozenset({1}), lab)
    assert "aug-pattern" in check_augmentation(w).codes()

    # root never captured
    w = AugmentationWitness(base, base, frozenset({1}), lab)
    assert "aug-root-missing" in check_augmentation(w).codes()

    # touched a branch outside the first k rows of column 1
    moved = dict(aug.branches)
    moved[4] = Subgraph(host, {11, 12}, {grid_edge_id(4, 11, 12)})
    tampered = Pseudomodel(host, aug.pattern, moved, dict(aug.edge_images))
    w = AugmentationWitness(base, tampered, frozenset({1}), lab)
    assert "aug-branch-changed" in check_augmentation(w).codes()

    # augmented branch lost the base vertex
    shrunk = dict(aug.branches)
    shrunk[1] = Subgraph(host, {1})
    tampered = Pseudomodel(host, aug.pattern, shrunk, dict(aug.edge_images))
    w = AugmentationWitness(base, tampered, frozenset({1}), lab)
    assert "aug-branch-shrunk" in check_augmentation(w).codes()

    # edge image rewritten
    images = dict(aug.edge_images)
    first = sorted(images)[0]
    images[first] = grid_edge_id(4, 1, 2)
    tampered = Pseudomodel(host, aug.pattern, dict(aug.branches), images)
    w = AugmentationWitness(base, tampered, frozenset({1}), lab)
    assert "aug-edge-image" in check_augmentation(w).codes()
