"""Pseudomodels and models of a pattern graph inside a host graph.

A pseudomodel assigns to every pattern vertex a non-null branch subgraph
of the host (all branches pairwise vertex-disjoint) and to every pattern
edge a distinct host edge whose endpoints land in the branches of the
pattern edge's ends.  A model is a pseudomodel whose branches are all
connected; it witnesses minor containment.

The augmentation types at the bottom describe the target shape of the
extraction pipeline: a grid model whose first ``k`` first-column
branches have been enlarged to capture prescribed root vertices, with
everything else untouched.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isqrt
from operator import attrgetter
from typing import Iterable, Mapping

from .graph import Graph, Subgraph, subgraph_is_connected
from .grid import grid_graph, vertex_id
from .validation import ValidationReport


class Pseudomodel:
    """A branch/edge-image assignment, not validated at construction.

    Validation is a separate, report-producing step so that broken
    inputs can be diagnosed in full rather than rejected piecemeal.
    Structural requirements (branches are subgraphs of the host, maps
    are keyed by integers) are still enforced here.

    ``_unchecked`` builds one from maps that already meet them: it
    trusts that every branch lives in ``host`` and that every image key
    and value is an int, and keeps the two dicts it is given rather than
    copying them, so the caller must hand over dicts it made and no one
    else changes.  Only package code that made every branch in ``host``
    itself calls it: ``formats.model_from_dict`` after its checks, and
    the instance generators.
    """

    __slots__ = ("host", "pattern", "branches", "edge_images")

    def __init__(
        self,
        host: Graph,
        pattern: Graph,
        branches: Mapping[int, Subgraph],
        edge_images: Mapping[int, int],
    ):
        for v, br in branches.items():
            if br.host != host:
                raise ValueError(f"branch of pattern vertex {v} lives in a different host")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "branches", dict(branches))
        object.__setattr__(self, "edge_images", {int(e): int(f) for e, f in edge_images.items()})

    @classmethod
    def _unchecked(
        cls,
        host: Graph,
        pattern: Graph,
        branches: dict[int, Subgraph],
        edge_images: dict[int, int],
    ) -> "Pseudomodel":
        """A pseudomodel of maps the caller built and checked, kept as given."""
        self = object.__new__(cls)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "edge_images", edge_images)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Pseudomodel is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pseudomodel):
            return NotImplemented
        return (
            self.host == other.host
            and self.pattern == other.pattern
            and self.branches == other.branches
            and self.edge_images == other.edge_images
        )

    def __repr__(self) -> str:
        return (
            f"Pseudomodel(pattern |V|={self.pattern.num_vertices}, "
            f"|branches|={len(self.branches)})"
        )


def validate_pseudomodel(p: Pseudomodel) -> ValidationReport:
    """Check every pseudomodel requirement, reporting all violations.

    Codes: ``branch-missing``, ``branch-unknown``, ``branch-null``,
    ``branch-overlap``, ``edge-image-missing``, ``edge-image-unknown``,
    ``edge-image-absent``, ``edge-image-duplicate``,
    ``edge-image-in-branch``, ``edge-ends``.

    A valid pseudomodel is accepted by :func:`_pseudomodel_holds`, a
    few whole-collection checks that run inside built-in functions.
    Only when one of them fails does the per-item pass,
    :func:`_pseudomodel_findings`, run to word every finding.
    """
    if _pseudomodel_holds(p):
        return ValidationReport()
    return _pseudomodel_findings(p)


_vertices_of, _edge_ids_of = attrgetter("vertices"), attrgetter("edge_ids")


def _pseudomodel_holds(p: Pseudomodel) -> bool:
    """True when ``p`` is a pseudomodel, checked in bulk.

    Branch keys equal the pattern vertices and image keys the pattern
    edge ids; no branch is empty; one owner map covers every branch
    vertex, and the branch sizes sum to its length only when no two
    branches overlap; the images are distinct host edges outside every
    branch; and the owner pairs of the image ends, in pattern edge
    order, equal the pattern ends.  Only a pair that differs is read
    the other way round.  A rejection only sends the input to the
    per-item pass, so a report is always that pass's.
    """
    pattern, branches, images = p.pattern, p.branches, p.edge_images
    pattern_ends = pattern.edge_map
    if branches.keys() != pattern.vertices or images.keys() != pattern_ends.keys():
        return False
    vertex_sets = list(map(_vertices_of, branches.values()))
    if not all(vertex_sets):
        return False
    owner = {x: v for v, vs in zip(branches, vertex_sets) for x in vs}
    if sum(map(len, vertex_sets)) != len(owner):
        return False
    host_ends = p.host.edge_map
    image_ids = list(map(images.__getitem__, pattern_ends))
    image_set = set(image_ids)
    if (len(image_set) != len(image_ids) or not host_ends.keys() >= image_set
            or not image_set.isdisjoint(chain.from_iterable(map(_edge_ids_of, branches.values())))):
        return False
    owner_get = owner.get
    pairs = [(owner_get(x), owner_get(y)) for x, y in map(host_ends.__getitem__, image_ids)]
    wanted = list(pattern_ends.values())
    return pairs == wanted or all(
        pair == ends or pair[::-1] == ends for pair, ends in zip(pairs, wanted)
    )


def _pseudomodel_findings(p: Pseudomodel) -> ValidationReport:
    """Every pseudomodel violation, found item by item, in report order.

    It runs only on models that :func:`_pseudomodel_holds` rejects.
    The work is linear in the pattern, the edge images and the total
    branch size (plus the overlaps reported), and nothing compares
    branches pairwise: per-vertex owner lists report the overlaps and
    check the edge ends, and an edge owner map finds the branch edges.
    """
    report = ValidationReport()
    pattern = p.pattern
    pattern_vertices = pattern.vertices
    branches = p.branches
    for v in sorted(pattern_vertices):
        if v not in branches:
            report.add("branch-missing", f"pattern vertex {v} has no branch")
    for v in sorted(branches):
        if v not in pattern_vertices:
            report.add("branch-unknown", f"branch key {v} is not a pattern vertex")
        elif branches[v].is_null():
            report.add("branch-null", f"branch of pattern vertex {v} is null")
    # Owners are appended in ascending key order, so each list is sorted.
    vertex_owners: dict[int, list[int]] = {}
    for v in sorted(v for v in branches if v in pattern_vertices):
        for x in branches[v].vertices:
            vertex_owners.setdefault(x, []).append(v)
    shared_by: dict[tuple[int, int], list[int]] = {}
    for x, owners in vertex_owners.items():
        for idx, v in enumerate(owners):
            for w in owners[idx + 1:]:
                shared_by.setdefault((v, w), []).append(x)
    for v, w in sorted(shared_by):
        report.add(
            "branch-overlap",
            f"branches of {v} and {w} share vertices {sorted(shared_by[v, w])}",
        )
    # Every branch counts here, unknown keys included, in insertion order.
    edge_owners: dict[int, list[int]] = {}
    for v, br in branches.items():
        for f in br.edge_ids:
            edge_owners.setdefault(f, []).append(v)
    host, images = p.host, p.edge_images
    host_ends, pattern_ends = host.endpoints, pattern.endpoints
    pattern_edges = pattern.edge_ids
    seen_hosts: dict[int, int] = {}
    for e in sorted(pattern_edges):
        if e not in images:
            report.add("edge-image-missing", f"pattern edge {e} has no host edge")
    for e, f in sorted(images.items()):
        if e not in pattern_edges:
            report.add("edge-image-unknown", f"edge image key {e} is not a pattern edge")
            continue
        try:
            x, y = host_ends(f)
        except KeyError:
            report.add("edge-image-absent", f"host edge {f} for pattern edge {e} does not exist")
            continue
        if f in seen_hosts:
            report.add(
                "edge-image-duplicate",
                f"host edge {f} images both pattern edges {seen_hosts[f]} and {e}",
            )
        else:
            seen_hosts[f] = e
        for v in edge_owners.get(f, ()):
            report.add(
                "edge-image-in-branch",
                f"host edge {f} (image of pattern edge {e}) lies inside branch {v}",
            )
        u, v = pattern_ends(e)
        if u not in branches or v not in branches:
            continue
        ox, oy = vertex_owners.get(x, ()), vertex_owners.get(y, ())
        if (u in ox and v in oy) or (v in ox and u in oy):
            continue
        if u == v:
            report.add(
                "edge-ends",
                f"loop image {f} of pattern edge {e} has an end outside branch {u}",
            )
        else:
            report.add(
                "edge-ends",
                f"host edge {f} does not join the branches of pattern edge {e}={u}~{v}",
            )
    return report


def validate_model(p: Pseudomodel) -> ValidationReport:
    """Pseudomodel validation plus per-branch connectivity."""
    report = validate_pseudomodel(p)
    for v in sorted(p.branches):
        if v in p.pattern.vertices and not p.branches[v].is_null():
            if not subgraph_is_connected(p.branches[v]):
                report.add("branch-disconnected", f"branch of pattern vertex {v} is disconnected")
    return report


def image_of_vertices(p: Pseudomodel, vertices: Iterable[int]) -> frozenset[int]:
    """Union of the branch vertex sets over a pattern vertex set."""
    out: set[int] = set()
    for v in vertices:
        if v not in p.branches:
            raise KeyError(f"unknown pattern vertex {v}")
        out |= p.branches[v].vertices
    return frozenset(out)


def identity_grid_model(n: int) -> Pseudomodel:
    """The identity model of the ``n x n`` grid in itself."""
    g = grid_graph(n)
    branches = {v: Subgraph(g, {v}) for v in g.vertices}
    images = {e: e for e in g.edge_ids}
    return Pseudomodel(g, g, branches, images)


# -- augmentation ----------------------------------------------------------


@dataclass(frozen=True)
class AugmentationWitness:
    """A claimed root augmentation of a grid model.

    ``base`` and ``augmented`` are pseudomodels of the standard
    ``g x g`` grid in the same host; ``roots`` is the vertex set the
    first ``len(roots)`` first-column branches must capture.  Where the
    block sits in the input's pattern is the result's ``GridAtlas``; the
    check needs only the models.
    """

    base: Pseudomodel
    augmented: Pseudomodel
    roots: frozenset[int]


def check_augmentation(w: AugmentationWitness) -> ValidationReport:
    """Verify every requirement the augmented model must satisfy.

    Codes: ``aug-pattern``, ``aug-branch-changed``, ``aug-branch-shrunk``,
    ``aug-root-missing``, ``aug-edge-image`` plus everything
    :func:`validate_model` can emit for the augmented model.  The side g
    is read off the base pattern, which must be the ``g x g`` grid for
    some g >= 1, and so must the augmented pattern.
    """
    report = ValidationReport()
    g = isqrt(w.base.pattern.num_vertices)
    k = len(w.roots)
    std = grid_graph(g) if g else None
    if std is None or w.base.pattern != std or w.augmented.pattern != std:
        report.add("aug-pattern", f"witness patterns must both be the standard {g}x{g} grid")
        return report
    if w.base.host != w.augmented.host:
        report.add("aug-pattern", "base and augmented models live in different hosts")
        return report
    for a in range(1, g + 1):
        for b in range(1, g + 1):
            v = vertex_id(g, a, b)
            base_br = w.base.branches.get(v)
            aug_br = w.augmented.branches.get(v)
            if base_br is None or aug_br is None:
                report.add("aug-branch-changed", f"branch of ({a},{b}) missing from a side")
                continue
            if b >= 2 or a > k:
                if base_br != aug_br:
                    report.add(
                        "aug-branch-changed",
                        f"branch of ({a},{b}) differs but must be untouched",
                    )
            else:
                if not (
                    base_br.vertices <= aug_br.vertices
                    and base_br.edge_ids <= aug_br.edge_ids
                ):
                    report.add(
                        "aug-branch-shrunk",
                        f"augmented branch of ({a},1) does not contain the base branch",
                    )
                if not (aug_br.vertices & w.roots):
                    report.add(
                        "aug-root-missing",
                        f"augmented branch of ({a},1) contains no root vertex",
                    )
    if w.base.edge_images != w.augmented.edge_images:
        report.add("aug-edge-image", "edge images differ between base and augmented models")
    return report.merged(validate_model(w.augmented))
