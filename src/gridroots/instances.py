"""Deterministic instance generators for the extraction pipeline.

Three recipe kinds: the bare grid with an identity model, the grid plus
fresh root vertices attached to seeded row-1 columns, and the latter
perturbed with extra random edges.  All randomness flows from the recipe
seed, so an identical recipe always yields an identical instance.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .extraction import ExtractionProblem, check_hypothesis
from .graph import Graph, Subgraph
from .grid import grid_graph, vertex_id
from .models import Pseudomodel, identity_grid_model
from .errors import MalformedInput

RECIPE_KINDS = ("identity-grid", "grid-plus-roots", "random-attachment")
GENERATION_RETRIES = 32
BREAK_MODES = ("detach", "hang")


@dataclass(frozen=True)
class InstanceRecipe:
    """Parameters that fully determine one generated instance."""

    kind: str
    n: int
    g: int
    k: int
    seed: int = 0
    degree: int = 2

    def __post_init__(self):
        if self.kind not in RECIPE_KINDS:
            raise MalformedInput(f"unknown recipe kind {self.kind!r}")
        if self.n < 1:
            raise MalformedInput(f"grid side must be at least 1, got n={self.n}")
        if not 1 <= self.k <= self.g:
            raise MalformedInput(f"need 1 <= k <= g, got k={self.k}, g={self.g}")
        if self.degree < self.k:
            raise MalformedInput(
                f"attachment degree {self.degree} must be at least k={self.k}"
            )
        if self.degree > self.n:
            raise MalformedInput(
                f"attachment degree {self.degree} exceeds the {self.n} row-1 columns"
            )
        if self.kind == "identity-grid":
            return
        # k <= degree <= n, so C(n, degree) is 1 when degree = n, else
        # at least n > degree >= k: only the full row has too few column sets
        if self.degree == self.n and self.k > 1:
            raise MalformedInput(
                f"only 1 distinct sets of {self.degree} row-1 columns "
                f"exist for k={self.k} roots"
            )
        pairs = comb(self.n * self.n, 2) - 2 * self.n * (self.n - 1)
        if self.kind == "random-attachment" and pairs < self.degree:
            raise MalformedInput(
                f"the {self.n}x{self.n} grid has {pairs} non-adjacent vertex pairs, "
                f"fewer than the {self.degree} chords asked for"
            )


def identity_problem(n: int, g: int, k: int) -> ExtractionProblem:
    """The n x n grid modelling itself, rooted at the first k of row 1."""
    model = identity_grid_model(n)
    roots = frozenset(vertex_id(n, 1, j) for j in range(1, k + 1))
    return ExtractionProblem(model.host, roots, model, n, g, k)


def grid_plus_roots_problem(
    n: int,
    g: int,
    k: int,
    columns: list[tuple[int, ...]],
    chords: list[tuple[int, int]] | None = None,
) -> ExtractionProblem:
    """Grid plus k fresh roots wired to explicit row-1 columns.

    Root i gets id n*n+1+i and one edge per listed column; edge ids
    continue past the grid's.  Optional chords add further grid-to-grid
    edges after the attachments.  Columns and chord ends are ints.
    """
    grid = grid_graph(n)
    root_ids = [n * n + 1 + i for i in range(k)]
    vertices = sorted(grid.vertices) + root_ids
    triples = [(e, *grid.endpoints(e)) for e in sorted(grid.edge_ids)]
    next_eid = grid.num_edges + 1
    for i, cols in enumerate(columns):
        for c in sorted(cols):
            triples.append((next_eid, root_ids[i], vertex_id(n, 1, c)))
            next_eid += 1
    for u, v in chords or []:
        triples.append((next_eid, u, v))
        next_eid += 1
    host = Graph._of_ints(frozenset(vertices), triples)
    branches = {v: Subgraph._unchecked(host, (v,)) for v in grid.vertices}
    model = Pseudomodel._unchecked(host, grid, branches, {e: e for e in grid.edge_ids})
    return ExtractionProblem(host, frozenset(root_ids), model, n, g, k)


def _attachment_columns(rng: random.Random, n: int, k: int, degree: int) -> list[tuple[int, ...]]:
    """Seeded column choices, pairwise distinct across the k roots."""
    chosen: list[tuple[int, ...]] = []
    while len(chosen) < k:
        cols = tuple(sorted(rng.sample(range(1, n + 1), degree)))
        if cols not in chosen:
            chosen.append(cols)
    return chosen


def _chords(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    """Seeded pairs u < v of distinct grid vertices that are not grid neighbours."""
    out: list[tuple[int, int]] = []
    while len(out) < count:
        u, v = rng.sample(range(1, n * n + 1), 2)
        u, v = min(u, v), max(u, v)
        # v is right of u in the same row, or directly below it
        adjacent = v == u + n or (v == u + 1 and u % n != 0)
        if adjacent or (u, v) in out:
            continue
        out.append((u, v))
    return out


def generate_instance(recipe: InstanceRecipe) -> ExtractionProblem:
    """Instantiate a recipe; random kinds are certified after generation.

    Attachment randomness cannot guarantee the root-connectivity
    hypothesis by construction, so those instances are checked with
    ``check_hypothesis`` and regenerated under an incremented sub-seed,
    a bounded number of times.
    """
    if recipe.kind == "identity-grid":
        return identity_problem(recipe.n, recipe.g, recipe.k)
    last = None
    for attempt in range(GENERATION_RETRIES):
        rng = random.Random(f"{recipe.kind}:{recipe.seed}:{attempt}")
        columns = _attachment_columns(rng, recipe.n, recipe.k, recipe.degree)
        chords = None
        if recipe.kind == "random-attachment":
            chords = _chords(rng, recipe.n, recipe.degree)
        problem = grid_plus_roots_problem(recipe.n, recipe.g, recipe.k, columns, chords)
        verdict = check_hypothesis(problem)
        if verdict.holds:
            return problem
        last = verdict
    raise RuntimeError(
        f"instance generation exhausted {GENERATION_RETRIES} retries; "
        f"last certificate: order {last.separation.order} at row {last.row}"
    )


def break_instance(problem: ExtractionProblem, mode: str, seed: int) -> ExtractionProblem:
    """Deliberately violate the hypothesis of a grid-plus-roots instance.

    ``detach`` strips every attachment edge from a seeded nonempty set of
    roots; ``hang`` reroutes all roots through one shared row-1 vertex,
    so a single cut vertex pinches the whole root set off.  Only applies
    to instances whose roots are fresh non-grid vertices, since breaking
    grid edges would invalidate the model rather than the hypothesis.
    """
    if mode not in BREAK_MODES:
        raise MalformedInput(f"unknown break mode {mode!r}")
    n = problem.n
    roots = sorted(problem.roots)
    if any(z <= n * n for z in roots):
        raise MalformedInput("break_instance needs roots outside the grid")
    rng = random.Random(f"break:{mode}:{seed}")
    host = problem.host
    if mode == "detach":
        victims = set(rng.sample(roots, rng.randrange(1, len(roots) + 1)))
    else:
        middleman = vertex_id(n, 1, rng.randrange(1, n + 1))
        victims = set(roots)
    # one build without the victims' edges, the graph that deleting
    # them one by one would leave
    dropped = {e for e, (u, v) in host.edge_map.items() if u in victims or v in victims}
    if any(not br.edge_ids.isdisjoint(dropped) for br in problem.model.branches.values()):
        raise MalformedInput("break_instance would drop an edge of a branch")
    triples = [(e, u, v) for e, (u, v) in sorted(host.edge_map.items()) if e not in dropped]
    if mode == "hang":
        next_eid = max(host.edge_map) + 1
        for z in roots:
            triples.append((next_eid, z, middleman))
            next_eid += 1
    host = Graph._of_ints(host.vertices, triples)
    # The new host keeps every vertex and drops only root edges that no
    # branch holds, so every branch lies in it as it lay in the old one.
    branches = {
        pv: Subgraph._unchecked(host, br.vertices, br.edge_ids)
        for pv, br in problem.model.branches.items()
    }
    # the image map is copied, as the public constructor copies it, so the
    # broken model shares no dict with the input's
    images = dict(problem.model.edge_images)
    model = Pseudomodel._unchecked(host, problem.model.pattern, branches, images)
    return ExtractionProblem(host, problem.roots, model, n, problem.g, problem.k)
