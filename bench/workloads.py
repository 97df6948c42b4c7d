"""Workload definitions: which instances a benchmark run builds, and how.

Every workload is a list of named instances built from the workload seed
through the public ``gridroots`` API.  The program under test only ever
sees the finished instances; the seed shifts recipe and break seeds, and
picks the root corner of the coarse family.
"""
from __future__ import annotations

from dataclasses import dataclass

import gridroots as gr

@dataclass(frozen=True)
class Instance:
    """One benchmark input and the outcome it must produce."""

    name: str
    problem: gr.ExtractionProblem
    refuted: bool


@dataclass(frozen=True)
class Workload:
    """Instance sizes of one workload; ``build`` turns a seed into inputs."""

    name: str  # "grid-roots", "coarse" or "certificates"
    why: str
    sizes: tuple  # (n, g, k) triples, or coarse grid sides

    def build(self, seed: int) -> list[Instance]:
        return BUILDERS[self.name](self.sizes, seed)


# -- grid-plus-roots and its broken variants ---------------------------------


def _recipe(n: int, g: int, k: int, seed: int) -> gr.InstanceRecipe:
    return gr.InstanceRecipe("grid-plus-roots", n, g, k, seed, k + 1)


def build_grid_roots(sizes, seed: int) -> list[Instance]:
    return [
        Instance(f"gpr-{n}-{g}-{k}-s{seed}", gr.generate_instance(_recipe(n, g, k, seed)), False)
        for n, g, k in sizes
    ]


def build_certificates(sizes, seed: int) -> list[Instance]:
    """Each size at seeds s and s+1, broken by every break mode."""
    out = []
    for n, g, k in sizes:
        for s in (seed, seed + 1):
            problem = gr.generate_instance(_recipe(n, g, k, s))
            for mode in gr.BREAK_MODES:
                broken = gr.break_instance(problem, mode, s)
                out.append(Instance(f"gpr-{n}-{g}-{k}-s{s}-{mode}", broken, True))
    return out


# -- coarse models: the n x n grid in the 2n x 2n grid by 2 x 2 blocks -------

CORNERS = ("top-left", "top-right", "bottom-left", "bottom-right")


def coarse_problem(n: int, corner: str) -> gr.ExtractionProblem:
    """The n x n grid modelled in the 2n x 2n grid, rooted at a host corner.

    Pattern vertex (i, j) maps to the 4-cycle on host rows 2i-1, 2i and
    columns 2j-1, 2j.  Two host edges join adjacent blocks: the one in
    the upper row (horizontal pattern edges) or the left column
    (vertical pattern edges) is the edge image, the other stays a plain
    edge.  g = 2 and k = 1.
    """
    side = 2 * n
    host = gr.grid_graph(side)
    pattern = gr.grid_graph(n)

    def hv(i: int, j: int) -> int:
        return gr.vertex_id(side, i, j)

    def he(a: tuple[int, int], b: tuple[int, int]) -> int:
        return gr.grid_edge_id(side, hv(*a), hv(*b))

    branches = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            top, left = 2 * i - 1, 2 * j - 1
            cells = [(top, left), (top, left + 1), (top + 1, left), (top + 1, left + 1)]
            edges = [
                he(cells[0], cells[1]),
                he(cells[2], cells[3]),
                he(cells[0], cells[2]),
                he(cells[1], cells[3]),
            ]
            branches[gr.vertex_id(n, i, j)] = gr.Subgraph(host, [hv(*c) for c in cells], edges)
    images = {}
    for e, u, v in pattern.edges():
        (i, j), (i2, _) = gr.vertex_coord(n, u), gr.vertex_coord(n, v)
        if i2 == i:
            images[e] = he((2 * i - 1, 2 * j), (2 * i - 1, 2 * j + 1))
        else:
            images[e] = he((2 * i, 2 * j - 1), (2 * i + 1, 2 * j - 1))
    corner_coord = {
        "top-left": (1, 1),
        "top-right": (1, side),
        "bottom-left": (side, 1),
        "bottom-right": (side, side),
    }[corner]
    model = gr.Pseudomodel(host, pattern, branches, images)
    return gr.ExtractionProblem(host, frozenset({hv(*corner_coord)}), model, n, 2, 1)


def build_coarse(sizes, seed: int) -> list[Instance]:
    """Coarse models with the root at the corner ``CORNERS[seed % 4]``.

    Unlike ``generate_instance`` nothing certifies these by
    construction, so each one is checked with ``validate_problem`` and
    ``check_hypothesis`` here, as part of the set-up.
    """
    corner = CORNERS[seed % len(CORNERS)]
    out = []
    for n in sizes:
        problem = coarse_problem(n, corner)
        if not gr.validate_problem(problem).ok:
            raise RuntimeError(f"coarse n={n} at the {corner} corner is not a valid problem")
        if not gr.check_hypothesis(problem).holds:
            raise RuntimeError(f"coarse n={n} at the {corner} corner violates the hypothesis")
        out.append(Instance(f"coarse-{n}-{corner}", problem, False))
    return out


BUILDERS = {
    "grid-roots": build_grid_roots,
    "coarse": build_coarse,
    "certificates": build_certificates,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-roots",
            "large grid-plus-roots hosts with few reductions: per-call menger flow cost dominates",
            ((21, 3, 2), (28, 3, 3)),
        ),
        Workload(
            "coarse",
            "2x2-block coarse models: ~410 reductions incl. contractions; the row scan is ~90% of extract, so scan count and per-step cost dominate",
            (5, 7),
        ),
        Workload(
            "certificates",
            "broken instances refuted at the first row: validate_pseudomodel is ~90% of extract and the row scan ~5%, so path-finding changes should not move it",
            ((28, 3, 3), (36, 4, 3)),
        ),
    )
}
