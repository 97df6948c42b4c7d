"""Brute-force oracles for cross-validating the fast algorithms.

Everything here is exponential and guarded by hard budgets: these
functions exist to check the clever implementations on tiny graphs, not
to be fast.  They share no code paths with what they validate.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import BudgetExceeded
from .graph import Graph, Subgraph, components, reachable_from
from .grid import grid_graph, row_vertices
from .models import Pseudomodel, image_of_vertices
from .separations import Separation, Tangle, grid_row_images, orient_by_rows, separation_sort_key
from .validation import ValidationReport


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard limits enforced before any exponential enumeration starts."""

    max_vertices: int = 10
    max_order: int = 3
    max_pattern_side: int = 3
    search_steps: int = 2_000_000

    def __post_init__(self):
        limits = (self.max_vertices, self.max_order, self.max_pattern_side, self.search_steps)
        if any(x < 1 for x in limits):
            raise ValueError("budget limits must be positive")


def enumerate_separations(
    g: Graph,
    max_order: int,
    budget: EnumerationBudget | None = None,
) -> list[Separation]:
    """Every ordered separation of order at most ``max_order``.

    Generated from first principles: pick the shared vertex set X, send
    each component of g - X wholly to one side (edges between incomparable
    sides are impossible, so components are monochromatic), and assign
    each edge with both ends inside X to either side.  Deterministic
    order, deduplicated.
    """
    budget = budget or EnumerationBudget()
    if g.num_vertices > budget.max_vertices:
        raise BudgetExceeded(f"enumerate_separations: {g.num_vertices} vertices exceeds the "
                             f"budget of {budget.max_vertices}")
    if max_order > budget.max_order:
        raise BudgetExceeded(
            f"enumerate_separations: order {max_order} exceeds the budget of {budget.max_order}"
        )
    verts = sorted(g.vertices)
    out: list[Separation] = []
    seen: set[Separation] = set()
    for size in range(min(max_order, len(verts)) + 1):
        for xs in combinations(verts, size):
            x_set = frozenset(xs)
            comps = components(g.remove_vertices(x_set)) if len(x_set) < len(verts) else []
            inner: list[int] = []
            side_of_edge: dict[int, int] = {}
            comp_index = {v: ci for ci, comp in enumerate(comps) for v in comp}
            for e in sorted(g.edge_ids):
                u, v = g.endpoints(e)
                if u in x_set and v in x_set:
                    inner.append(e)
                else:
                    side_of_edge[e] = comp_index[u] if u not in x_set else comp_index[v]
            for comp_code in range(1 << len(comps)):
                a_extra: set[int] = set()
                b_extra: set[int] = set()
                for ci, comp in enumerate(comps):
                    (a_extra if comp_code >> ci & 1 else b_extra).update(comp)
                base_a = {e for e, ci in side_of_edge.items() if comp_code >> ci & 1}
                base_b = set(side_of_edge) - base_a
                for edge_code in range(1 << len(inner)):
                    a_edges = base_a | {e for bi, e in enumerate(inner) if edge_code >> bi & 1}
                    b_edges = base_b | {e for bi, e in enumerate(inner) if not edge_code >> bi & 1}
                    sep = Separation(
                        Subgraph(g, a_extra | x_set, a_edges),
                        Subgraph(g, b_extra | x_set, b_edges),
                    )
                    if sep not in seen:
                        seen.add(sep)
                        out.append(sep)
    return out


def enumerate_cuts(
    g: Graph,
    sources: Iterable[int],
    targets: Iterable[int],
    max_size: int,
    budget: EnumerationBudget | None = None,
) -> list[frozenset[int]]:
    """All vertex sets of size <= max_size separating sources from targets.

    Sources and targets themselves are cuttable.  A set X qualifies when
    no vertex of targets - X is reachable from sources - X in g - X.
    Ordered by size, then lexicographically.
    """
    budget = budget or EnumerationBudget()
    if g.num_vertices > max(budget.max_vertices, 12):
        raise BudgetExceeded(
            f"enumerate_cuts: {g.num_vertices} vertices exceeds the hard limit"
        )
    src = sorted(set(sources))
    tgt = frozenset(targets)
    verts = sorted(g.vertices)
    out = []
    for size in range(min(max_size, len(verts)) + 1):
        for xs in combinations(verts, size):
            x_set = frozenset(xs)
            if not reachable_from(g, src, x_set) & (tgt - x_set):
                out.append(x_set)
    return out


def enumerate_tangles(
    g: Graph,
    theta: int,
    budget: EnumerationBudget | None = None,
) -> list[Tangle]:
    """All tangles of the given order, by exhaustive orientation search.

    Every separation of order below theta is paired with its reverse;
    a tangle picks one orientation per pair (completeness is then
    automatic), subject to V(A) != V(G) and to no three chosen small
    sides covering the graph.  Backtracking with incremental cover
    pruning; aborts via the search_steps budget if the space is too big.
    """
    budget = budget or EnumerationBudget()
    if theta < 1:
        raise ValueError("tangle order must be at least 1")
    seps = enumerate_separations(g, theta - 1, budget)

    pairs: list[tuple[Separation, ...]] = []
    paired: set[Separation] = set()
    for s in seps:
        if s in paired:
            continue
        r = s.flipped()
        paired.add(s)
        paired.add(r)
        pairs.append((s,) if r == s else (s, r))

    nv_bits = {v: i for i, v in enumerate(sorted(g.vertices))}
    ne_bits = {e: i + len(nv_bits) for i, e in enumerate(sorted(g.edge_ids))}
    full = (1 << (len(nv_bits) + len(ne_bits))) - 1

    def side_mask(s: Separation) -> int:
        m = 0
        for v in s.a.vertices:
            m |= 1 << nv_bits[v]
        for e in s.a.edge_ids:
            m |= 1 << ne_bits[e]
        return m

    allowed: list[list[tuple[Separation, int]]] = []
    for pair in pairs:
        options = [
            (s, side_mask(s))
            for s in sorted(pair, key=separation_sort_key)
            if s.a.vertices != g.vertices
        ]
        if not options:
            return []
        allowed.append(options)
    allowed.sort(key=lambda opts: (len(opts), separation_sort_key(opts[0][0])))

    tangles: list[Tangle] = []
    chosen: list[Separation] = []
    masks: list[int] = []
    steps = 0

    def admissible(m: int) -> bool:
        everything = masks + [m]
        for i, mi in enumerate(everything):
            base = mi | m
            for mj in everything[i:]:
                if base | mj == full:
                    return False
        return True

    def walk(depth: int) -> None:
        nonlocal steps
        if depth == len(allowed):
            members = tuple(sorted(chosen, key=separation_sort_key))
            tangles.append(Tangle(host=g, order=theta, members=members))
            return
        for s, m in allowed[depth]:
            steps += 1
            if steps > budget.search_steps:
                raise BudgetExceeded(
                    f"enumerate_tangles: more than {budget.search_steps} search steps"
                )
            if admissible(m):
                chosen.append(s)
                masks.append(m)
                walk(depth + 1)
                chosen.pop()
                masks.pop()

    walk(0)
    return tangles


def _connected_masks(g: Graph, verts: Sequence[int]) -> list[int]:
    bit = {v: i for i, v in enumerate(verts)}
    nbr = [0] * len(verts)
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        if u != v:
            nbr[bit[u]] |= 1 << bit[v]
            nbr[bit[v]] |= 1 << bit[u]
    out = []
    for mask in range(1, 1 << len(verts)):
        seed = mask & -mask
        seen = seed
        frontier = seed
        while frontier:
            grow = 0
            m = frontier
            while m:
                low = m & -m
                grow |= nbr[low.bit_length() - 1]
                m ^= low
            frontier = grow & mask & ~seen
            seen |= frontier
        if seen == mask:
            out.append(mask)
    return out


def brute_force_grid_model(
    g: Graph,
    side: int,
    budget: EnumerationBudget | None = None,
) -> Pseudomodel | None:
    """Search for a model of the side x side grid in a tiny host.

    Branch sets are enumerated as connected vertex subsets in ascending
    bitmask order, so the first model found is deterministic.  Branches
    are induced subgraphs; each pattern edge gets the least host edge
    joining its two branches.  Each branch mask tried is a search step.
    A grid of more vertices than the host has no model: None, at no step.
    """
    budget = budget or EnumerationBudget()
    if side > budget.max_pattern_side:
        raise BudgetExceeded(
            f"brute_force_grid_model: side {side} exceeds the budget of {budget.max_pattern_side}"
        )
    if g.num_vertices > 12:
        raise BudgetExceeded("brute_force_grid_model: hosts beyond 12 vertices are out of scope")
    if side * side > g.num_vertices:  # branches are non-null and disjoint
        return None
    pattern = grid_graph(side)
    verts = sorted(g.vertices)
    bit = {v: i for i, v in enumerate(verts)}
    masks = _connected_masks(g, verts)
    cross: dict[tuple[int, int], list[int]] = {}
    for e in sorted(g.edge_ids):
        u, v = g.endpoints(e)
        if u != v:
            cross.setdefault((bit[u], bit[v]), []).append(e)

    def joining_edges(ma: int, mb: int) -> list[int]:
        out = []
        for (iu, iv), eids in cross.items():
            if (ma >> iu & 1 and mb >> iv & 1) or (mb >> iu & 1 and ma >> iv & 1):
                out.extend(eids)
        return sorted(out)

    pattern_order = sorted(pattern.vertices)
    assigned: dict[int, int] = {}
    steps = 0

    def place(pos: int, used: int) -> dict[int, int] | None:
        nonlocal steps
        if pos == len(pattern_order):
            return dict(assigned)
        pv = pattern_order[pos]
        earlier = [w for w in pattern.neighbors(pv) if w in assigned]
        for mask in masks:
            steps += 1
            if steps > budget.search_steps:
                raise BudgetExceeded(
                    f"brute_force_grid_model: more than {budget.search_steps} search steps"
                )
            if mask & used:
                continue
            if all(joining_edges(mask, assigned[w]) for w in earlier):
                assigned[pv] = mask
                found = place(pos + 1, used | mask)
                if found is not None:
                    return found
                del assigned[pv]
        return None

    solution = place(0, 0)
    if solution is None:
        return None

    def mask_vertices(mask: int) -> set[int]:
        return {verts[i] for i in range(len(verts)) if mask >> i & 1}

    branches = {}
    for pv, mask in solution.items():
        vs = mask_vertices(mask)
        es = {e for e in g.edge_ids if set(g.endpoints(e)) <= vs}
        branches[pv] = Subgraph(g, vs, es)
    images = {}
    for e in sorted(pattern.edge_ids):
        u, v = pattern.endpoints(e)
        images[e] = joining_edges(solution[u], solution[v])[0]
    return Pseudomodel(g, pattern, branches, images)


def verify_output_row_property(result, seps: Sequence[Separation], g: int) -> ValidationReport:
    """Row-order property of an extraction result against enumerated separations.

    ``result`` must expose ``problem.model`` (the input grid model, used
    to orient each separation the tangle way) and ``witness.augmented``
    (the output model of the g x g grid).  For each oriented separation
    whose A side swallows a full output-row image, the order must be at
    least g; anything smaller is reported under code ``row-order``.
    The input model's row images are built once, and a separation of
    order g or more is skipped before it is oriented.
    """
    report = ValidationReport()
    augmented = result.witness.augmented
    input_model = result.problem.model
    row_images = [
        image_of_vertices(augmented, row_vertices(g, i)) for i in range(1, g + 1)
    ]
    input_rows = grid_row_images(input_model)
    for s in seps:
        if s.order >= g:
            continue  # orienting keeps the order
        oriented = orient_by_rows(input_rows, s)
        for i, img in enumerate(row_images, start=1):
            if img <= oriented.a.vertices:
                report.add(
                    "row-order",
                    f"output row {i} image sits inside an A side of order {oriented.order}",
                )
    return report


def enumerate_blocking_separations(
    g: Graph,
    roots: Iterable[int],
    p: Pseudomodel,
    rows: Sequence[Sequence[int]],
    max_order: int,
    budget: EnumerationBudget | None = None,
) -> list[Separation]:
    """All separations of order <= max_order blocking the roots from a row.

    A blocker contains every root in V(A) and some listed row's branch
    image inside V(B).  This is the exhaustive ground truth that the
    fast hypothesis checker is validated against.
    """
    root_set = frozenset(roots)
    row_images = [image_of_vertices(p, row) for row in rows]
    out = []
    for s in enumerate_separations(g, max_order, budget):
        if root_set <= s.a.vertices and any(img <= s.b.vertices for img in row_images):
            out.append(s)
    return out
