"""Rooted grid extraction: carve a clean subgrid wired to a root set.

Given a host graph G, a k-element root set Z, and a pseudomodel of a
subgraph J of the n x n grid in G (with J containing a full grid row),
``extract`` either produces a g x g subgrid H of J whose restriction is
Z-augmentable (each of the first k first-column branches enlarged to
capture a root, everything else untouched), or a certificate separation
of order below k pinching Z off from a full row image.

The procedure is the inductive argument run forward: scan for blocking
separations row by row; recurse into the big side of a reducible one;
otherwise delete or contract reducible edges until the model saturates;
then pick a clean band of rows, drop the inner window except a k-vertex
column stub, and connect the roots to the stub by disjoint paths.  Every
step appends a replayable trace record.

A run copies its host once, into one mutable working graph
(``graph.WorkingGraph``) that every recursion level shrinks in place,
one edge deletion or contraction at a time, and cuts down to the B side
of a blocker before it recurses.  A level holds its pattern, branches,
roots and blocker sides as id sets, and its journal keeps only the
endpoints of each step, ``(kind, eid, u, v)``.  Its row scanner
(``separations._RowScanner``) is fed every journal entry instead of
being rebuilt and reads the level's first k + 1 full rows
(``_rows_to_scan``).  Its reductions follow the reduction schedule
(``_reductions``) its rule order fixes: the plain edges, then the
branch loops, then each least branch edge contracted and its parallel
copies deleted.
The witness is carried back through the journals on id sets and built
once, in the caller's original graph.  A certificate is never carried:
it is a cut of the input host for the blocked row (``_Runner._refutation``).
No ``Separation`` or ``Pseudomodel`` is made inside the loop, and a run
builds two ``Graph``s, the g x g grids of the witness and its check.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from typing import Iterable, Sequence

from .errors import HypothesisViolated, InternalInvariantBroken, MalformedInput
from .graph import Graph, Subgraph, WorkingGraph, subgraph_components
from .grid import (
    GridAtlas,
    choose_band,
    first_off_grid_edge,
    grid_edge_id,
    grid_edges_among,
    grid_graph,
    vertex_id,
)
from .models import (
    AugmentationWitness,
    Pseudomodel,
    check_augmentation,
    image_of_vertices,
    validate_pseudomodel,
)
from .separations import (
    Separation,
    _RowScanner,
    _route,
    _separation_from_sides,
    find_row_blocking_separation,
)
from .validation import ValidationReport


@dataclass(frozen=True)
class ExtractionProblem:
    """Host, roots, and a grid-subgraph pseudomodel, plus the parameters.

    The pattern of ``model`` must be a subgraph of the n x n grid using
    grid vertex and edge ids, so pattern coordinates stay meaningful
    across the whole recursion.
    """

    host: Graph
    roots: frozenset[int]
    model: Pseudomodel
    n: int
    g: int
    k: int


@dataclass(frozen=True)
class ExtractionResult:
    """A certified outcome: the chosen subgrid, witness, and audit trace."""

    problem: ExtractionProblem
    atlas: GridAtlas
    witness: AugmentationWitness
    trace: tuple[dict, ...]


@dataclass(frozen=True)
class HypothesisCheck:
    """Verdict of the root-connectivity hypothesis, with certificate."""

    holds: bool
    separation: Separation | None
    row: tuple[int, ...] | None


def validate_problem(problem: ExtractionProblem) -> ValidationReport:
    """Check every extraction precondition, reporting all violations.

    Hypothesis (i) is read only at the branches that can break it: those
    on the pattern's boundary and those of more than one vertex.  A pattern
    whose ``_grid_side`` is n (see ``Graph``) skips the grid id and edge check.
    """
    report = ValidationReport()
    n, g, k = problem.n, problem.g, problem.k
    if not 1 <= k <= g:
        report.add("params", f"need 1 <= k <= g, got k={k}, g={g}")
        return report
    if n <= k * (g + 2 * k):
        report.add("params", f"grid side {n} too small, need n > k*(g+2k) = {k * (g + 2 * k)}")
    if len(problem.roots) != k:
        report.add("roots", f"expected {k} roots, got {len(problem.roots)}")
    if not problem.roots <= problem.host.vertices:
        report.add("roots", "roots must be vertices of the host")
    if problem.model.host != problem.host:
        report.add("model-host", "model does not live in the problem host")
        return report
    pattern = problem.model.pattern
    if getattr(pattern, "_grid_side", None) != n:
        vertices = pattern.vertices
        if vertices and not (min(vertices) >= 1 and max(vertices) <= n * n):
            for pv in sorted(vertices):
                if not 1 <= pv <= n * n:
                    report.add("pattern-grid", f"pattern vertex {pv} is not an {n}x{n} grid id")
                    return report
        pe = first_off_grid_edge(n, pattern)
        if pe is not None:
            report.add("pattern-grid", f"pattern edge {pe} does not match the {n}x{n} grid")
            return report
    if not _full_rows(n, pattern):
        report.add("pattern-row", "pattern contains no full grid row")
    sub_report = validate_pseudomodel(problem.model)
    if not sub_report.ok:
        return report.merged(sub_report)
    # One vertex is one component, loops or not: only larger branches
    # are split, so a one-vertex branch off the boundary cannot break
    # hypothesis (i).
    branches, roots = problem.model.branches, problem.roots
    bnd = _pattern_boundary(n, pattern)
    suspects = bnd.union([pv for pv, br in branches.items() if len(br.vertices) > 1])
    for pv in sorted(suspects):
        branch = branches[pv]
        comps = (branch,) if len(branch.vertices) == 1 else subgraph_components(branch)
        if len(comps) == 1 and pv not in bnd:
            continue
        if all(comp.vertices & roots for comp in comps):
            continue
        report.add(
            "hypothesis-i",
            f"branch of pattern vertex {pv} is disconnected or boundary-touching "
            "without every component meeting the roots",
        )
    return report


def _pattern_boundary(n: int, pattern: Graph | Subgraph) -> frozenset[int]:
    """Pattern vertices at which some edge of the n x n grid is missing from the pattern.

    This is ``boundary(grid_graph(n), pattern)`` for a pattern that
    ``first_off_grid_edge`` passes: its edges are grid edges under their
    own ids, so none is a loop and no two are parallel, and a vertex
    lacks a grid edge exactly when it has fewer pattern edges than grid
    edges.
    """
    edges, last = pattern.edge_ids, n - 1
    if len(pattern.vertices) == n * n and len(edges) == 2 * n * last:
        return frozenset()  # the whole grid, every edge present
    ends = pattern.host.endpoints if isinstance(pattern, Subgraph) else pattern.endpoints
    degree = Counter(chain.from_iterable(map(ends, edges)))
    out = []
    for pv in pattern.vertices:
        i, j = divmod(pv - 1, n)  # 0-based row and column
        if degree[pv] < (i > 0) + (i < last) + (j > 0) + (j < last):
            out.append(pv)
    return frozenset(out)


def _json_rows(problems: ValidationReport) -> list[str]:
    return [f"{f.code}: {f.message}" for f in problems.findings]


# -- shared mechanics ------------------------------------------------------
#
# Branch maps inside a run are plain id sets: pattern vertex ->
# (branch vertex ids, branch edge ids).  The two sides of a separation
# are (VA, EA, VB, EB).  A journal entry is (kind, eid, u, v): "delete"
# or "contract", the edge, and its endpoints u <= v just before the
# step; a contraction's survivor is u.


def _full_rows(n: int, pattern: Graph | Subgraph) -> list[tuple[int, ...]]:
    """The rows of the n x n grid all of whose vertices are in the pattern, top to bottom.

    Row i is ``row_vertices(n, i)``, the ids (i-1)n+1 to in.  The walk
    takes the pattern's grid ids in ascending order and steps once per
    row that holds any of them: the row is full when its first and last
    ids lie n - 1 places apart.  So the cost is O(|pattern| log
    |pattern|), not O(n^2) in an n the input declares.
    """
    ids = sorted(pattern.vertices)
    at, end = bisect_left(ids, 1), bisect_right(ids, n * n)
    rows = []
    while at < end:
        first = ids[at] - (ids[at] - 1) % n
        last = first + n - 1
        if ids[at] == first and at + n - 1 < end and ids[at + n - 1] == last:
            rows.append(tuple(range(first, last + 1)))
        at = bisect_right(ids, last, at, end)
    return rows


def _rows_to_scan(n: int, k: int, pattern: Subgraph) -> list[tuple[int, ...]]:
    """The full rows every scan of a level reads (its pattern never
    changes): the first k + 1.  A scan of those gives the full scan's
    answer.

    This needs what the loop keeps at every level: |Z| = k, disjoint
    branches, each pattern edge's image joining its ends' branches, and
    hypothesis (i): a branch that is disconnected, or whose pattern
    vertex lacks a grid edge, has a root in every component.
    Boundary bound: |dP| <= k, where dP (``_pattern_boundary``) is the
    set of pattern vertices that lack a grid edge, since each such
    branch holds a root and the branches are disjoint.  Walking down a
    column from one full row to another, the last present vertex before
    a missing vertex or edge lies in dP, so at most k columns are not
    full between the first and the last full row, and more than k are,
    as n > k(g + 2k) >= 3k.
    Lemma: if row r' blocks, with cut X (|X| <= k) and B' the vertices
    its image reaches in G - X (no root is in B', and no edge leaves B'
    but into X), every clear row meets X.  Row images are disjoint, so
    at most k rows are clear, and the first blocker comes before the
    (k+1)-th clear row.
    - Some full column misses X, by the boundary bound.  Its branch in
      row r' lies in B'.  An edge image leaving a branch inside B' ends
      in the next branch off X, so in B'; that component of the next
      branch holds no root, so the branch is connected and lies in B'.
      The column lies in B'.
    - A row r whose image misses X lies in B' the same way, walked from
      its cell in that column: a branch inside B' holds no root, so its
      pattern vertex has every grid edge.
    - Then X meets every path from Z to r's image.  If |X| < k, r's flow
      is below k.  Else X is a minimum cut, and r clear would make Z its
      sink-side cut, with every vertex off Z reaching its image in G - Z.
      The nodes that reach the sink lie on the sink side of every
      minimum cut, and a root off X has its out-node on the source side
      of X's, so X = Z.  In G - Z, r's image reaches no more than B', so
      what blocks r' (an edge inside Z, or |Z| + |B'| < |V|) blocks r.
    The premises hold at every level.  A deletion (a plain edge or a
    loop) leaves every branch connected and every image alone, and a
    contraction keeps its piece connected and any root in it.  In
    ``_derive_subproblem`` (roots X), a branch inside B' is connected
    with every grid edge, whose images lie in B, so it is kept whole
    with its edges; every other branch's pieces in B reach X along the
    branch.  The loop runs no strict scan, and the public scans read
    every row: their models are not validated.
    """
    return _full_rows(n, pattern)[:k + 1]


def _reductions(work: WorkingGraph, branches: dict, images: dict[int, int]):
    """A level's edge reductions in schedule order, as ``(rule, edge, branch)``.

    Rule order: plain deletion (edge in no branch and no image), branch
    edge deletion (a loop), branch edge contraction (everything else
    inside a branch).  That order fixes a schedule: every plain edge,
    ascending; then the level's branch loops, ascending; then, again and
    again, the least branch edge still present is contracted and its
    parallel copies, now the survivor's loops, are deleted, ascending.
    An edge only ever leaves the graph or, when a contraction merges its
    ends, becomes a loop.  The plain edges are gone before the first
    contraction, and an image edge joins two disjoint branches, so a
    contraction's parallel copies are the only loops that form, and
    each is an edge of the contracted one's branch.  The caller applies
    each reduction (``_apply_edge_reduction``) before it asks for the
    next, so the survivor's loops are read from ``work`` as the
    contraction left it.

    No rule is needed for a branch edge between two roots: the schedule
    is first advanced only after a scan returned None, and a row is
    clear only when its sink-side cut is Z with no edge inside it.
    Every level has a full row (the top level by ``validate_problem``, a
    sub-level keeps the row that blocked), so no edge then lies inside Z.
    """
    image_set = set(images.values())
    owner = {e: pv for pv, (_vs, es) in branches.items() for e in es}
    for e in sorted(e for e in work.edge_ids if e not in image_set and e not in owner):
        yield "edge-delete", e, None
    for e in sorted(e for e in owner if work.endpoints(e)[0] == work.endpoints(e)[1]):
        yield "branch-edge-delete", e, owner.pop(e)
    for e in sorted(owner):
        if e in owner:  # not deleted as an earlier contraction's parallel copy
            survivor = work.endpoints(e)[0]
            yield "branch-edge-contract", e, owner.pop(e)
            i = work.index[survivor]
            for f in sorted(work.around[i][i]):
                pv = owner.pop(f, None)
                yield "edge-delete" if pv is None else "branch-edge-delete", f, pv


def _apply_edge_reduction(
    work: WorkingGraph,
    roots: set[int],
    branches: dict,
    kind: str,
    eid: int,
    branch_key: int | None,
) -> tuple[str, int, int, int]:
    """Apply one edge reduction in place; returns its journal entry."""
    u, v = work.endpoints(eid)
    if branch_key is not None:
        vs, es = branches[branch_key]
        branches[branch_key] = (vs - {v} if kind == "branch-edge-contract" else vs, es - {eid})
    if kind == "branch-edge-contract":
        work.contract_edge(eid)
        if v in roots:
            roots.discard(v)
            roots.add(u)
        return ("contract", eid, u, v)
    work.delete_edge(eid)
    return ("delete", eid, u, v)


def _derive_subproblem(pattern: Subgraph, branches: dict, images: dict[int, int], sides: tuple):
    """Shrink the pattern, branches and images into the B side of a reducible separation.

    The pattern keeps the vertices whose branches still meet B, and the
    edges all of whose other-side escape is impossible (some end's
    branch lies entirely outside A).  It stays a subgraph of the input
    pattern, whose endpoints it reads.
    """
    a_verts, _a_edges, b_verts, b_edges = sides
    keep_vertices = [pv for pv in sorted(pattern.vertices) if branches[pv][0] & b_verts]
    kept = set(keep_vertices)
    ends = pattern.host.endpoints
    keep_edges = []
    for e in sorted(pattern.edge_ids):
        x, y = ends(e)
        if x not in kept or y not in kept:
            continue
        if not branches[x][0] & a_verts or not branches[y][0] & a_verts:
            keep_edges.append(e)
    sub_pattern = Subgraph._unchecked(pattern.host, kept, keep_edges)
    sub_branches = {
        pv: (branches[pv][0] & b_verts, branches[pv][1] & b_edges) for pv in keep_vertices
    }
    sub_images = {e: images[e] for e in keep_edges}
    return sub_pattern, sub_branches, sub_images


def _unwind_journal(journal: Sequence[tuple], branches: dict) -> dict:
    """Undo a level's contractions on witness branches, newest first.

    The branch holding a contraction's survivor regains both ends and
    the edge; deletions change no branch.
    """
    branches = dict(branches)
    for kind, f, u, v in reversed(journal):
        if kind != "contract":
            continue
        for pv, (vs, es) in branches.items():
            if u in vs:
                branches[pv] = (vs | {v}, es | {f})
    return branches


def _path_edges(host: WorkingGraph, path: Sequence[int]) -> list[int]:
    """The least-id host edge joining each two consecutive path vertices,
    read off ``host``'s numbered adjacency (a flow path's consecutive
    vertices are distinct, so a step is never a loop)."""
    index, around = host.index, host.around
    out = []
    for a, b in zip(path, path[1:]):
        joining = around[index[a]].get(index[b])
        if not joining:
            raise InternalInvariantBroken(f"path step {a}~{b} is not a host edge")
        out.append(min(joining))
    return out


def _graft_paths(
    host: WorkingGraph,
    branches: dict,
    terminals: frozenset[int],
    paths: Sequence[Sequence[int]],
    g: int,
    k: int,
) -> dict:
    """Extend the first k first-column branches of the g x g grid by paths of ``host``.

    Each of those branches contains exactly one of ``terminals``, the
    paths' last vertices; the path ending there is grafted on, with the
    least-id host edge for each of its steps.  The band step grafts the
    root-to-stub paths this way, and the splice step the root-to-separator
    paths that carry a branch's root coverage up one recursion level.
    """
    by_terminal = {path[-1]: tuple(path) for path in paths}
    if len(by_terminal) != len(paths):
        raise InternalInvariantBroken("grafted paths do not have distinct terminals")
    branches = dict(branches)
    for a in range(1, k + 1):
        key = vertex_id(g, a, 1)
        vs, es = branches[key]
        hits = vs & terminals
        if len(hits) != 1:
            raise InternalInvariantBroken(
                f"first-column branch {a} meets the path terminals {len(hits)} times",
                payload={"branch": sorted(vs)},
            )
        terminal = next(iter(hits))
        if terminal not in by_terminal:
            raise InternalInvariantBroken(f"no path ends at terminal {terminal}")
        path = by_terminal[terminal]
        branches[key] = (vs | set(path), es | set(_path_edges(host, path)))
    return branches


def _saturated_state(
    roots: set[int],
    pattern: Subgraph,
    branches: dict,
    n: int,
    g: int,
    k: int,
) -> tuple[GridAtlas, frozenset[int]]:
    """Band selection once no reduction applies, after the checks it rests on.

    Those are: every branch is a singleton or lies inside the roots, at
    most k branches meet the roots (Z'), and dP (``_pattern_boundary``)
    lies in Z'.  Then a row free of Z' is a full pattern row whose
    vertices have every grid edge.  A row that mixes present and missing
    cells has a dP vertex in it, and a row with every cell missing puts
    a dP vertex in each of the n > k columns, the last present one on
    the way to the level's full row.  So every cell of a band free of
    Z' has a singleton branch (a larger one meets the roots) and all its
    grid edges in the pattern, as the window base and g* need.
    """
    for pv in sorted(pattern.vertices):
        vs = branches[pv][0]
        if len(vs) > 1 and not vs <= roots:
            raise InternalInvariantBroken(
                f"saturated branch of {pv} is neither a singleton nor root-contained",
                payload={"branch": sorted(vs)},
            )
    z_prime = frozenset(pv for pv in pattern.vertices if branches[pv][0] & roots)
    if len(z_prime) > k:
        raise InternalInvariantBroken(
            f"{len(z_prime)} branches meet the {k} roots", payload=sorted(z_prime)
        )
    bnd = _pattern_boundary(n, pattern)
    if not bnd <= z_prime:
        raise InternalInvariantBroken(
            "pattern boundary escapes the root-touching vertices",
            payload=sorted(bnd - z_prime),
        )
    atlas = choose_band(n, g, k, z_prime)
    if atlas is None:
        raise InternalInvariantBroken(
            "no clean row band exists", payload=sorted(z_prime)
        )
    return atlas, z_prime


def _window_base(
    branches: dict, images: dict[int, int], atlas: GridAtlas
) -> tuple[dict[int, int], dict]:
    """The small grid's edge images and the base witness branch sets, read off the window."""
    n, g = atlas.n, atlas.g
    big = {vertex_id(g, a, b): atlas.cell(a, b) for a in range(1, g + 1) for b in range(1, g + 1)}
    small_images = {
        e: images[grid_edge_id(n, big[a], big[b])] for e, a, b in grid_edges_among(g, big)
    }
    return small_images, {sv: branches[bv] for sv, bv in big.items()}


class _Runner:
    """One deterministic extraction run; ``trace`` collects its records.

    ``replay`` checks a recorded trace by running this again, through
    ``extract``, and comparing the two record for record.
    """

    def __init__(self, n: int, g: int, k: int):
        self.n = n
        self.g = g
        self.k = k
        self.trace: list[dict] = []

    # -- the recursive procedure --------------------------------------------

    def start(self, problem: ExtractionProblem):
        """Run from depth 0 on a working copy of the problem's host."""
        self.problem = problem
        model = problem.model
        pattern = Subgraph._unchecked(model.pattern, model.pattern.vertices, model.pattern.edge_ids)
        branches = {pv: (br.vertices, br.edge_ids) for pv, br in model.branches.items()}
        work = WorkingGraph(problem.host)
        return self.run(work, problem.roots, pattern, branches, model.edge_images, 0)

    def _refutation(self, row: tuple[int, ...], depth: int,
                    separation: Separation | None) -> HypothesisViolated:
        """The refutation for a strict blocker of ``row`` found at ``depth``,
        certified by a separation of the problem's host.

        ``separation`` is the scan's own, given only while the level's
        graph is still the host (depth 0, nothing reduced).  Otherwise the
        certificate is the host's sink-side cut for the row, from a strict
        public scan of that row alone.  Either way it must have the roots
        in V(A), the input model's image of the row in V(B), and order
        below k.

        Only a level's first scan can be strict.  Reductions run only once
        every full row is clear, and a clear row has Z as its only minimum
        cut: its sink-side cut is Z, and every other vertex reaches the
        image in G - Z.  Let X' be a cut below k after one reduction.
        - Deleting edge xy: X' + x and X' + y are cuts of G of size at most
          k, so both are Z and x = y; deleting a loop changes nothing.
        - Contracting xy into w: if w is in X', X' - w + {x, y} is a cut of
          G of size at most k, so it is Z with the edge inside it, which a
          clear row rules out; otherwise X' is already a cut of G below k.
        So at depth 0 the scan's sides are a cut of the host.  Below a
        recursion the level's graph is a B side, so the host's own cut for
        the row is computed instead.
        """
        problem = self.problem
        if separation is None:
            block = find_row_blocking_separation(
                problem.host, problem.roots, problem.model, [row], self.k, strict_only=True
            )
            if block is None:
                raise InternalInvariantBroken(
                    "the input host does not cut the refuted row below k",
                    payload={"row": list(row), "depth": depth},
                )
            separation = block.separation
        va, vb = separation.a.vertices, separation.b.vertices
        broken = {}
        if not problem.roots <= va:
            broken["roots_outside_a"] = sorted(problem.roots - va)
        image = image_of_vertices(problem.model, row)
        if not image <= vb:
            broken["row_outside_b"] = sorted(image - vb)
        if separation.order >= self.k:
            broken["order"] = separation.order
        if broken:
            raise InternalInvariantBroken(
                "delivered certificate failed its own check",
                payload={"row": list(row), "depth": depth, **broken},
            )
        return HypothesisViolated(separation, row, depth)

    def run(
        self,
        work: WorkingGraph,
        roots: frozenset[int],
        pattern: Subgraph,
        branches: dict,
        images: dict[int, int],
        depth: int,
    ) -> tuple[GridAtlas, dict[int, int], dict, dict]:
        """One recursion level on the run's working graph, edited in place.

        The level's row scanner and reduction schedule (``_reductions``)
        read ``work``; the scanner is fed every journal entry instead of
        being rebuilt.  At a reducible blocker the level copies its A
        side out of ``work`` for the splice (the one thing it keeps
        across the recursion), deletes it from ``work`` and recurses into
        the B side left.
        Returns the atlas, the small grid's edge images and the base and
        augmented witness branch sets, unwound into ``work`` as it began.
        """
        n, g, k = self.n, self.g, self.k
        roots = set(roots)
        branches = dict(branches)
        journal: list[tuple] = []
        scanner = _RowScanner(work, {pv: vs for pv, (vs, _es) in branches.items()},
                              _rows_to_scan(n, k, pattern), k)
        reductions = _reductions(work, branches, images)
        while True:
            block = scanner.scan(roots)
            if block is not None and block.kind == "strict":
                separation = None
                if depth == 0:  # a first scan: the level's graph is still the host
                    separation = _separation_from_sides(self.problem.host, block.sides(work, roots))
                raise self._refutation(block.row, depth, separation)
            if block is not None:
                sides = va, ea, vb, eb = block.sides(work, roots)
                separator = frozenset(va & vb)
                record = {
                    "kind": "separation-recursion",
                    "depth": depth,
                    "row": list(block.row),
                    "order": len(separator),
                    "separator": sorted(separator),
                    "aVertices": sorted(va),
                    "aEdges": sorted(ea),
                    "bVertices": sorted(vb),
                    "bEdges": sorted(eb),
                    "measure": len(vb) + len(eb),
                }
                self.trace.append(record)
                # this level scans no more: only the innermost level's row
                # states need to stay alive during the recursion
                del scanner, reductions
                a_side = work.induced(va)  # EA is all edges among VA: every B edge has a B-only end
                for e in ea:
                    work.delete_edge(e)
                work.vertices -= va - vb
                atlas, small_images, base, augmented = self.run(
                    work, separator, *_derive_subproblem(pattern, branches, images, sides), depth + 1,
                )
                splice = _route(a_side, roots, separator, k)
                if not splice.found_paths:
                    raise InternalInvariantBroken(
                        "the guaranteed root splice paths do not exist",
                        payload={"cut": sorted(splice.cut)},
                    )
                record["splicePaths"] = [list(p) for p in splice.paths]
                augmented = _graft_paths(a_side, augmented, separator, splice.paths, g, k)
                return (atlas, small_images, _unwind_journal(journal, base),
                        _unwind_journal(journal, augmented))
            reduction = next(reductions, None)
            if reduction is None:
                break
            kind, eid, branch_key = reduction
            entry = _apply_edge_reduction(work, roots, branches, kind, eid, branch_key)
            journal.append(entry)
            scanner.feed(entry)
            record = {
                "kind": kind,
                "depth": depth,
                "edge": eid,
                "measure": work.measure,
            }
            if kind == "branch-edge-contract":
                record["survivor"] = entry[2]
            if branch_key is not None:
                record["branch"] = branch_key
            self.trace.append(record)
        atlas, z_prime = _saturated_state(roots, pattern, branches, n, g, k)
        self.trace.append({
            "kind": "band-selected",
            "depth": depth,
            "top": atlas.i0 - atlas.k,
            "i0": atlas.i0,
            "j0": atlas.j0,
            "forbidden": sorted(z_prime),
        })
        stub = atlas.root_segment()
        removed = set().union(*(branches[pv][0] for pv in atlas.central_vertices() - set(stub)))
        g_star = work.induced(work.vertices - removed)
        targets = frozenset(next(iter(branches[pv][0])) for pv in stub)
        search = _route(g_star, roots, targets, k)
        if not search.found_paths:
            raise InternalInvariantBroken(
                "the final disjoint-paths search returned a cut",
                payload={"cut": sorted(search.cut), "targets": sorted(targets)},
            )
        self.trace.append({
            "kind": "menger-augment",
            "depth": depth,
            "targets": sorted(targets),
            "paths": [list(p) for p in search.paths],
        })
        small_images, base = _window_base(branches, images, atlas)
        augmented = _graft_paths(g_star, base, targets, search.paths, g, k)
        return (atlas, small_images, _unwind_journal(journal, base),
                _unwind_journal(journal, augmented))


def _finish(problem: ExtractionProblem, atlas: GridAtlas, images: dict[int, int],
            base: dict, augmented: dict, trace: list[dict]) -> ExtractionResult:
    """Build the witness once, in the problem's host, and check it."""
    host = problem.host
    small = grid_graph(problem.g)

    def in_host(branches: dict) -> Pseudomodel:
        subgraphs = {pv: Subgraph(host, vs, es) for pv, (vs, es) in branches.items()}
        return Pseudomodel(host, small, subgraphs, images)

    witness = AugmentationWitness(in_host(base), in_host(augmented), problem.roots)
    report = check_augmentation(witness)
    if not report.ok:
        raise InternalInvariantBroken(
            "delivered witness failed its own validation", payload=report.as_dict()
        )
    for pv, br in witness.base.branches.items():
        if br.vertices & problem.roots:
            raise InternalInvariantBroken(
                f"base branch of {pv} touches the root set",
                payload=sorted(br.vertices & problem.roots),
            )
    return ExtractionResult(problem, atlas, witness, tuple(trace))


def extract(problem: ExtractionProblem) -> ExtractionResult:
    """Run the full extraction; see the module docstring for the contract.

    Raises MalformedInput when the problem invariants fail,
    HypothesisViolated with a certificate separation of the problem's
    host when the roots can be pinched off from a full row image by fewer
    than k vertices, and
    InternalInvariantBroken when a step the argument guarantees fails.
    """
    report = validate_problem(problem)
    if not report.ok:
        raise MalformedInput("extraction problem rejected", _json_rows(report))
    runner = _Runner(problem.n, problem.g, problem.k)
    try:
        return _finish(problem, *runner.start(problem), runner.trace)
    except (HypothesisViolated, InternalInvariantBroken) as exc:
        exc.trace = tuple(runner.trace)
        raise


def replay(problem: ExtractionProblem, trace: Sequence[dict]) -> ExtractionResult:
    """Re-run ``extract`` on ``problem`` and check a recorded trace against it.

    Only the exact trace the deterministic run emits is accepted: when
    the recorded trace equals the re-run's record for record, the result
    is returned or the certificate re-raised as HypothesisViolated.
    Otherwise InternalInvariantBroken is raised; its payload gives the
    first differing index and the expected (recorded) and recomputed
    records, None past the end of either trace.
    """
    try:
        result = extract(problem)
    except HypothesisViolated as exc:
        _require_equal_traces(trace, exc.trace)
        raise
    _require_equal_traces(trace, result.trace)
    return result


def _require_equal_traces(recorded: Sequence[dict], rerun: Sequence[dict]) -> None:
    recorded, rerun = list(recorded), list(rerun)
    if recorded == rerun:
        return
    index = next(
        (i for i, (a, b) in enumerate(zip(recorded, rerun)) if a != b),
        min(len(recorded), len(rerun)),
    )
    raise InternalInvariantBroken(
        "recorded trace differs from the re-run of extract",
        payload={
            "index": index,
            "expected": recorded[index] if index < len(recorded) else None,
            "recomputed": rerun[index] if index < len(rerun) else None,
        },
    )


def check_hypothesis(problem: ExtractionProblem) -> HypothesisCheck:
    """Decide the root-connectivity hypothesis by per-row minimum cuts.

    For every full grid row of the pattern, asks for k disjoint paths
    from the roots to the row's branch image.  A cut below k vertices is
    exactly a violating separation (max-flow equals min-cut, and cuts
    correspond to separations), so the verdict is a proof either way.
    The cut returned is the sink-side minimum cut, the same for every
    maximum flow.  This check does not require the full size
    preconditions of ``extract``; it is meaningful on arbitrarily small
    hosts.  Raises MalformedInput for k below 1, an empty root set,
    roots outside the host, and, when no row above it fails, a row image
    that is empty or not in the host.

    This is one strict scan of ``find_row_blocking_separation``, which
    checks the row images at its boundary: rows are scanned top to
    bottom and a row holds once k disjoint paths reach it.
    """
    model = problem.model
    rows = _full_rows(problem.n, model.pattern)
    block = find_row_blocking_separation(
        problem.host, problem.roots, model, rows, problem.k, strict_only=True
    )
    if block is None:
        return HypothesisCheck(True, None, None)
    return HypothesisCheck(False, block.separation, block.row)


def extract_via_tangle_statement(
    model: Pseudomodel,
    roots: Iterable[int],
    g: int,
    k: int,
) -> ExtractionResult:
    """Extraction specialized to a model of the full n x n grid.

    The pattern must be the complete grid graph; the subgraph J of the
    general form is then the whole grid, which is how the tangle-based
    statement of the theorem consumes it.
    """
    count = model.pattern.num_vertices
    n = isqrt(count)
    if n * n != count or model.pattern != grid_graph(n):
        raise MalformedInput(
            "extract_via_tangle_statement needs a model of the full square grid"
        )
    problem = ExtractionProblem(
        host=model.host, roots=frozenset(roots), model=model, n=n, g=g, k=k
    )
    return extract(problem)
