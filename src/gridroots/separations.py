"""Separations, tangles, and vertex-disjoint path / cut machinery.

A separation of a graph is an ordered pair of subgraphs covering the
graph with no shared edges; its order is the number of shared vertices.
Tangles are explicit separation sets checked against the three tangle
axioms at desk scale.  ``menger`` is a deterministic vertex-capacity
max-flow: it returns either ``k`` vertex-disjoint source-target paths or
a cut of fewer than ``k`` vertices together with the separation that cut
induces; ``_route`` is its unchecked search, which the extraction loop
runs on the working graphs it cuts out.  The flow engine is shared with
the row scan: the vertex-split network stays implicit, as arrays over
the numbered adjacency of a ``WorkingGraph``.  ``_RowScanner`` is the
one row scan, behind ``find_row_blocking_separation``,
``check_hypothesis`` (a strict scan) and the extraction loop, which
keeps it across the reductions of one level.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import AbstractSet, Iterable, Mapping, Sequence

from .errors import InternalInvariantBroken, MalformedInput
from .graph import Graph, Subgraph, WorkingGraph, reachable_from
from .grid import row_vertices
from .models import Pseudomodel, image_of_vertices
from .validation import ValidationReport


class Separation:
    """Ordered pair (A, B) of subgraphs with A union B = G, E(A^B) empty."""

    __slots__ = ("a", "b", "_hash")

    def __init__(self, a: Subgraph, b: Subgraph):
        if a.host != b.host:
            raise ValueError("separation sides live in different hosts")
        host = a.host
        if a.vertices | b.vertices != host.vertices or a.edge_ids | b.edge_ids != host.edge_ids:
            raise ValueError("separation sides do not cover the host graph")
        if a.edge_ids & b.edge_ids:
            raise ValueError("separation sides share edges")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_hash", hash((a, b)))

    def __setattr__(self, name, value):
        raise AttributeError("Separation is immutable")

    @property
    def host(self) -> Graph:
        return self.a.host

    @property
    def separator(self) -> frozenset[int]:
        return self.a.vertices & self.b.vertices

    @property
    def order(self) -> int:
        return len(self.separator)

    def flipped(self) -> "Separation":
        return Separation(self.b, self.a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Separation):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Separation(order={self.order}, |V(A)|={len(self.a.vertices)}, |V(B)|={len(self.b.vertices)})"


def separation_sort_key(s: Separation):
    """Deterministic ordering key for separation sequences."""
    return (
        sorted(s.a.vertices),
        sorted(s.a.edge_ids),
        sorted(s.b.vertices),
        sorted(s.b.edge_ids),
    )


@dataclass(frozen=True)
class Tangle:
    """An explicit tangle: all member separations listed outright."""

    host: Graph
    order: int
    members: tuple[Separation, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("tangle order must be at least 1")


@dataclass(frozen=True)
class CutResult:
    """Outcome of a Menger run: disjoint paths, or a cut with its separation."""

    paths: tuple[tuple[int, ...], ...] | None
    cut: frozenset[int] | None
    separation: Separation | None

    @property
    def found_paths(self) -> bool:
        return self.paths is not None


_FREE = -1  # the vertex carries no flow
_END = -2  # the flow enters from the super source / leaves to the super sink


class _FlowNetwork:
    """Unit-capacity vertex-split flow network of a working graph, kept implicit.

    The split network gives vertex i (index i of the ``WorkingGraph``)
    an in-node 2i and an out-node 2i + 1 joined by an arc of capacity 1,
    two uncapacitated arcs out(x) -> in(y) and out(y) -> in(x) per edge
    x-y (loops and parallel copies add nothing), and uncapacitated arcs
    from a super source to the in-nodes of the sources and from the
    out-nodes of the targets to a super sink.  Only the keys of
    ``around``, the working graph's own adjacency, are read (a vertex's
    neighbours, itself included), so the network follows its edits; a
    vertex that has left the graph has no neighbour.  Every vertex
    carries at most one unit, so the current flow is two arrays:
    ``prev[i]`` is the vertex feeding i (``_END`` for the super source,
    ``_FREE`` when i carries nothing) and ``nxt[i]`` the vertex i feeds
    (``_END`` for the super sink).
    """

    __slots__ = ("vertices", "index", "around", "prev", "nxt", "value", "level")

    def __init__(self, g: WorkingGraph):
        self.vertices, self.index, self.around = g.order, g.index, g.around
        self.prev: list[int] = []
        self.nxt: list[int] = []
        self.value = 0
        self.level: list[int] = []

    def solve(self, starts: Sequence[int], marks: bytearray, limit: int) -> int:
        """A flow to the marked vertices, augmented from nothing until its
        value reaches ``limit`` or is maximum; its value.

        ``starts`` are the in-nodes of the sources and ``marks`` marks the
        targets by vertex index.  The value never exceeds the number of
        sources or of targets, so reaching either also ends the search.
        Each augmenting path is a shortest one in the residual network,
        ties broken by ascending node id while no edit has reordered the
        working graph's neighbour maps, which fixes the flow and with it
        the paths.
        """
        prev, nxt, total = [_FREE] * len(marks), [_FREE] * len(marks), 0
        self.prev, self.nxt = prev, nxt
        limit = min(limit, len(starts), marks.count(1))
        around = self.around
        top = 2 * len(around)  # the super source
        while total < limit:
            parent = [-1] * top
            for u in starts:
                parent[u] = top
            queue = list(starts)
            end = -1
            for u in queue:
                i = u >> 1
                if u & 1:
                    if marks[i]:
                        end = i
                        break
                    # every in(j) next to out(i) is open; in(i) is open
                    # only when i carries flow, and is already queued when
                    # it does not, since out(i) was then reached from it
                    for j in around[i]:
                        w = 2 * j
                        if parent[w] < 0:
                            parent[w] = u
                            queue.append(w)
                else:
                    # in(i) leads to out(i) when i is free, else back
                    # along the edge that feeds it
                    j = prev[i]
                    if j == _END:
                        continue
                    w = u + 1 if j == _FREE else 2 * j + 1
                    if parent[w] < 0:
                        parent[w] = u
                        queue.append(w)
            if end < 0:
                break
            nxt[end] = _END
            w = 2 * end + 1
            while w != top:
                u = parent[w]
                if u == top:
                    prev[w >> 1] = _END
                elif u ^ w == 1:
                    pass  # the arc inside vertex i: prev[i] says if i is used
                elif u & 1:  # out(x) -> in(y): the edge now carries the unit
                    nxt[u >> 1] = w >> 1
                    prev[w >> 1] = u >> 1
                else:  # in(y) -> out(x): the unit on x -> y is cancelled
                    y, x = u >> 1, w >> 1
                    if nxt[x] == y:
                        nxt[x] = _FREE
                    if prev[y] == x:
                        prev[y] = _FREE
                w = u
            total += 1
        self.value = total
        return total

    def paths(self) -> list[list[int]]:
        """The flow's vertex paths, in ascending order of their sources.

        A path meets the sources only at its first vertex and the targets
        only at its last.  Every search seeds each source's in-node, so no
        arc into it ever carries a unit and no unit runs through a source;
        dequeuing a target's out-node ends the search, so no arc out of it
        ever carries a unit and no unit runs through a target.
        """
        verts, prev, nxt = self.vertices, self.prev, self.nxt
        out = []
        for i, p in enumerate(prev):
            if p != _END:
                continue
            path = [verts[i]]
            while nxt[i] != _END:
                i = nxt[i]
                path.append(verts[i])
            out.append(path)
        return out

    def sink_cut(self, heads: Iterable[int]) -> tuple[frozenset[int], bytearray]:
        """The sink-side minimum cut of a maximum flow, and what lies beyond it.

        ``heads`` are the indices of the targets.  A vertex is in the cut
        when its out-node reaches the super sink in the residual network
        and its in-node does not.  The nodes that reach the sink are the
        same for every maximum flow (Picard and Queyranne, 1980), so the
        cut does not depend on the order of augmentation.  The second
        value marks, by index, the vertices whose in-node reaches the
        sink: exactly those reachable from the targets in g minus the cut.

        The search runs breadth-first back from the sink and leaves
        ``level``, a certificate of what reaches it: ``level[j]`` is the
        distance of out(j) from the sink counted in out-nodes, -1 when
        out(j) does not reach it.  Every reached out-node but a target's
        has a residual successor in(i) that leads on to a lower one:
        in(i) leads to out(i) when i is free, else to out(prev[i]).
        """
        around, prev, nxt = self.around, self.prev, self.nxt
        nv = len(around)
        level = self.level = [-1] * nv
        in_seen = bytearray(nv)
        queue = []
        for j in heads:  # the out-nodes next to the sink
            level[j] = 0
            # the residual arc into out(j) comes from in(j) when j is
            # free, else from the in-node of the vertex j feeds
            p = j if prev[j] == _FREE else nxt[j]
            if p >= 0 and not in_seen[p]:
                in_seen[p] = 1
                queue.append(p)
        for i in queue:
            p = prev[i]
            d = level[i if p == _FREE else p] + 1
            # every out(j) next to in(i) reaches it; out(i) too when i
            # carries flow (when it does not, out(i) was seen first)
            for j in around[i]:
                if level[j] >= 0:
                    continue
                level[j] = d
                p = j if prev[j] == _FREE else nxt[j]
                if p >= 0 and not in_seen[p]:
                    in_seen[p] = 1
                    queue.append(p)
        # a free vertex whose out-node is seen has its in-node seen too,
        # so only vertices that carry flow can be in the cut
        cut = frozenset(
            self.vertices[j]
            for j, p in enumerate(prev)
            if p != _FREE and level[j] >= 0 and not in_seen[j]
        )
        if len(cut) != self.value:
            raise InternalInvariantBroken(
                f"min-cut extraction produced {len(cut)} vertices for flow {self.value}",
                payload={"cut": sorted(cut)},
            )
        return cut, in_seen


def menger(
    g: Graph,
    sources: Iterable[int],
    targets: Iterable[int],
    k: int,
    forbidden: Iterable[int] = (),
) -> CutResult:
    """Find k vertex-disjoint source-target paths or a smaller vertex cut.

    Vertex capacities (every vertex cuttable, sources and targets
    included) are realized by the standard vertex-splitting max-flow.
    Augmenting-path search is breadth-first with ties broken by
    ascending node identifier, so results are deterministic.  Paths meet
    the targets only at their final vertex and the sources only at their
    first (see ``_FlowNetwork.paths``); a source that is also a target
    yields a single-vertex path.  In the cut case the cut is the sink-side
    minimum cut, which is the same for every maximum flow, and the
    returned separation puts the cut plus everything reachable from the
    sources on the A side.  The graph is copied once, into the working
    graph the search reads and the cut's sides are split in.
    """
    src = frozenset(sources)
    tgt = frozenset(targets)
    fbd = frozenset(forbidden)
    problems = []
    if k < 1:
        problems.append(f"k must be positive, got {k}")
    if not src:
        problems.append("empty source set")
    if not tgt:
        problems.append("empty target set")
    if src & fbd or tgt & fbd:
        problems.append("sources and targets must be disjoint from forbidden vertices")
    if not src <= g.vertices or not tgt <= g.vertices:
        problems.append("sources and targets must be vertices of the graph")
    if problems:
        raise MalformedInput("bad menger query", problems)

    searched = g.remove_vertices(fbd) if fbd else g
    work = WorkingGraph(searched)
    result = _route(work, src, tgt, k)
    if result.found_paths:
        return result
    separation = _separation_from_sides(searched, _cut_sides(work, result.cut, src))
    return CutResult(paths=None, cut=result.cut, separation=separation)


def _route(g: WorkingGraph, sources: AbstractSet[int], targets: AbstractSet[int], k: int):
    """``menger``'s search in a fresh working graph, unchecked: its paths,
    or its cut with no separation."""
    net = _FlowNetwork(g)
    marks = bytearray(len(g.order))
    for t in targets:
        marks[g.index[t]] = 1
    if net.solve([2 * g.index[z] for z in sorted(sources)], marks, k) == k:
        paths = tuple(map(tuple, net.paths()))
        return CutResult(paths=paths, cut=None, separation=None)
    cut, _reach = net.sink_cut([net.index[t] for t in targets])
    return CutResult(paths=None, cut=cut, separation=None)


def _cut_sides(g: WorkingGraph, cut: frozenset[int], sources: AbstractSet[int]):
    """The sides ``(VA, EA, VB, EB)`` a cut induces: A = cut plus the source-reachable part."""
    return _split_sides(g, cut, reachable_from(g, sorted(sources), cut))


def _split_sides(g: WorkingGraph, cut: frozenset[int], a_only: AbstractSet[int]):
    """Sides ``(VA, EA, VB, EB)`` as id sets, A = cut plus ``a_only``, B = cut plus the rest.

    ``a_only`` must be a union of components of g minus the cut, so no
    edge joins it to the rest: edges touching a B-only vertex go to B,
    all others (those inside the cut included) to A.  Only the edges at
    the smaller side are read; the other side's are the rest.
    """
    va = a_only | cut
    b_only = g.vertices - va
    if len(va) < len(b_only):
        a_edges = {
            e for v in va for e in g.incident_edges(v)
            if b_only.isdisjoint(g.endpoints(e))
        }
        b_edges = set(g.edge_ids) - a_edges
    else:
        b_edges = {e for v in b_only for e in g.incident_edges(v)}
        a_edges = set(g.edge_ids) - b_edges
    return va, a_edges, b_only | cut, b_edges


def _separation_from_sides(g: Graph, sides) -> Separation:
    """The separation of g with sides ``(VA, EA, VB, EB)``, ids taken from g.

    Every caller splits g's own vertices and edges, each edge to a side
    that holds both its ends, so the sides are not re-checked against
    g; ``Separation`` still checks that they cover g and share no edge.
    """
    va, ea, vb, eb = sides
    return Separation(Subgraph._unchecked(g, va, ea), Subgraph._unchecked(g, vb, eb))


def blocking_separation(
    g: Graph,
    cut: frozenset[int],
    sources: frozenset[int],
    targets: frozenset[int],
) -> Separation:
    """Largest-A-side separation over a cut between sources and targets.

    Components of g minus the cut that contain a source, or contain
    neither a source nor a target, go to the A side; components with a
    target go to the B side; edges inside the cut go to A.  This makes
    B as small as possible, which is what the reducibility test needs.
    """
    work = WorkingGraph(g)
    with_source = reachable_from(work, sources, cut)
    b_only = reachable_from(work, targets - with_source, cut)
    return _separation_from_sides(g, _split_sides(work, cut, work.vertices - cut - b_only))


@dataclass(frozen=True)
class RowBlock:
    """A separation blocking the roots from one row's image."""

    separation: Separation
    row: tuple[int, ...]
    kind: str  # "strict" (order < k) or "reducible" (order = k, B != G)


@dataclass(frozen=True)
class _Blocker:
    """A row scan's first blocker: its cut, and ``sink_cut``'s marks by
    vertex index of what the row's image reaches in g minus the cut."""

    kind: str  # "strict" or "reducible", as in RowBlock
    row: tuple[int, ...]
    cut: frozenset[int]
    reach: bytearray

    def sides(self, g: WorkingGraph, roots: Iterable[int]):
        """The blocker's sides ``(VA, EA, VB, EB)`` as id sets in g as
        scanned: the cut's (as ``menger`` splits) when strict, else
        ``blocking_separation``'s, whose B-only part is the marked vertices
        (the components of g minus the cut that hold a target, none of
        which holds a root, as the flow is maximum)."""
        if self.kind == "strict":
            return _cut_sides(g, self.cut, roots)
        return _split_sides(g, self.cut, g.vertices - self.cut - set(compress(g.order, self.reach)))


def _branch_vertices(p) -> Mapping[int, AbstractSet[int]]:
    """Pattern vertex -> branch vertex set, from a pseudomodel or such a mapping."""
    if isinstance(p, Pseudomodel):
        return {v: br.vertices for v, br in p.branches.items()}
    return p


def _row_problem(
    row: tuple[int, ...], images: Mapping[int, AbstractSet[int]], vertices: AbstractSet[int]
) -> str | None:
    """Why a row cannot be scanned in a graph of ``vertices``, or None when it can."""
    for pv in row:
        if pv not in images:
            return f"pattern vertex {pv} of row {list(row)} has no branch"
    if any(images[pv] for pv in row) and all(vertices.issuperset(images[pv]) for pv in row):
        return None
    return f"the image of row {list(row)} is empty or not in the graph"


def _has_edge_inside(g: WorkingGraph, cut: AbstractSet[int]) -> bool:
    """True when some edge, a loop included, has both ends in ``cut``."""
    inside = {g.index[v] for v in cut}
    return any(edges and j in inside for i in inside for j, edges in g.around[i].items())


class _RowState:
    """The proof that one row is no blocker.

    ``prev`` and ``nxt`` are a valid flow of value k from the roots to
    the row's image, and ``level`` is the certificate
    ``_FlowNetwork.sink_cut`` leaves for it, with the roots' in-nodes the
    only nodes that miss the sink.  The scanner keeps a state only while
    both hold.
    """

    __slots__ = ("prev", "nxt", "level")

    def __init__(self, net: _FlowNetwork):
        self.prev, self.nxt, self.level = net.prev, net.nxt, net.level


class _RowScanner:
    """The row scan of one recursion level, kept across its edge reductions.

    The scanner reads the level's ``WorkingGraph``, which the caller
    edits.  ``scan`` answers what ``find_row_blocking_separation`` would
    answer for the graph as it is; ``feed`` takes each journal entry
    ``(kind, eid, u, v)`` of the level (a contraction's survivor is u,
    and a row image that held v holds u after it) once the working
    graph has applied it, and brings every row's flow, certificate and
    target marks past it.  The roots are the caller's, passed to each
    scan; the scanner keeps only each row's target marks by vertex
    index, all made when it is built.

    The rows are trusted: every row vertex has a branch, and every row
    image is a non-empty set of the working graph's vertices.
    ``find_row_blocking_separation`` checks that at the public boundary;
    the extraction loop's rows hold it by construction (the images
    ``extraction._derive_subproblem`` gives lie in B, and at a sub-level
    the numbering spans the enclosing host).

    With |Z| = k roots (``max_order``) the flow never exceeds k units,
    and a row is no blocker exactly when its flow is k, every residual
    node except the roots' in-nodes reaches the sink, and no edge (a
    loop included) lies inside Z.  For such a row the scanner keeps a
    ``_RowState``: the flow and a sink-reach certificate, levels under
    which every out-node but a target's has a residual successor leading
    to a strictly lower one (see ``sink_cut``).  Per entry and row:

    - a loop or a parallel copy changes nothing;
    - deleting an edge the flow does not use leaves the flow maximum,
      and only out(u) and out(v) can lose their lower successor; they
      look for another one, raising levels as in Even and Shiloach ("An
      on-line edge-deletion problem", J. ACM 28(1), 1981), examining
      at most as many out-nodes as there are vertices;
    - contracting an edge whose ends are free of flow merges the two
      out-nodes under the lower level; when the flow runs through one
      end, or through both one after the other, the survivor takes it
      over and the out-nodes whose successors now lead elsewhere are
      repaired as after a deletion;
    - anything else breaks the proof, and the state is dropped: the
      deleted edge carries flow, a repair fails, or the contraction
      moves a root, merges two units or changes the row's targets.

    An edge inside Z can only appear when a contraction moves a root,
    which carries flow in every kept state, so kept rows need no check
    for it.  A scan evaluates each row it reads that has no state in
    full (counted in ``cold``) and takes the rest from their states
    (``reused``).
    """

    def __init__(
        self,
        work: WorkingGraph,
        branch_vertices: Mapping[int, AbstractSet[int]],
        rows: Sequence[Sequence[int]],
        max_order: int,
    ):
        self.work = work
        self.net = _FlowNetwork(work)
        self.k = max_order
        self.rows = [tuple(row) for row in rows]
        index, nv = work.index, len(work.order)
        self.marks: list[bytearray] = []  # per row, a target mark per vertex index
        for row in self.rows:
            marks = bytearray(nv)
            for pv in row:
                for v in branch_vertices[pv]:
                    marks[index[v]] = 1
            self.marks.append(marks)
        self.states: list[_RowState | None] = [None] * len(self.rows)
        self.cold = 0
        self.reused = 0

    # -- scanning ---------------------------------------------------------

    def scan(self, roots: AbstractSet[int], strict_only: bool = False) -> _Blocker | None:
        """The first row, in order, that a separation blocks; None if none does.

        ``roots`` are as of the last entry fed.  With ``strict_only`` a
        row passes once its flow reaches k, and only a cut below k blocks.
        """
        g, net, k = self.work, self.net, self.k
        enough = k if strict_only else k + 1  # a flow this large passes outright
        starts = [2 * net.index[z] for z in sorted(roots)]
        for r, marks in enumerate(self.marks):
            if self.states[r] is not None:
                self.reused += 1
                continue
            self.cold += 1
            if net.solve(starts, marks, enough) >= enough:
                continue
            cut, reach = net.sink_cut(compress(range(len(marks)), marks))
            if len(cut) < k:
                kind = "strict"
            elif len(cut) + reach.count(1) < g.num_vertices or _has_edge_inside(g, cut):
                kind = "reducible"
            else:
                self.states[r] = _RowState(net)
                continue
            return _Blocker(kind, self.rows[r], cut, reach)
        return None

    # -- journal entries ----------------------------------------------------

    def feed(self, entry: tuple[str, int, int, int]) -> None:
        """Bring every kept row state past one journal entry the working graph
        applied, or drop it."""
        kind, _eid, u, v = entry
        i, j = self.net.index[u], self.net.index[v]
        if kind == "delete":
            self._delete(i, j)
        else:
            self._contract(i, j)

    def _delete(self, i: int, j: int) -> None:
        if i == j or j in self.net.around[i]:
            return  # a loop, or a parallel copy that is left: the network is unchanged
        states = self.states
        for r, state in enumerate(states):
            if state is None:
                continue
            nxt = state.nxt
            if nxt[i] == j or nxt[j] == i or not self._repair(state, [i, j]):
                states[r] = None  # the edge carried flow, or the levels cannot be mended

    def _repair(self, state: _RowState, suspects: list[int]) -> bool:
        """Give each out-node in ``suspects``, and whatever that moves, a lower successor.

        An out-node keeps its level when some residual successor leads
        to a lower one; otherwise it rises to one above its lowest
        successor, and the out-nodes with an arc into the in-node that
        leads to it are examined in turn.  False when an out-node has no
        successor left, rises past the number of vertices (it no longer
        reaches the sink), or more out-nodes are examined than there are
        vertices.  An examination reads at most two neighbour lists, and
        the cold evaluation that follows a failed repair reads at least
        one per vertex (its ``sink_cut``), so a failed repair at most
        about triples the row's cost.
        """
        around = self.net.around
        prev, nxt, level = state.prev, state.nxt, state.level
        top = budget = len(around)
        for a in suspects:  # grows while it is read
            mine = level[a]
            if mine == 0:
                continue  # a target: its arc to the sink stays
            budget -= 1
            if budget < 0:
                return False
            low = top
            for j in around[a]:
                # out(a) enters in(j) for every neighbour j, and in(a)
                # when a carries flow; in(j) leads on to out(j) when j is
                # free, else to out(prev[j]), and nowhere from a root
                p = prev[j]
                if j == a and p == _FREE:
                    continue
                w = j if p == _FREE else p
                if w >= 0 and level[w] < low:
                    low = level[w]
                    if low < mine:
                        break
            if low < mine:
                continue
            if low + 1 >= top:
                return False
            level[a] = low + 1
            # in(h) leads to out(a): h is a itself when free, else nxt[a]
            h = a if prev[a] == _FREE else nxt[a]
            suspects.extend(c for c in around[h] if level[c] <= level[a])
        return True

    def _contract(self, i: int, j: int) -> None:
        """Merge vertex j into its neighbour i."""
        states = self.states
        moved = []  # rows whose flow now runs through i
        for r, state in enumerate(states):
            if state is None:
                continue
            prev, level = state.prev, state.level
            marks = self.marks[r]
            if marks[i] != marks[j] or prev[i] == _END or prev[j] == _END:
                states[r] = None  # a root moves, or the targets change
            elif prev[i] == _FREE and prev[j] == _FREE:
                if level[j] < level[i]:
                    level[i] = level[j]
            elif not self._merge_flow(state, i, j):
                states[r] = None  # the two ends carry two units
            else:
                level[i] = min(level[i], level[j])
                moved.append(r)
        for marks in self.marks:
            if marks[j]:
                marks[j] = 0
                marks[i] = 1
        around = self.net.around
        for r in moved:
            # only in(i) and the in-node i now feeds lead somewhere new
            state = states[r]
            suspects = [i, *around[i]]
            if state.nxt[i] >= 0:
                suspects += around[state.nxt[i]]
            if not self._repair(state, suspects):
                states[r] = None

    @staticmethod
    def _merge_flow(state: _RowState, i: int, j: int) -> bool:
        """Let vertex i carry what i and j carried, neither a root; False if that is two units."""
        prev, nxt = state.prev, state.nxt
        if prev[j] == _FREE:
            return True  # i keeps its own path
        if prev[i] == _FREE or nxt[j] == i:
            a = prev[j]  # the unit enters i where it entered j
            prev[i] = a
            nxt[a] = i
        if nxt[i] in (_FREE, j):
            b = nxt[j]  # the unit leaves i where it left j
            nxt[i] = b
            if b >= 0:
                prev[b] = i
        elif nxt[j] != i:
            return False  # the two carry different units
        prev[j] = nxt[j] = _FREE
        return True


def find_row_blocking_separation(
    g: Graph,
    roots: Iterable[int],
    p: Pseudomodel | Mapping[int, AbstractSet[int]],
    rows: Sequence[Sequence[int]],
    max_order: int,
    strict_only: bool = False,
) -> RowBlock | None:
    """Scan rows for a separation pinching the roots off from a row image.

    For each row (in the order given) this runs the flow from the roots
    to the row's branch image up to ``max_order + 1`` units.  Short of
    that, the sink-side minimum cut decides, and it is the same for
    every maximum flow.  A cut of fewer than ``max_order`` vertices is a
    strict blocker (the root-connectivity hypothesis fails).  A cut of
    exactly ``max_order`` vertices blocks reducibly when the separation
    of ``blocking_separation`` has B a proper subgraph of g, which holds
    iff some root lies outside the cut, some vertex outside the cut is
    unreachable from the row image in g minus the cut, or some edge
    (a loop included) has both ends in the cut; otherwise it is not a
    blocker.  A root outside the cut is never reachable from the image
    in g minus the cut (the flow would not be maximum), so the first
    condition is part of the second.  With ``strict_only`` only strict
    blockers count, and a row holds once its flow reaches
    ``max_order``.  Returns the first blocker or None; its separation
    lives in g, and a strict one is the separation
    ``menger`` gives for its cut.  ``p`` gives the row images: a
    pseudomodel, or a mapping from pattern vertex to branch vertex set.
    Raises MalformedInput for a negative ``max_order`` (or zero when
    ``strict_only``), an empty root set or roots outside g, and, when no
    row before it blocks, for the first row with a vertex that has no
    branch or with an image that is empty or not in g.

    This is where rows are checked: the images are read in row order
    before the scan, which then runs on the rows before the first bad
    one only.  It is one scan of a fresh ``_RowScanner`` on a
    ``WorkingGraph`` of g, which reads every row it is given up to the
    first blocker.
    """
    if max_order < (1 if strict_only else 0):
        least = "positive" if strict_only else "non-negative"
        raise MalformedInput("bad row scan", [f"max_order must be {least}, got {max_order}"])
    root_set = frozenset(roots)
    problems = [] if root_set else ["empty root set"]
    if not root_set <= g.vertices:
        problems.append("roots must be vertices of the graph")
    if problems:
        raise MalformedInput("bad row scan", problems)
    images = _branch_vertices(p)
    rows, bad = [tuple(row) for row in rows], None
    for r, row in enumerate(rows):
        bad = _row_problem(row, images, g.vertices)
        if bad is not None:
            rows = rows[:r]
            break
    work = WorkingGraph(g)
    block = _RowScanner(work, images, rows, max_order).scan(root_set, strict_only)
    if block is None:
        if bad is not None:
            raise MalformedInput("bad row scan", [bad])
        return None
    return RowBlock(_separation_from_sides(g, block.sides(work, root_set)), block.row, block.kind)


def check_tangle_axioms(t: Tangle, all_separations: Sequence[Separation]) -> ValidationReport:
    """Check the three tangle axioms against a full separation list.

    ``all_separations`` must contain every separation of the host of
    order below the tangle's order (oracle-enumerated at desk scale).
    Codes: ``tangle-member-host``, ``tangle-member-order``,
    ``tangle-completeness``, ``tangle-cover``, ``tangle-avoid-full``.
    """
    report = ValidationReport()
    host = t.host
    members = list(t.members)
    for i, s in enumerate(members):
        if s.host != host:
            report.add("tangle-member-host", f"member {i} lives in a different host")
            return report
        if s.order >= t.order:
            report.add("tangle-member-order", f"member {i} has order {s.order} >= {t.order}")
    member_set = set(members)
    for s in all_separations:
        if s.order >= t.order:
            continue
        if s not in member_set and s.flipped() not in member_set:
            report.add(
                "tangle-completeness",
                f"neither orientation of a separation of order {s.order} "
                f"(A vertices {sorted(s.a.vertices)}) is a member",
            )
    vbit = {v: i for i, v in enumerate(sorted(host.vertices))}
    ebit = {e: i + len(vbit) for i, e in enumerate(sorted(host.edge_ids))}
    full = (1 << (len(vbit) + len(ebit))) - 1
    masks = []
    for s in members:
        m = 0
        for v in s.a.vertices:
            m |= 1 << vbit[v]
        for e in s.a.edge_ids:
            m |= 1 << ebit[e]
        masks.append(m)
    for i, s in enumerate(members):
        if len(s.a.vertices) == len(host.vertices):
            report.add("tangle-avoid-full", f"member {i} has V(A) = V(G)")
    n = len(members)
    for i in range(n):
        mi = masks[i]
        for j in range(i, n):
            mij = mi | masks[j]
            for l in range(j, n):
                if mij | masks[l] == full:
                    report.add(
                        "tangle-cover",
                        f"small sides of members {i}, {j}, {l} cover the host",
                    )
    return report


def grid_row_images(p: Pseudomodel) -> list[frozenset[int]]:
    """The n row images of a model of the n x n grid, top to bottom.

    Raises ValueError when the pattern's vertices are not the ids 1 to
    n * n of a square grid.
    """
    count = p.pattern.num_vertices
    n = isqrt(count)
    if n * n != count or p.pattern.vertices != frozenset(range(1, count + 1)):
        raise ValueError("pattern is not a square grid")
    return [image_of_vertices(p, row_vertices(n, i)) for i in range(1, n + 1)]


def orient_by_rows(row_images: Sequence[AbstractSet[int]], s: Separation) -> Separation:
    """Orient a separation of order below the grid side by ``grid_row_images``.

    Returns the orientation (A, B) whose A side contains no complete
    row image.  For a valid grid model exactly one orientation
    qualifies; anything else raises ValueError.
    """
    n = len(row_images)
    if s.order >= n:
        raise ValueError(f"separation order {s.order} is not below the grid side {n}")
    first = not any(img <= s.a.vertices for img in row_images)
    second = not any(img <= s.b.vertices for img in row_images)
    if first and not second:
        return s
    if second and not first:
        return s.flipped()
    raise ValueError("ambiguous row orientation; model or order out of contract")


def grid_tangle_member(p: Pseudomodel, s: Separation) -> Separation:
    """``orient_by_rows`` of s by the grid model's row images, built for this one call."""
    return orient_by_rows(grid_row_images(p), s)
