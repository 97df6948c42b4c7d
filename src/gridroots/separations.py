"""Separations, tangles, and vertex-disjoint path / cut machinery.

A separation of a graph is an ordered pair of subgraphs covering the
graph with no shared edges; its order is the number of shared vertices.
Tangles are explicit separation sets checked against the three tangle
axioms at desk scale.  ``menger`` is a deterministic vertex-capacity
max-flow: it returns either ``k`` vertex-disjoint source-target paths or
a cut of fewer than ``k`` vertices together with the separation that cut
induces.  It shares one flow engine with the row scans
(``find_row_blocking_separation`` and ``find_row_cut``): the vertex-split
network stays implicit, as arrays over neighbour lists built once per
graph.
"""
from __future__ import annotations

from dataclasses import dataclass
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


def separation_order(s: Separation) -> int:
    """Number of vertices shared by the two sides."""
    return s.order


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


def _trim_path(path: Sequence[int], sources: frozenset[int], targets: frozenset[int]) -> tuple[int, ...]:
    """Cut at the first target, then start from the last source before it."""
    stop = next(i for i, v in enumerate(path) if v in targets)
    head = path[: stop + 1]
    start = max(i for i, v in enumerate(head) if v in sources)
    return tuple(head[start:])


_FREE = -1  # the vertex carries no flow
_END = -2  # the flow enters from the super source / leaves to the super sink


class _FlowNetwork:
    """Unit-capacity vertex-split flow network of one graph, kept implicit.

    The split network gives vertex i (the i-th smallest id) an in-node
    2i and an out-node 2i + 1 joined by an arc of capacity 1, two
    uncapacitated arcs out(x) -> in(y) and out(y) -> in(x) per edge x-y
    (loops and parallel copies add nothing), and uncapacitated arcs from
    a super source to the in-nodes of the sources and from the out-nodes
    of the targets to a super sink.  Only each vertex's neighbours are
    stored, itself included, in ascending order, and built once per
    graph.  Every vertex carries at most one unit, so the current flow
    is two arrays: ``prev[i]`` is the vertex feeding i (``_END`` for the
    super source, ``_FREE`` when i carries nothing) and ``nxt[i]`` the
    vertex i feeds (``_END`` for the super sink).
    """

    __slots__ = ("vertices", "index", "around", "prev", "nxt", "value")

    def __init__(self, g: Graph | WorkingGraph):
        self.vertices = sorted(g.vertices)
        self.index = index = {v: i for i, v in enumerate(self.vertices)}
        adj = [{i} for i in range(len(self.vertices))]
        for _eid, x, y in g.edges():
            adj[index[x]].add(index[y])
            adj[index[y]].add(index[x])
        self.around = [sorted(a) for a in adj]
        self.prev: list[int] = []
        self.nxt: list[int] = []
        self.value = 0

    def max_flow(self, sources: frozenset[int], targets: frozenset[int], limit: int) -> int:
        """Augment until the flow value reaches ``limit`` or is maximum.

        The value never exceeds the number of sources or of targets, so
        reaching either also ends the search.  Each augmenting path is a
        shortest one in the residual network, ties broken by ascending
        node id, which fixes the flow and with it the paths.
        """
        index, around = self.index, self.around
        nv = len(around)
        starts = [2 * index[z] for z in sorted(sources)]
        is_target = bytearray(nv)
        for t in targets:
            is_target[index[t]] = 1
        prev = self.prev = [_FREE] * nv
        nxt = self.nxt = [_FREE] * nv
        top = 2 * nv  # the super source
        limit = min(limit, len(sources), len(targets))
        total = 0
        while total < limit:
            parent = [-1] * top
            for u in starts:
                parent[u] = top
            queue = list(starts)
            end = -1
            for u in queue:
                i = u >> 1
                if u & 1:
                    if is_target[i]:
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
        """The flow's vertex paths, in ascending order of their sources."""
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

    def sink_cut(self, targets: frozenset[int]) -> tuple[frozenset[int], int]:
        """The sink-side minimum cut of a maximum flow, and what lies beyond it.

        A vertex is in the cut when its out-node reaches the super sink
        in the residual network and its in-node does not.  The nodes that
        reach the sink are the same for every maximum flow, so the cut
        does not depend on the order of augmentation.  The second value
        counts the vertices whose in-node reaches the sink: exactly the
        vertices reachable from the targets in the graph minus the cut.
        """
        index, around, prev, nxt = self.index, self.around, self.prev, self.nxt
        nv = len(around)
        in_seen = bytearray(nv)
        out_seen = bytearray(nv)
        heads = [index[t] for t in targets]  # the out-nodes next to the sink
        stack = [-1]  # -1 stands for the super sink
        while stack:
            i = stack.pop()
            # every out(j) next to in(i) reaches it; out(i) too when i
            # carries flow (when it does not, out(i) was seen first)
            for j in heads if i < 0 else around[i]:
                if out_seen[j]:
                    continue
                out_seen[j] = 1
                # the residual arc into out(j) comes from in(j) when j is
                # free, else from the in-node of the vertex j feeds
                p = j if prev[j] == _FREE else nxt[j]
                if p >= 0 and not in_seen[p]:
                    in_seen[p] = 1
                    stack.append(p)
        # a free vertex whose out-node is seen has its in-node seen too,
        # so only vertices that carry flow can be in the cut
        cut = frozenset(
            self.vertices[j]
            for j, p in enumerate(prev)
            if p != _FREE and out_seen[j] and not in_seen[j]
        )
        if len(cut) != self.value:
            raise InternalInvariantBroken(
                f"min-cut extraction produced {len(cut)} vertices for flow {self.value}",
                payload={"cut": sorted(cut)},
            )
        return cut, in_seen.count(1)


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
    ascending node identifier, so results are deterministic.  Paths are
    trimmed to meet the targets only at their final vertex and the
    sources only at their first; a source that is also a target yields a
    single-vertex path.  In the cut case the cut is the sink-side
    minimum cut, which is the same for every maximum flow, and the
    returned separation puts the cut plus everything reachable from the
    sources on the A side.
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
    net = _FlowNetwork(searched)
    if net.max_flow(src, tgt, k) == k:
        paths = tuple(_trim_path(p, src, tgt) for p in net.paths())
        return CutResult(paths=paths, cut=None, separation=None)
    cut, _beyond = net.sink_cut(tgt)
    return CutResult(paths=None, cut=cut, separation=_cut_separation(searched, cut, src))


def _cut_separation(g: Graph, cut: frozenset[int], sources: frozenset[int]) -> Separation:
    """Separation induced by a cut: A = cut plus the source-reachable part."""
    return _split_at_cut(g, cut, frozenset(reachable_from(g, sorted(sources), cut)))


def _split_at_cut(g: Graph, cut: frozenset[int], a_only: AbstractSet[int]) -> Separation:
    """The separation with A = cut plus ``a_only`` and B = cut plus the rest.

    ``a_only`` must be a union of components of g minus the cut, so no
    edge joins it to the rest: edges touching a B-only vertex go to B,
    all others (those inside the cut included) to A.
    """
    b_only = g.vertices - cut - a_only
    a_edges, b_edges = set(), set()
    for e in g.edge_ids:
        x, y = g.endpoints(e)
        (b_edges if x in b_only or y in b_only else a_edges).add(e)
    return Separation(Subgraph(g, a_only | cut, a_edges), Subgraph(g, b_only | cut, b_edges))


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
    a_only: set[int] = set()
    seen: set[int] = set(cut)
    for start in sorted(g.vertices - cut):
        if start in seen:
            continue
        comp = reachable_from(g, [start], cut)
        seen |= comp
        if comp & sources or not comp & targets:
            a_only |= comp
    return _split_at_cut(g, cut, a_only)


@dataclass(frozen=True)
class RowBlock:
    """A separation blocking the roots from one row's image."""

    separation: Separation
    row: tuple[int, ...]
    kind: str  # "strict" (order < k) or "reducible" (order = k, B != G)


def _branch_vertices(p) -> Mapping[int, AbstractSet[int]]:
    """Pattern vertex -> branch vertex set, from a pseudomodel or such a mapping."""
    if isinstance(p, Pseudomodel):
        return {v: br.vertices for v, br in p.branches.items()}
    return p


def _row_cuts(
    g: Graph | WorkingGraph,
    roots: frozenset[int],
    branch_vertices: Mapping[int, AbstractSet[int]],
    rows: Sequence[Sequence[int]],
    limit: int,
):
    """Yield ``(row, image, cut, beyond)`` for each row that ``limit`` paths miss.

    Rows go in the order given.  A row is yielded when fewer than
    ``limit`` disjoint paths join the roots to its branch image; ``cut``
    is then the sink-side minimum cut and ``beyond`` the number of
    vertices the image reaches in g minus the cut.  The flow network is
    built once for all rows.
    """
    problems = []
    if not roots:
        problems.append("empty root set")
    if not roots <= g.vertices:
        problems.append("roots must be vertices of the graph")
    if problems:
        raise MalformedInput("bad row scan", problems)
    net = _FlowNetwork(g)
    for row in rows:
        try:
            image = frozenset().union(*(branch_vertices[v] for v in row))
        except KeyError as exc:
            raise MalformedInput(
                "bad row scan", [f"pattern vertex {exc.args[0]} of row {list(row)} has no branch"]
            ) from None
        if not image or not image <= g.vertices:
            raise MalformedInput(
                "bad row scan", [f"the image of row {list(row)} is empty or not in the graph"]
            )
        if net.max_flow(roots, image, limit) < limit:
            yield (tuple(row), image, *net.sink_cut(image))


def _has_edge_inside(g: Graph | WorkingGraph, cut: frozenset[int]) -> bool:
    """True when some edge, a loop included, has both ends in ``cut``."""
    return any(set(g.endpoints(e)) <= cut for v in cut for e in g.incident_edges(v))


def find_row_blocking_separation(
    g: Graph | WorkingGraph,
    roots: Iterable[int],
    p: Pseudomodel | Mapping[int, AbstractSet[int]],
    rows: Sequence[Sequence[int]],
    max_order: int,
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
    condition is part of the second.  Returns the first blocker or
    None; its separation lives in ``g.freeze()``.  ``p`` gives the row
    images: a pseudomodel, or a mapping from pattern vertex to branch
    vertex set (what the extraction loop passes with its working graph).
    Raises MalformedInput for a negative ``max_order``, an empty
    root set or row image, roots or images outside g, and a row vertex
    with no branch.
    """
    if max_order < 0:
        raise MalformedInput("bad row scan", [f"max_order must be non-negative, got {max_order}"])
    root_set = frozenset(roots)
    for row, image, cut, beyond in _row_cuts(g, root_set, _branch_vertices(p), rows, max_order + 1):
        if len(cut) < max_order:
            return RowBlock(_cut_separation(g.freeze(), cut, root_set), row, "strict")
        if len(cut) + beyond < g.num_vertices or _has_edge_inside(g, cut):
            return RowBlock(blocking_separation(g.freeze(), cut, root_set, image), row, "reducible")
    return None


def find_row_cut(
    g: Graph,
    roots: Iterable[int],
    p: Pseudomodel,
    rows: Sequence[Sequence[int]],
    k: int,
) -> RowBlock | None:
    """First row whose image fewer than ``k`` vertices cut off from the roots.

    The cut is the sink-side minimum cut of the row's maximum flow (the
    same for every maximum flow), returned as a strict RowBlock with the
    separation ``menger`` gives for it.  None when every row is joined
    to the roots by ``k`` disjoint paths.
    """
    if k < 1:
        raise MalformedInput("bad row scan", [f"k must be positive, got {k}"])
    root_set = frozenset(roots)
    for row, _image, cut, _beyond in _row_cuts(g, root_set, _branch_vertices(p), rows, k):
        return RowBlock(_cut_separation(g, cut, root_set), row, "strict")
    return None


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


def grid_tangle_member(p: Pseudomodel, s: Separation) -> Separation:
    """Orient a low-order separation by the grid model's row images.

    Returns the orientation (A, B) whose A side contains no complete
    row image.  For a valid grid model and order below the grid side
    exactly one orientation qualifies; anything else raises ValueError.
    """
    count = p.pattern.num_vertices
    n = isqrt(count)
    if n * n != count:
        raise ValueError("pattern is not a square grid")
    if s.order >= n:
        raise ValueError(f"separation order {s.order} is not below the grid side {n}")
    row_images = [image_of_vertices(p, row_vertices(n, i)) for i in range(1, n + 1)]
    first = not any(img <= s.a.vertices for img in row_images)
    second = not any(img <= s.b.vertices for img in row_images)
    if first and not second:
        return s
    if second and not first:
        return s.flipped()
    raise ValueError("ambiguous row orientation; model or order out of contract")
