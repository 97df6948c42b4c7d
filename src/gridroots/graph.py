"""Finite multigraphs and the subgraph algebra built on them.

Graphs are multigraphs: every edge has a distinct integer id, endpoints
may coincide (loops), and parallel edges are allowed.  Both arise
naturally under edge contraction, which this package performs a lot of,
so they are first class rather than an error.

A :class:`WorkingGraph` is the one mutable exception: the one copy of
its host that an extraction run deletes and contracts edges in, one at
a time, at every recursion level, and the fresh parts the run cuts out
of it for its path searches.  Its one adjacency is numbered, and the
flow engine reads it as it is.

A :class:`Subgraph` is an incidence-closed selection of vertices and
edge ids from a fixed host graph.  The null subgraph (no vertices, no
edges) is legal; branch maps use it as the "nothing left" value.
"""
from __future__ import annotations

from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping


class Graph:
    """An immutable undirected multigraph with integer vertex and edge ids.

    Edges are triples ``(eid, u, v)``; endpoints are normalised to
    ``(min, max)`` internally so edge identity never depends on the order
    they were supplied in.  ``u == v`` is a loop.

    Construction checks in bulk: the edge map is one comprehension, a
    duplicate id shows as a map shorter than the edge list, and one
    ``issuperset`` checks every endpoint.  Only when a check fails does
    a per-edge pass run, to raise the error of the first bad edge in
    input order, with the message a per-edge check gives.  The
    per-vertex incidence is built the first time ``incident_edges``,
    ``neighbors`` or ``degree`` needs it, and kept.

    ``_grid_side`` is n only when every vertex is an n x n grid id and
    every edge is that grid's edge with its id.  Only ``_of_grid`` sets
    it, for ``grid_graph`` and ``formats.model_from_dict``, which build
    their graphs from the grid's numbering.
    """

    __slots__ = ("_vertices", "_edges", "_incidence", "_hash", "_grid_side")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int, int]] = ()):
        vset = frozenset(map(int, vertices))
        edges = edges if type(edges) is list else list(edges)
        try:
            triples = [(int(e), int(u), int(v)) for e, u, v in edges]
        except (TypeError, ValueError, OverflowError):
            _raise_first_bad_edge(vset, edges)
            raise
        self._fill(vset, triples)

    @classmethod
    def _of_ints(cls, vertices: frozenset[int], edges: list) -> "Graph":
        """A graph from ids already known to be ints, checked as ``__init__`` checks.

        ``edges`` holds ``(eid, u, v)`` triples (or three-item lists).
        """
        self = object.__new__(cls)
        self._fill(vertices, edges)
        return self

    @classmethod
    def _of_grid(cls, n: int, vertices: frozenset[int], edges: list) -> "Graph":
        """``_of_ints`` for n x n grid ids and edges numbered as the grid numbers them."""
        self = cls._of_ints(vertices, edges)
        object.__setattr__(self, "_grid_side", n)
        return self

    def _fill(self, vset: frozenset[int], triples: list) -> None:
        emap = {e: (u, v) if u <= v else (v, u) for e, u, v in triples}
        if len(emap) < len(triples) or not vset.issuperset(chain.from_iterable(emap.values())):
            _raise_first_bad_edge(vset, triples)
        object.__setattr__(self, "_vertices", vset)
        object.__setattr__(self, "_edges", emap)
        object.__setattr__(self, "_incidence", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_grid_side", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(self._edges)

    @property
    def edge_map(self) -> Mapping[int, tuple[int, int]]:
        """Edge id -> ``(u, v)`` with u <= v, as a read-only view."""
        return MappingProxyType(self._edges)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(eid, u, v)`` triples in ascending edge id order."""
        for eid in sorted(self._edges):
            u, v = self._edges[eid]
            yield eid, u, v

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self._edges[eid]

    def has_edge_id(self, eid: int) -> bool:
        return eid in self._edges

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Edge ids incident to ``v`` (loops listed once), ascending."""
        incidence = self._incidence
        if incidence is None:
            lists: dict[int, list[int]] = {x: [] for x in self._vertices}
            for eid, (x, y) in sorted(self._edges.items()):
                lists[x].append(eid)
                if y != x:
                    lists[y].append(eid)
            incidence = {x: tuple(lst) for x, lst in lists.items()}
            object.__setattr__(self, "_incidence", incidence)
        return incidence[v]

    def neighbors(self, v: int) -> list[int]:
        """Distinct neighbours of ``v`` other than ``v`` itself, ascending."""
        seen = set()
        for eid in self.incident_edges(v):
            u, w = self._edges[eid]
            other = w if u == v else u
            if other != v:
                seen.add(other)
        return sorted(seen)

    def degree(self, v: int) -> int:
        """Edge-endpoint count at ``v``; a loop contributes two."""
        d = 0
        for eid in self.incident_edges(v):
            u, w = self._edges[eid]
            d += 2 if u == w else 1
        return d

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def measure(self) -> int:
        """The induction measure ``|V| + |E|`` used by the extraction loop."""
        return len(self._vertices) + len(self._edges)

    def is_null(self) -> bool:
        return not self._vertices

    # -- equality ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._vertices, frozenset(self._edges.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"

    # -- derived graphs ------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced by ``vertices`` (which must all belong to self)."""
        vset = set(int(v) for v in vertices)
        missing = vset - self._vertices
        if missing:
            raise ValueError(f"vertices not in graph: {sorted(missing)}")
        edges = [
            (eid, u, v)
            for eid, (u, v) in self._edges.items()
            if u in vset and v in vset
        ]
        return Graph(vset, edges)

    def remove_vertices(self, vertices: Iterable[int]) -> "Graph":
        drop = set(int(v) for v in vertices)
        return self.induced(self._vertices - drop)

    def delete_edge(self, eid: int) -> "Graph":
        if eid not in self._edges:
            raise ValueError(f"no edge with id {eid}")
        edges = [(e, u, v) for e, (u, v) in self._edges.items() if e != eid]
        return Graph(self._vertices, edges)


def _raise_first_bad_edge(vset: frozenset[int], edges) -> None:
    """Raise the error of the first bad edge in ``edges``, in input order:
    a value ``int`` rejects, a repeated id, or an endpoint outside ``vset``.

    Returns when every edge is good.
    """
    seen = set()
    for eid, u, v in edges:
        eid, u, v = int(eid), int(u), int(v)
        if eid in seen:
            raise ValueError(f"duplicate edge id {eid}")
        if u not in vset or v not in vset:
            raise ValueError(f"edge {eid} has an endpoint outside the vertex set")
        seen.add(eid)


class WorkingGraph:
    """A mutable multigraph copy that an extraction run shrinks in place.

    It reads like a :class:`Graph` (``vertices``, ``edge_ids``,
    ``endpoints``, ``incident_edges``, ``num_vertices``, ``measure``),
    but deleting or contracting an edge costs O(degree) instead of a
    rebuild.  ``freeze`` snapshots it as a ``Graph``.  Its one adjacency
    is numbered: vertex ``order[i]`` has index i (``index`` maps back),
    and ``around[i]`` maps each neighbour's index j to the ids of the
    edges joining i and j, one tuple that ``around[j][i]`` holds too and
    an edit replaces in both (unlike a list, a tuple of ints leaves the
    cyclic collector's care at its first collection, so a large host's
    adjacency does not pile up in the collector's oldest generation).
    The loops at i sit under the self key, always present; any other
    key goes with its edges.  A fresh build's keys and tuples ascend;
    edits may reorder them.  A vertex that leaves keeps its index, so
    every recursion level shares the first one's numbering.  One builder
    fills the adjacency from an edge map, a ``Graph``'s or, for
    ``induced``, the part of another working graph's, so both give the
    same numbering, key order and tuples.
    """

    __slots__ = ("vertices", "_edges", "order", "index", "around")

    def __init__(self, g: Graph):
        self._fill(g._vertices, dict(g._edges))

    def induced(self, vertices: Iterable[int]) -> "WorkingGraph":
        """A fresh working graph of ``vertices`` and the edges among them, as
        ``WorkingGraph(Graph(...))`` of that part builds it, without the Graph."""
        index, around, edges = self.index, self.around, self._edges
        keep = {index[v] for v in vertices}
        part = object.__new__(WorkingGraph)
        part._fill(
            [self.order[i] for i in keep],
            {e: edges[e] for i in keep for j, joining in around[i].items() if j in keep for e in joining},
        )
        return part

    def _fill(self, vertices: Iterable[int], edges: dict) -> None:
        """Number ``vertices`` in ascending order and build ``around`` from
        ``edges``, the map of every edge among them, in one pass over the
        edges sorted by their ends."""
        self.vertices = set(vertices)
        self._edges = edges
        self.order = order = sorted(self.vertices)
        self.index = index = dict(zip(order, range(len(order))))
        self.around = around = [{} for _ in order]
        # a vertex's smaller neighbours enter its map while their own edges
        # are read, before its self key, which enters at its first edge as
        # the smaller end, or last when it has none; its larger neighbours
        # follow in ascending order
        lu = lv = None
        for eid, (u, v) in sorted(edges.items(), key=itemgetter(1)):
            if u != lu:
                lu, i = u, index[u]
                near = around[i]
                near[i] = ()
            elif v == lv:  # a parallel edge, met in edge map order
                near[j] = around[j][i] = tuple(sorted((*near[j], eid)))
                continue
            lv, j = v, index[v]
            near[j] = around[j][i] = (eid,)
        for i, near in enumerate(around):
            near.setdefault(i, ())

    @property
    def edge_ids(self):
        return self._edges.keys()

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self._edges[eid]

    def incident_edges(self, v: int) -> set[int]:
        """Edge ids incident to ``v``, as a new set."""
        return set().union(*self.around[self.index[v]].values())

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def measure(self) -> int:
        return len(self.vertices) + len(self._edges)

    def delete_edge(self, eid: int) -> None:
        if eid not in self._edges:
            raise ValueError(f"no edge with id {eid}")
        u, v = self._edges.pop(eid)
        around, i, j = self.around, self.index[u], self.index[v]
        left = tuple(e for e in around[i][j] if e != eid)
        if left or i == j:
            around[i][j] = around[j][i] = left
        else:
            del around[i][j], around[j][i]

    def contract_edge(self, eid: int) -> tuple[int, int]:
        """Contract non-loop edge ``eid`` into its smaller endpoint.

        Returns ``(survivor, gone)``.  The gone vertex's other edges move
        to the survivor; those between the two endpoints become loops,
        parallel edges elsewhere are retained.
        """
        if eid not in self._edges:
            raise ValueError(f"no edge with id {eid}")
        survivor, gone = self._edges[eid]
        if survivor == gone:
            raise ValueError(f"edge {eid} is a loop and cannot be contracted")
        self.delete_edge(eid)
        edges, around, order = self._edges, self.around, self.order
        i, j = self.index[survivor], self.index[gone]
        near, mine = around[j], around[i]
        mine.pop(j, None)
        loops = near.pop(i, ()) + near.pop(j)
        for e in loops:
            edges[e] = (survivor, survivor)
        mine[i] += loops
        for b, joining in near.items():
            w = order[b]
            for e in joining:
                edges[e] = (survivor, w) if survivor < w else (w, survivor)
            other = around[b]
            del other[j]
            other[i] = mine[b] = other.get(i, ()) + joining
        around[j] = {}
        self.vertices.discard(gone)
        return survivor, gone

    def freeze(self) -> Graph:
        return Graph(self.vertices, [(e, u, v) for e, (u, v) in self._edges.items()])


class Subgraph:
    """A subgraph of a fixed host graph, given by vertex and edge id sets.

    Every selected edge must have all endpoints selected.  The empty
    selection is the null subgraph.
    """

    __slots__ = ("host", "vertices", "edge_ids")

    def __init__(self, host: Graph, vertices: Iterable[int], edge_ids: Iterable[int] = ()):
        vset = frozenset(int(v) for v in vertices)
        eset = frozenset(int(e) for e in edge_ids)
        if not vset <= host.vertices:
            raise ValueError("subgraph vertices not contained in host")
        for eid in eset:
            if not host.has_edge_id(eid):
                raise ValueError(f"subgraph edge {eid} not in host")
            u, v = host.endpoints(eid)
            if u not in vset or v not in vset:
                raise ValueError(f"subgraph edge {eid} has an endpoint outside it")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "vertices", vset)
        object.__setattr__(self, "edge_ids", eset)

    @classmethod
    def _unchecked(cls, host: Graph, vertices: Iterable[int], edge_ids: Iterable[int] = ()) -> "Subgraph":
        """A subgraph from ids the caller took from ``host`` itself, not re-checked.

        For internal callers whose vertex and edge ids come from the host
        and are incidence-closed by construction; every other caller uses
        the checking constructor.  The slots are set through their
        descriptors' setters, bound once below the class, which skips the
        attribute lookup ``object.__setattr__`` makes per call.
        """
        self = object.__new__(cls)
        _set_host(self, host)
        _set_vertices(self, frozenset(vertices))
        _set_edge_ids(self, frozenset(edge_ids))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Subgraph is immutable")

    def is_null(self) -> bool:
        return not self.vertices and not self.edge_ids

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgraph):
            return NotImplemented
        return (
            self.host == other.host
            and self.vertices == other.vertices
            and self.edge_ids == other.edge_ids
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edge_ids))

    def __repr__(self) -> str:
        return f"Subgraph(|V|={len(self.vertices)}, |E|={len(self.edge_ids)})"


_set_host, _set_vertices, _set_edge_ids = (
    Subgraph.host.__set__, Subgraph.vertices.__set__, Subgraph.edge_ids.__set__
)


# -- subgraph algebra ------------------------------------------------------


def subgraph_components(h: Subgraph) -> list[Subgraph]:
    """Maximal connected pieces of ``h``, sorted by least vertex id.

    The pieces partition ``h``: they are pairwise disjoint and their
    union is ``h``.  The null subgraph yields an empty sequence.  The
    work is linear in ``h``: each edge joins the piece of its ends.
    """
    host = h.host
    adj: dict[int, set[int]] = {v: set() for v in h.vertices}
    for eid in h.edge_ids:
        u, v = host.endpoints(eid)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    piece: dict[int, int] = {}  # vertex -> the number of its piece
    pieces: list[set[int]] = []
    for start in sorted(h.vertices):
        if start in piece:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        if len(comp) == len(h.vertices):
            return [h]  # connected: the one piece is h itself
        piece.update(dict.fromkeys(comp, len(pieces)))
        pieces.append(comp)
    edges: list[list[int]] = [[] for _ in pieces]
    for eid in h.edge_ids:
        edges[piece[host.endpoints(eid)[0]]].append(eid)
    return [Subgraph._unchecked(host, comp, eids) for comp, eids in zip(pieces, edges)]


def subgraph_is_connected(h: Subgraph) -> bool:
    """True when ``h`` has exactly one component (null counts as not)."""
    return len(subgraph_components(h)) == 1


def boundary(g: Graph, h: Subgraph) -> frozenset[int]:
    """Vertices of ``h`` incident with an edge of ``g`` outside ``h``."""
    if h.host != g:
        raise ValueError("subgraph not hosted by the given graph")
    out = set()
    for v in h.vertices:
        for eid in g.incident_edges(v):
            if eid not in h.edge_ids:
                out.add(v)
                break
    return frozenset(out)


# -- whole-graph helpers ---------------------------------------------------


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, sorted by least vertex: the
    vertex sets of :func:`subgraph_components` of the whole graph."""
    whole = Subgraph._unchecked(g, g.vertices, g.edge_ids)
    return [comp.vertices for comp in subgraph_components(whole)]


def reachable_from(
    g: Graph | WorkingGraph, starts: Iterable[int], forbidden: Iterable[int] = ()
) -> set[int]:
    """Vertices reachable from ``starts`` without entering ``forbidden``.

    Start vertices that are themselves forbidden are skipped entirely.
    """
    block = set(forbidden)
    seen: set[int] = set()
    stack = [s for s in starts if s in g.vertices and s not in block]
    seen.update(stack)
    while stack:
        v = stack.pop()
        for eid in g.incident_edges(v):
            x, y = g.endpoints(eid)
            w = y if x == v else x
            if w not in seen and w not in block:
                seen.add(w)
                stack.append(w)
    return seen
