"""Square grid graphs and the window algebra used by the extraction step.

The ``n x n`` grid graph has vertices ``v_{i,j}`` for ``1 <= i, j <= n``
(row ``i``, column ``j``) numbered ``(i - 1) * n + j``, and edges joining
horizontally and vertically adjacent vertices.  Edge ids are assigned in
row-major vertex order, right edge before down edge, starting at 1, so
any two grids of the same size agree on ids.

A :class:`GridAtlas` fixes a ``(g + 2k) x (g + 2k)`` window inside the
grid: a central ``g x g`` block padded by ``k`` layers on every side.
The algebra of nested windows below is what the extraction step uses
to carve a clean subgrid out of a model and wire it to the root set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph


def vertex_id(n: int, i: int, j: int) -> int:
    """Id of grid vertex ``v_{i,j}`` in the ``n x n`` grid (1-based)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"({i},{j}) outside the {n}x{n} grid")
    return (i - 1) * n + j


def vertex_coord(n: int, vid: int) -> tuple[int, int]:
    """Inverse of :func:`vertex_id`."""
    if not (1 <= vid <= n * n):
        raise ValueError(f"vertex id {vid} outside the {n}x{n} grid")
    i, j = divmod(vid - 1, n)
    return i + 1, j + 1


def grid_graph(n: int) -> Graph:
    """The ``n x n`` grid graph with deterministic vertex and edge ids."""
    if n < 1:
        raise ValueError("grid side must be at least 1")
    vertices = range(1, n * n + 1)
    return Graph._of_grid(n, frozenset(vertices), grid_edges_among(n, vertices))


def grid_edge_id(n: int, u: int, v: int) -> int:
    """Edge id between two adjacent grid vertices: the id
    :func:`grid_edges_among` gives the edge between them, so the grid is
    numbered in one place."""
    a, b = (u, v) if u < v else (v, u)
    for vid in (a, b):
        if not 1 <= vid <= n * n:
            raise ValueError(f"vertex id {vid} outside the {n}x{n} grid")
    edges = grid_edges_among(n, (a, b))
    if not edges:
        raise ValueError(f"vertices {u} and {v} are not grid-adjacent")
    return edges[0][0]


def grid_edges_among(n: int, vertices) -> list[tuple[int, int, int]]:
    """``(eid, u, v)`` with ``u < v`` for every n x n grid edge with both
    ends in ``vertices`` (grid vertex ids, any container), in the order
    ``vertices`` iterates.

    This is the grid's one edge numbering, by arithmetic for each cell:
    the rows above it emit 2n - 1 ids each, and each earlier cell of its
    row emits two (one in the last row), its right edge before its down
    edge.
    """
    width, last = 2 * n - 1, n - 1
    out = []
    for u in vertices:
        i, j = divmod(u - 1, n)
        count = i * width + (2 * j if i < last else j)
        if j < last and u + 1 in vertices:
            out.append((count + 1, u, u + 1))
        if i < last and u + n in vertices:
            out.append((count + (2 if j < last else 1), u, u + n))
    return out


def first_off_grid_edge(n: int, pattern) -> int | None:
    """The least edge id of the graph ``pattern`` (on n x n grid vertex ids)
    whose ends are not the grid's edge with that id; None when every edge
    matches.

    The pattern's edge map is compared with :func:`grid_edges_among`'s
    edges among its vertices, so the grid is numbered in one place.  A
    loop or a non-adjacent pair matches no id.
    """
    grid = {e: (u, v) for e, u, v in grid_edges_among(n, pattern.vertices)}
    edges = pattern.edge_map.items()
    if edges <= grid.items():
        return None
    return min(e for e, ends in edges if grid.get(e) != ends)


def row_vertices(n: int, i: int) -> tuple[int, ...]:
    """Ids of row ``i`` of the ``n x n`` grid, left to right."""
    return tuple(vertex_id(n, i, j) for j in range(1, n + 1))


@dataclass(frozen=True)
class GridAtlas:
    """A ``(g + 2k) x (g + 2k)`` window inside the ``n x n`` grid.

    ``(i0, j0)`` is the top-left corner of the central ``g x g`` block,
    so the window itself spans rows ``i0 - k .. i0 + g - 1 + k`` and the
    same range of columns.  The window must fit inside the grid.
    """

    n: int
    i0: int
    j0: int
    g: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.g:
            raise ValueError("need 1 <= k <= g")
        lo_i, lo_j = self.i0 - self.k, self.j0 - self.k
        hi_i, hi_j = self.i0 + self.g - 1 + self.k, self.j0 + self.g - 1 + self.k
        if lo_i < 1 or lo_j < 1 or hi_i > self.n or hi_j > self.n:
            raise ValueError("window does not fit inside the grid")

    def cell(self, a: int, b: int) -> int:
        """Pattern id of window cell ``(a, b)``: ``(1, 1)`` is the central
        block's top-left corner, and ``1 - k <= a, b <= g + k``.

        The g x g grid's vertex ``vertex_id(g, a, b)`` is modelled by the
        branch of ``cell(a, b)``; every window map reads this one.
        """
        lo, hi = 1 - self.k, self.g + self.k
        if not (lo <= a <= hi and lo <= b <= hi):
            raise ValueError(f"cell ({a},{b}) outside the window")
        return vertex_id(self.n, self.i0 + a - 1, self.j0 + b - 1)

    def window_vertices(self, s: int) -> frozenset[int]:
        """Vertices of the layer-``s`` window ``H_s``.

        ``H_0`` is the whole padded window; each increment of ``s`` strips
        one boundary layer, and ``H_k`` is the central ``g x g`` block.
        Valid for ``0 <= s <= k``.
        """
        if not (0 <= s <= self.k):
            raise ValueError(f"layer {s} outside 0..{self.k}")
        span = range(1 - self.k + s, self.g + self.k - s + 1)
        return frozenset(self.cell(a, b) for a in span for b in span)

    def root_segment(self) -> tuple[int, ...]:
        """The k-vertex column stub the extracted subgrid hangs from: the
        top ``k`` cells of the central block's first column."""
        return tuple(self.cell(a, 1) for a in range(1, self.k + 1))

    def central_vertices(self) -> frozenset[int]:
        """The central ``g x g`` block ``H_k``."""
        return self.window_vertices(self.k)


def choose_band(n: int, g: int, k: int, forbidden: Iterable[int]) -> GridAtlas | None:
    """Pick the first band of ``g + 2k`` consecutive clean grid rows.

    A row is dirty when it contains a forbidden vertex, and a band is
    clean when none of its rows is dirty; this guarantees that no grid
    row meets both the window and the forbidden set.  Candidate top rows
    are scanned with stride 1 in ascending order, so the result is the
    band with the least feasible top row.  The window's columns are
    always the leftmost ``g + 2k``.  Returns ``None`` when no clean band
    exists.
    """
    side = g + 2 * k
    dirty_rows = set()
    for vid in forbidden:
        if 1 <= vid <= n * n:
            dirty_rows.add(vertex_coord(n, vid)[0])
    for top in range(1, n - side + 2):
        if all(i not in dirty_rows for i in range(top, top + side)):
            return GridAtlas(n=n, i0=top + k, j0=k + 1, g=g, k=k)
    return None
