"""Grid coordinates, canonical grid graphs, and window atlases."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridroots import (
    GridAtlas,
    choose_band,
    grid_edge_id,
    grid_graph,
    row_vertices,
    vertex_coord,
    vertex_id,
)
from gridroots.graph import Graph
from gridroots.grid import first_off_grid_edge, grid_edges_among


def test_vertex_id_round_trip():
    n = 5
    seen = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            v = vertex_id(n, i, j)
            assert vertex_coord(n, v) == (i, j)
            seen.add(v)
    assert seen == set(range(1, n * n + 1))


def test_vertex_id_range_checks():
    with pytest.raises(ValueError):
        vertex_id(3, 0, 1)
    with pytest.raises(ValueError):
        vertex_id(3, 1, 4)
    with pytest.raises(ValueError):
        vertex_coord(3, 10)


def test_grid_graph_counts():
    for n in range(1, 7):
        g = grid_graph(n)
        assert len(g.vertices) == n * n
        assert len(g.edge_ids) == 2 * n * (n - 1)
        assert g.vertices == set(range(1, n * n + 1))
        assert g.edge_ids == set(range(1, 2 * n * (n - 1) + 1))


def test_grid_edge_id_matches_grid_graph():
    for n in range(2, 6):
        g = grid_graph(n)
        for eid, u, v in g.edges():
            assert grid_edge_id(n, u, v) == eid
            assert grid_edge_id(n, v, u) == eid


@pytest.mark.parametrize("n", range(1, 6))
def test_first_off_grid_edge_inverts_grid_edge_id(n):
    top = 2 * n * (n - 1)
    for eid in range(-1, top + 3):
        for u in range(1, n * n + 1):
            for v in range(u, n * n + 1):
                try:
                    matches = grid_edge_id(n, u, v) == eid
                except ValueError:
                    matches = False
                pattern = Graph([u, v], [(eid, u, v)])
                assert (first_off_grid_edge(n, pattern) is None) == matches, (eid, u, v)


def test_grid_edge_id_rejects_non_adjacent():
    with pytest.raises(ValueError):
        grid_edge_id(3, 1, 3)  # same row, two apart
    with pytest.raises(ValueError):
        grid_edge_id(3, 1, 5)  # diagonal
    with pytest.raises(ValueError):
        grid_edge_id(3, 3, 4)  # row wrap


def test_row_and_column_vertices():
    assert row_vertices(3, 2) == (4, 5, 6)
    with pytest.raises(ValueError):
        row_vertices(3, 4)


def test_atlas_parameter_checks():
    with pytest.raises(ValueError):
        GridAtlas(8, 4, 2, 2, 0)  # k below 1
    with pytest.raises(ValueError):
        GridAtlas(8, 4, 2, 1, 2)  # k above g
    with pytest.raises(ValueError):
        GridAtlas(8, 1, 2, 2, 1)  # window sticks out above
    with pytest.raises(ValueError):
        GridAtlas(8, 4, 7, 2, 1)  # window sticks out right


def test_atlas_window_algebra():
    at = GridAtlas(8, 4, 2, 2, 1)
    h0 = at.window_vertices(0)
    h1 = at.window_vertices(1)
    assert len(h0) == 16 and len(h1) == 4
    assert h1 < h0
    assert h1 == {26, 27, 34, 35}
    assert len(h0 - h1) == 12
    assert at.central_vertices() == h1
    assert at.root_segment() == (26,)
    with pytest.raises(ValueError):
        at.window_vertices(-1)
    with pytest.raises(ValueError):
        at.window_vertices(2)


def test_atlas_cell_maps_window_cells():
    at = GridAtlas(4, 2, 2, 2, 1)
    assert at.cell(1, 1) == 6
    assert at.cell(2, 2) == 11
    assert at.cell(2, 1) == 10
    assert at.cell(0, 0) == 1 and at.cell(3, 3) == 16  # the padding's corners
    for a, b in ((4, 1), (1, -1), (-1, 1), (1, 4)):
        with pytest.raises(ValueError):
            at.cell(a, b)


def test_atlas_nesting_depth():
    at = GridAtlas(12, 4, 4, 3, 3)
    sizes = [len(at.window_vertices(s)) for s in range(at.k + 1)]
    assert sizes == [81, 49, 25, 9]
    rings = [at.window_vertices(s - 1) - at.window_vertices(s) for s in range(1, at.k + 1)]
    assert all(rings[i] & rings[i + 1] == set() for i in range(len(rings) - 1))
    assert set().union(*rings) | at.central_vertices() == at.window_vertices(0)
    assert at.root_segment() == tuple(
        vertex_id(12, i, at.j0) for i in range(at.i0, at.i0 + at.k)
    )


def test_choose_band_skips_dirty_rows():
    # forbidden vertex in row 2 pushes the band to rows 3..6
    at = choose_band(8, 2, 1, {vertex_id(8, 2, 5)})
    assert (at.i0, at.j0) == (4, 2)
    assert (at.g, at.k, at.n) == (2, 1, 8)
    at2 = choose_band(8, 2, 1, {11})  # same row, other column
    assert (at2.i0, at2.j0) == (4, 2)


def test_choose_band_clean_host_takes_top_band():
    at = choose_band(8, 2, 1, set())
    assert (at.i0, at.j0) == (2, 2)
    tight = choose_band(4, 2, 1, set())
    assert (tight.i0, tight.j0) == (2, 2)


def test_choose_band_exhausted():
    # every 4-row band of a 4-grid contains row 2
    assert choose_band(4, 2, 1, {6}) is None
    # forbidden vertices spread so no g+2k consecutive rows are clean
    marks = {vertex_id(9, i, 1) for i in (2, 6)}
    assert choose_band(9, 2, 1, marks) is None
    # a band of side g + 2k = 6 does not fit a 4- or 5-grid at all
    assert choose_band(4, 2, 2, set()) is None
    assert choose_band(5, 2, 2, set()) is None


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=40, deadline=None)
def test_grid_edge_endpoints_adjacent(n, data):
    g = grid_graph(n)
    eid = data.draw(st.sampled_from(sorted(g.edge_ids)))
    u, v = g.endpoints(eid)
    iu, ju = vertex_coord(n, u)
    iv, jv = vertex_coord(n, v)
    assert abs(iu - iv) + abs(ju - jv) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_grid_edges_among_numbers_edges_as_grid_edge_id_does(n):
    edges = grid_edges_among(n, range(1, n * n + 1))
    assert [e for e, _, _ in edges] == list(range(1, 2 * n * (n - 1) + 1))
    assert all(e == grid_edge_id(n, u, v) and u < v for e, u, v in edges)
    # the numbering written out: cells in row-major order, each emitting
    # its right edge and then its down edge
    written = []
    for u in range(1, n * n + 1):
        i, j = vertex_coord(n, u)
        written += [(u, u + 1)] * (j < n) + [(u, u + n)] * (i < n)
    assert [(u, v) for _, u, v in edges] == written
    # a vertex subset keeps exactly the edges with both ends in it
    keep = {v for v in range(1, n * n + 1) if v % 3 != 0}
    assert sorted(grid_edges_among(n, keep)) == [
        (e, u, v) for e, u, v in grid_graph(n).edges() if u in keep and v in keep
    ]
