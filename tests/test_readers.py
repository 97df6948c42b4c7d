"""The document readers against a per-item reference, on mutated instance documents.

``graph_from_dict``, ``model_from_dict`` and ``Graph`` check and build in
bulk.  The reference below is the per-item reading they replaced, kept
here only as the referee: for every document both must return equal
objects, built in the same order (edge maps, vertex sets, branch and
edge-image maps) and listing the same incidence tuples, or raise the
same exception with the same message.  The documents are valid
instances (seeded recipes, their breaks and two coarse models) with one
to three mutations each.

The other readers may reject a document only with ``MalformedInput``.

The example counts are the default profile's; CI runs this module
again under the ``reader-fuzz`` profile (``tests/conftest.py``).
"""
import copy
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridroots import (
    Graph,
    InstanceRecipe,
    MalformedInput,
    Pseudomodel,
    Subgraph,
    break_instance,
    generate_instance,
    graph_from_dict,
    graph_to_dict,
    identity_problem,
    model_from_dict,
    model_to_dict,
    recipe_from_dict,
    read_json,
    recipe_to_dict,
    separation_from_dict,
    separation_to_dict,
    trace_from_jsonl,
    trace_to_jsonl,
    vertex_set_from_dict,
    vertex_set_to_dict,
    write_instance,
    write_json,
)
from gridroots.cli import main
from gridroots.grid import grid_edge_id, vertex_id
from gridroots.separations import Separation

from test_graph import reference_incidence
from test_reductions import coarse_problem

# -- the reference: per-item reading ------------------------------------------


def _ref_int(x):
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def ref_graph(vertices, edges=()):
    vset = frozenset(int(v) for v in vertices)
    emap = {}
    for eid, u, v in edges:
        eid, u, v = int(eid), int(u), int(v)
        if eid in emap:
            raise ValueError(f"duplicate edge id {eid}")
        if u not in vset or v not in vset:
            raise ValueError(f"edge {eid} has an endpoint outside the vertex set")
        emap[eid] = (min(u, v), max(u, v))
    g = object.__new__(Graph)
    object.__setattr__(g, "_vertices", vset)
    object.__setattr__(g, "_edges", emap)
    object.__setattr__(g, "_incidence", None)
    object.__setattr__(g, "_hash", None)
    object.__setattr__(g, "_grid_side", None)
    return g


def ref_subgraph(host, vertices, edge_ids=()):
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
    return Subgraph._unchecked(host, vset, eset)


def ref_pseudomodel(host, pattern, branches, edge_images):
    for v, br in branches.items():
        if br.host != host:
            raise ValueError(f"branch of pattern vertex {v} lives in a different host")
    p = object.__new__(Pseudomodel)
    object.__setattr__(p, "host", host)
    object.__setattr__(p, "pattern", pattern)
    object.__setattr__(p, "branches", dict(branches))
    object.__setattr__(p, "edge_images", {int(e): int(f) for e, f in edge_images.items()})
    return p


def ref_graph_from_dict(d):
    try:
        vertices = [_ref_int(v) for v in d["vertices"]]
        edges = [(_ref_int(e), _ref_int(u), _ref_int(v)) for e, u, v in d["edges"]]
        return ref_graph(vertices, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad graph document: {exc}")


def _ref_parse_coord(n, key):
    try:
        i, j = (int(part) for part in key.split(","))
    except ValueError:
        raise MalformedInput(f"bad grid coordinate {key!r}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise MalformedInput(f"coordinate {key!r} is outside the {n}x{n} grid")
    return vertex_id(n, i, j)


def ref_model_from_dict(d, host):
    try:
        n = _ref_int(d["pattern"]["n"])
        coords = [(_ref_int(i), _ref_int(j)) for i, j in d["pattern"]["coords"]]
        branch_docs = list(d["branches"].items())
        image_docs = [(key, _ref_int(value)) for key, value in d["edgeImages"].items()]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad model document: {exc}")
    table = {}
    for i, j in coords:
        if not (1 <= i <= n and 1 <= j <= n):
            raise MalformedInput(f"coordinate [{i}, {j}] is outside the {n}x{n} grid")
        table[f"{i},{j}"] = vertex_id(n, i, j)
    vertices = list(table.values())

    def parse(part):
        v = table.get(part)
        return _ref_parse_coord(n, part) if v is None else v

    triples = []
    images = {}
    for key, image in image_docs:
        parts = key.split("|")
        if len(parts) != 2:
            raise MalformedInput(f"bad pattern edge key {key!r}")
        u, v = parse(parts[0]), parse(parts[1])
        try:
            eid = grid_edge_id(n, u, v)
        except ValueError:
            raise MalformedInput(f"pattern edge {key!r} is not a grid edge")
        triples.append((eid, min(u, v), max(u, v)))
        images[eid] = image
    try:
        pattern = ref_graph(vertices, triples)
    except ValueError as exc:
        raise MalformedInput(f"bad model pattern: {exc}")
    branches = {}
    for key, doc in branch_docs:
        pv = parse(key)
        try:
            branches[pv] = ref_subgraph(
                host,
                frozenset(_ref_int(x) for x in doc["vertices"]),
                frozenset(_ref_int(x) for x in doc["edges"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad branch {key!r}: {exc}")
    try:
        return ref_pseudomodel(host, pattern, branches, images)
    except ValueError as exc:
        raise MalformedInput(f"bad model: {exc}")


# -- comparing outcomes ------------------------------------------------------------


def outcome(read, *args):
    try:
        return "ok", read(*args)
    except Exception as exc:  # the exception itself is what is compared
        return "raised", type(exc), str(exc)


def assert_same_graph(got, want):
    assert got == want
    assert list(got.vertices) == list(want.vertices)
    assert list(got._edges.items()) == list(want._edges.items())
    incidence = reference_incidence(want)
    assert [got.incident_edges(v) for v in got.vertices] == [incidence[v] for v in want.vertices]


def assert_same_model(got, want):
    assert got == want
    assert_same_graph(got.pattern, want.pattern)
    assert list(got.branches) == list(want.branches)
    assert list(got.edge_images.items()) == list(want.edge_images.items())


def assert_same_outcome(got, want, same_object):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        same_object(got[1], want[1])
    else:
        assert got[1:] == want[1:]


# -- valid instance documents --------------------------------------------------


def _instances():
    out = {}
    for kind, n, g, k, seed in (("grid-plus-roots", 5, 2, 1, 0), ("random-attachment", 6, 2, 2, 1)):
        problem = generate_instance(InstanceRecipe(kind, n, g, k, seed, k + 1))
        out[kind] = problem
        for mode in ("detach", "hang"):
            out[f"{kind}-{mode}"] = break_instance(problem, mode, seed)
    out["coarse"] = coarse_problem(3, "top-left")
    # host side 16: each block holds v and v + 16, which collide in a set's table
    out["coarse-8"] = coarse_problem(8, "top-left")
    return out


INSTANCES = _instances()
DOCS = {
    name: (graph_to_dict(p.host), model_to_dict(p.model, p.n), p)
    for name, p in INSTANCES.items()
}

BAD_VALUES = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True),
    st.text(max_size=4),
    st.lists(st.integers(-2, 60), max_size=4),
    st.none(),
    st.integers(-3, 80),
    st.dictionaries(st.text(max_size=2), st.integers(0, 5), max_size=2),
)


def _paths(doc, prefix=()):
    """Every position in a JSON document, as a key path from its root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _at(doc, path[:-1])[path[-1]] = value


def _coord_keys(n):
    """Coordinate spellings: canonical, out of range, off-canonical, junk."""
    num = st.integers(-1, n + 2)
    return st.one_of(
        st.builds(lambda i, j: f"{i},{j}", num, num),
        st.builds(lambda i, j: f" {i},{j}", num, num),
        st.builds(lambda i, j: f"0{i},{j}", num, num),
        st.sampled_from(["", ",", "1", "1,", "a,b", "1;1", "1,1,1", "1|1", "1.0,1"]),
    )


@st.composite
def graph_mutation(draw, doc):
    """One change to a graph document."""
    edges = doc.get("edges") if isinstance(doc, dict) else None
    edges = edges if isinstance(edges, list) and edges else None
    paths = list(_paths(doc))
    kinds = ["whole"] + ["replace"] * 3 if paths else ["whole"]
    kinds += ["duplicate-id", "outside", "short", "long", "drop-vertex"] if edges else []
    kind = draw(st.sampled_from(kinds))
    if kind == "whole":
        return draw(st.one_of(BAD_VALUES, st.just({"vertices": [1]})))
    if kind == "replace":
        _set(doc, draw(st.sampled_from(paths)), draw(BAD_VALUES))
        return doc
    edge = edges[draw(st.integers(0, len(edges) - 1))]
    if not isinstance(edge, list):
        return doc
    if kind == "duplicate-id" and edge:
        other = edges[draw(st.integers(0, len(edges) - 1))]
        if isinstance(other, list) and other:
            other[0] = edge[0]
    elif kind == "outside" and len(edge) >= 2:
        edge[draw(st.integers(1, len(edge) - 1))] = draw(st.integers(0, 200))
    elif kind == "short":
        del edge[draw(st.integers(0, 2)):]
    elif kind == "long":
        edge.extend(draw(st.lists(st.integers(0, 9), min_size=1, max_size=2)))
    elif kind == "drop-vertex" and isinstance(doc.get("vertices"), list) and doc["vertices"]:
        del doc["vertices"][draw(st.integers(0, len(doc["vertices"]) - 1))]
    return doc


def _rename(d, old, new):
    """``d`` with key ``old`` renamed to ``new``, in place, keeping positions."""
    items = [(new if k == old else k, v) for k, v in d.items()]
    d.clear()
    for k, v in items:
        d[k] = v


@st.composite
def model_mutation(draw, doc, host_doc):
    """One change to a model document."""
    n = doc["pattern"].get("n") if isinstance(doc.get("pattern"), dict) else 3
    n = n if type(n) is int and 1 <= n <= 80 else 3  # the side the drawn keys use
    branches = doc.get("branches") if isinstance(doc.get("branches"), dict) else None
    images = doc.get("edgeImages") if isinstance(doc.get("edgeImages"), dict) else None
    kinds = ["replace", "replace", "replace", "coord"]
    kinds += ["image-key", "both-spellings", "non-adjacent", "image-pair"] if images else []
    kinds += ["branch-key", "branch-outside", "branch-edge-out", "branch-foreign-edge"] if branches else []
    kind = draw(st.sampled_from(kinds))
    if kind == "replace":
        path = draw(st.sampled_from(list(_paths(doc))))
        _set(doc, path, draw(BAD_VALUES))
    elif kind == "coord":
        coords = doc["pattern"].get("coords") if isinstance(doc.get("pattern"), dict) else None
        if isinstance(coords, list) and coords:
            num = st.integers(-1, n + 2)
            coords[draw(st.integers(0, len(coords) - 1))] = draw(st.one_of(
                st.lists(num, min_size=2, max_size=2), st.lists(num, max_size=3)))
    elif kind == "image-key":
        old = draw(st.sampled_from(list(images)))
        new = draw(st.one_of(
            st.builds(lambda a, b: f"{a}|{b}", _coord_keys(n), _coord_keys(n)),
            _coord_keys(n),
            st.builds(lambda a, b, c: f"{a}|{b}|{c}", _coord_keys(n), _coord_keys(n), _coord_keys(n)),
        ))
        _rename(images, old, new)
    elif kind == "both-spellings":
        key = draw(st.sampled_from(list(images)))
        a, _, b = key.partition("|")
        images[f"{b}|{a}"] = draw(st.one_of(st.integers(0, 60), BAD_VALUES))
    elif kind == "non-adjacent":
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        di, dj = draw(st.sampled_from([(0, 0), (0, 2), (2, 0), (1, 1), (2, 2)]))
        images[f"{i},{j}|{i + di},{j + dj}"] = draw(st.integers(0, 60))
    elif kind == "image-pair":
        key = draw(st.sampled_from(list(images)))
        images[key] = draw(st.one_of(st.integers(-2, 200), BAD_VALUES))
    elif kind == "branch-key":
        _rename(branches, draw(st.sampled_from(list(branches))), draw(_coord_keys(n)))
    else:
        key = draw(st.sampled_from(list(branches)))
        br = branches[key]
        if not isinstance(br, dict) or not isinstance(br.get("vertices"), list):
            return doc
        if kind == "branch-outside":
            br["vertices"].append(max(host_doc["vertices"]) + draw(st.integers(1, 3)))
        elif isinstance(br.get("edges"), list):
            # a host edge at one of the branch's vertices (its other end may lie
            # outside the branch), or an id the host does not have
            mine = {x for x in br["vertices"] if type(x) is int}
            at = [e for e, u, v in host_doc["edges"] if u in mine or v in mine]
            pick = draw(st.sampled_from(at)) if at and kind == "branch-edge-out" else (
                max(e for e, _, _ in host_doc["edges"]) + draw(st.integers(1, 3)))
            br["edges"].insert(draw(st.integers(0, len(br["edges"]))), pick)
    return doc


# -- the differential tests ---------------------------------------------------------


@given(st.sampled_from(sorted(DOCS)), st.data())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_graph_from_dict_matches_the_reference(name, data):
    doc = copy.deepcopy(DOCS[name][0])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = data.draw(graph_mutation(doc))
    assert_same_outcome(outcome(graph_from_dict, doc), outcome(ref_graph_from_dict, doc),
                        assert_same_graph)


@given(st.sampled_from(sorted(DOCS)), st.data())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_model_from_dict_matches_the_reference(name, data):
    host_doc, model_doc, problem = DOCS[name]
    doc = copy.deepcopy(model_doc)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = data.draw(model_mutation(doc, host_doc))
    assert_same_outcome(outcome(model_from_dict, doc, problem.host),
                        outcome(ref_model_from_dict, doc, problem.host), assert_same_model)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_valid_documents_read_as_the_reference_reads_them(name):
    host_doc, model_doc, problem = DOCS[name]
    host = graph_from_dict(host_doc)
    assert_same_graph(host, ref_graph_from_dict(host_doc))
    assert_same_graph(host, problem.host)
    model = model_from_dict(model_doc, host)
    assert_same_model(model, ref_model_from_dict(model_doc, host))
    assert model == problem.model


def test_the_first_failure_in_input_order_wins():
    # types are checked over the whole document before ids are compared
    cases = {
        "bad graph document: expected an integer, got True":
            {"vertices": [1, 2], "edges": [[1, 1, 2], [1, 2, 1], [2, True, 1]]},
        "bad graph document: duplicate edge id 1":
            {"vertices": [1, 2], "edges": [[1, 1, 2], [1, 2, 1], [2, 1, 3]]},
        "bad graph document: edge 2 has an endpoint outside the vertex set":
            {"vertices": [1, 2], "edges": [[1, 1, 2], [2, 1, 3], [1, 2, 1]]},
    }
    for message, doc in cases.items():
        assert outcome(graph_from_dict, doc) == outcome(ref_graph_from_dict, doc) == (
            "raised", MalformedInput, message)
    # branches "1,2" and "1,4" each list a vertex the host lacks; the bulk
    # reader's host-vertex check sends it to the per-branch pass
    _, good, problem = DOCS["grid-plus-roots"]
    doc = copy.deepcopy(good)
    for key, v in (("1,2", 27), ("1,4", 28)):
        doc["branches"][key]["vertices"].append(v)
    assert max(problem.host.vertices) == 26
    assert outcome(model_from_dict, doc, problem.host) == outcome(ref_model_from_dict, doc, problem.host) == (
        "raised", MalformedInput, "bad branch '1,2': subgraph vertices not contained in host")


def test_a_branch_without_a_field_is_named(tmp_path, capsys):
    # a branch lacking "edges" or "vertices" sends the bulk reader
    # (_branches_in_bulk) to the per-branch pass, which names the branch
    problem = identity_problem(8, 2, 1)
    paths = write_instance(problem, tmp_path)
    good = read_json(paths["model"])
    for key, field in (("1,1", "edges"), ("8,8", "vertices")):
        doc = copy.deepcopy(good)
        del doc["branches"][key][field]
        assert outcome(model_from_dict, doc, problem.host) == outcome(ref_model_from_dict, doc, problem.host) == (
            "raised", MalformedInput, f"bad branch {key!r}: {field!r}")
        write_json(tmp_path / "bad-model.json", doc)
        code = main(["extract", "--graph", str(paths["graph"]), "--roots", str(paths["roots"]),
                     "--model", str(tmp_path / "bad-model.json"), "--g", "2", "--k", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 64
        assert json.loads(capsys.readouterr().err)["error"] == "malformed-input"


def test_graph_constructor_matches_the_reference():
    # non-int values that int() accepts, generators, and failures in input order
    cases = [
        ([1, 2, 3], [(5, 2, 1), (4, 3, 3), (1, 1, 2)]),
        ((v for v in (1.0, "2", True)), (t for t in [(1, "2", 1.0)])),
        ([1, 2], [(1, 1, 2), (1, 2, 1), (2, "x", 1)]),
        ([1, 2], [(1, 1, 2), (2, "x", 1), (1, 2, 1)]),
        ([1, 2], [(1, 1, 3), (1, 1, 2)]),
        ([1, 2], [(1, 1), (1, 1, 2)]),
        ([1, 2], [(1, 1, 2), 7]),
        ([1, "a"], []),
        ([1, 2], [(1, None, 2)]),
        ([1, 2], [(1, 1, 2), (1, 2, 1), (2, float("inf"), 1)]),
        ([1, 2], [(1, 1, 2), (2, float("inf"), 1), (1, 2, 1)]),
    ]
    for vertices, edges in cases:
        vertices, edges = list(vertices), list(edges)
        assert_same_outcome(outcome(Graph, vertices, edges), outcome(ref_graph, vertices, edges),
                            assert_same_graph)


# -- the other readers reject only with MalformedInput ------------------------------

JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["vertices", "edges", "A", "B", "kind", "n", "g", "k",
                                         "seed", "degree", "x"]), inner, max_size=6),
    ),
    max_leaves=20,
)


def _only_malformed(read, *args):
    try:
        read(*args)
    except MalformedInput:
        pass


_SEP_HOST = INSTANCES["coarse"].host
_SEPARATION = Separation(Subgraph(_SEP_HOST, _SEP_HOST.vertices, _SEP_HOST.edge_ids),
                         Subgraph(_SEP_HOST, (), ()))
VALID_SMALL_DOCS = [
    vertex_set_to_dict(INSTANCES["coarse"].roots),
    separation_to_dict(_SEPARATION),
    recipe_to_dict(InstanceRecipe("grid-plus-roots", 13, 2, 2, 3, 3)),
]


@st.composite
def mutated_small_doc(draw):
    doc = copy.deepcopy(draw(st.sampled_from(VALID_SMALL_DOCS)))
    _set(doc, draw(st.sampled_from(list(_paths(doc)))), draw(BAD_VALUES))
    return doc


@given(st.one_of(JSON_VALUES, mutated_small_doc()))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_other_readers_reject_only_with_malformed_input(doc):
    _only_malformed(vertex_set_from_dict, doc)
    _only_malformed(separation_from_dict, doc, _SEP_HOST)
    _only_malformed(recipe_from_dict, doc)


# a line whose integer is one digit longer than the interpreter converts
_LONG_INTEGER_LINE = "[%s]" % ("1" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1))


@given(st.lists(st.one_of(st.text(max_size=8), JSON_VALUES.map(json.dumps),
                          st.integers(1, 3000).map(lambda depth: "[" * depth),
                          st.just(_LONG_INTEGER_LINE)), max_size=4))
@settings(deadline=None)
def test_trace_from_jsonl_rejects_only_with_malformed_input(lines):
    _only_malformed(trace_from_jsonl, "\n".join(lines))


def test_trace_from_jsonl_rejects_a_too_deeply_nested_line():
    with pytest.raises(MalformedInput, match="trace line 2"):
        trace_from_jsonl(trace_to_jsonl([{"a": 1}]) + "[" * 100000 + "\n")
