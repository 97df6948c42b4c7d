"""JSON document round-trips and malformed-input handling."""
import enum
import hashlib
import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridroots import (
    Graph,
    InstanceRecipe,
    MalformedInput,
    canonical_json,
    certificate_to_dict,
    extract,
    generate_instance,
    graph_from_dict,
    graph_to_dict,
    grid_plus_roots_problem,
    identity_problem,
    menger,
    model_from_dict,
    model_to_dict,
    read_json,
    recipe_from_dict,
    recipe_to_dict,
    result_to_dict,
    separation_from_dict,
    separation_to_dict,
    trace_from_jsonl,
    trace_to_jsonl,
    vertex_set_from_dict,
    vertex_set_to_dict,
    write_instance,
    write_json,
)
from gridroots import BREAK_MODES, Pseudomodel, Subgraph, break_instance, formats
from gridroots.grid import grid_edges_among


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 1]})
    b = canonical_json({"a": [2, 1], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


class _Int(int):
    def __repr__(self):
        return "not an int"


class _Float(float):
    def __repr__(self):
        return "not a float"


class _Str(str):
    pass


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 7


_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324]
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(_Int),
    st.sampled_from(list(_Colour)),
    _FLOATS,
    _FLOATS.map(_Float),
    # non-ASCII, control characters and lone surrogates included
    st.text(st.characters(blacklist_categories=())),
    st.text().map(_Str),
)
# keys of one kind per dict, so most dicts sort; a mixed dict may not,
# and then json.dumps raises TypeError
_KEY_KINDS = [
    st.text(st.characters(blacklist_categories=())),
    st.integers(),
    _FLOATS,
    st.booleans(),
    st.none(),
    st.integers() | _FLOATS | st.booleans(),
]
_UNENCODABLE = st.sampled_from([object(), {1, 2}, b"bytes", 1j, frozenset()])


def _documents(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.sampled_from(_KEY_KINDS).flatmap(lambda keys: st.dictionaries(keys, inner, max_size=4)),
            st.dictionaries(st.one_of(*_KEY_KINDS, st.tuples(st.integers())), inner, max_size=3),
        ),
        max_leaves=24,
    )


def _assert_like_json_dumps(obj):
    try:
        expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            canonical_json(obj)
    else:
        assert canonical_json(obj) == expected


# what may be mixed into a run of ints: none is an exact int, so each
# must send the run down canonical_json's general path
_NOT_PLAIN_INTS = st.booleans() | st.integers().map(_Int) | st.sampled_from(list(_Colour)) | _FLOATS


# a field of a record map: int lists (empty ones included), ints, or both
_FIELDS = [st.lists(st.integers(), max_size=4), st.integers(), st.lists(st.integers(), max_size=4) | st.integers()]


@st.composite
def _record_maps(draw, unencodable=False):
    """16-40 str-keyed records that share one field set, each field an
    int list or an int: past canonical_json's cut-off, so it encodes them
    a field at a time.  Half the time one odd thing is planted: a bool,
    an int subclass or a float in one list, one record with an extra or
    a missing key, a non-str field key in every record, a nested dict,
    or (with ``unencodable``) a value json.dumps rejects."""
    names = draw(st.lists(st.text() | st.sampled_from(["%", "%s", "%(x)d"]), min_size=1, max_size=3, unique=True))
    fields = {name: draw(st.sampled_from(_FIELDS)) for name in names}
    run = draw(st.dictionaries(st.text(), st.fixed_dictionaries(fields), min_size=16, max_size=40))
    if draw(st.booleans()):
        record = run[draw(st.sampled_from(sorted(run)))]
        name = draw(st.sampled_from(names))
        odd = draw(st.sampled_from(["int", "extra", "missing", "key", "nested", "unencodable"][:6 if unencodable else 5]))
        if odd == "int":
            value = record[name] if type(record[name]) is list else []
            value.insert(draw(st.integers(0, len(value))), draw(_NOT_PLAIN_INTS))
            record[name] = value
        elif odd == "extra":
            record[draw(st.text().filter(lambda key: key not in record))] = []
        elif odd == "missing":
            del record[name]
        elif odd == "key":
            key = draw(st.integers() | _FLOATS | st.booleans() | st.none())
            for r in run.values():
                r[key] = r.pop(name)
        elif odd == "nested":
            record[name] = {name: record[name]}
        else:
            record[name] = draw(_UNENCODABLE)
    return run


@st.composite
def _int_runs(draw):
    """A list of ints, a list of int rows (of one width or ragged, empty
    rows included), a str-keyed dict of ints or a record map; half the
    time a bool, an int subclass or a float is put in it (in the list,
    in one row or among the rows, or as a dict value), and a record map
    gets one of its own odd things."""
    shape = draw(st.sampled_from(["list", "rows", "ragged", "dict", "records"]))
    if shape == "records":
        return draw(_record_maps())
    if shape == "list":
        run = draw(st.lists(st.integers(), max_size=50))
    elif shape == "rows":
        width = draw(st.integers(0, 4))
        run = draw(st.lists(st.lists(st.integers(), min_size=width, max_size=width), max_size=8))
    elif shape == "ragged":
        run = draw(st.lists(st.lists(st.integers(), max_size=4), max_size=8))
    else:
        run = draw(st.dictionaries(st.text(), st.integers(), max_size=8))
    if draw(st.booleans()):
        odd = draw(_NOT_PLAIN_INTS)
        if shape == "dict":
            run[draw(st.text())] = odd
        else:
            row = draw(st.sampled_from([run, *run])) if shape != "list" and run else run
            row.insert(draw(st.integers(0, len(row))), odd)
    return run


# a record map is also drawn as a whole document, so that the record
# path's odd cases come up on every seed and not only now and then
@given(_documents(_SCALARS | _int_runs()) | _record_maps())
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
def test_canonical_json_equals_json_dumps(obj):
    _assert_like_json_dumps(obj)


@given(_documents(_SCALARS | _UNENCODABLE | _record_maps(unencodable=True)))
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
def test_canonical_json_raises_where_json_dumps_does(obj):
    _assert_like_json_dumps(obj)


def _circular_record():
    record = {"kind": "edge-delete"}
    record["self"] = [record]
    return record


_RECORDS = st.sampled_from(_KEY_KINDS).flatmap(
    lambda keys: st.dictionaries(keys, _documents(_SCALARS | _UNENCODABLE), max_size=3)
)


@given(st.lists(_RECORDS, max_size=3))
@example([])
@example([{"a": 1}, _circular_record()])
@example([{"nan": math.nan, "inf": [math.inf, -math.inf]}, {1: 2, 0.5: None, True: [], None: 0}])
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
def test_trace_to_jsonl_equals_json_dumps_lines(records):
    """One ``json.dumps(record, sort_keys=True)`` line per record, with the
    standard library's C encoder and again without it; where json.dumps
    raises (TypeError for an unencodable value or unsortable keys,
    ValueError for a circular record), the same exception and message."""
    try:
        expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    except (TypeError, ValueError) as exc:
        expected = exc
    for c_encoder in (formats._c_make_encoder, None):
        with mock.patch.object(formats, "_c_make_encoder", c_encoder):
            if isinstance(expected, str):
                assert trace_to_jsonl(records) == expected
            else:
                with pytest.raises(type(expected)) as raised:
                    trace_to_jsonl(records)
                assert str(raised.value) == str(expected)


def _branch_map(size, **changed):
    """``size`` branch-map records keyed "i,1", with the records in ``changed`` replaced."""
    records = {f"{i},1": {"edges": [i, i + 1], "vertices": [i]} for i in range(size)}
    return {**records, **changed}


def test_canonical_json_edge_cases():
    # record maps on both sides of the cut-off (15 and 16 records), and
    # 16-record maps with True in one list, with every list empty, with one
    # extra key ("%s", which the record template must escape) and with
    # one key missing
    records = (_branch_map(15), _branch_map(16), _branch_map(16, **{"3,1": {"edges": [True], "vertices": [3]}}),
               {str(i): {"edges": [], "vertices": []} for i in range(16)},
               _branch_map(16, **{"3,1": {"edges": [], "vertices": [3], "%s": 0}}),
               _branch_map(16, **{"3,1": {"vertices": [3]}}))
    for obj in ({}, [], (), "", {"": []}, [[], {}, ()], [[], []], [[1, 2], [3]], [1, True],
                -0.0, math.nan, {math.inf: -math.inf},
                {None: None, }, {True: 1, 2: 0.5, -1.5: False}, "\x00\x1f\u00e9\u2603\U0001f600\ud800",
                {_Int(3): _Int(4), _Colour.BLUE: [_Colour.RED]}, _Float(2.5), *records):
        _assert_like_json_dumps(obj)
    for obj in (object(), {"a": {1}}, {(1,): 2}, {1: 1, "a": 2}, [1, b"x"]):
        with pytest.raises(TypeError):
            canonical_json(obj)


# sha256 over graph.json, roots.json and model.json as write_instance
# writes them, recorded before instance generation, breaking and the
# JSON writer were rewritten for speed: (n/g/k, seed, break mode)
WRITTEN_INSTANCE_SHA256 = {
    ("28/3/3", 7, None): "95dc62d0b098643b76d72e24bb88767069bf6c65cb9a066113ef760403a13ced",
    ("28/3/3", 7, "detach"): "4bb3309891f4418c22d31c4cc9786db3896b7e3d6a1a1aaeec9b83eddb000e79",
    ("28/3/3", 7, "hang"): "53387fdd3bc40a1aae7ed923830ef04a68890b26d61d57cc2a28cfdad26de328",
    ("28/3/3", 8, None): "4f4d482999afed747f96cba8d8dd1c39bf8db96867ed9b7322e6b3b265f6d525",
    ("28/3/3", 8, "detach"): "16127a725e66ed06e1ee312a99735b6a36547ad633354be7eeba0560d8a809ea",
    ("28/3/3", 8, "hang"): "3945781dd2a67070bdcaa18a39a9e5d9abe8fcb5b65c31ceb15eb20b59a5f89e",
    ("36/4/3", 7, None): "5858086e3c822cd22dfe4b6373a006785743781b7d864d64e737b7f8ea46cf8e",
    ("36/4/3", 7, "detach"): "48dd3197f77fcdb9a7c81ac6d7472e702331972d5511ffd50340106537092829",
    ("36/4/3", 7, "hang"): "5247b18fffd369e31b52188058812fb0002c341cd2fb046bb77796fcc47bd4bf",
    ("36/4/3", 8, None): "72eb7a86c31334b5d6f3f6c80aa34f8148306dc694deb6a390f927b0a64af7c6",
    ("36/4/3", 8, "detach"): "9d62b7b433b75cc882068bed3784c544c525aa38fadb09490e175aa6856ca358",
    ("36/4/3", 8, "hang"): "0bd3a9de1fb6175721dfc6bc31cea498e4f298856950259049ba73810530e23f",
}


@pytest.mark.parametrize("size", ["28/3/3", "36/4/3"])
def test_written_instance_files_are_pinned(tmp_path, size):
    n, g, k = (int(x) for x in size.split("/"))
    for seed in (7, 8):
        problem = generate_instance(InstanceRecipe("grid-plus-roots", n, g, k, seed, k + 1))
        for mode in (None, *BREAK_MODES):
            instance = problem if mode is None else break_instance(problem, mode, seed)
            paths = write_instance(instance, tmp_path / f"{seed}-{mode}")
            digest = hashlib.sha256()
            for name in ("graph", "roots", "model"):
                digest.update(paths[name].read_bytes())
            assert digest.hexdigest() == WRITTEN_INSTANCE_SHA256[size, seed, mode], (seed, mode)


def _model_with_a_branch_off_the_pattern(n, cells, branches, off):
    """A model on the path host 1..40 whose pattern is ``cells`` of the
    n-grid, with ``branches[t]`` (vertices, edges) for ``cells[t]`` and
    the branch ``off`` (vertex id, vertices, edges) keyed by a grid vertex
    off the pattern; pattern edge t maps to host edge 2t + 2."""
    host = Graph(range(1, 41), [(e, e, e + 1) for e in range(1, 40)])
    pattern = Graph(cells, list(grid_edges_among(n, cells)))
    subgraphs = {pv: Subgraph(host, vs, es) for pv, (vs, es) in zip(cells, branches)}
    subgraphs[off[0]] = Subgraph(host, off[1], off[2])
    images = {e: 2 * t + 2 for t, e in enumerate(sorted(pattern.edge_ids))}
    return Pseudomodel(host, pattern, subgraphs, images)


def test_written_model_with_a_branch_off_the_pattern_is_pinned(tmp_path):
    # recorded before model_to_dict and the record path of canonical_json
    # were written: a branch key off the pattern goes through _coord_key,
    # and multi-vertex branches carry edges, below the record cut-off
    # (five branches) and above it (seventeen)
    small = _model_with_a_branch_off_the_pattern(
        4, [1, 2, 5, 6], [({1, 2, 3}, {1, 2}), ({4}, ()), ({5}, ()), ({6}, ())], (12, {7, 8}, {7}))
    write_json(tmp_path / "small.json", model_to_dict(small, 4))
    assert (tmp_path / "small.json").read_text() == (
        '{\n  "branches": {\n    "1,1": {\n      "edges": [\n        1,\n        2\n      ],\n'
        '      "vertices": [\n        1,\n        2,\n        3\n      ]\n    },\n'
        '    "1,2": {\n      "edges": [],\n      "vertices": [\n        4\n      ]\n    },\n'
        '    "2,1": {\n      "edges": [],\n      "vertices": [\n        5\n      ]\n    },\n'
        '    "2,2": {\n      "edges": [],\n      "vertices": [\n        6\n      ]\n    },\n'
        '    "3,4": {\n      "edges": [\n        7\n      ],\n      "vertices": [\n        7,\n'
        '        8\n      ]\n    }\n  },\n  "edgeImages": {\n    "1,1|1,2": 2,\n'
        '    "1,1|2,1": 4,\n    "1,2|2,2": 6,\n    "2,1|2,2": 8\n  },\n  "pattern": {\n'
        '    "coords": [\n      [\n        1,\n        1\n      ],\n      [\n        1,\n'
        '        2\n      ],\n      [\n        2,\n        1\n      ],\n      [\n        2,\n'
        '        2\n      ]\n    ],\n    "n": 4\n  }\n}\n'
    )
    cells = [(i - 1) * 6 + j for i in range(1, 5) for j in range(1, 5)]
    large = _model_with_a_branch_off_the_pattern(
        6, cells, [({2 * t + 1, 2 * t + 2}, {2 * t + 1}) if t % 3 else ({2 * t + 1}, ()) for t in range(16)],
        (30, {33, 34, 35}, {33, 34}))
    write_json(tmp_path / "large.json", model_to_dict(large, 6))
    assert hashlib.sha256((tmp_path / "large.json").read_bytes()).hexdigest() == (
        "801a174675c1178479ddac17b037f980a7c8a2a0ef898a2ceb20f98bb22dea60"
    )


def test_written_recipe_is_pinned():
    # recipe.json as gen-instance writes it, recorded with the same files
    recipe = InstanceRecipe("grid-plus-roots", 36, 4, 3, 7, 4)
    assert canonical_json(recipe_to_dict(recipe)) == (
        '{\n  "degree": 4,\n  "g": 4,\n  "k": 3,\n  "kind": "grid-plus-roots",\n'
        '  "n": 36,\n  "seed": 7\n}\n'
    )


def test_graph_round_trip_with_loops_and_parallels():
    g = Graph([1, 2, 3], [(1, 1, 2), (2, 2, 1), (3, 3, 3)])
    doc = graph_to_dict(g)
    assert graph_from_dict(doc) == g
    assert canonical_json(graph_to_dict(graph_from_dict(doc))) == canonical_json(doc)


def test_graph_from_dict_rejects_malformed():
    for doc in ({}, {"vertices": [1]}, {"vertices": [1], "edges": [[1, 1]]},
                {"vertices": "xy", "edges": []},
                {"vertices": "12", "edges": []},
                {"vertices": [1, 2], "edges": ["112"]},
                {"vertices": [1, 2], "edges": [[1, 1, 2.0]]},
                {"vertices": [1, True], "edges": []}):
        with pytest.raises(MalformedInput):
            graph_from_dict(doc)


def test_vertex_set_round_trip():
    doc = vertex_set_to_dict({5, 3, 8})
    assert doc == {"vertices": [3, 5, 8]}
    assert vertex_set_from_dict(doc) == frozenset({3, 5, 8})
    for doc in ({"nope": []}, {"vertices": "35"}, {"vertices": [3, 5.5]},
                {"vertices": [False]}):
        with pytest.raises(MalformedInput):
            vertex_set_from_dict(doc)


def test_model_round_trip_identity():
    p = identity_problem(5, 2, 1)
    doc = model_to_dict(p.model, 5)
    back = model_from_dict(doc, p.host)
    assert back == p.model
    assert canonical_json(model_to_dict(back, 5)) == canonical_json(doc)


def test_model_round_trip_augmented_output():
    problem = grid_plus_roots_problem(13, 2, 2, ((1, 3), (5, 7)))
    result = extract(problem)
    doc = model_to_dict(result.witness.augmented, 2)
    back = model_from_dict(doc, problem.host)
    assert back == result.witness.augmented


def test_model_from_dict_rejects_malformed():
    p = identity_problem(5, 2, 1)
    good = model_to_dict(p.model, 5)

    bad_coord = {**good, "branches": {"0,1": {"vertices": [1], "edges": []}}}
    with pytest.raises(MalformedInput):
        model_from_dict(bad_coord, p.host)

    bad_key = {**good, "branches": {"px": {"vertices": [1], "edges": []}}}
    with pytest.raises(MalformedInput):
        model_from_dict(bad_key, p.host)

    # edge image key joining non-adjacent grid coordinates
    bad_edge = dict(good)
    bad_edge["edgeImages"] = {**good["edgeImages"], "1,1|3,3": 1}
    with pytest.raises(MalformedInput):
        model_from_dict(bad_edge, p.host)

    with pytest.raises(MalformedInput):
        model_from_dict({"pattern": {"n": 5}}, p.host)

    # a bad coordinate pair, a pair that is not a list, a pair given as
    # the string "11", bad edge images (a string, a float, a bool), a
    # non-integer side or branch id, branches given as a list
    pattern = good["pattern"]
    first_edge = next(iter(good["edgeImages"]))
    first_branch = next(iter(good["branches"]))
    image = good["edgeImages"][first_edge]
    branch = good["branches"][first_branch]
    for doc in (
        {**good, "pattern": {**pattern, "coords": [["a", 1], *pattern["coords"][1:]]}},
        {**good, "pattern": {**pattern, "coords": [5, *pattern["coords"][1:]]}},
        {**good, "pattern": {**pattern, "coords": ["11", *pattern["coords"][1:]]}},
        {**good, "pattern": {**pattern, "n": "5"}},
        {**good, "pattern": {**pattern, "n": 5.0}},
        {**good, "edgeImages": {**good["edgeImages"], first_edge: "x"}},
        {**good, "edgeImages": {**good["edgeImages"], first_edge: image + 0.7}},
        {**good, "edgeImages": {**good["edgeImages"], first_edge: True}},
        {**good, "branches": {**good["branches"], first_branch: {
            **branch, "vertices": [str(x) for x in branch["vertices"]]}}},
        {**good, "branches": list(good["branches"].values())},
    ):
        with pytest.raises(MalformedInput):
            model_from_dict(doc, p.host)


def test_model_from_dict_parses_keys_off_the_table():
    # keys that are not the canonical "i,j" of a listed coordinate still
    # parse as before, and bad ones fail with the same messages
    p = identity_problem(5, 2, 1)
    good = model_to_dict(p.model, 5)
    branches = dict(good["branches"])
    branches[" 1,1"] = branches.pop("1,1")
    images = dict(good["edgeImages"])
    images["1, 1|1,2"] = images.pop("1,1|1,2")
    assert model_from_dict({**good, "branches": branches, "edgeImages": images}, p.host) == p.model
    for key, message in (("1;1", "bad grid coordinate '1;1'"),
                         ("6,1", "coordinate '6,1' is outside the 5x5 grid")):
        with pytest.raises(MalformedInput, match=message):
            model_from_dict({**good, "branches": {**good["branches"], key: {"vertices": [1], "edges": []}}},
                            p.host)
        with pytest.raises(MalformedInput, match=message):
            model_from_dict({**good, "edgeImages": {**good["edgeImages"], f"{key}|1,1": 1}}, p.host)


def test_separation_round_trip():
    g = Graph([1, 2, 3], [(1, 1, 2), (2, 2, 3)])
    s = menger(g, {1}, {3}, 2).separation
    doc = separation_to_dict(s)
    back = separation_from_dict(doc, g)
    assert back == s
    with pytest.raises(MalformedInput):
        separation_from_dict({"A": doc["A"]}, g)
    with pytest.raises(MalformedInput):
        separation_from_dict({**doc, "A": {**doc["A"], "vertices": ["1"]}}, g)
    # sides that do not cover the host are rejected through Separation
    with pytest.raises(MalformedInput):
        separation_from_dict(
            {"A": {"vertices": [1], "edges": []}, "B": {"vertices": [3], "edges": []}},
            g,
        )


def test_certificate_shape():
    g = Graph([1, 2, 3], [(1, 1, 2), (2, 2, 3)])
    s = menger(g, {1}, {3}, 2).separation
    doc = certificate_to_dict(s, (3, 1, 2), depth=1)
    assert doc["order"] == s.order
    assert doc["row"] == [1, 2, 3]
    assert doc["depth"] == 1
    assert doc["separation"] == separation_to_dict(s)


def test_recipe_round_trip():
    r = InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=9, degree=3)
    doc = recipe_to_dict(r)
    assert recipe_from_dict(doc) == r
    assert recipe_from_dict({"kind": "identity-grid", "n": 8, "g": 2, "k": 1}) == (
        InstanceRecipe(kind="identity-grid", n=8, g=2, k=1, seed=0, degree=1)
    )
    with pytest.raises(MalformedInput):
        recipe_from_dict({"kind": "identity-grid"})
    with pytest.raises(MalformedInput):
        recipe_from_dict({"kind": "nope", "n": 8, "g": 2, "k": 1})
    for field, value in (("n", "8"), ("g", 2.9), ("k", True), ("seed", "9")):
        with pytest.raises(MalformedInput):
            recipe_from_dict({"kind": "identity-grid", "n": 8, "g": 2, "k": 1, field: value})


def test_write_instance_and_read_back(tmp_path):
    problem = generate_instance(
        InstanceRecipe(kind="grid-plus-roots", n=13, g=2, k=2, seed=3, degree=2)
    )
    paths = write_instance(problem, tmp_path / "inst")
    host = graph_from_dict(read_json(paths["graph"]))
    roots = vertex_set_from_dict(read_json(paths["roots"]))
    model = model_from_dict(read_json(paths["model"]), host)
    assert host == problem.host
    assert roots == problem.roots
    assert model == problem.model


def test_read_json_errors(tmp_path):
    with pytest.raises(MalformedInput):
        read_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedInput):
        read_json(bad)
    ok = tmp_path / "ok.json"
    write_json(ok, {"x": 1})
    assert read_json(ok) == {"x": 1}
    assert ok.read_text() == canonical_json({"x": 1})


def test_result_document_shape():
    problem = identity_problem(8, 2, 1)
    result = extract(problem)
    doc = result_to_dict(result)
    assert doc["subgrid"]["vertices"] == [18, 19, 26, 27]
    assert doc["subgrid"]["i0"] == 3 and doc["subgrid"]["j0"] == 2
    assert doc["witness"]["roots"] == [1]
    assert doc["witness"]["labeling"] == {"n": 8, "i0": 3, "j0": 2, "g": 2}
    base = model_from_dict(doc["witness"]["base"], problem.host)
    assert base == result.witness.base


def test_trace_jsonl_round_trip():
    problem = grid_plus_roots_problem(13, 2, 2, ((1, 3), (5, 7)))
    result = extract(problem)
    text = trace_to_jsonl(result.trace)
    assert text.count("\n") == len(result.trace)
    back = trace_from_jsonl(text)
    assert back == list(result.trace)
    # tolerant of blank lines, strict about garbage
    assert trace_from_jsonl(text + "\n\n") == back
    with pytest.raises(MalformedInput):
        trace_from_jsonl(text + "{oops\n")
