"""JSON document round-trips and malformed-input handling."""
import pytest

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


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 1]})
    b = canonical_json({"a": [2, 1], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


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
