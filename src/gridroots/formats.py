"""Canonical interchange formats for graphs, models, and run artifacts.

Everything is JSON with sorted keys, two-space indentation, and a
trailing newline, so identical objects serialize byte-identically and
every emitted file round-trips exactly.  The byte contract is that of
the standard library: ``canonical_json(obj)`` equals
``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` for every object
``json.dumps`` accepts (ASCII output with ``\\uXXXX`` escapes, ``NaN``
and ``Infinity`` for non-finite floats, int, float, bool and None keys
written as strings), and raises ``TypeError`` wherever it does; a trace
line is ``json.dumps(record, sort_keys=True)``.  Branch maps are keyed
by grid coordinate strings ("i,j"), pattern edges by coordinate pairs
("i,j|i',j'" with the row-major smaller endpoint first).

The encoder pays Python per container, not per value: runs of plain
ints are joined in C, and a dict of at least ``_RECORDS_FROM`` records
of one shape (a model's branch map: one ``{"edges": [...], "vertices":
[...]}`` per pattern vertex) is encoded a field at a time, each record
then filled into one ``%`` template.

The readers check each document in bulk and build from the checked
values.  Only when a bulk check fails, or a key is not the canonical
spelling of a listed coordinate or edge (" 1,1"), does a per-item pass
run, so a malformed document is rejected with the same exception and
message, for the first failing item in input order, as by an
item-by-item reader.
``read_json`` turns every file it cannot read (missing, a directory,
not UTF-8, not JSON, nested too deeply for the parser) into
MalformedInput, and so do ``write_text`` and ``make_dir`` for every
file they cannot write and directory they cannot make.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from itertools import chain
from json.encoder import c_make_encoder as _c_make_encoder
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Any

from .errors import MalformedInput
from .extraction import ExtractionProblem, ExtractionResult
from .graph import Graph, Subgraph
from .grid import grid_edge_id, grid_edges_among, vertex_coord, vertex_id
from .instances import InstanceRecipe
from .models import Pseudomodel
from .separations import Separation


def canonical_json(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    A circular structure raises RecursionError, where ``json.dumps``
    raises ValueError.
    """
    return _encode(obj, "\n") + "\n"


_int_str = int.__repr__
_INF = float("inf")


def _float_str(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key_str(key: Any) -> str:
    """A dict key as ``json.dumps`` writes it: always a JSON string."""
    if isinstance(key, str):
        return _json_str(key)
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return '"' + _encode(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _encode(o: Any, pad: str) -> str:
    """``o`` as JSON, its nested lines indented past ``pad`` (a newline and its indent).

    The type tests run in ``json.dumps``'s order, so subclasses encode
    as it encodes them.  Runs of plain ints, which most documents here
    are made of, are joined in C: a list of ints in one ``join``, and a
    list of equal-length rows of ints (edges, coordinates) in one ``%``
    template.  Their guards test exact types, so a bool, an ``IntEnum``
    or a float among the ints sends the list down the general path.

    A dict of at least ``_RECORDS_FROM`` entries whose values are all
    plain dicts with one set of str keys is encoded by ``_records``: a
    field at a time over all records, then one template per record.  A
    smaller dict pays one length test for it, since most dicts here are
    small and are not record maps.
    """
    if type(o) is int:
        return _int_str(o)
    if isinstance(o, str):
        return _json_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int_str(o)
    if isinstance(o, float):
        return _float_str(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        sep = "," + inner
        if _all_of(int, o):
            return "[" + inner + sep.join(map(_int_str, o)) + pad + "]"
        if type(o[0]) is list and o[0] and _int_rows(o, len(o[0])):
            row = "[" + inner + "  " + (sep + "  ").join(["%d"] * len(o[0])) + inner + "]"
            return "[" + inner + sep.join([row] * len(o)) % tuple(chain.from_iterable(o)) + pad + "]"
        return "[" + inner + sep.join([_encode(x, inner) for x in o]) + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        items = sorted(o.items())
        if len(items) >= _RECORDS_FROM:
            records = _records(items, inner)
            if records is not None:
                return "{" + inner + records + pad + "}"
        items = [_key_str(k) + ": " + _encode(v, inner) for k, v in items]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


# The record path needs about four branch records to beat the general
# path, and halves the cost from about eight; on a dict that is not a
# record map its checks are wasted, about 0.6 us, half the cost of
# encoding a 2-entry int map and a tenth of a 16-entry one (timeit,
# Python 3.11).  At 16 every instance model's branch map (25 to 1,296
# branches) takes it, while small dicts (document headers, certificates,
# the coarse bundle's 4-branch models) pay only the length test.
_RECORDS_FROM = 16


def _records(items: list, inner: str) -> str | None:
    """The sorted ``items`` of a dict, joined as ``_encode`` joins them,
    when every value is a plain dict with one shared set of str keys;
    None otherwise.  Each field's column of values is encoded in one
    pass, and each record is one ``%`` template (its field names' ``%``
    escaped) filled with its key and its fields' texts."""
    records = [v for _, v in items]
    if not _all_of(dict, records):
        return None
    fields = records[0].keys()
    if not (fields and all(map(fields.__eq__, map(dict.keys, records)))
            and _all_of(str, chain.from_iterable(records))):
        return None
    names = sorted(fields)
    pad = inner + "  "
    columns = [_column([r[f] for r in records], pad) for f in names]
    record = "%s: {" + pad + ("," + pad).join([_json_str(f).replace("%", "%%") + ": %s" for f in names]) + inner + "}"
    keys = [_key_str(k) for k, _ in items]
    return ("," + inner).join([record] * len(items)) % tuple(chain.from_iterable(zip(keys, *columns)))


def _column(values: list, pad: str) -> list[str]:
    """Each of ``values`` as ``_encode(value, pad)`` writes it; a column of
    int lists (exact types, as ``_encode`` tests them) is joined in C."""
    if _all_of(list, values) and _all_of(int, chain.from_iterable(values)):
        open_ = "[" + pad + "  "
        sep = "," + pad + "  "
        close = pad + "]"
        return [f"{open_}{sep.join(map(_int_str, v))}{close}" if v else "[]" for v in values]
    return [_encode(v, pad) for v in values]


def write_json(path: str | Path, obj: Any) -> None:
    write_text(path, canonical_json(obj))


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to the file ``path``; MalformedInput when it cannot be written."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise MalformedInput(f"cannot write {path}: {exc.strerror or exc}")


def make_dir(path: str | Path) -> Path:
    """The directory ``path``, made with its parents; MalformedInput when it cannot be."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise MalformedInput(f"cannot create directory {path}: {exc.strerror or exc}")
    return Path(path)


def read_json(path: str | Path) -> Any:
    """The JSON document in the file ``path``; MalformedInput when it cannot be read."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise MalformedInput(f"no such file: {path}")
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}")
    except ValueError as exc:  # an integer longer than the interpreter converts
        raise MalformedInput(f"{path} cannot be read as JSON: {exc}")
    except RecursionError:
        raise MalformedInput(f"{path} is nested too deeply to read")


def _int(x: Any) -> int:
    """``x`` if it is a JSON integer; a bool, float or string is malformed."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _all_of(kind: type, values) -> bool:
    """True when every value's type is exactly ``kind``: a bool is no int here."""
    return {kind}.issuperset(map(type, values))


def _int_rows(rows: Any, width: int) -> bool:
    """True when ``rows`` is a list of lists of ``width`` JSON integers each."""
    return (
        type(rows) is list
        and _all_of(list, rows)
        and {width}.issuperset(map(len, rows))
        and _all_of(int, chain.from_iterable(rows))
    )


# -- graphs and vertex sets -------------------------------------------------


def graph_to_dict(g: Graph) -> dict:
    return {
        "vertices": sorted(g.vertices),
        "edges": [[e, *g.endpoints(e)] for e in sorted(g.edge_ids)],
    }


def graph_from_dict(d: Any) -> Graph:
    vertices = edges = None
    if type(d) is dict:
        vertices, edges = d.get("vertices"), d.get("edges")
    try:
        if type(vertices) is list and _all_of(int, vertices) and _int_rows(edges, 3):
            return Graph._of_ints(frozenset(vertices), edges)
        # item by item: names the first bad value in input order
        vertices = [_int(v) for v in d["vertices"]]
        edges = [(_int(e), _int(u), _int(v)) for e, u, v in d["edges"]]
        return Graph._of_ints(frozenset(vertices), edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad graph document: {exc}")


def vertex_set_to_dict(vs) -> dict:
    return {"vertices": sorted(vs)}


def vertex_set_from_dict(d: Any) -> frozenset[int]:
    try:
        return frozenset(_int(v) for v in d["vertices"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad vertex set document: {exc}")


# -- pseudomodels ------------------------------------------------------------


def _coord_key(n: int, v: int) -> str:
    i, j = vertex_coord(n, v)
    return f"{i},{j}"


def _parse_coord(n: int, key: str) -> int:
    try:
        i, j = (int(part) for part in key.split(","))
    except ValueError:
        raise MalformedInput(f"bad grid coordinate {key!r}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise MalformedInput(f"coordinate {key!r} is outside the {n}x{n} grid")
    return vertex_id(n, i, j)


def model_to_dict(m: Pseudomodel, n: int) -> dict:
    vertices = sorted(m.pattern.vertices)
    if vertices and not 1 <= vertices[0] <= vertices[-1] <= n * n:
        for v in vertices:
            vertex_coord(n, v)  # raises for the first vertex off the n-grid
    coords = [[(v - 1) // n + 1, (v - 1) % n + 1] for v in vertices]
    # the pattern vertices' keys, made once; a branch off the pattern
    # falls back to _coord_key
    keys = dict(zip(vertices, [f"{i},{j}" for i, j in coords]))
    branches = {keys.get(pv) or _coord_key(n, pv): {"vertices": sorted(br.vertices), "edges": sorted(br.edge_ids)}
                for pv, br in sorted(m.branches.items())}
    ends, image_of = m.pattern.edge_map, m.edge_images
    images = {f"{keys[u]}|{keys[v]}": image_of[e] for e in sorted(image_of) for u, v in [ends[e]]}
    return {"pattern": {"n": n, "coords": coords}, "branches": branches, "edgeImages": images}


def model_from_dict(d: Any, host: Graph) -> Pseudomodel:
    """The pseudomodel a model document describes, with branches in ``host``.

    Reads in bulk, as the module docstring says; any failure raises
    MalformedInput naming the first bad item.
    """
    try:
        n = _int(d["pattern"]["n"])
        coords = d["pattern"]["coords"]
        if not _int_rows(coords, 2):
            coords = [(_int(i), _int(j)) for i, j in coords]
        branch_docs = d["branches"].items()
        image_docs = d["edgeImages"].items()
        images = [value for _, value in image_docs]
        if not _all_of(int, images):
            images = [_int(value) for value in images]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad model document: {exc}")
    # the canonical key of every listed coordinate, and its vertex; any
    # other key is parsed (or rejected) by _parse_coord
    if coords and not 1 <= min(chain.from_iterable(coords)) <= max(chain.from_iterable(coords)) <= n:
        for i, j in coords:
            if not (1 <= i <= n and 1 <= j <= n):
                raise MalformedInput(f"coordinate [{i}, {j}] is outside the {n}x{n} grid")
    table = {f"{i},{j}": (i - 1) * n + j for i, j in coords}
    key_of = dict(zip(table.values(), table))
    # the canonical key of every grid edge between listed coordinates
    edge_of = {f"{key_of[u]}|{key_of[v]}": (e, u, v) for e, u, v in grid_edges_among(n, key_of)}
    triples = [edge_of.get(key) for key, _ in image_docs]
    if None in triples:
        triples = [t or _edge_of_key(n, table, key) for t, (key, _) in zip(triples, image_docs)]
    try:
        pattern = Graph._of_grid(n, frozenset(table.values()), triples)
    except ValueError as exc:
        raise MalformedInput(f"bad model pattern: {exc}")
    branches = _branches_in_bulk(host, table, branch_docs)
    if branches is None:
        branches = _branches_one_by_one(host, n, table, branch_docs)
    # every branch was built in host, and every image key and value is an int
    return Pseudomodel._unchecked(host, pattern, branches, dict(zip([t[0] for t in triples], images)))


def _parse_key(n: int, table: dict[str, int], part: str) -> int:
    v = table.get(part)
    return _parse_coord(n, part) if v is None else v


def _edge_of_key(n: int, table: dict[str, int], key: str) -> tuple[int, int, int]:
    """``(eid, u, v)`` of an edge key that is not a listed edge's canonical key."""
    parts = key.split("|")
    if len(parts) != 2:
        raise MalformedInput(f"bad pattern edge key {key!r}")
    u, v = _parse_key(n, table, parts[0]), _parse_key(n, table, parts[1])
    try:
        eid = grid_edge_id(n, u, v)
    except ValueError:
        raise MalformedInput(f"pattern edge {key!r} is not a grid edge")
    return eid, min(u, v), max(u, v)


def _branches_in_bulk(host: Graph, table: dict[str, int], branch_docs) -> dict[int, Subgraph] | None:
    """The branch map when every key is a listed coordinate and every branch
    is good, built without per-branch checks; None otherwise."""
    docs = [doc for _, doc in branch_docs]
    pattern_vertices = [table.get(key) for key, _ in branch_docs]
    if None in pattern_vertices or not _all_of(dict, docs):
        return None
    try:
        vertex_lists = [doc["vertices"] for doc in docs]
        edge_lists = [doc["edges"] for doc in docs]
    except KeyError:
        return None
    if not (_all_of(list, vertex_lists) and _all_of(int, chain.from_iterable(vertex_lists))
            and _all_of(list, edge_lists) and _all_of(int, chain.from_iterable(edge_lists))):
        return None
    if not host.vertices.issuperset(chain.from_iterable(vertex_lists)):
        return None
    # One shared empty set serves the edgeless branches: a frozenset is never
    # untracked by the cyclic GC, so every extra one costs each full collection.
    empty = frozenset()
    branches = [Subgraph._unchecked(host, vs, es or empty)
                for vs, es in zip(vertex_lists, edge_lists)]
    ends = host.endpoints
    try:
        if not all(br.vertices.issuperset(chain.from_iterable(map(ends, br.edge_ids)))
                   for br in branches if br.edge_ids):
            return None
    except KeyError:  # an edge the host does not have
        return None
    return dict(zip(pattern_vertices, branches))


def _branches_one_by_one(host: Graph, n: int, table: dict[str, int], branch_docs) -> dict[int, Subgraph]:
    """The branch map, each branch read and checked in turn: raises for the
    first bad branch, and reads keys that are not listed coordinates."""
    branches = {}
    for key, doc in branch_docs:
        pv = _parse_key(n, table, key)
        try:
            branches[pv] = _subgraph_from_dict(doc, host)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad branch {key!r}: {exc}")
    return branches


# -- separations and certificates -------------------------------------------


def _subgraph_to_dict(s: Subgraph) -> dict:
    return {"vertices": sorted(s.vertices), "edges": sorted(s.edge_ids)}


def _subgraph_from_dict(d: Any, host: Graph) -> Subgraph:
    return Subgraph(host, frozenset(map(_int, d["vertices"])), frozenset(map(_int, d["edges"])))


def separation_to_dict(s: Separation) -> dict:
    return {"A": _subgraph_to_dict(s.a), "B": _subgraph_to_dict(s.b)}


def separation_from_dict(d: Any, host: Graph) -> Separation:
    try:
        return Separation(_subgraph_from_dict(d["A"], host), _subgraph_from_dict(d["B"], host))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad separation document: {exc}")


def certificate_to_dict(separation: Separation, row, depth: int) -> dict:
    return {
        "order": separation.order,
        "row": sorted(row),
        "depth": depth,
        "separation": separation_to_dict(separation),
    }


# -- recipes and instances ---------------------------------------------------


def recipe_to_dict(r: InstanceRecipe) -> dict:
    return asdict(r)


def recipe_from_dict(d: Any) -> InstanceRecipe:
    try:
        return InstanceRecipe(
            kind=str(d["kind"]),
            n=_int(d["n"]),
            g=_int(d["g"]),
            k=_int(d["k"]),
            seed=_int(d.get("seed", 0)),
            degree=_int(d.get("degree", d.get("k", 1))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad recipe document: {exc}")


def write_instance(problem: ExtractionProblem, out_dir: str | Path) -> dict[str, Path]:
    """Write graph/roots/model files for a problem; returns the paths."""
    out = make_dir(out_dir)
    paths = {
        "graph": out / "graph.json",
        "roots": out / "roots.json",
        "model": out / "model.json",
    }
    write_json(paths["graph"], graph_to_dict(problem.host))
    write_json(paths["roots"], vertex_set_to_dict(problem.roots))
    write_json(paths["model"], model_to_dict(problem.model, problem.n))
    return paths


# -- extraction results and traces -------------------------------------------


def result_to_dict(res: ExtractionResult) -> dict:
    atlas = res.atlas
    w = res.witness
    return {
        "subgrid": {
            "n": atlas.n,
            "g": atlas.g,
            "k": atlas.k,
            "i0": atlas.i0,
            "j0": atlas.j0,
            "vertices": sorted(atlas.central_vertices()),
        },
        "witness": {
            "roots": sorted(w.roots),
            "labeling": {"n": atlas.n, "i0": atlas.i0, "j0": atlas.j0, "g": atlas.g},
            "base": model_to_dict(w.base, res.problem.g),
            "augmented": model_to_dict(w.augmented, res.problem.g),
        },
    }


def trace_to_jsonl(trace) -> str:
    """``json.dumps(record, sort_keys=True)`` and a newline per record, byte for
    byte and with its exceptions, from one encoder per call: the C encoder
    ``json.dumps`` makes anew per record, or a ``JSONEncoder`` without it."""
    if _c_make_encoder is None:
        encode = json.JSONEncoder(sort_keys=True).encode
    else:
        chunks = _c_make_encoder({}, json.JSONEncoder().default, _json_str, None,
                                 ": ", ", ", True, False, True)

        def encode(record):
            return "".join(chunks(record, 0))
    return "".join([encode(record) + "\n" for record in trace])


def trace_from_jsonl(text: str) -> list[dict]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"trace line {lineno} is not valid JSON: {exc}")
        except ValueError as exc:  # an integer longer than the interpreter converts
            raise MalformedInput(f"trace line {lineno} cannot be read as JSON: {exc}")
        except RecursionError:
            raise MalformedInput(f"trace line {lineno} is nested too deeply to read")
    return records
