"""Command-line surface for generation, validation, and extraction.

Exit codes are a stable contract: 0 success, 1 validation failure,
2 hypothesis violation (a certificate was produced), 3 broken internal
invariant, 64 malformed input.  Every emitted file uses the canonical
interchange formats, so repeated runs with identical inputs are
byte-identical.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import formats
from .errors import BudgetExceeded, HypothesisViolated, InternalInvariantBroken, MalformedInput
from .extraction import ExtractionProblem, _public_rows, extract
from .formats import canonical_json, read_json, write_json
from .grid import grid_graph
from .instances import RECIPE_KINDS, InstanceRecipe, generate_instance
from .models import validate_model, validate_pseudomodel
from .oracles import (
    EnumerationBudget,
    brute_force_grid_model,
    enumerate_separations,
    enumerate_tangles,
    verify_output_row_property,
)
from .separations import (
    Tangle,
    check_tangle_axioms,
    find_row_blocking_separation,
    grid_row_images,
    menger,
    orient_by_rows,
)


def _print(obj) -> None:
    sys.stdout.write(canonical_json(obj))


def _print_err(obj) -> None:
    sys.stderr.write(canonical_json(obj))


def _load_graph(path):
    return formats.graph_from_dict(read_json(path))


def _load_vertex_set(path):
    return formats.vertex_set_from_dict(read_json(path))


def _load_model(path, host):
    doc = read_json(path)
    # model_from_dict accepts only documents whose pattern side is an integer
    return formats.model_from_dict(doc, host), doc["pattern"]["n"]


# -- subcommands --------------------------------------------------------------


def _cmd_gen_grid(args) -> int:
    if args.n < 1:
        raise MalformedInput(f"grid side must be at least 1, got --n {args.n}")
    doc = formats.graph_to_dict(grid_graph(args.n))
    if args.out:
        write_json(args.out, doc)
    else:
        _print(doc)
    return 0


def _cmd_gen_instance(args) -> int:
    if args.recipe:
        recipe = formats.recipe_from_dict(read_json(args.recipe))
        if args.seed is not None:
            recipe = InstanceRecipe(
                recipe.kind, recipe.n, recipe.g, recipe.k, args.seed, recipe.degree
            )
    else:
        missing = [name for name in ("kind", "n", "g", "k") if getattr(args, name) is None]
        if missing:
            raise MalformedInput(f"gen-instance needs --recipe or --{'/--'.join(missing)}")
        seed = args.seed
        if seed is None:
            text = os.environ.get("SEED", "0")
            try:
                seed = int(text)
            except ValueError:
                raise MalformedInput(f"the SEED variable must be an integer, got {text!r}") from None
        recipe = InstanceRecipe(
            args.kind, args.n, args.g, args.k, seed, args.k if args.degree is None else args.degree
        )
    paths = formats.write_instance(generate_instance(recipe), args.out)
    write_json(paths["graph"].with_name("recipe.json"), formats.recipe_to_dict(recipe))
    _print({
        "recipe": formats.recipe_to_dict(recipe),
        "files": {name: str(path) for name, path in paths.items()},
    })
    return 0


def _cmd_validate_model(args) -> int:
    host = _load_graph(args.graph)
    model, _ = _load_model(args.model, host)
    report = validate_pseudomodel(model) if args.pseudo else validate_model(model)
    _print(report.as_dict())
    return 0 if report.ok else 1


def _cmd_find_separation(args) -> int:
    host = _load_graph(args.graph)
    roots = _load_vertex_set(args.roots)
    model, n = _load_model(args.model, host)
    # g = k is the weakest size bound validate_problem allows: n > 3k^2 >= 3k
    k = args.max_order
    rows = _public_rows(ExtractionProblem(host, roots, model, n, k, k))
    block = find_row_blocking_separation(host, roots, model, rows, k)
    if block is None:
        _print({"found": False})
        return 0
    _print({
        "found": True,
        "kind": block.kind,
        "row": sorted(block.row),
        "order": block.separation.order,
        "separation": formats.separation_to_dict(block.separation),
    })
    return 2


def _cmd_menger(args) -> int:
    host = _load_graph(args.graph)
    sources = _load_vertex_set(args.sources)
    targets = _load_vertex_set(args.targets)
    forbidden = _load_vertex_set(args.forbidden) if args.forbidden else frozenset()
    result = menger(host, sources, targets, args.k, forbidden)
    if result.found_paths:
        _print({"paths": [list(p) for p in result.paths], "cut": None})
    else:
        _print({
            "paths": None,
            "cut": sorted(result.cut),
            "separation": formats.separation_to_dict(result.separation),
        })
    return 0


def _cmd_extract(args) -> int:
    host = _load_graph(args.graph)
    roots = _load_vertex_set(args.roots)
    model, n = _load_model(args.model, host)
    problem = ExtractionProblem(host, roots, model, n, args.g, args.k)
    out = formats.make_dir(args.out)
    try:
        result = extract(problem)
    except HypothesisViolated as exc:
        write_json(out / "certificate.json",
                   formats.certificate_to_dict(exc.separation, exc.row, exc.depth))
        formats.write_text(out / "trace.jsonl", formats.trace_to_jsonl(getattr(exc, "trace", ())))
        _print_err({
            "error": "hypothesis-violated",
            "message": str(exc),
            "certificate": str(out / "certificate.json"),
        })
        return 2
    except InternalInvariantBroken as exc:
        trace = getattr(exc, "trace", ())
        formats.write_text(out / "trace.jsonl", formats.trace_to_jsonl(trace))
        write_json(out / "failure.json", {
            "message": str(exc),
            "payload": exc.payload,
            "lastRecord": trace[-1] if trace else None,
        })
        _print_err({
            "error": "internal-invariant",
            "message": str(exc),
            "failure": str(out / "failure.json"),
        })
        return 3
    write_json(out / "result.json", formats.result_to_dict(result))
    write_json(out / "base-model.json", formats.model_to_dict(result.witness.base, args.g))
    write_json(out / "augmented-model.json",
               formats.model_to_dict(result.witness.augmented, args.g))
    formats.write_text(out / "trace.jsonl", formats.trace_to_jsonl(result.trace))
    _print({
        "subgrid": sorted(result.atlas.central_vertices()),
        "i0": result.atlas.i0,
        "j0": result.atlas.j0,
        "files": [str(out / name) for name in
                  ("result.json", "base-model.json", "augmented-model.json", "trace.jsonl")],
    })
    return 0


def _cmd_check_tangle(args) -> int:
    if args.order < 1:
        raise MalformedInput(f"tangle order must be at least 1, got --order {args.order}")
    host = _load_graph(args.graph)
    seps = enumerate_separations(host, args.order - 1)  # the default budget
    if args.grid_model:
        model, _ = _load_model(args.grid_model, host)
        try:
            row_images = grid_row_images(model)
            members = tuple(orient_by_rows(row_images, s) for s in seps)
        except ValueError as exc:
            raise MalformedInput(f"grid model cannot orient the separations: {exc}")
        tangles = [Tangle(host, args.order, members)]
    else:
        tangles = enumerate_tangles(host, args.order)
    reports = [check_tangle_axioms(t, seps) for t in tangles]
    ok = all(r.ok for r in reports)
    _print({
        "separations": len(seps),
        "tangles": len(tangles),
        "ok": ok,
        "findings": [r.as_dict() for r in reports if not r.ok],
    })
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    host = _load_graph(args.graph)
    if getattr(args, "max_order", None) is not None and args.max_order < 0:
        raise MalformedInput(f"max order must be non-negative, got --max-order {args.max_order}")
    if args.oracle_kind == "separations":
        seps = enumerate_separations(host, args.max_order)  # the default budget
        doc = {"count": len(seps)}
        if args.list:
            doc["separations"] = [formats.separation_to_dict(s) for s in seps]
        _print(doc)
        return 0
    if args.oracle_kind == "tangles":
        if args.order < 1:
            raise MalformedInput(f"tangle order must be at least 1, got --order {args.order}")
        tangles = enumerate_tangles(host, args.order)  # the default budget
        doc = {"count": len(tangles)}
        if args.list:
            doc["tangles"] = [
                [formats.separation_to_dict(s) for s in t.members] for t in tangles
            ]
        _print(doc)
        return 0
    if args.oracle_kind == "grid-model":
        if args.side < 1:
            raise MalformedInput(f"grid side must be at least 1, got --side {args.side}")
        budget = EnumerationBudget(max_pattern_side=args.side)  # hosts of 12 vertices at most
        model = brute_force_grid_model(host, args.side, budget)
        if model is None:
            _print({"found": False})
        else:
            _print({"found": True, "model": formats.model_to_dict(model, args.side)})
        return 0
    # row-property: extract, then sweep the separations of order below g over
    # the output (one of order g or more cannot break the property)
    roots = _load_vertex_set(args.roots)
    model, n = _load_model(args.model, host)
    problem = ExtractionProblem(host, roots, model, n, args.g, args.k)
    result = extract(problem)
    max_order = args.g - 1 if args.max_order is None else min(args.max_order, args.g - 1)
    budget = EnumerationBudget(max_vertices=max(10, host.num_vertices))  # the whole host
    seps = enumerate_separations(host, max_order, budget)
    report = verify_output_row_property(result, seps, args.g)
    _print({"separations": len(seps), **report.as_dict()})
    return 0 if report.ok else 1


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are malformed input (exit 64).

    argparse's own ``error`` prints the usage and exits 2, the code of a
    refuted extraction; ``--help`` still exits 0.  Subcommand parsers
    are built from this class too.
    """

    def error(self, message):
        raise MalformedInput(f"{self.prog}: {message}", [self.format_usage().strip()])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridroots",
        description="Rooted grid minors: generators, validators, and the extraction theorem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-grid", help="emit an n x n grid graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen_grid)

    p = sub.add_parser("gen-instance", help="generate a seeded instance bundle")
    p.add_argument("--recipe", help="recipe file; or pass the flags below")
    p.add_argument("--kind", choices=RECIPE_KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, help="overrides the recipe file and the SEED variable")
    p.add_argument("--degree", type=int, help="attachment degree (default k)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_gen_instance)

    p = sub.add_parser("validate-model", help="validate a (pseudo)model against its host")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict-model", action="store_true",
                      help="require connected branches (default)")
    mode.add_argument("--pseudo", action="store_true",
                      help="allow disconnected branches")
    p.set_defaults(func=_cmd_validate_model)

    p = sub.add_parser("find-separation", help="scan pattern rows for a blocking separation")
    p.add_argument("--graph", required=True)
    p.add_argument("--roots", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--max-order", type=int, required=True)
    p.set_defaults(func=_cmd_find_separation)

    p = sub.add_parser("menger", help="k vertex-disjoint paths or a separating cut")
    p.add_argument("--graph", required=True)
    p.add_argument("--sources", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--forbidden", help="vertex set file to exclude")
    p.set_defaults(func=_cmd_menger)

    p = sub.add_parser("extract", help="run the rooted grid extraction")
    p.add_argument("--graph", required=True)
    p.add_argument("--roots", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("check-tangle", help="verify tangle axioms at oracle scale")
    p.add_argument("--graph", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--grid-model", help="orient separations against this grid model")
    p.set_defaults(func=_cmd_check_tangle)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    osub = p.add_subparsers(dest="oracle_kind", required=True)

    q = osub.add_parser("separations", help="enumerate all separations up to an order")
    q.add_argument("--graph", required=True)
    q.add_argument("--max-order", type=int, required=True)
    q.add_argument("--list", action="store_true")
    q.set_defaults(func=_cmd_oracle)

    q = osub.add_parser("tangles", help="enumerate all tangles of an order")
    q.add_argument("--graph", required=True)
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--list", action="store_true")
    q.set_defaults(func=_cmd_oracle)

    q = osub.add_parser("grid-model", help="search for a grid minor model by brute force")
    q.add_argument("--graph", required=True)
    q.add_argument("--side", type=int, required=True)
    q.set_defaults(func=_cmd_oracle)

    q = osub.add_parser("row-property", help="sweep separations over an extraction output")
    q.add_argument("--graph", required=True)
    q.add_argument("--roots", required=True)
    q.add_argument("--model", required=True)
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--max-order", type=int)
    q.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MalformedInput as exc:
        _print_err({
            "error": "malformed-input",
            "message": str(exc),
            "problems": exc.problems,
        })
        return 64
    except HypothesisViolated as exc:
        _print_err({"error": "hypothesis-violated", "message": str(exc)})
        return 2
    except InternalInvariantBroken as exc:
        _print_err({"error": "internal-invariant", "message": str(exc)})
        return 3
    except (BudgetExceeded, RuntimeError) as exc:
        _print_err({"error": "failed", "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
