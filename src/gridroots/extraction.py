"""Rooted grid extraction: carve a clean subgrid wired to a root set.

Given a host graph G, a k-element root set Z, and a pseudomodel of a
subgraph J of the n x n grid in G (with J containing a full grid row),
``extract`` either produces a g x g subgrid H of J whose restriction is
Z-augmentable (each of the first k first-column branches enlarged to
capture a root, everything else untouched), or a certificate separation
of order below k pinching Z off from a full row image.

The procedure is the inductive argument run forward: scan for blocking
separations row by row; recurse into the big side of a reducible one;
otherwise delete or contract reducible edges until the model saturates;
then pick a clean band of rows, drop the inner window except a k-vertex
column stub, and connect the roots to the stub by disjoint paths.  All
host surgery is journaled so the delivered witness lives in the caller's
original graph, and every step appends a replayable trace record.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Sequence

from .errors import HypothesisViolated, InternalInvariantBroken, MalformedInput
from .graph import (
    Graph,
    Subgraph,
    boundary,
    subgraph_components,
    subgraph_is_connected,
)
from .grid import GridAtlas, choose_band, grid_edge_id, grid_graph, row_vertices, vertex_id
from .models import (
    AugmentationWitness,
    GridLabeling,
    Pseudomodel,
    apply_augmentation,
    check_augmentation,
    image_of_vertices,
    validate_pseudomodel,
)
from .separations import Separation, find_row_blocking_separation, find_row_cut, menger
from .validation import ValidationReport


@dataclass(frozen=True)
class ExtractionProblem:
    """Host, roots, and a grid-subgraph pseudomodel, plus the parameters.

    The pattern of ``model`` must be a subgraph of the n x n grid using
    grid vertex and edge ids, so pattern coordinates stay meaningful
    across the whole recursion.
    """

    host: Graph
    roots: frozenset[int]
    model: Pseudomodel
    n: int
    g: int
    k: int


@dataclass(frozen=True)
class ExtractionResult:
    """A certified outcome: the chosen subgrid, witness, and audit trace."""

    problem: ExtractionProblem
    atlas: GridAtlas
    witness: AugmentationWitness
    trace: tuple[dict, ...]

    @property
    def subgrid_vertices(self) -> tuple[int, ...]:
        """Grid ids of the extracted g x g block, ascending."""
        return tuple(sorted(self.atlas.central_vertices()))


@dataclass(frozen=True)
class HypothesisCheck:
    """Verdict of the root-connectivity hypothesis, with certificate."""

    holds: bool
    separation: Separation | None
    row: tuple[int, ...] | None


def validate_problem(problem: ExtractionProblem) -> ValidationReport:
    """Check every extraction precondition, reporting all violations."""
    report = ValidationReport()
    n, g, k = problem.n, problem.g, problem.k
    if not 1 <= k <= g:
        report.add("params", f"need 1 <= k <= g, got k={k}, g={g}")
        return report
    if n <= k * (g + 2 * k):
        report.add("params", f"grid side {n} too small, need n > k*(g+2k) = {k * (g + 2 * k)}")
    if len(problem.roots) != k:
        report.add("roots", f"expected {k} roots, got {len(problem.roots)}")
    if not problem.roots <= problem.host.vertices:
        report.add("roots", "roots must be vertices of the host")
    if problem.model.host != problem.host:
        report.add("model-host", "model does not live in the problem host")
        return report
    pattern = problem.model.pattern
    grid = grid_graph(n)
    for pv in sorted(pattern.vertices):
        if not 1 <= pv <= n * n:
            report.add("pattern-grid", f"pattern vertex {pv} is not an {n}x{n} grid id")
            return report
    for pe in sorted(pattern.edge_ids):
        if not grid.has_edge_id(pe) or grid.endpoints(pe) != pattern.endpoints(pe):
            report.add("pattern-grid", f"pattern edge {pe} does not match the {n}x{n} grid")
            return report
    if not any(set(row_vertices(n, i)) <= pattern.vertices for i in range(1, n + 1)):
        report.add("pattern-row", "pattern contains no full grid row")
    sub_report = validate_pseudomodel(problem.model)
    if not sub_report.ok:
        return report.merged(sub_report)
    bnd = boundary(grid, Subgraph(grid, pattern.vertices, pattern.edge_ids))
    for pv in sorted(pattern.vertices):
        br = problem.model.branches[pv]
        if subgraph_is_connected(br) and pv not in bnd:
            continue
        if all(comp.vertices & problem.roots for comp in subgraph_components(br)):
            continue
        report.add(
            "hypothesis-i",
            f"branch of pattern vertex {pv} is disconnected or boundary-touching "
            "without every component meeting the roots",
        )
    return report


def _json_rows(problems: ValidationReport) -> list[str]:
    return [f"{f.code}: {f.message}" for f in problems.findings]


# -- shared mechanics ------------------------------------------------------


def _rehost_model(model: Pseudomodel, host: Graph) -> Pseudomodel:
    branches = {
        pv: Subgraph(host, br.vertices, br.edge_ids) for pv, br in model.branches.items()
    }
    return Pseudomodel(host, model.pattern, branches, model.edge_images)


def _full_rows(n: int, pattern: Graph) -> list[tuple[int, ...]]:
    return [
        row for i in range(1, n + 1)
        if set(row := row_vertices(n, i)) <= pattern.vertices
    ]


def _find_edge_reduction(roots: frozenset[int], model: Pseudomodel) -> tuple[str, int, int | None] | None:
    """Least-id edge reducible by deletion or contraction, with its rule.

    Rule order: plain deletion (edge in no branch and no image), branch
    edge deletion (loop, or both ends rooted), branch edge contraction
    (everything else inside a branch).
    """
    host = model.host
    images = set(model.edge_images.values())
    owner: dict[int, int] = {}
    for pv, br in model.branches.items():
        for e in br.edge_ids:
            owner[e] = pv
    plain = [e for e in host.edge_ids if e not in images and e not in owner]
    if plain:
        return ("edge-delete", min(plain), None)
    removable = []
    contractible = []
    for e, pv in owner.items():
        x, y = host.endpoints(e)
        if x == y or {x, y} <= roots:
            removable.append((e, pv))
        else:
            contractible.append((e, pv))
    if removable:
        e, pv = min(removable)
        return ("branch-edge-delete", e, pv)
    if contractible:
        e, pv = min(contractible)
        return ("branch-edge-contract", e, pv)
    return None


def _apply_edge_reduction(
    host: Graph,
    roots: frozenset[int],
    model: Pseudomodel,
    kind: str,
    eid: int,
    branch_key: int | None,
) -> tuple[Graph, frozenset[int], Pseudomodel, tuple]:
    """Apply one edge reduction; returns new state plus a journal entry."""
    if kind in ("edge-delete", "branch-edge-delete"):
        new_host = host.delete_edge(eid)
        branches = {}
        for pv, br in model.branches.items():
            edges = br.edge_ids - {eid} if pv == branch_key else br.edge_ids
            branches[pv] = Subgraph(new_host, br.vertices, edges)
        new_model = Pseudomodel(new_host, model.pattern, branches, model.edge_images)
        return new_host, roots, new_model, ("delete", eid, host)
    u, v = host.endpoints(eid)
    new_host, rename = host.contract_edge(eid)
    new_roots = frozenset(rename[z] for z in roots)
    branches = {}
    for pv, br in model.branches.items():
        verts = {rename[w] for w in br.vertices}
        branches[pv] = Subgraph(new_host, verts, br.edge_ids - {eid})
    new_model = Pseudomodel(new_host, model.pattern, branches, model.edge_images)
    return new_host, new_roots, new_model, ("contract", eid, u, v, host)


def _derive_subproblem(
    model: Pseudomodel,
    separation: Separation,
) -> tuple[Graph, frozenset[int], Pseudomodel]:
    """Shrink the problem into the B side of a reducible separation.

    New roots are the separator; the pattern keeps the vertices whose
    branches still meet B, and the edges all of whose other-side escape
    is impossible (some end's branch lies entirely outside A).
    """
    b_side = separation.b
    sub_host = b_side.to_graph()
    sub_roots = frozenset(separation.separator)
    a_verts = separation.a.vertices
    pattern = model.pattern
    keep_vertices = [
        pv for pv in sorted(pattern.vertices)
        if model.branches[pv].vertices & b_side.vertices
    ]
    kept = set(keep_vertices)
    keep_edges = []
    for e in sorted(pattern.edge_ids):
        x, y = pattern.endpoints(e)
        if x not in kept or y not in kept:
            continue
        if not model.branches[x].vertices & a_verts or not model.branches[y].vertices & a_verts:
            keep_edges.append(e)
    sub_pattern = Graph(keep_vertices, [(e, *pattern.endpoints(e)) for e in keep_edges])
    branches = {}
    for pv in keep_vertices:
        br = model.branches[pv]
        branches[pv] = Subgraph(
            sub_host,
            br.vertices & b_side.vertices,
            br.edge_ids & b_side.edge_ids,
        )
    images = {e: model.edge_images[e] for e in keep_edges}
    sub_model = Pseudomodel(sub_host, sub_pattern, branches, images)
    return sub_host, sub_roots, sub_model


def _expand_branch(br: Subgraph, host_before: Graph, s: int, u: int, v: int, f: int) -> Subgraph:
    if s not in br.vertices:
        return Subgraph(host_before, br.vertices, br.edge_ids)
    verts = (br.vertices - {s}) | {u, v}
    return Subgraph(host_before, verts, br.edge_ids | {f})


def _unwind_model(model: Pseudomodel, entry: tuple) -> Pseudomodel:
    if entry[0] == "delete":
        return _rehost_model(model, entry[2])
    _, f, u, v, host_before = entry
    s = min(u, v)
    branches = {
        pv: _expand_branch(br, host_before, s, u, v, f)
        for pv, br in model.branches.items()
    }
    return Pseudomodel(host_before, model.pattern, branches, model.edge_images)


def _unwind_journal(
    journal: Sequence[tuple],
    base: Pseudomodel,
    augmented: Pseudomodel,
) -> tuple[Pseudomodel, Pseudomodel]:
    for entry in reversed(journal):
        base = _unwind_model(base, entry)
        augmented = _unwind_model(augmented, entry)
    return base, augmented


def _lift_certificate(sep: Separation, entry: tuple, k: int) -> Separation:
    """Pull a certificate separation back through one journal entry."""
    if entry[0] == "delete":
        _, f, host_before = entry
        x, y = host_before.endpoints(f)
        va, vb = sep.a.vertices, sep.b.vertices
        ea, eb = set(sep.a.edge_ids), set(sep.b.edge_ids)
        if x in va and y in va:
            ea.add(f)
        elif x in vb and y in vb:
            eb.add(f)
        else:
            far = y if x in va else x
            if sep.order + 1 >= k:
                raise InternalInvariantBroken(
                    "certificate lifting over an edge deletion lost strictness",
                    payload={"edge": f, "order": sep.order},
                )
            va = va | {far}
            ea.add(f)
        return Separation(
            Subgraph(host_before, va, ea), Subgraph(host_before, vb, eb)
        )
    _, f, u, v, host_before = entry
    s = min(u, v)
    va, vb = set(sep.a.vertices), set(sep.b.vertices)
    ea, eb = set(sep.a.edge_ids), set(sep.b.edge_ids)
    in_a, in_b = s in va, s in vb
    if in_a and in_b and sep.order + 1 >= k:
        raise InternalInvariantBroken(
            "certificate lifting over a contraction lost strictness",
            payload={"edge": f, "order": sep.order},
        )
    if in_a:
        va.discard(s)
        va |= {u, v}
        ea.add(f)
    if in_b:
        vb.discard(s)
        vb |= {u, v}
        if not in_a:
            eb.add(f)
    return Separation(Subgraph(host_before, va, ea), Subgraph(host_before, vb, eb))


def _lift_certificate_through_journal(sep: Separation, journal: Sequence[tuple], k: int) -> Separation:
    for entry in reversed(journal):
        sep = _lift_certificate(sep, entry, k)
    return sep


def _lift_certificate_through_frame(sub: Separation, frame: Separation) -> Separation:
    """Glue a sub-level certificate onto the A side of the frame separation."""
    host = frame.host
    lifted = Separation(
        Subgraph(
            host,
            frame.a.vertices | sub.a.vertices,
            frame.a.edge_ids | sub.a.edge_ids,
        ),
        Subgraph(host, sub.b.vertices, sub.b.edge_ids),
    )
    if lifted.order != sub.order:
        raise InternalInvariantBroken(
            "certificate order changed while lifting through a separation",
            payload={"sub_order": sub.order, "lifted_order": lifted.order},
        )
    return lifted


def _path_edges(host: Graph, path: Sequence[int], pool: frozenset[int] | None = None) -> list[int]:
    """Least-id host edges along consecutive path vertices."""
    out = []
    for a, b in zip(path, path[1:]):
        eids = [
            e for e in host.incident_edges(a)
            if not host.is_loop(e)
            and b in host.endpoints(e)
            and (pool is None or e in pool)
        ]
        if not eids:
            raise InternalInvariantBroken(f"path step {a}~{b} is not a host edge")
        out.append(min(eids))
    return out


def _splice_witness(
    host: Graph,
    base: Pseudomodel,
    augmented: Pseudomodel,
    z_prime: frozenset[int],
    paths: Sequence[Sequence[int]],
    a_edges: frozenset[int],
    g: int,
    k: int,
) -> tuple[Pseudomodel, Pseudomodel]:
    """Extend the first-column branches by root-to-separator paths.

    Each augmented first-column branch contains exactly one separator
    vertex; the path ending there is grafted on, carrying the branch's
    root coverage up one recursion level.
    """
    base = _rehost_model(base, host)
    augmented = _rehost_model(augmented, host)
    by_terminal = {path[-1]: tuple(path) for path in paths}
    if len(by_terminal) != len(paths):
        raise InternalInvariantBroken("splice paths do not have distinct terminals")
    branches = dict(augmented.branches)
    for a in range(1, k + 1):
        key = vertex_id(g, a, 1)
        hits = branches[key].vertices & z_prime
        if len(hits) != 1:
            raise InternalInvariantBroken(
                f"first-column branch {a} meets the separator {len(hits)} times",
                payload={"branch": sorted(branches[key].vertices)},
            )
        terminal = next(iter(hits))
        if terminal not in by_terminal:
            raise InternalInvariantBroken(
                f"no splice path ends at separator vertex {terminal}"
            )
        path = by_terminal[terminal]
        edges = _path_edges(host, path, a_edges)
        branches[key] = Subgraph(
            host,
            branches[key].vertices | set(path),
            branches[key].edge_ids | set(edges),
        )
    spliced = Pseudomodel(host, augmented.pattern, branches, augmented.edge_images)
    return base, spliced


def _saturated_state(
    host: Graph,
    roots: frozenset[int],
    model: Pseudomodel,
    n: int,
    g: int,
    k: int,
) -> tuple[GridAtlas, frozenset[int]]:
    """Band selection once no reduction applies, with consequence checks."""
    pattern = model.pattern
    for pv in sorted(pattern.vertices):
        br = model.branches[pv]
        if len(br.vertices) > 1 and not br.vertices <= roots:
            raise InternalInvariantBroken(
                f"saturated branch of {pv} is neither a singleton nor root-contained",
                payload={"branch": sorted(br.vertices)},
            )
    z_prime = frozenset(
        pv for pv in pattern.vertices if model.branches[pv].vertices & roots
    )
    if len(z_prime) > k:
        raise InternalInvariantBroken(
            f"{len(z_prime)} branches meet the {k} roots", payload=sorted(z_prime)
        )
    grid = grid_graph(n)
    bnd = boundary(grid, Subgraph(grid, pattern.vertices, pattern.edge_ids))
    if not bnd <= z_prime:
        raise InternalInvariantBroken(
            "pattern boundary escapes the root-touching vertices",
            payload=sorted(bnd - z_prime),
        )
    atlas = choose_band(n, g, k, z_prime)
    if atlas is None:
        raise InternalInvariantBroken(
            "no clean row band exists", payload=sorted(z_prime)
        )
    for i in atlas.window_rows():
        row = row_vertices(n, i)
        if not set(row) <= pattern.vertices:
            raise InternalInvariantBroken(f"band row {i} is not fully inside the pattern")
    window = atlas.window_vertices(0)
    for pv in sorted(window):
        if len(model.branches[pv].vertices) != 1:
            raise InternalInvariantBroken(
                f"window branch of {pv} is not a singleton",
                payload={"branch": sorted(model.branches[pv].vertices)},
            )
    lo_i, hi_i = atlas.window_rows()[0], atlas.window_rows()[-1]
    lo_j, hi_j = atlas.window_columns()[0], atlas.window_columns()[-1]
    for i in range(lo_i, hi_i + 1):
        for j in range(lo_j, hi_j + 1):
            pv = vertex_id(n, i, j)
            for other in ((i, j + 1), (i + 1, j)):
                if other[0] > hi_i or other[1] > hi_j:
                    continue
                eid = grid_edge_id(n, pv, vertex_id(n, *other))
                if eid not in pattern.edge_ids:
                    raise InternalInvariantBroken(
                        f"window edge {eid} is missing from the pattern"
                    )
    return atlas, z_prime


def _window_witness(
    host: Graph,
    roots: frozenset[int],
    model: Pseudomodel,
    atlas: GridAtlas,
    n: int,
    g: int,
    k: int,
    paths: Sequence[Sequence[int]],
) -> tuple[Pseudomodel, Pseudomodel]:
    """Build the g x g witness pair from the window and augmentation paths."""
    labeling = GridLabeling(n, atlas.i0, atlas.j0, g)
    small = grid_graph(g)
    branches = {}
    images = {}
    for a in range(1, g + 1):
        for b in range(1, g + 1):
            branches[labeling.small_vertex(a, b)] = model.branches[labeling.big_vertex(a, b)]
    for e in sorted(small.edge_ids):
        su, sv = small.endpoints(e)
        ai, aj = divmod(su - 1, g)
        bi, bj = divmod(sv - 1, g)
        big_e = grid_edge_id(
            n,
            labeling.big_vertex(ai + 1, aj + 1),
            labeling.big_vertex(bi + 1, bj + 1),
        )
        images[e] = model.edge_images[big_e]
    base = Pseudomodel(host, small, branches, images)
    ordered = []
    for pv in atlas.root_segment():
        target = next(iter(model.branches[pv].vertices))
        match = [p for p in paths if p[-1] == target]
        if len(match) != 1:
            raise InternalInvariantBroken(
                f"expected one path ending at stub vertex {target}, found {len(match)}"
            )
        ordered.append(match[0])
    augmented = apply_augmentation(base, ordered, roots, labeling)
    return base, augmented


class _Runner:
    """One extraction run: search-driven, or trace-driven for replay."""

    def __init__(self, n: int, g: int, k: int, trace: list[dict], script: list[dict] | None = None):
        self.n = n
        self.g = g
        self.k = k
        self.trace = trace
        self.script = script
        self.cursor = 0

    # -- trace plumbing ----------------------------------------------------

    def _emit(self, record: dict) -> dict:
        if self.script is None:
            self.trace.append(record)
            return record
        if self.cursor >= len(self.script):
            raise InternalInvariantBroken("trace ended before the run finished")
        expected = self.script[self.cursor]
        self.cursor += 1
        keys = [key for key in record if key != "splicePaths"]
        if any(expected.get(key) != record[key] for key in keys):
            raise InternalInvariantBroken(
                "trace record does not match the state it is replayed against",
                payload={"expected": expected, "recomputed": record},
            )
        self.trace.append(expected)
        return expected

    def _scripted_kind(self) -> str | None:
        if self.script is None or self.cursor >= len(self.script):
            return None
        return self.script[self.cursor].get("kind")

    # -- the recursive procedure --------------------------------------------

    def run(
        self,
        host: Graph,
        roots: frozenset[int],
        model: Pseudomodel,
        depth: int,
    ) -> tuple[GridAtlas, Pseudomodel, Pseudomodel]:
        n, g, k = self.n, self.g, self.k
        rows = _full_rows(n, model.pattern)
        journal: list[tuple] = []
        while True:
            block = find_row_blocking_separation(host, roots, model, rows, k)
            if block is not None and block.kind == "strict":
                lifted = _lift_certificate_through_journal(block.separation, journal, k)
                raise HypothesisViolated(lifted, block.row, depth)
            if block is not None:
                sep = block.separation
                record = self._emit({
                    "kind": "separation-recursion",
                    "depth": depth,
                    "row": list(block.row),
                    "order": sep.order,
                    "separator": sorted(sep.separator),
                    "aVertices": sorted(sep.a.vertices),
                    "aEdges": sorted(sep.a.edge_ids),
                    "bVertices": sorted(sep.b.vertices),
                    "bEdges": sorted(sep.b.edge_ids),
                    "measure": len(sep.b.vertices) + len(sep.b.edge_ids),
                })
                sub_host, sub_roots, sub_model = _derive_subproblem(model, sep)
                try:
                    atlas, base, augmented = self.run(sub_host, sub_roots, sub_model, depth + 1)
                except HypothesisViolated as exc:
                    merged = _lift_certificate_through_frame(exc.separation, sep)
                    merged = _lift_certificate_through_journal(merged, journal, k)
                    raise HypothesisViolated(merged, exc.row, exc.depth) from None
                a_edges = frozenset(sep.a.edge_ids)
                if self.script is None:
                    splice = menger(sep.a.to_graph(), roots, sub_roots, k)
                    if not splice.found_paths:
                        raise InternalInvariantBroken(
                            "the guaranteed root splice paths do not exist",
                            payload={"cut": sorted(splice.cut)},
                        )
                    paths = splice.paths
                    record["splicePaths"] = [list(p) for p in paths]
                else:
                    paths = [tuple(p) for p in record.get("splicePaths", ())]
                    for p in paths:
                        if not p or p[0] not in roots or p[-1] not in sub_roots:
                            raise InternalInvariantBroken(
                                "recorded splice path has bad endpoints", payload=list(p)
                            )
                base, augmented = _splice_witness(
                    host, base, augmented, sub_roots, paths, a_edges, g, k
                )
                base, augmented = _unwind_journal(journal, base, augmented)
                return atlas, base, augmented
            if self.script is None:
                reduction = _find_edge_reduction(roots, model)
            else:
                kind = self._scripted_kind()
                if kind in ("edge-delete", "branch-edge-delete", "branch-edge-contract"):
                    reduction = self._scripted_reduction(roots, model)
                else:
                    reduction = None
            if reduction is None:
                break
            kind, eid, branch_key = reduction
            u, v = host.endpoints(eid)
            host, roots, model, entry = _apply_edge_reduction(
                host, roots, model, kind, eid, branch_key
            )
            journal.append(entry)
            record = {
                "kind": kind,
                "depth": depth,
                "edge": eid,
                "measure": host.measure,
            }
            if kind == "branch-edge-contract":
                record["survivor"] = min(u, v)
            if branch_key is not None:
                record["branch"] = branch_key
            self._emit(record)
        atlas, z_prime = _saturated_state(host, roots, model, n, g, k)
        self._emit({
            "kind": "band-selected",
            "depth": depth,
            "top": atlas.i0 - atlas.k,
            "i0": atlas.i0,
            "j0": atlas.j0,
            "forbidden": sorted(z_prime),
        })
        stub = atlas.root_segment()
        removed = image_of_vertices(model, atlas.central_vertices() - set(stub))
        g_star = host.remove_vertices(removed)
        targets = frozenset(
            next(iter(model.branches[pv].vertices)) for pv in stub
        )
        if self.script is None:
            search = menger(g_star, roots, targets, k)
            if not search.found_paths:
                raise InternalInvariantBroken(
                    "the final disjoint-paths search returned a cut",
                    payload={"cut": sorted(search.cut), "targets": sorted(targets)},
                )
            paths = search.paths
        else:
            record = self.script[self.cursor] if self.cursor < len(self.script) else {}
            paths = tuple(tuple(p) for p in record.get("paths", ()))
        self._emit({
            "kind": "menger-augment",
            "depth": depth,
            "targets": sorted(targets),
            "paths": [list(p) for p in paths],
        })
        base, augmented = _window_witness(host, roots, model, atlas, n, g, k, paths)
        base, augmented = _unwind_journal(journal, base, augmented)
        return atlas, base, augmented

    def _scripted_reduction(self, roots: frozenset[int], model: Pseudomodel) -> tuple[str, int, int | None]:
        record = self.script[self.cursor]
        expected = _find_edge_reduction(roots, model)
        if expected is None or expected[0] != record["kind"] or expected[1] != record["edge"]:
            raise InternalInvariantBroken(
                "recorded reduction is not applicable to the replayed state",
                payload={"record": record},
            )
        return expected


def _finish(problem: ExtractionProblem, atlas: GridAtlas, base: Pseudomodel,
            augmented: Pseudomodel, trace: list[dict]) -> ExtractionResult:
    labeling = GridLabeling(problem.n, atlas.i0, atlas.j0, problem.g)
    witness = AugmentationWitness(
        base=base, augmented=augmented, roots=problem.roots, labeling=labeling
    )
    report = check_augmentation(witness)
    if not report.ok:
        raise InternalInvariantBroken(
            "delivered witness failed its own validation", payload=report.as_dict()
        )
    for pv, br in base.branches.items():
        if br.vertices & problem.roots:
            raise InternalInvariantBroken(
                f"base branch of {pv} touches the root set",
                payload=sorted(br.vertices & problem.roots),
            )
    return ExtractionResult(problem, atlas, witness, tuple(trace))


def extract(problem: ExtractionProblem) -> ExtractionResult:
    """Run the full extraction; see the module docstring for the contract.

    Raises MalformedInput when the problem invariants fail,
    HypothesisViolated with a certificate separation when the roots can
    be pinched off from a full row image by fewer than k vertices, and
    InternalInvariantBroken when a step the argument guarantees fails.
    """
    report = validate_problem(problem)
    if not report.ok:
        raise MalformedInput("extraction problem rejected", _json_rows(report))
    trace: list[dict] = []
    runner = _Runner(problem.n, problem.g, problem.k, trace)
    try:
        atlas, base, augmented = runner.run(problem.host, problem.roots, problem.model, 0)
        return _finish(problem, atlas, base, augmented, trace)
    except (HypothesisViolated, InternalInvariantBroken) as exc:
        exc.trace = tuple(trace)
        raise


def replay(problem: ExtractionProblem, trace: Sequence[dict]) -> ExtractionResult:
    """Re-execute a recorded trace without searching.

    Every record is verified against the state it is applied to, so a
    successful replay certifies that the trace is an honest account of a
    deterministic run on this problem.
    """
    report = validate_problem(problem)
    if not report.ok:
        raise MalformedInput("extraction problem rejected", _json_rows(report))
    out: list[dict] = []
    runner = _Runner(problem.n, problem.g, problem.k, out, script=list(trace))
    atlas, base, augmented = runner.run(problem.host, problem.roots, problem.model, 0)
    if runner.cursor != len(runner.script):
        raise InternalInvariantBroken(
            f"{len(runner.script) - runner.cursor} trace records were never consumed"
        )
    return _finish(problem, atlas, base, augmented, out)


def check_hypothesis(problem: ExtractionProblem) -> HypothesisCheck:
    """Decide the root-connectivity hypothesis by per-row minimum cuts.

    For every full grid row of the pattern, asks for k disjoint paths
    from the roots to the row's branch image.  A cut below k vertices is
    exactly a violating separation (max-flow equals min-cut, and cuts
    correspond to separations), so the verdict is a proof either way.
    The cut returned is the sink-side minimum cut, the same for every
    maximum flow.  This check does not require the full size
    preconditions of ``extract``; it is meaningful on arbitrarily small
    hosts.
    """
    model = problem.model
    rows = _full_rows(problem.n, model.pattern)
    block = find_row_cut(problem.host, problem.roots, model, rows, problem.k)
    if block is None:
        return HypothesisCheck(True, None, None)
    return HypothesisCheck(False, block.separation, block.row)


def extract_via_tangle_statement(
    model: Pseudomodel,
    roots: Iterable[int],
    g: int,
    k: int,
) -> ExtractionResult:
    """Extraction specialized to a model of the full n x n grid.

    The pattern must be the complete grid graph; the subgraph J of the
    general form is then the whole grid, which is how the tangle-based
    statement of the theorem consumes it.
    """
    count = model.pattern.num_vertices
    n = isqrt(count)
    if n * n != count or model.pattern != grid_graph(n):
        raise MalformedInput(
            "extract_via_tangle_statement needs a model of the full square grid"
        )
    problem = ExtractionProblem(
        host=model.host, roots=frozenset(roots), model=model, n=n, g=g, k=k
    )
    return extract(problem)
