"""The bulk validity checks against the per-item passes, on mutated problems.

``validate_pseudomodel`` accepts a valid model by a few
whole-collection checks (``_pseudomodel_holds``) and runs its per-item
pass (``_pseudomodel_findings``) only to word the findings.
``validate_problem`` tests the pattern's vertex range by ``min`` and
``max`` and reads hypothesis (i) only at the boundary branches and the
branches of more than one vertex.  Here the model's public report must
equal its per-item pass's, called directly, finding for finding, and
its bulk verdict must be "valid" exactly when that pass finds nothing,
so no valid model loses the fast path; the problem's report must equal
that of ``per_item_problem_report``, which reads every pattern vertex
and every branch.

The problems are built valid: random host ids, so that many edge images
join their branches with the ends in the other order; branches of one
to three vertices that own their edges, loops and parallel edges; host
edges that are neither images nor branch edges; and now and then a
pattern with one grid edge missing, whose ends' branches, the only ones
on the boundary, each hold one of two roots.  One mutation aimed at each finding
code is then applied, alone and with up to three more drawn at random.

The example counts are the default profile's; CI runs this module
again under the ``validation-fuzz`` profile (``tests/conftest.py``).
"""
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from gridroots import ExtractionProblem, Graph, Pseudomodel, Subgraph, grid_graph
from gridroots.extraction import _full_rows, _pattern_boundary, validate_problem
from gridroots.graph import subgraph_components
from gridroots.grid import first_off_grid_edge
from gridroots.models import _pseudomodel_findings, _pseudomodel_holds, validate_pseudomodel
from gridroots.validation import ValidationReport

# -- valid problems -------------------------------------------------------------


def valid_problem(rng) -> ExtractionProblem:
    """A valid problem: the n x n grid pattern with k = 1 and 4 <= n <= 6, or
    with k = 2 and n = 13, one pattern edge missing and a root in each of
    its two ends' branches (the only boundary branches)."""
    if rng.random() < 0.3:
        n, g, k = 13, 2, 2
    else:
        n = rng.randint(4, 6)
        n, g, k = n, rng.randint(1, n - 3 if n < 5 else 2), 1  # n > g + 2
    grid = grid_graph(n)
    pattern_edges = list(grid.edges())
    if k == 2:
        _e, *root_pvs = pattern_edges.pop(rng.randrange(len(pattern_edges)))
    else:
        root_pvs = [rng.choice(sorted(grid.vertices))]
    pattern = Graph(grid.vertices, pattern_edges)

    # Branch pieces as (pattern vertex, index); host ids are drawn last.
    pieces = {pv: [(pv, i) for i in range(rng.choice([1, 1, 2, 3]))] for pv in sorted(grid.vertices)}
    free = [("free", i) for i in range(3)]
    triples = []  # (piece, piece), ids drawn later
    owned = {pv: [] for pv in pieces}  # branch edge slots
    for pv, ps in pieces.items():
        for i in range(1, len(ps)):
            owned[pv].append(len(triples))
            triples.append((rng.choice(ps[:i]), ps[i]))
        if pv == 1 or rng.random() < 0.2:  # a loop the branch owns (one at least)
            owned[pv].append(len(triples))
            triples.append((ps[0], ps[0]))
        if len(ps) > 1 and rng.random() < 0.2:  # a parallel edge the branch owns
            owned[pv].append(len(triples))
            triples.append(triples[owned[pv][0]])
        if rng.random() < 0.1:  # an edge among its vertices the branch leaves out
            triples.append((rng.choice(ps), rng.choice(ps)))
    image_slot = {}
    for e, u, v in pattern.edges():
        image_slot[e] = len(triples)
        triples.append((rng.choice(pieces[u]), rng.choice(pieces[v])))
    every = [p for ps in pieces.values() for p in ps] + free
    for _ in range(rng.randint(0, 4)):  # plain edges: between branches, loops, to free vertices
        triples.append((rng.choice(every), rng.choice(every)))

    vid = dict(zip(every, rng.sample(range(1, 3 * len(every)), len(every))))
    eids = rng.sample(range(1, 3 * len(triples)), len(triples))
    host = Graph(vid.values(), [(f, vid[a], vid[b]) for f, (a, b) in zip(eids, triples)])
    branches = {
        pv: Subgraph(host, [vid[p] for p in ps], [eids[s] for s in owned[pv]])
        for pv, ps in pieces.items()
    }
    images = {e: eids[s] for e, s in image_slot.items()}
    model = Pseudomodel(host, pattern, branches, images)
    roots = frozenset(vid[rng.choice(pieces[pv])] for pv in root_pvs)
    return ExtractionProblem(host, roots, model, n, g, k)


# -- mutations, one aimed at each finding code ----------------------------------


def _with_model(problem, branches=None, images=None, pattern=None):
    m = problem.model
    model = Pseudomodel(
        m.host,
        m.pattern if pattern is None else pattern,
        m.branches if branches is None else branches,
        m.edge_images if images is None else images,
    )
    return replace(problem, model=model)


def _owners(problem) -> dict:
    return {x: pv for pv, br in problem.model.branches.items() for x in br.vertices}


def _free_vertices(problem) -> list:
    taken = set(_owners(problem)) | problem.roots
    return sorted(problem.model.host.vertices - taken)


def branch_missing(problem, rng):
    branches = dict(problem.model.branches)
    del branches[rng.choice(sorted(branches))]
    return _with_model(problem, branches=branches)


def branch_unknown(problem, rng):
    n = problem.n
    branches = dict(problem.model.branches)
    vertices = _free_vertices(problem) or sorted(problem.model.host.vertices)
    key = rng.choice([0, -1, n * n + 1, n * n + 7])
    branches[key] = Subgraph(problem.model.host, [rng.choice(vertices)])
    return _with_model(problem, branches=branches)


def branch_null(problem, rng):
    branches = dict(problem.model.branches)
    branches[rng.choice(sorted(branches))] = Subgraph(problem.model.host, ())
    return _with_model(problem, branches=branches)


def branch_overlap(problem, rng):
    branches = dict(problem.model.branches)
    if len(branches) < 2:
        return problem
    a, b = rng.sample(sorted(branches), 2)
    taken = rng.choice(sorted(branches[b].vertices) or [min(problem.model.host.vertices)])
    branches[a] = Subgraph(problem.model.host, branches[a].vertices | {taken}, branches[a].edge_ids)
    return _with_model(problem, branches=branches)


def image_missing(problem, rng):
    images = dict(problem.model.edge_images)
    if images:
        del images[rng.choice(sorted(images))]
    return _with_model(problem, images=images)


def image_unknown(problem, rng):
    images = dict(problem.model.edge_images)
    key = rng.choice([0, -3, 2 * problem.n * problem.n + 1])
    images[key] = rng.choice(sorted(problem.model.host.edge_ids))
    return _with_model(problem, images=images)


def image_absent(problem, rng):
    images = dict(problem.model.edge_images)
    if images:
        images[rng.choice(sorted(images))] = max(problem.model.host.edge_ids) + rng.randint(1, 5)
    return _with_model(problem, images=images)


def image_duplicate(problem, rng):
    images = dict(problem.model.edge_images)
    if len(images) >= 2:
        e, e2 = rng.sample(sorted(images), 2)
        images[e] = images[e2]
    return _with_model(problem, images=images)


def image_in_branch(problem, rng):
    images = dict(problem.model.edge_images)
    owned = sorted(f for br in problem.model.branches.values() for f in br.edge_ids)
    if images and owned:
        images[rng.choice(sorted(images))] = rng.choice(owned)
    return _with_model(problem, images=images)


def image_ends(problem, rng):
    """An image that joins the wrong branches, or a loop image with an end outside."""
    m, owner = problem.model, _owners(problem)
    images = dict(m.edge_images)
    keys = sorted(e for e in images if m.pattern.has_edge_id(e))
    if not keys:
        return problem
    e = rng.choice(keys)
    ends = set(m.pattern.endpoints(e))
    wrong = [
        f for f, x, y in problem.model.host.edges()
        if {owner.get(x), owner.get(y)} != ends or None in (owner.get(x), owner.get(y))
    ]
    if wrong:
        images[e] = rng.choice(wrong)
    return _with_model(problem, images=images)


def image_swap(problem, rng):
    """Two images traded: each joins the other's branches (a valid model stays valid
    only when both pattern edges join the same two branches)."""
    images = dict(problem.model.edge_images)
    if len(images) >= 2:
        e, e2 = rng.sample(sorted(images), 2)
        images[e], images[e2] = images[e2], images[e]
    return _with_model(problem, images=images)


def params(problem, rng):
    g = problem.g
    return rng.choice([
        replace(problem, k=0),
        replace(problem, k=g + 1),
        replace(problem, n=problem.k * (g + 2 * problem.k)),
    ])


def roots(problem, rng):
    free = _free_vertices(problem)
    if free and rng.random() < 0.5:
        return replace(problem, roots=problem.roots | {rng.choice(free)})
    return replace(problem, roots=frozenset({max(problem.host.vertices) + 1}))


def model_host(problem, rng):
    """The problem's host grown by one vertex; the model keeps the old one."""
    host = problem.host
    x = max(host.vertices) + 1
    return replace(problem, host=Graph(host.vertices | {x}, list(host.edges())))


def _repattern(problem, vertices, edges, images):
    """The problem with a new pattern, its branches cut to the new vertices."""
    pattern = Graph(vertices, edges)
    branches = {pv: br for pv, br in problem.model.branches.items() if pv in pattern.vertices}
    return _with_model(problem, branches=branches, images=images, pattern=pattern)


def pattern_grid(problem, rng):
    pattern, n = problem.model.pattern, problem.n
    edges, images = list(pattern.edges()), dict(problem.model.edge_images)
    kind = rng.choice(["vertex", "renumber", "loop", "pair"])
    if kind == "vertex" or not edges:
        return _repattern(problem, pattern.vertices | {n * n + 1}, edges, images)
    e, u, v = edges.pop(rng.randrange(len(edges)))
    image = images.pop(e, None)
    fresh = max(pattern.edge_ids) + rng.randint(1, 9)
    if kind == "renumber":
        edges.append((fresh, u, v))
    elif kind == "loop":
        edges.append((fresh, u, u))
    else:  # a pair the grid does not join
        w = rng.choice(sorted(pattern.vertices - {u, v}))
        edges.append((fresh, u, w))
    if image is not None:
        images[fresh] = image
    return _repattern(problem, pattern.vertices, edges, images)


def pattern_row(problem, rng):
    """One pattern vertex dropped from every row, with its edges and images."""
    n, pattern = problem.n, problem.model.pattern
    gone = {(i - 1) * n + rng.randint(1, n) for i in range(1, n + 1)}
    edges = [(e, u, v) for e, u, v in pattern.edges() if u not in gone and v not in gone]
    kept = {e for e, _u, _v in edges}
    images = {e: f for e, f in problem.model.edge_images.items() if e in kept}
    return _repattern(problem, pattern.vertices - gone, edges, images)


def hypothesis_i(problem, rng):
    """A rootless branch split in two, or left on the pattern's boundary."""
    m = problem.model
    rootless = sorted(pv for pv, br in m.branches.items() if not br.vertices & problem.roots)
    if not rootless:
        return problem
    pv = rng.choice(rootless)
    if rng.random() < 0.5:
        free = _free_vertices(problem)
        if free:
            branches = dict(m.branches)
            br = branches[pv]
            branches[pv] = Subgraph(problem.model.host, br.vertices | {rng.choice(free)}, br.edge_ids)
            return _with_model(problem, branches=branches)
    at = [(e, u, v) for e, u, v in m.pattern.edges() if pv in (u, v)]
    if not at:
        return problem
    e = rng.choice(at)[0]
    edges = [t for t in m.pattern.edges() if t[0] != e]
    images = {d: f for d, f in m.edge_images.items() if d != e}
    return _repattern(problem, m.pattern.vertices, edges, images)


MUTATIONS = {
    "branch-missing": branch_missing,
    "branch-unknown": branch_unknown,
    "branch-null": branch_null,
    "branch-overlap": branch_overlap,
    "edge-image-missing": image_missing,
    "edge-image-unknown": image_unknown,
    "edge-image-absent": image_absent,
    "edge-image-duplicate": image_duplicate,
    "edge-image-in-branch": image_in_branch,
    "edge-ends": image_ends,
    "params": params,
    "roots": roots,
    "model-host": model_host,
    "pattern-grid": pattern_grid,
    "pattern-row": pattern_row,
    "hypothesis-i": hypothesis_i,
}
EXTRA = [*MUTATIONS.values(), image_swap]


# -- the property -----------------------------------------------------------------


def per_item_problem_report(problem, model_report) -> ValidationReport:
    """``validate_problem``'s checks in report order, reading every pattern
    vertex's range and every branch for hypothesis (i); ``model_report``
    is the model's per-item report."""
    report = ValidationReport()
    n, g, k, roots, m = problem.n, problem.g, problem.k, problem.roots, problem.model
    if not 1 <= k <= g:
        report.add("params", f"need 1 <= k <= g, got k={k}, g={g}")
        return report
    if n <= k * (g + 2 * k):
        report.add("params", f"grid side {n} too small, need n > k*(g+2k) = {k * (g + 2 * k)}")
    if len(roots) != k:
        report.add("roots", f"expected {k} roots, got {len(roots)}")
    if not roots <= problem.host.vertices:
        report.add("roots", "roots must be vertices of the host")
    if m.host != problem.host:
        report.add("model-host", "model does not live in the problem host")
        return report
    for pv in sorted(m.pattern.vertices):
        if not 1 <= pv <= n * n:
            report.add("pattern-grid", f"pattern vertex {pv} is not an {n}x{n} grid id")
            return report
    pe = first_off_grid_edge(n, m.pattern)
    if pe is not None:
        report.add("pattern-grid", f"pattern edge {pe} does not match the {n}x{n} grid")
        return report
    if not _full_rows(n, m.pattern):
        report.add("pattern-row", "pattern contains no full grid row")
    if not model_report.ok:
        return report.merged(model_report)
    bnd = _pattern_boundary(n, m.pattern)
    for pv in sorted(m.pattern.vertices):
        branch = m.branches[pv]
        comps = (branch,) if len(branch.vertices) == 1 else subgraph_components(branch)
        if (len(comps) > 1 or pv in bnd) and not all(comp.vertices & roots for comp in comps):
            report.add(
                "hypothesis-i",
                f"branch of pattern vertex {pv} is disconnected or boundary-touching "
                "without every component meeting the roots",
            )
    return report


def reports(problem) -> tuple[list[str], list[str]]:
    """Check both validators against their per-item forms; the two per-item code lists."""
    model_items = _pseudomodel_findings(problem.model)
    assert validate_pseudomodel(problem.model).as_dict() == model_items.as_dict()
    assert _pseudomodel_holds(problem.model) == model_items.ok
    problem_items = per_item_problem_report(problem, model_items)
    assert validate_problem(problem).as_dict() == problem_items.as_dict()
    return problem_items.codes(), model_items.codes()


def _swapped_images(problem) -> int:
    """Images whose lower host end lies in the branch of the upper pattern end."""
    owner, m = _owners(problem), problem.model
    return sum(
        owner[m.host.endpoints(f)[0]] != m.pattern.endpoints(e)[0] for e, f in m.edge_images.items()
    )


@pytest.mark.parametrize("code", sorted(MUTATIONS))
@given(seed=st.integers(0, 2**32 - 1), extra=st.lists(st.sampled_from(EXTRA), max_size=3))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bulk_verdicts_equal_the_per_item_passes(code, seed, extra):
    rng = random.Random(seed)
    problem = valid_problem(rng)
    assert reports(problem) == ([], [])
    event("valid model with swapped image ends" if _swapped_images(problem) else "no swapped ends")

    mutated = MUTATIONS[code](problem, rng)
    problem_codes, model_codes = reports(mutated)
    assert code in problem_codes + model_codes, (problem_codes, model_codes)

    for mutation in extra:
        mutated = mutation(mutated, rng)
    problem_codes, model_codes = reports(mutated)
    event(f"{len(set(problem_codes + model_codes))} codes after the extra mutations")
