"""Refutation certificates checked by networkx in the input host.

``extract`` checks its own certificate (``_Runner._refutation``) before
it raises ``HypothesisViolated``.  This referee checks the delivered
separation again with none of the package's graph code: the two sides
cover the host's vertices and edges, every host edge lies inside A or
inside B, the roots lie in V(A) and the input model's image of the row
in V(B), the separator has fewer than k vertices, and in the host minus
the separator no remaining root reaches the row image.

The inputs are the benchmark's certificates recipes (grid-plus-roots
28/3/3 and 36/4/3 at seeds 7 and 8, degree k + 1, each broken by every
break mode), built here from the public generators, and every case of
the byte-identity corpus (``tests/corpus.py``) that ``extract`` refutes.
networkx is a test-only dependency, so the module is skipped where it
is not installed.
"""
import pytest

nx = pytest.importorskip("networkx")

from gridroots import (  # noqa: E402
    BREAK_MODES,
    HypothesisViolated,
    InstanceRecipe,
    MalformedInput,
    break_instance,
    extract,
    generate_instance,
    image_of_vertices,
)
from corpus import build, case_ids  # noqa: E402

CERTIFICATE_SIZES = ((28, 3, 3), (36, 4, 3))  # (n, g, k)
CERTIFICATE_SEEDS = (7, 8)


def certificate_recipes():
    for n, g, k in CERTIFICATE_SIZES:
        for seed in CERTIFICATE_SEEDS:
            for mode in BREAK_MODES:
                yield f"gpr-{n}-{g}-{k}-s{seed}-{mode}"


def build_certificate_recipe(name):
    _, n, g, k, seed, mode = name.split("-")
    n, g, k, seed = int(n), int(g), int(k), int(seed[1:])
    problem = generate_instance(InstanceRecipe("grid-plus-roots", n, g, k, seed, k + 1))
    return break_instance(problem, mode, seed)


def referee(problem, refutation):
    """Assert that ``refutation``'s certificate separates the roots of
    ``problem`` from the image of its row, in the input host."""
    host = problem.host
    g = nx.MultiGraph()
    g.add_nodes_from(host.vertices)
    g.add_edges_from((u, v, e) for e, u, v in host.edges())
    sep = refutation.separation
    va, vb = set(sep.a.vertices), set(sep.b.vertices)
    ea, eb = set(sep.a.edge_ids), set(sep.b.edge_ids)
    assert va | vb == set(g.nodes)
    assert ea | eb == {e for _, _, e in g.edges(keys=True)}
    for u, v, e in g.edges(keys=True):
        assert (u in va and v in va) or (u in vb and v in vb), f"edge {e} crosses the separation"
    assert problem.roots <= va
    row_image = image_of_vertices(problem.model, refutation.row)
    assert row_image <= vb
    separator = va & vb
    assert len(separator) < problem.k
    rest = g.subgraph(set(g.nodes) - separator)
    targets = row_image - separator
    for z in problem.roots - separator:
        for t in targets:
            assert not nx.has_path(rest, z, t), f"root {z} reaches row vertex {t}"


def refute(problem):
    with pytest.raises(HypothesisViolated) as refuted:
        extract(problem)
    return refuted.value


@pytest.mark.parametrize("name", list(certificate_recipes()))
def test_certificates_recipe_refutations_pass_the_referee(name):
    problem = build_certificate_recipe(name)
    referee(problem, refute(problem))


def test_every_refuted_corpus_case_passes_the_referee():
    refuted = 0
    for case in case_ids():
        problem = build(case)
        try:
            extract(problem)
        except HypothesisViolated as exc:
            referee(problem, exc)
            refuted += 1
        except MalformedInput:  # a rejected problem delivers no certificate
            pass
    assert refuted == 81  # every detach and k >= 2 hang case, and the depth-one case
