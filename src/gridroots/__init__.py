"""Rooted grid minors: separations, tangles, models, and extraction.

The package turns a structural graph theorem into an executable,
certifiable pipeline: a multigraph core with contraction-friendly
subgraph algebra, minor-model (branch map) machinery, Menger-style
disjoint paths and separations, a rooted grid extraction procedure that
either delivers an augmentable subgrid or a small certificate
separation, and brute-force oracles that cross-check all of it at desk
scale.
"""
from .errors import (
    BudgetExceeded,
    HypothesisViolated,
    InternalInvariantBroken,
    MalformedInput,
)
from .extraction import (
    ExtractionProblem,
    ExtractionResult,
    HypothesisCheck,
    check_hypothesis,
    extract,
    extract_via_tangle_statement,
    replay,
    validate_problem,
)
from .graph import (
    Graph,
    Subgraph,
    boundary,
    components,
    reachable_from,
    subgraph_components,
    subgraph_is_connected,
)
from .grid import (
    GridAtlas,
    choose_band,
    grid_edge_id,
    grid_graph,
    row_vertices,
    vertex_coord,
    vertex_id,
)
from .formats import (
    canonical_json,
    certificate_to_dict,
    graph_from_dict,
    graph_to_dict,
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
from .instances import (
    BREAK_MODES,
    GENERATION_RETRIES,
    RECIPE_KINDS,
    InstanceRecipe,
    break_instance,
    generate_instance,
    grid_plus_roots_problem,
    identity_problem,
)
from .models import (
    AugmentationWitness,
    Pseudomodel,
    check_augmentation,
    identity_grid_model,
    image_of_vertices,
    validate_model,
    validate_pseudomodel,
)
from .oracles import (
    EnumerationBudget,
    brute_force_grid_model,
    enumerate_blocking_separations,
    enumerate_cuts,
    enumerate_separations,
    enumerate_tangles,
    verify_output_row_property,
)
from .separations import (
    CutResult,
    RowBlock,
    Separation,
    Tangle,
    blocking_separation,
    check_tangle_axioms,
    find_row_blocking_separation,
    grid_tangle_member,
    menger,
    separation_sort_key,
)
from .validation import Finding, ValidationReport
