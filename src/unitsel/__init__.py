"""Exact unit selection on fully specified structural causal models.

The pipeline: represent a weighted counterfactual objective over unit roots,
build the mixture-augmented objective model, and solve the resulting
Reverse-MAP query by variable elimination. The package also ships the
analysis machinery (elimination widths, order lifting, hardness-reduction
circuits, random-model width tables) used to verify the constructions.
"""

from .factor import Factor, FactorError, Instantiation, MaximizerTable, Variable
from .model import (
    ModelError,
    Scm,
    ValidationReport,
    evidence_to_lambdas,
    joint_prob,
    load_model,
    make_scm,
    save_model,
    validate,
)
from .worlds import (
    WorldMap,
    counterfactual_oracle,
    counterfactual_query,
    mutilate,
    n_world_model,
    triplet_model,
    twin_model,
)
from .objective import (
    ObjectiveFunction,
    ObjectiveModel,
    ObjectiveTerm,
    build_objective_model,
    evaluate_L_brute,
    evaluate_L_profile,
    load_objective,
    model_size_stats,
    save_objective,
    validate_objective,
)
from .elimination import (
    ClusterReport,
    EliminationOrder,
    UGraph,
    is_external,
    lift_order,
    minfill_order,
    moral_graph,
    order_width,
    simulate_elimination,
    treewidth_exact,
)
from .inference import (
    InconsistentEvidenceError,
    QueryResult,
    brute_map,
    brute_rmap,
    eliminate,
    map_ve,
    posterior,
    query_prob,
    rmap_table,
    rmap_ve,
    unit_select,
)
from .reductions import (
    Formula,
    compile_formula,
    emajsat_ratio,
    parse_dimacs,
    sat_via_rmap,
)
from .bench import (
    GenConfig,
    gen_benefit_objective,
    gen_random_scm,
    gen_tight_family,
    run_width_table,
    width_table_csv,
)

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Absolute path of a bundled model fixture (e.g. "two_node.json")."""
    import importlib.resources

    return str(importlib.resources.files(__package__) / "fixtures" / name)
