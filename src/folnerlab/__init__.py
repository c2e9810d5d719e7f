"""folnerlab: exact-arithmetic workbench for matching-based amenability
certificates on concrete group models."""

from .groups import (
    ArcMetric,
    DiscreteMetric,
    Entourage,
    FiniteWindow,
    GroupElement,
    GroupModel,
    InvariantPseudoMetric,
    ModelMismatchError,
    ScaledMetric,
    WindowSizeError,
    WordMetric,
    entourage_from_json,
    grid_sample,
    make_model,
    metric_from_json,
    model_from_json,
    parse_fraction,
    symmetric_closure,
    translate_window,
    window,
    word_ball,
)
from .weights import (
    FiniteWeight,
    InvarianceDefect,
    SeminormResult,
    approx_by_uniform,
    invariance_defect,
    lipschitz_seminorm,
)
from .matching import (
    BipartiteInstance,
    MatchingResult,
    build_graph,
    max_matching,
)
from .folner import (
    FolnerCertificate,
    FolnerSearchResult,
    conjugated_entourage,
    discrete_defect,
    folner_search,
    pairwise_defect,
    seminorm_crosscheck,
    topological_defect,
)
from .perturb import (
    AssembledPerturbation,
    PerturbedAction,
    PerturbationReport,
    PrecompactResult,
    WobblingElement,
    build_perturbation,
    decompose_wobbling,
    folner_package,
    moving_injection,
    precompact_perturbation,
    verify_perturbation,
)
from .paradox import (
    ParadoxCertificate,
    ParadoxSearchReport,
    WindowReport,
    evaluate_classifier,
    f2_standard_certificate,
    search_small_paradox,
    verify_on_window,
)

__version__ = "0.1.0"
