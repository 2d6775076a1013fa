"""Search layer: the engine (space builder, pluggable strategies,
parallel measurement), pruning rules, analytical performance
model, tuner, and the simulated tuning clock."""

from repro.config import VERIFY_MODES
from repro.search.engine import (
    STRATEGY_REGISTRY,
    EvolutionarySearch,
    ExhaustiveSearch,
    ParallelEvaluator,
    RandomSearch,
    SearchLoop,
    SearchResult,
    SearchStrategy,
    SimulatedAnnealingSearch,
    make_strategy,
    register_strategy,
    strategy_names,
)
from repro.search.cost_model import (
    LearnedCostModel,
    MeasurementDataset,
    pairwise_ranking_accuracy,
)
from repro.search.features import (
    FEATURE_NAMES,
    FEATURE_VERSION,
    feature_dict,
    schedule_features,
)
from repro.search.perf_model import AnalyticalModel, ChimeraModel, PerfEstimate, estimate_time
from repro.search.pruning import (
    MIN_TILE,
    PADDING_RATIO_LIMIT,
    RULE4_SLACK,
    PruningStats,
    expression_classes,
    rule2_class_survives,
    rule3_tile_options,
    rule4_ok,
    unconstrained_tile_count,
)
from repro.search.space import Candidate, SearchSpace, generate_space
from repro.search.tuner import (
    MCFuserTuner,
    TuneReport,
    VerificationError,
    report_from_entry,
)
from repro.search.tuning_cost import COSTS, TuningClock

__all__ = [
    "Candidate",
    "SearchSpace",
    "generate_space",
    "PruningStats",
    "expression_classes",
    "rule2_class_survives",
    "rule3_tile_options",
    "rule4_ok",
    "unconstrained_tile_count",
    "MIN_TILE",
    "RULE4_SLACK",
    "PADDING_RATIO_LIMIT",
    "PerfEstimate",
    "estimate_time",
    "AnalyticalModel",
    "ChimeraModel",
    "FEATURE_NAMES",
    "FEATURE_VERSION",
    "schedule_features",
    "feature_dict",
    "LearnedCostModel",
    "MeasurementDataset",
    "pairwise_ranking_accuracy",
    "SearchResult",
    "SearchLoop",
    "SearchStrategy",
    "EvolutionarySearch",
    "RandomSearch",
    "ExhaustiveSearch",
    "SimulatedAnnealingSearch",
    "STRATEGY_REGISTRY",
    "register_strategy",
    "make_strategy",
    "strategy_names",
    "ParallelEvaluator",
    "MCFuserTuner",
    "VerificationError",
    "VERIFY_MODES",
    "TuneReport",
    "report_from_entry",
    "TuningClock",
    "COSTS",
]
