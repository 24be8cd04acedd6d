"""Exact-arithmetic toolkit for wireless link scheduling under conflict
hypergraphs: feasibility LPs over independent sets, a greedy interval
scheduler with its sufficient conditions, and worst-case interference
metrics.  Every quantity is a ``fractions.Fraction``; nothing is floated."""

__version__ = "0.1.0"

from .errors import (
    DemandUnmet,
    DurationExceedsOne,
    EdgeRowSumTooSmall,
    EdgeTooSmall,
    EntryOutOfRange,
    HyperschedError,
    InvalidWeightMatrix,
    LinkOutOfRange,
    NonNeighborNonzero,
    NonzeroDiagonal,
    NotAntichain,
    NotIndependent,
    NotSymmetric,
    ParseError,
    ScheduleStuck,
    SizeLimitExceeded,
    SolverInvariantError,
)
from .hypergraph import (
    DEFAULT_AUTOMORPHISM_LIMIT,
    DEFAULT_SIZE_LIMIT,
    Hypergraph,
    automorphisms,
    enumerate_independent_sets,
    enumerate_maximal_independent_sets,
    is_independent,
    minimalize,
    neighbors,
    validate_hypergraph,
)
from .intervals import IntervalSet
from .lp import CoveringProgram, LinearProgram, LpSolution, LpStatus, solve_lp
from .feasibility import (
    ChiFResult,
    DemandVector,
    Schedule,
    fractional_chromatic_number,
    validate_schedule,
)
from .greedy import (
    ConditionReport,
    WeightMatrix,
    check_delta_condition,
    check_edge_min_condition,
    check_weighted_condition,
    delta_matrix,
    greedy_schedule,
    greedy_step_bound,
    validate_assignment,
    validate_weight_matrix,
)
from .metrics import (
    BBound,
    BetaWitness,
    LinkMetric,
    MetricsReport,
    StarProfile,
    b_bound,
    beta_by_enumeration,
    beta_star_formula,
    interference_metrics,
    is_beta_star,
    symmetrize_demand,
)
