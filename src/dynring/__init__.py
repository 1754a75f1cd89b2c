"""Deterministic simulation and verification of robot dispersion on
dynamic rings: n labelled robots on an n-node ring whose shape an
adversary may perturb every round, aiming for one robot per node."""

from .ring import (
    Action,
    Chain,
    ChainAnalysis,
    ChainView,
    Metrics,
    Mode,
    Orientation,
    RingConfiguration,
    RobotState,
    ScenarioError,
    Snapshot,
    all_on_one,
    canonical_rotation,
    classify,
    convert_frame,
    crossing_edge,
    find_chains,
    moved_counts,
    random_configuration,
    reflect,
    resolve_moves,
    ring_from_multiplicities,
    ring_from_slots,
    rotate,
)
from .policies import (
    EVEN4_WORST_ROUNDS,
    NO_VISIBILITY_DOMAIN,
    POLICIES,
    PREPROCESS_DONE,
    LemmaViolation,
    NoVisibilityPolicy,
    Policy,
    all_no_visibility_policies,
    check_round_lemmas,
    get_policy,
    holes_filled_count,
)
from .adversaries import (
    ADVERSARIES,
    Adversary,
    AdversaryContext,
    Dynamism,
    exhaustive_branches,
    get_adversary,
    permutation_classes,
)
from .scheduler import (
    RoundTrace,
    RunResult,
    initial_robots,
    play_round,
    predict_intents,
    run_simulation,
    step,
    validate_scenario,
)
from .verifier import (
    BoundReport,
    ImpossibilityReport,
    adversary_start_filter,
    check_adaptive_soundness,
    default_verification_roots,
    enumerate_initial_configs,
    enumerate_multiplicity_profiles,
    verify_impossibility,
    verify_worst_case,
)

__version__ = "0.1.0"
