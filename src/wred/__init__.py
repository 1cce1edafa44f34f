"""wred: executable uniform reductions between combinatorial problems.

Problems are instance/solution pairs over Cantor space, reductions are
pairs of monotone oracle functionals, and the constructions around them
(products, sequentialization, squashing, diagonalization) run as
testable procedures verified at finite scale by brute-force oracles.
"""

from .kernel import (
    ContractError,
    Diverge,
    EvalOutcome,
    Functional,
    InputError,
    Point,
    Prefix,
    ResourceError,
    cantor_pair,
    cantor_unpair,
    evaluate,
    rank_tuple,
    tuple_rank,
)
from .problems import (
    Coloring,
    ProblemSpec,
    SetFamily,
    ThinSolution,
    TreeByRule,
    Verdict,
    coloring_from_tape,
    coloring_to_point,
    known_problems,
    lookup,
    measure_at_level,
    verify_homogeneous_at,
    verify_path_at,
    verify_rainbow_at,
    verify_thin_at,
)
from .combinators import (
    MarkerSequence,
    SquashConfig,
    Witness,
    alternative_product,
    check_witness_soundness,
    compose_witness,
    compositional_product,
    fanout_rt,
    iterate_finite,
    lift_seq,
    parallel_product,
    seq,
    squash,
    squash_backward,
    squash_forward,
    squash_markers,
    witness_parallel,
)
from .oracle import (
    SearchBudget,
    enumerate_paths,
    find_homogeneous,
    find_min_homogeneous,
    find_rainbow,
    find_thin,
    structural_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
