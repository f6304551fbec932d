"""Stochastic and quantum finite automata workbench.

Exact-rational and tolerance-float machines, cutpoint recognition, the
probabilistic-to-nondeterministic-quantum pipeline, closure constructions on
generalized automata, and brute-force verification against language oracles.
"""

from .automata import (
    CENT,
    DOLLAR,
    Gpfa,
    Kwqfa,
    Mcqfa,
    Pfa,
    RunTrace,
    acceptance_value,
    kwqfa_run,
)
from .constructions import (
    CompletionResult,
    ExtendedMachine,
    Homomorphism,
    add_epsilon,
    coin_pfa,
    extend_pfa,
    gpfa_concat,
    gpfa_erasing_hom,
    gpfa_hom,
    gpfa_intersection,
    gpfa_inverse_hom,
    gpfa_nonerasing_hom,
    gpfa_quotient,
    gpfa_reverse,
    gpfa_star,
    gpfa_union,
    hom,
    neq_mcqfa,
    pfa_to_nqfa,
    rotation_mcqfa,
    shift_cutpoint,
    suggest_padding_bound,
    unitary_complete,
    word_problem_gpfa,
)
from .cutpoint import (
    CutpointSpec,
    classify_value,
    equivalent_under_separation_bounded,
    one_sided_zero_check,
)
from .languages import LanguageOracle, dfa_oracle, free_reduce, oracle
from .numeric import (
    FLOAT,
    RATIONAL,
    ColVec,
    KindMismatchError,
    Matrix,
    RowVec,
    is_unitary_within,
    mat_mul,
)
from .verify import (
    AgreementReport,
    check_value_identity,
    dieu_violation,
    enumerate_agreement,
    enumerate_values,
)

__version__ = "0.1.0"
