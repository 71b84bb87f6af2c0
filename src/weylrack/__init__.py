"""weylrack: exact rack-theoretic computations in the classical Weyl groups."""

from .signed import (
    GroupKind,
    SignedCycleType,
    SignedPermutation,
    conjugate,
    format_element,
    from_cycles,
    identity,
    inverse,
    multiply,
    parse_element,
    signed_cycle_type,
)
from .rack import (
    TypeDWitness,
    brute_force_type_d,
    check_decomposition,
    sq,
)
from .classes import (
    Centralizer,
    ClassMembership,
    ConjugacyClass,
    all_classes,
    centralizer,
    embed_left,
    embed_right,
    enumerate_class,
    is_orthogonal,
    juxtapose,
    split,
    verify_juxtaposition_identities,
)
from .classify import (
    EXCEPTION,
    NOT_TYPE_D,
    PROVEN,
    UNDETERMINED,
    Classifier,
    TypeDVerdict,
    classify,
    exception_case,
)
from .cyclotomic import CyclotomicField, CycScalar, cyclotomic_polynomial
from .errors import BudgetExceeded
from .linalg import rank
from .cache import ResultCache, ResultRecord
from .suites import SUITES, run_suite

__version__ = "0.2.2"
