"""Exact-arithmetic Saito-Kurokawa lifts of level N with Dirichlet
character, and verification of membership in the Maass Spezialschar via
the classical, symmetric and local Maass relation families plus the Hecke
double-coset identity behind them.

All computation is exact: rationals and cyclotomic integers only, no
floating point.
"""

from .characters import (
    DirichletCharacter,
    Mat2,
    parity_compatible,
    parse_character,
)
from .hecke import (
    CosetRep,
    DoubleCoset,
    HeckeElement,
    canonicalize_coset,
    coset_equal,
    coset_representatives,
    multiply,
    t_ad,
    tl_element,
    verify_theorem_identity,
)
from .jacobi import (
    JacobiExpansion,
    builtin_form,
    index_shift,
    mul_elliptic,
    parse_skjf,
    write_skjf,
)
from .numtheory import (
    Scalar,
    cohen_h,
    divisors,
    generalized_bernoulli,
    kronecker_symbol,
)
from .siegel import (
    RelationReport,
    SiegelExpansion,
    check_classical,
    check_p_relations,
    check_singular_law,
    check_symmetric,
    fj_coefficient,
    is_maass,
    lift,
    parse_sksf,
    write_sksf,
)

__version__ = "0.1.0"
