"""Exact class numbers of imaginary quadratic fields via base-B expansions.

The class number h(D) of the field with fundamental discriminant D < -4 is
a finite character sum; this package computes it by several independent
exact routes (character sums, digit sums of periodic expansions of x/|D|,
floor sums, subinterval totals) and verifies that they agree, along with
closed forms for the subinterval totals at small bases.
"""

from .arith import (
    euler_phi,
    is_prime,
    is_primitive_root,
    is_squarefree,
    least_primitive_root,
    multiplicative_order,
)
from .classnum import (
    EkTable,
    HResult,
    alternating_digit_sum,
    ek_table,
    eta,
    h_cycle_contribution,
    h_dirichlet,
    h_floor_formula,
    h_from_ek,
    h_from_ek_factored,
    h_girstmair,
    h_theorem1,
    lambda_map,
    xi,
)
from .discriminant import (
    Case,
    Discriminant,
    QuadChar,
    from_discriminant,
    quad_char,
)
from .expansion import (
    CycleSet,
    ExpansionPeriod,
    all_cycles,
    digit_closed_form,
    expand,
    normalize_cycle,
)
from .theorems import (
    CongruenceClass24,
    TheoremCheck,
    check_b2,
    check_b4,
    check_b6,
    check_b12,
    check_s1_s2,
    classify,
    h_abs_sixth,
    h_quarter_sum,
)
from .verify import (
    DiscriminantRecord,
    VerificationReport,
    fundamental_discriminants,
    verify_discriminant,
    verify_range,
)

__version__ = "0.1.0"
