"""Exact computations for Goeritz groups of bridge decompositions.

Braid words, the exact word problem (handle reduction, Artin action,
mapping-class equality on the punctured sphere), wicket-group membership
and Goeritz-element certification, plat invariants, integer lamination
coordinates with dilatation estimates, and the finiteness constants.
"""

from .constants import ConstantsReport, finiteness_constant, solve_R
from .freegroup import FreeEndo, FreeWord, artin_action, is_inner
from .lamination import (
    BoundViolation,
    EntropyReport,
    LamCoords,
    SweepRecord,
    act,
    entropy_estimate,
    family_sweep,
    penner_lower_bound,
)
from .plat import Pairing, PlatInvariants, component_count, standard_pairing
from .wicket import (
    BridgeDecomposition,
    MembershipReport,
    TrivialTangle,
    is_goeritz_element,
    member_sw,
    member_sw_pair,
    member_sw_standard,
    plat_invariants,
    standard_tangle,
    tangle_B,
    tangle_C,
)
from .wordproblem import (
    ResourceExhausted,
    braid_equal,
    handle_reduce,
    is_trivial,
    mcg_equal,
)
from .words import (
    BraidWord,
    Permutation,
    braid,
    compose,
    delta_j,
    entropy_family_word,
    exponent_sum,
    family_word,
    format_word,
    full_twist,
    half_twist,
    inverse,
    parse_word,
    permutation_of,
    s_plus,
    sphere_relator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
