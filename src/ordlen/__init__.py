"""Ordinal-valued length and related invariants of monomial subquotients."""

from .chow import Cycle, PrimeSupport, binord, cycle_add, cycle_leq, cycle_sub, prime
from .invariants import (
    associated_primes,
    basic_invariants,
    construct_submodule_of_length,
    cycle_defect,
    dimension_filtration,
    filtration_chain,
    fundamental_cycle,
    height_rank,
    length,
    local_multiplicity,
)
from .monomial import (
    Monomial,
    MonomialIdeal,
    SubquotientModule,
    colon,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_sum,
    maximal_ideal,
    prime_ideal,
    saturation,
    unit_ideal,
    zero_ideal,
)
from .ordinal import (
    Ordinal,
    cantor_sum,
    classify,
    leq,
    meet,
    scalar_mul,
    shuffle_sum,
    truncate_above,
    truncate_below,
    weaker,
)
from .topology import (
    closure,
    find_e_open_power,
    hom_vanishes,
    is_i_open,
    is_open,
    is_open_in_ith_topology,
    is_strongly_additive,
    kernel_chain_bound,
    max_common_ass_dimension,
    predicts_open_kernel,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
