"""Exact stratification combinatorics of reflection arrangements."""

from .betti import (
    bell,
    betti_row_closed_form,
    dowling,
    series_coefficients,
    stirling,
)
from .cohomology import GradedClass, cup, factor_degree2, poincare_poly
from .flats import (
    Flat,
    IntersectionLattice,
    build_lattice,
    char_poly,
    enumerate_rank_counts,
    join,
    leq,
    mobius_table,
    whitney_second,
)
from .goodsub import (
    bds_candidates,
    bds_covers_all,
    is_k_step_good,
    param_F,
    param_G,
    star_check,
    star_sets,
)
from .rootsys import (
    CartanType,
    RootSystem,
    additive_closure,
    build_root_system,
    classify_subsystem,
    closure,
    is_closed,
    reflect,
    subsystem_rank,
)
from .strata import (
    ExtendedPoint,
    Functional,
    Rejection,
    StratumResult,
    fin_set,
    generate_relations,
    h_translate,
    limit_point,
    membership,
    stratum_of,
)
from .weyl import OrbitSummary, orbit_of_flat, parabolic_summary, weyl_act_point, weyl_order

__version__ = "0.1.0"
