"""Numerical laboratory for Cantor sets, quasisymmetric distortion and moduli.

Subpackages:
  cantor    -- gap-sequence Cantor systems and closed-form dimension criteria
  qsmaps    -- quasisymmetric maps of the line, distortion checks
  dimension -- box counting, window masses, mass distribution principle
  qsmass    -- recursive measures on quasisymmetric images, growth certificates
  modulus   -- Fuglede / discrete modulus convex programs and covering lemmas
  cli       -- reproducible experiment pipelines
"""

from confdim.cantor import (
    CantorSystem,
    GapSequence,
    IntervalLevel,
    build_system,
    closed_form_minkowski,
    minimality_criterion,
    truncated_length,
)
from confdim.qsmaps import EtaModulus, QsMap, push_intervals
from confdim.dimension import (
    BoxCountResult,
    DiscreteMeasure,
    box_count,
    mass_distribution_lower_bound,
)
from confdim.qsmass import (
    RecursiveMeasure,
    build_image_tree,
    build_recursive_measure,
    certificate,
)
from confdim.modulus import (
    DiscreteModulusProblem,
    MeasureSystem,
    SolveResult,
    dmod_vanishing_witness,
    holder_lower_bound,
    modulus_comparison,
    product_system,
    solve_discrete,
    solve_fuglede,
    vitali_disjointify,
)

__version__ = "0.1.0"
