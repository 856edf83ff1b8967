"""Exact symbolic kernel for Galilei invariance of linear PDE operators.

The package represents linear partial differential operators on
R x R^n through their plane-wave symbols over the Gaussian rationals,
applies the Galilei group (space-time translations, rotations, gauged
boosts) by exact conjugation, decides each invariance property, and
classifies: a second-order operator is Galilei invariant exactly when it
is alpha*(2i*lam*dt + Lap) + beta, and at a fixed gauge family an
order-m operator is invariant exactly when it is a polynomial in the
factor 2i*lam*dt + Lap.
"""

from .gaussrat import GaussianRational, I_UNIT, ONE, ZERO, as_gaussian, format_gaussian, i_power
from .multipoly import MAX_DIMENSION, MAX_TOTAL_DEGREE, MultiPoly
from .matrices import (
    OrthogonalMatrix,
    RationalMatrix,
    all_signed_permutations,
    cayley_orthogonal,
    reflection,
    sample_cayley_rotations,
    signed_permutation,
)
from .waves import ExpWave, plane_wave, plane_wave_at
from .lpdo import (
    LPDO,
    Symbol,
    apply_plane_wave,
    compose_const,
    conjugate_linear_phase,
    linear_phase,
    operator_of,
    symbol_of,
)
from .actions import (
    BoostedFrequency,
    GaugePhase,
    Translation,
    boost_phase_poly,
    boosted_frequency,
    conj_boost_gauge,
    conj_rotation,
    conj_translation,
    gauge_phase,
)
from .checks import (
    BoostWitness,
    CheckReport,
    RadialDecomposition,
    RotationWitness,
    TranslationWitness,
    check_boost_invariance_fixed_gauge,
    check_rotation_invariance,
    check_translation_invariance,
    radial_decompose,
)
from .classify import (
    GaugeNormalization,
    PowerFormVerdict,
    SecondOrderVerdict,
    classify_power_form,
    classify_second_order,
    normalize_gauge,
    synthesize,
)
from .oracle import (
    IdentityVerdict,
    SamplePlan,
    apply_lpdo,
    boost_commutator_defect,
    differentiate_expwave,
    sampled_identity_check,
)
from .opparse import ParseError, format_operator, parse_gaussian_literal, parse_operator
from .errors import InconsistencyError

__version__ = "0.1.0"

__all__ = [
    "GaussianRational", "I_UNIT", "ONE", "ZERO", "as_gaussian", "format_gaussian",
    "i_power", "MAX_DIMENSION", "MAX_TOTAL_DEGREE", "MultiPoly", "OrthogonalMatrix",
    "RationalMatrix", "all_signed_permutations", "cayley_orthogonal", "reflection",
    "sample_cayley_rotations", "signed_permutation", "ExpWave", "plane_wave",
    "plane_wave_at", "LPDO", "Symbol", "apply_plane_wave", "compose_const",
    "conjugate_linear_phase", "linear_phase", "operator_of", "symbol_of",
    "BoostedFrequency", "GaugePhase", "Translation", "boost_phase_poly",
    "boosted_frequency", "conj_boost_gauge", "conj_rotation", "conj_translation",
    "gauge_phase", "BoostWitness", "CheckReport", "RadialDecomposition",
    "RotationWitness", "TranslationWitness", "check_boost_invariance_fixed_gauge",
    "check_rotation_invariance", "check_translation_invariance", "radial_decompose",
    "GaugeNormalization", "PowerFormVerdict", "SecondOrderVerdict",
    "classify_power_form", "classify_second_order", "normalize_gauge", "synthesize",
    "IdentityVerdict", "SamplePlan", "apply_lpdo", "boost_commutator_defect",
    "differentiate_expwave", "sampled_identity_check", "ParseError",
    "format_operator", "parse_gaussian_literal", "parse_operator",
    "InconsistencyError",
]
