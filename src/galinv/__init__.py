"""Exact symbolic kernel for Galilei invariance of linear PDE operators.

The package represents linear partial differential operators on
R x R^n through their plane-wave symbols over the Gaussian rationals,
applies the Galilei group (space-time translations, rotations, gauged
boosts) by exact conjugation, decides each invariance property, and
classifies: a second-order operator is Galilei invariant exactly when it
is alpha*(2i*lam*dt + Lap) + beta, and at a fixed gauge family an
order-m operator is invariant exactly when it is a polynomial in the
factor 2i*lam*dt + Lap.

Importing the package loads none of its modules.  Each public name is
imported from its home module on first use (PEP 562), so a process pays
only for the modules it calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> home module, in the order of `__all__`.
_HOME = {name: home for home, names in (
    ("gaussrat", "GaussianRational I_UNIT ONE ZERO as_gaussian format_gaussian i_power"),
    ("multipoly", "MAX_DIMENSION MAX_TOTAL_DEGREE MultiPoly"),
    ("matrices", "OrthogonalMatrix RationalMatrix reflection signed_permutation"),
    ("waves", "ExpWave plane_wave"),
    ("lpdo", "LPDO Symbol compose_const conjugate_linear_phase "
             "linear_phase operator_of symbol_of"),
    ("actions", "GaugePhase Translation boost_phase_poly conj_rotation conj_translation "
                "gauge_phase"),
    ("checks", "BoostWitness CheckReport RadialDecomposition RotationWitness TranslationWitness "
               "check_boost_invariance_fixed_gauge check_rotation_invariance "
               "check_translation_invariance radial_decompose"),
    ("classify", "GaugeNormalization PowerFormVerdict SecondOrderVerdict classify_power_form "
                 "classify_second_order normalize_gauge synthesize"),
    ("oracle", "SamplePlan apply_lpdo boost_commutator_defect"),
    ("opparse", "ParseError format_operator parse_gaussian_literal parse_operator"),
    ("errors", "InconsistencyError"),
) for name in names.split()}

__all__ = list(_HOME)


def _on_first_use(namespace: dict, homes: dict[str, str]):
    """A module `__getattr__` that imports a name from its home module in
    this package and binds it into `namespace`, so that later reads are
    plain attribute lookups."""

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{__name__}.{homes[name]}"), name)
        return value

    return __getattr__


__getattr__ = _on_first_use(globals(), _HOME)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
