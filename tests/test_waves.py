"""ExpWave invariants: shared universe, real phase, closure rules."""

from fractions import Fraction

import pytest

from galinv import ExpWave, I_UNIT, MultiPoly, plane_wave
from galinv import universe

from reference_oracle import plane_wave_at


def test_phase_must_be_real():
    names = universe.coeff_vars(1)
    with pytest.raises(ValueError):
        ExpWave(MultiPoly.const(names, 1), MultiPoly.const(names, I_UNIT))


def test_amplitude_and_phase_share_a_universe():
    a = MultiPoly.const(("t", "x1"), 1)
    p = MultiPoly.zero(("t", "x2"))
    with pytest.raises(ValueError):
        ExpWave(a, p)


def test_plane_wave_phase_shape():
    wave = plane_wave(2)
    names = universe.symbol_vars(2)
    expected = (
        MultiPoly.var(names, "tau") * MultiPoly.var(names, "t")
        + MultiPoly.var(names, "xi1") * MultiPoly.var(names, "x1")
        + MultiPoly.var(names, "xi2") * MultiPoly.var(names, "x2")
    )
    assert wave.amplitude == 1
    assert wave.phase == expected


def test_plane_wave_at_rejects_bad_frequency():
    with pytest.raises(ValueError):
        plane_wave_at(2, Fraction(1), (Fraction(1),))


def test_phase_addition_and_scaling():
    wave = plane_wave(1)
    extra = MultiPoly.const(wave.variables, Fraction(1, 3))
    shifted = wave.with_phase_added(extra)
    assert shifted.phase == wave.phase + extra
    doubled = wave.scaled(2)
    assert doubled.amplitude == 2


def test_substitute_acts_on_both_components():
    wave = plane_wave(1)
    names = wave.variables
    pullback = {"x1": MultiPoly.var(names, "x1") - MultiPoly.var(names, "t")}
    moved = wave.substitute(pullback)
    tau, xi1 = MultiPoly.var(names, "tau"), MultiPoly.var(names, "xi1")
    t, x1 = MultiPoly.var(names, "t"), MultiPoly.var(names, "x1")
    assert moved.phase == tau * t + xi1 * (x1 - t)
    assert moved.amplitude == 1
