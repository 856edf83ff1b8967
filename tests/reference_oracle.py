"""Routes of the plane-wave oracle that the package replaced or never needed.

`galinv.waves.ExpWave.differentiate` takes i*dphi once per name and
phase, and `galinv.oracle.apply_lpdo` adds each product of a coefficient
and a derivative into one dict (`multipoly.product_sum`).  The routes
they replaced live here unchanged: every step takes the phase partial
afresh, and each key's product is added to a growing total.

`galinv.oracle.boost_commutator_defect` and `galinv.waves.plane_wave`
build the gauge phase theta, the pull-back bindings and the plane-wave
phase from their terms, in one constructor each, and
`galinv.actions.boost_phase_poly` reads the same theta terms.  Their old
routes live here too: theta (`boost_phase_poly`) by polynomial
arithmetic over (t, x), then `extend`ed; bindings and phase by variable
arithmetic.

The wave operations that only these routes used live here as functions:
`substitute` pulls a wave back, `with_phase_added` multiplies it by
exp(i * extra), and `scaled` multiplies its amplitude.

`galinv.oracle.boost_commutator_defect` also pulls the phase back only
once, onto the right side's wave, and `galinv.oracle.apply_lpdo` steps
its chain of derivatives on packed amplitudes.  Here both sides' waves
are pulled back and their phases compared, and the chain steps whole
waves.

The tests require each pair of routes to give identical internals and
term order.

Three routes the oracle is compared against live here as well, with no
twin in the package: `apply_plane_wave`, the symbol side of L e = p * e
at a symbolic or a concrete frequency (`plane_wave_at`);
`differentiate_expwave`, one key's derivative taken on its own; and
`boosted_frequency`, the transport law of the gauged boost on constant
polynomials, which `reference_classify.conj_boost_gauge` substitutes into
the symbol.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from galinv import ExpWave, I_UNIT, LPDO, MultiPoly, symbol_of, universe, waves
from galinv.actions import _check_components


def substitute(wave: ExpWave, bindings: Mapping[str, MultiPoly | int | Fraction]) -> ExpWave:
    """Point-transformation pull-back: substitute in amplitude and phase."""
    return ExpWave(wave.amplitude.substitute(bindings), wave.phase.substitute(bindings))


def with_phase_added(wave: ExpWave, extra: MultiPoly) -> ExpWave:
    """Multiply by exp(i * extra)."""
    return ExpWave(wave.amplitude, wave.phase + extra)


def scaled(wave: ExpWave, factor) -> ExpWave:
    return ExpWave(wave.amplitude * factor, wave.phase)


def boost_phase_poly(lam, c, n: int, v: Sequence) -> MultiPoly:
    """c + lam*v.x - (lam/2)*t*|v|^2 over (t, x), by sums and products."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("lam = 0 phases are x-independent and have no canonical form")
    _check_components("v", v, n)
    names = universe.coeff_vars(n)
    theta = MultiPoly.const(names, Fraction(c))
    speed2 = MultiPoly.zero(names)
    for a in range(1, n + 1):
        va = MultiPoly.const(names, Fraction(v[a - 1]))
        theta = theta + MultiPoly.var(names, universe.space(a)) * va * lam
        speed2 = speed2 + va * va
    return theta - MultiPoly.var(names, universe.TIME) * speed2 * Fraction(lam, 2)


def _steps(j: int, alpha: Sequence[int]) -> list[str]:
    """The chain-rule steps of dt^j dx^alpha by name: t first, then x1..xn."""
    steps = [universe.TIME] * j
    for a, k in enumerate(alpha, start=1):
        steps += [universe.space(a)] * k
    return steps


def differentiate(wave: ExpWave, name: str) -> ExpWave:
    """One exact derivative: (dA + i*A*dphi) * exp(i*phi)."""
    new_amplitude = wave.amplitude.partial(name) + (
        wave.amplitude * (wave.phase.partial(name) * I_UNIT)
    )
    return ExpWave(new_amplitude, wave.phase)


def product_sum(variables, pairs) -> MultiPoly:
    """sum(p.extend(variables) * q), one key at a time."""
    total = MultiPoly.zero(variables)
    for p, q in pairs:
        total = total + p.extend(variables) * q
    return total


def apply_lpdo(op: LPDO, wave: ExpWave) -> ExpWave:
    """The package's chain of shared derivative prefixes on the routes above."""
    names = wave.variables
    total = MultiPoly.zero(names)
    steps: list[str] = []
    chain = [wave]  # chain[k] is wave after steps[:k]
    for (j, alpha), poly in sorted(op.coeffs.items()):
        want = _steps(j, alpha)
        keep = 0
        while keep < min(len(steps), len(want)) and steps[keep] == want[keep]:
            keep += 1
        del steps[keep:], chain[keep + 1 :]
        for name in want[keep:]:
            chain.append(differentiate(chain[-1], name))
            steps.append(name)
        total = total + poly.extend(names) * chain[-1].amplitude
    return ExpWave(total, wave.phase)


def plane_wave(n: int) -> ExpWave:
    """exp(i(tau*t + xi.x)), its phase built by products and sums."""
    names = universe.symbol_vars(n)
    phase = MultiPoly.var(names, universe.FREQ_TIME) * MultiPoly.var(names, universe.TIME)
    for a in range(1, n + 1):
        phase = phase + MultiPoly.var(names, universe.freq_space(a)) * MultiPoly.var(
            names, universe.space(a)
        )
    return ExpWave(MultiPoly.const(names, 1), phase)


def boost_setup(n: int, lam, v, c=0) -> tuple[MultiPoly, dict[str, MultiPoly]]:
    """theta over the symbol universe and the bindings x_a -> x_a - v_a*t."""
    lam = Fraction(lam)
    names = universe.symbol_vars(n)
    theta = (
        boost_phase_poly(lam, c, n, v=v).extend(names)
        if lam
        else MultiPoly.const(names, Fraction(c))
    )
    pullback: dict[str, MultiPoly] = {}
    t_var = MultiPoly.var(names, universe.TIME)
    for a in range(1, n + 1):
        name = universe.space(a)
        pullback[name] = MultiPoly.var(names, name) - t_var * Fraction(v[a - 1])
    return theta, pullback


def boost_commutator_defect(op: LPDO, lam, v, c=0) -> MultiPoly:
    """The defect on the old set-up and the routes above."""
    if len(v) != op.n:
        raise ValueError(f"boost has {len(v)} components, expected {op.n}")
    theta, pullback = boost_setup(op.n, lam, v, c)
    wave = plane_wave(op.n)
    lhs = with_phase_added(substitute(apply_lpdo(op, wave), pullback), theta)
    rhs = apply_lpdo(op, with_phase_added(substitute(wave, pullback), theta))
    assert lhs.phase == rhs.phase
    return lhs.amplitude - rhs.amplitude


class BoostedFrequency(NamedTuple):
    """Image of a plane-wave frequency under a gauged boost.

    The transported wave is exp(i * phase_const) times the plane wave at
    the new frequency (tau - xi.v - (lam/2)|v|^2, xi + lam*v).
    """

    tau: MultiPoly
    xi: tuple[MultiPoly, ...]
    phase_const: Fraction


def boosted_frequency(
    n: int,
    lam,
    v: Sequence | None = None,
    tau=None,
    xi: Sequence | None = None,
    c=0,
) -> BoostedFrequency:
    """The transport law with every given component a constant polynomial;
    the components left as None stay symbolic, over the boost universe."""
    lam = Fraction(lam)
    names = universe.boost_vars(n)
    _check_components("v", v, n)
    _check_components("xi", xi, n)

    def value_of(name: str, given) -> MultiPoly:
        if given is None:
            return MultiPoly.var(names, name)
        return MultiPoly.const(names, Fraction(given))

    tau_p = value_of(universe.FREQ_TIME, tau)
    xi_p = [
        value_of(universe.freq_space(a), None if xi is None else xi[a - 1])
        for a in range(1, n + 1)
    ]
    v_p = [
        value_of(universe.boost(a), None if v is None else v[a - 1])
        for a in range(1, n + 1)
    ]
    dot = MultiPoly.zero(names)
    speed2 = MultiPoly.zero(names)
    for xa, va in zip(xi_p, v_p):
        dot = dot + xa * va
        speed2 = speed2 + va * va
    new_tau = tau_p - dot - speed2 * Fraction(lam, 2)
    new_xi = tuple(xa + va * lam for xa, va in zip(xi_p, v_p))
    return BoostedFrequency(new_tau, new_xi, Fraction(c))


def differentiate_expwave(wave: ExpWave, time_order: int = 0, space_orders: Sequence[int] = ()) -> ExpWave:
    """Exact dt^j dx^alpha of a wave by repeated chain-rule steps."""
    out = wave
    for name in _steps(time_order, space_orders):
        out = out.differentiate(name)
    return out


def plane_wave_at(n: int, tau, xi: Sequence) -> ExpWave:
    """exp(i(tau*t + xi.x)) at a concrete rational frequency."""
    if len(xi) != n:
        raise ValueError(f"frequency has {len(xi)} spatial components, expected {n}")
    names = universe.symbol_vars(n)
    phase = MultiPoly.var(names, universe.TIME) * Fraction(tau)
    for a, value in enumerate(xi, start=1):
        phase = phase + MultiPoly.var(names, universe.space(a)) * Fraction(value)
    return ExpWave(MultiPoly.const(names, 1), phase)


def apply_plane_wave(op: LPDO, tau=None, xi: Sequence | None = None) -> ExpWave:
    """Apply an operator to a plane wave through its symbol: L e = p * e.

    With no frequency given the amplitude is the full symbol; with a
    concrete rational frequency it is the symbol evaluated there.
    """
    poly = symbol_of(op).poly
    if tau is None and xi is None:
        return ExpWave(poly, waves.plane_wave(op.n).phase)
    if tau is None or xi is None:
        raise ValueError("give both tau and xi, or neither")
    bindings = {universe.FREQ_TIME: Fraction(tau)}
    for a, value in enumerate(xi, start=1):
        bindings[universe.freq_space(a)] = Fraction(value)
    return ExpWave(poly.substitute(bindings), plane_wave_at(op.n, tau, xi).phase)
