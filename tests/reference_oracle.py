"""Routes of the plane-wave oracle that the package replaced or never needed.

`galinv.oracle.apply_lpdo` differentiates only lean waves: the amplitude
and every gradient i*dphi it steps along are free of the coordinates
stepped along, so a step is a product with a gradient.  The chain rule
for every other wave left the package and lives here.
`cached_differentiate` is the package's former `ExpWave.differentiate`,
dA + A*(i*dphi) with i*dphi read from the wave's cache;
`chain_apply_lpdo` steps one chain of packed amplitudes by it.  Their own
replaced routes live here unchanged: `differentiate` takes the phase
partial afresh at every step, and `apply_lpdo` adds each key's product
to a growing total.

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
once, onto the right side's wave, and `galinv.oracle.apply_lpdo` works
on packed amplitudes.  Here both sides' waves
are pulled back and their phases compared, and the chain steps whole
waves.

The tests require each pair of routes to give identical internals: the
same universe, denominator and packed terms, held in any order.

`galinv.oracle.apply_lpdo` sums a lean operator by Horner's rule over
the trie of its keys.  `chain_apply_lpdo` is the route it replaced: keys
in sorted order along one chain of packed amplitudes, a lean step the
product with the gradient alone and any other step
`cached_differentiate`'s, each key's derivative multiplied by its
coefficient in one `multipoly.product_sum`.  Its lean step multiplies by
`product`, the package's product into a fresh dict before every packed
product went through `multipoly._add_product`, so the chain does not run
the fold that the Horner sum adds through.  `lean_outcome` states what
`apply_lpdo` gives on any wave: the `refusal` of a wave that is not
lean, the cap error at `product_degree` past the cap, and otherwise
`chain_apply_lpdo`'s amplitude.

`galinv.oracle.boost_commutator_defect` walks both of its waves on one
plan of the operator and sums both sides into one packed accumulator,
and `galinv.actions._theta_terms` gives theta as integer numerators over
one denominator.  `two_apply_defect` is the route they replaced: two
`apply_lpdo` calls, the left side pulled back, then `lhs - rhs`, on a
boosted phase built by `boosted_phase` from `theta_terms`, theta's terms
as `Fraction`s, through `multipoly._rational_terms`.

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
from typing import Iterator, Mapping, NamedTuple, Sequence

from galinv import ExpWave, I_UNIT, LPDO, MAX_TOTAL_DEGREE, MultiPoly, symbol_of, universe, waves
from galinv.actions import _check_components
from galinv import multipoly, oracle


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


def theta_terms(lam, c, v: Sequence) -> list[tuple[tuple[int, ...], Fraction]]:
    """theta_v = c + lam*v.x - (lam/2)*t*|v|^2 as (indices, value) pairs, just
    c at lam = 0.  Index 0 is t and index a is x_a."""
    lam, v = Fraction(lam), [Fraction(va) for va in v]
    terms = [((), Fraction(c))]
    if lam:
        terms += [((a,), lam * va) for a, va in enumerate(v, start=1)]
        terms.append(((0,), -lam / 2 * sum(va * va for va in v)))
    return terms


def boosted_phase(n: int, lam, v: Sequence, c=0) -> MultiPoly:
    """tau*t + xi.(x - v*t) + theta_v over the symbol universe, from `Fraction` terms."""
    terms = [((0, n + 1), 1)]
    for a, va in enumerate(v, start=1):
        terms += [((a, n + 1 + a), 1), ((0, n + 1 + a), -Fraction(va))]
    return multipoly._rational_terms(universe.symbol_vars(n), terms + theta_terms(lam, c, v))


def two_apply_defect(op: LPDO, lam, v, c=0) -> MultiPoly:
    """The defect as two `galinv.apply_lpdo` calls: the plane-wave side pulled
    back when a coefficient holds x, then the boosted side subtracted."""
    n = op.n
    if len(v) != n:
        raise ValueError(f"boost has {len(v)} components, expected {n}")
    names = universe.symbol_vars(n)
    wave = waves.plane_wave(n)
    moved = ExpWave(wave.amplitude, boosted_phase(n, lam, v, c))
    lhs, rhs = oracle.apply_lpdo(op, wave), oracle.apply_lpdo(op, moved)
    if lhs.phase != wave.phase or rhs.phase != moved.phase:
        raise AssertionError("the two sides lost phase alignment")
    amplitude = lhs.amplitude
    if amplitude.degree_in(*names[1 : n + 1]):  # a coefficient holds x: x_a -> x_a - v_a*t
        amplitude = amplitude.substitute(
            {names[a]: multipoly._rational_terms(names, [((a,), 1), ((0,), -Fraction(va))])
             for a, va in enumerate(v, start=1)})
    return amplitude - rhs.amplitude


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


def cached_differentiate(wave: ExpWave, name: str) -> ExpWave:
    """`ExpWave.differentiate` as the package had it: (dA + i*A*dphi) *
    exp(i*phi), i*dphi read from the wave's cache, which the derivative
    shares, since it keeps the phase."""
    i_dphi, amplitude = wave._i_dphi(name), wave.amplitude
    out = object.__new__(ExpWave)
    object.__setattr__(out, "amplitude", amplitude.partial(name) + amplitude * i_dphi)
    object.__setattr__(out, "phase", wave.phase)
    object.__setattr__(out, "_gradient", wave._gradient)
    return out


def product_sum(variables, pairs) -> MultiPoly:
    """sum(p.extend(variables) * q), one key at a time."""
    total = MultiPoly.zero(variables)
    for p, q in pairs:
        total = total + p.extend(variables) * q
    return total


def product(left: dict, right: dict) -> dict:
    """The packed numerators of a product, zeros kept: right's terms times
    each of left's in turn, summed by key."""
    if len(left) == 1 or len(right) == 1:
        # Times one term: shifting the keys keeps them distinct, so no lookups.
        one, many = (left, right) if len(left) == 1 else (right, left)
        ((k1, (c, e)),) = one.items()
        return {k1 + k2: (a * c - b * e, a * e + b * c) for k2, (a, b) in many.items()}
    out: dict[int, tuple[int, int]] = {}
    get = out.get
    terms = list(right.items())
    for k1, (a, b) in left.items():
        for k2, (c, e) in terms:
            key = k1 + k2
            re, im = get(key, (0, 0))
            out[key] = (re + a * c - b * e, im + a * e + b * c)
    return out


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


def chain_apply_lpdo(op: LPDO, wave: ExpWave) -> ExpWave:
    """Keys in sorted order along one chain of packed amplitudes, each key's
    derivative handed with its coefficient to one `multipoly.product_sum`.

    A key keeps the longest prefix of steps it shares with the chain, drops
    the rest, and takes only its missing steps.  When the amplitude and each
    gradient i*dphi stepped along are free of those coordinates and no
    product can pass the degree cap, dA is zero, and a step is the product
    A*(i*dphi) alone; otherwise it is `cached_differentiate`'s rule."""
    names, amplitude = wave.variables, wave.amplitude
    keys = sorted(op.coeffs.items())
    wants = [sum(((a,) * k for a, k in enumerate(alpha, 1)), (0,) * j) for (j, alpha), _ in keys]
    coords = [universe.TIME] + [universe.space(a) for a in range(1, op.n + 1)]
    used = {a for want in wants for a in want}
    table = {a: (names.index(coords[a]), wave._i_dphi(coords[a])) for a in used if coords[a] in names}
    mask = sum(255 << 8 * index for index, _ in table.values())
    degree = {a: gradient.total_degree() for a, (_, gradient) in table.items()}
    lean = (len(table) == len(used)
            and amplitude.total_degree() + max(sum(map(degree.get, want)) for want in wants) <= MAX_TOTAL_DEGREE
            and not any(key & mask for poly in (amplitude, *(g for _, g in table.values())) for key in poly._num))

    def products() -> Iterator[tuple[MultiPoly, tuple[int, dict]]]:
        steps: tuple[int, ...] = ()
        chain = [(amplitude._den, amplitude._num)]  # chain[k] is the amplitude after steps[:k]
        for ((_, poly), want) in zip(keys, wants):
            keep = 0
            while keep < min(len(steps), len(want)) and steps[keep] == want[keep]:
                keep += 1
            del chain[keep + 1 :]
            for a in want[keep:]:
                den, num = chain[-1]
                if lean:
                    gradient = table[a][1]
                    num = product(num, gradient._num)
                    chain.append((den * gradient._den,
                                  multipoly._nonzero(names, num) if (0, 0) in num.values() else num))
                else:  # an axis missing from the universe raises in `partial`
                    step = MultiPoly._make(names, den, num)
                    step = step.partial(coords[a]) + step * table[a][1]
                    chain.append((step._den, step._num))
            steps = want
            yield poly, chain[-1]

    return ExpWave(multipoly.product_sum(names, products()), wave.phase)


def refusal(op: LPDO, wave: ExpWave) -> str | None:
    """Why `galinv.apply_lpdo` refuses a wave, by the first condition it
    fails, or None for a lean wave: every coordinate the operator steps
    along is in the wave's universe, and the amplitude and the gradient
    along each of them are free of them all."""
    stepped = [name for a, name in enumerate(universe.coeff_vars(op.n))
               if any((j, *alpha)[a] for j, alpha in op.coeffs)]
    for name in stepped:
        if name not in wave.variables:
            return f"the wave's universe lacks the stepped coordinate {name!r}"
    if wave.amplitude.degree_in(*stepped):
        return "the amplitude depends on a stepped coordinate"
    for name in stepped:
        if wave.phase.partial(name).degree_in(*stepped):
            return f"the gradient along {name!r} depends on a stepped coordinate"
    return None


def product_degree(op: LPDO, wave: ExpWave) -> int | None:
    """On a lean wave, the largest degree of a coefficient times its
    derivative, A * c * prod(g_a ** e_a), g_a having the degree of dphi/dx_a:
    degrees add under products, and a zero amplitude or gradient makes no
    product (None when none is made)."""
    gradients = {name: wave.phase.partial(name) for name in universe.coeff_vars(op.n) if name in wave.variables}
    degrees = []
    for (j, alpha), poly in op.coeffs.items():
        steps = [(gradients[name], e) for name, e in zip(universe.coeff_vars(op.n), (j, *alpha)) if e]
        if not any(g.is_zero for g, _ in steps):
            degrees.append(poly.total_degree() + sum(e * g.total_degree() for g, e in steps))
    if wave.amplitude.is_zero or not degrees:
        return None
    return wave.amplitude.total_degree() + max(degrees)


def lean_outcome(op: LPDO, wave: ExpWave) -> tuple:
    """What `galinv.apply_lpdo` gives, as ("ok", amplitude) or ("ValueError",
    text): a wave that is not lean is refused, a product past the cap raises
    the cap error at `product_degree`, and otherwise the amplitude is
    `chain_apply_lpdo`'s."""
    reason = refusal(op, wave)
    if reason is not None:
        return "ValueError", reason
    degree = product_degree(op, wave)
    if degree is not None and degree > MAX_TOTAL_DEGREE:
        return "ValueError", f"term degree {degree} exceeds the cap of {MAX_TOTAL_DEGREE}"
    return "ok", chain_apply_lpdo(op, wave).amplitude


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
        out = cached_differentiate(out, name)
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
