"""The oracle's routes before the gradient cache and the one-pass sum.

`galinv.waves.ExpWave.differentiate` takes i*dphi once per name and
phase, and `galinv.oracle.apply_lpdo` adds each product of a coefficient
and a derivative into one dict (`multipoly.product_sum`).  The routes
they replaced live here unchanged: every step takes the phase partial
afresh, and each key's product is added to a growing total.  The tests
require the two routes to give identical internals and term order.
"""

from __future__ import annotations

from galinv import ExpWave, I_UNIT, LPDO, MultiPoly
from galinv.oracle import _steps


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
