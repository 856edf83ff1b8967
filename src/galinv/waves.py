"""Exponential waves: amplitude * exp(i * phase) with polynomial data.

An `ExpWave` holds a polynomial amplitude A and a real polynomial phase
phi over one shared universe and stands for the function A * exp(i*phi).
The family is closed under differentiation,

    d(A e^{i phi}) = (dA + i A dphi) e^{i phi},

which is the whole point: applying a differential operator to a wave
never leaves the family, so operator identities on plane waves become
exact polynomial identities on amplitudes.
"""

from __future__ import annotations

from functools import lru_cache

from .multipoly import MultiPoly, _chain_step, _partial, _rational_terms
from . import universe


class ExpWave:
    __slots__ = ("amplitude", "phase", "_gradient")

    def __init__(self, amplitude: MultiPoly, phase: MultiPoly):
        if amplitude.variables != phase.variables:
            raise ValueError("amplitude and phase must share a universe")
        if not phase.is_real:
            raise ValueError("phase polynomials must be real-valued")
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "_gradient", {})  # name -> i * dphi/dname

    def __setattr__(self, name, value):
        raise AttributeError("ExpWave is immutable")

    def __delattr__(self, name):
        raise AttributeError("ExpWave is immutable")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.amplitude.variables

    def _i_dphi(self, name: str) -> MultiPoly:
        """i * dphi/dname, taken once per name and shared by every wave
        with this phase."""
        i_dphi = self._gradient.get(name)
        if i_dphi is None:  # dphi/dname times i, in one pass: i*(re + im*i) = -im + re*i
            phase = self.phase
            num = {k: (-im, re) for k, (re, im) in _partial(phase.variables, phase._index(name), phase._num, 1).items()}
            i_dphi = self._gradient[name] = MultiPoly._make(phase.variables, phase._den, num)
        return i_dphi

    def differentiate(self, name: str) -> "ExpWave":
        """One exact derivative: (dA + i*A*dphi) * exp(i*phi).  It keeps the
        phase, so it shares the cache of i*dphi."""
        i_dphi, amplitude = self._i_dphi(name), self.amplitude
        variables = amplitude.variables
        step = _chain_step(variables, amplitude._index(name), amplitude._den, amplitude._num, i_dphi)
        # The shared phase was checked when this wave was built: no __init__ checks.
        out = object.__new__(ExpWave)
        object.__setattr__(out, "amplitude", MultiPoly._make(variables, *step))
        object.__setattr__(out, "phase", self.phase)
        object.__setattr__(out, "_gradient", self._gradient)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpWave):
            return NotImplemented
        return self.amplitude == other.amplitude and self.phase == other.phase

    __hash__ = None

    def __repr__(self) -> str:
        return f"ExpWave(amplitude={self.amplitude}, phase={self.phase})"


@lru_cache(maxsize=universe.CACHED_DIMENSIONS)
def plane_wave(n: int) -> ExpWave:
    """exp(i(tau*t + xi.x)) with symbolic frequency, over the symbol universe.

    Built once per recently used dimension and shared, so its cache of
    i*dphi outlives a call."""
    names = universe.symbol_vars(n)
    # Coordinate a (t for a = 0) is variable a, and its frequency variable n + 1 + a.
    phase = _rational_terms(names, [((a, n + 1 + a), 1) for a in range(n + 1)])
    return ExpWave(MultiPoly.const(names, 1), phase)

