"""The galinv value classes as the `dataclasses` they were.

Each galinv value class used to be a `@dataclass`; they are plain classes
now, with an explicit `__init__` on the shared bases in
`galinv.universe`.  Here each one's twin is rebuilt by
`dataclasses.make_dataclass` with the old fields, defaults, frozenness
and `__post_init__` checks, which are kept below unchanged, except that
`SamplePlan`'s twin lost the `bound` field its class dropped.  A twin
takes its class's name, so the two reprs can be compared as strings.
"""

from __future__ import annotations

from dataclasses import field, make_dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from galinv import universe
from galinv.actions import GaugePhase, Translation
from galinv.checks import (
    BoostWitness,
    CheckReport,
    RadialDecomposition,
    RotationWitness,
    TranslationWitness,
)
from galinv.classify import GaugeNormalization, PowerFormVerdict, SecondOrderVerdict
from galinv.lpdo import Symbol
from galinv.matrices import (
    FixedRotation,
    OrthogonalMatrix,
    RationalMatrix,
    SignedPermutation,
    _frac_rows,
)
from galinv.opparse import _Token
from galinv.oracle import SamplePlan


def _translation(self) -> None:
    object.__setattr__(self, "s", Fraction(self.s))
    object.__setattr__(self, "y", tuple(Fraction(c) for c in self.y))


def _gauge_phase(self) -> None:
    object.__setattr__(self, "lam", Fraction(self.lam))
    object.__setattr__(self, "c", Fraction(self.c))


def _rational_matrix(self) -> None:
    object.__setattr__(self, "entries", _frac_rows(self.entries))


def _orthogonal_matrix(self) -> None:
    m = self.matrix
    if m.rows != m.cols:
        raise ValueError("orthogonal matrices are square")
    columns = [{k: e for k, e in enumerate(column) if e} for column in zip(*m.entries)]
    if any(sum(e * v.get(k, 0) for k, e in u.items()) != (i == j)
           for i, u in enumerate(columns) for j, v in enumerate(columns)):
        raise ValueError("matrix is not orthogonal")


def _signed_permutation(self) -> None:
    perm, n = tuple(self.perm), len(self.perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{self.perm} is not a permutation of 1..{n}")
    if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
        raise ValueError("signs must be +-1, one per coordinate")
    object.__setattr__(self, "perm", perm)
    object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))


def _fixed_rotation(self) -> None:
    if self.n < 2:
        raise ValueError(f"the fixed rotation needs n >= 2, not {self.n}")


def _sample_plan(self) -> None:
    if self.count < 1:
        raise ValueError("count must be positive")


class Twin(NamedTuple):
    cls: type
    twin: type
    names: tuple[str, ...]
    optional: frozenset[str]  # the fields with a default
    frozen: bool


def _twin(cls: type, fields: str, defaults: dict | None = None, frozen: bool = False,
          post_init: Callable | None = None, factories: dict | None = None) -> Twin:
    """The dataclass with these space-separated fields, in order."""
    defaults, factories = defaults or {}, factories or {}
    spec = []
    for name in fields.split():
        if name in defaults:
            spec.append((name, object, field(default=defaults[name])))
        elif name in factories:
            spec.append((name, object, field(default_factory=factories[name])))
        else:
            spec.append((name, object))
    namespace = {"__post_init__": post_init} if post_init else None
    twin = make_dataclass(cls.__name__, spec, frozen=frozen, namespace=namespace)
    return Twin(cls, twin, tuple(fields.split()), frozenset(defaults) | set(factories), frozen)


def _nones(fields: str) -> dict:
    return dict.fromkeys(fields.split())


TWINS = [
    _twin(Translation, "s y", frozen=True, post_init=_translation),
    _twin(GaugePhase, "lam c", {"lam": Fraction(0), "c": Fraction(0)}, frozen=True,
          post_init=_gauge_phase),
    _twin(TranslationWitness, "key monomial shift"),
    _twin(RotationWitness, "rotation"),
    _twin(BoostWitness, "lam v tau xi"),
    _twin(CheckReport, "invariant certificate witness detail radial",
          {**_nones("certificate witness radial"), "detail": ""}),
    _twin(RadialDecomposition, "n order b", factories={"b": dict}),
    _twin(SecondOrderVerdict, "accepted alpha beta lam theta stage lam_value report detail",
          {**_nones("alpha beta lam theta stage lam_value report"), "detail": ""}),
    _twin(PowerFormVerdict, "accepted lam coeffs stage report detail",
          {**_nones("coeffs stage report"), "detail": ""}),
    _twin(GaugeNormalization, "operator phase real_phase"),
    _twin(Symbol, "poly n order", frozen=True),
    _twin(RationalMatrix, "entries", frozen=True, post_init=_rational_matrix),
    _twin(OrthogonalMatrix, "matrix", frozen=True, post_init=_orthogonal_matrix),
    _twin(SignedPermutation, "perm signs", frozen=True, post_init=_signed_permutation),
    _twin(FixedRotation, "n", frozen=True, post_init=_fixed_rotation),
    _twin(_Token, "kind text line column"),
    _twin(SamplePlan, "seed count",
          {"seed": universe.DEFAULT_SEED, "count": 32}, frozen=True,
          post_init=_sample_plan),
]
