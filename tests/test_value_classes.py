"""Value classes against their `dataclasses` twins (`reference_values.py`).

On random field values, each class and its twin must agree on `==` and
`!=` (against each other class too), on `hash` for frozen classes and
unhashability for the rest, on `repr`, on default values, on the errors
their checks raise, and on refusing assignment to a frozen instance.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galinv import GaussianRational, MultiPoly
from galinv.matrices import fixed_rotation, reflection, signed_permutation

from reference_values import TWINS

small = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
leaf = st.one_of(
    st.none(), st.booleans(), small, st.sampled_from(["", "a", "1/2"]),
    st.builds(GaussianRational, small, small),
)
# Lists, dicts and polynomials are unhashable.
value = st.one_of(
    leaf, st.tuples(leaf, leaf), st.lists(leaf, max_size=2),
    st.dictionaries(st.sampled_from("ab"), leaf, max_size=2),
    st.builds(lambda c: MultiPoly.const(("t",), c), small),
)
scalar = st.one_of(small, st.sampled_from(["1/2", "x", None]))
count = st.one_of(st.integers(-1, 3), leaf)
entry = st.sampled_from([0, 1, -1, Fraction(3, 5), Fraction(-4, 5)])


@st.composite
def maps(draw):
    """n and columns: every column of a square matrix, mostly not orthogonal;
    the columns of known orthogonal maps, maybe an identity column added and
    the order shuffled; or random, often bad, indices."""
    n = draw(st.integers(1, 3))
    dense = [(a, [(b, draw(entry)) for b in range(1, n + 1)]) for a in range(1, n + 1)]
    known = [(2, []), (3, fixed_rotation(3).columns), (2, reflection(2, 1).columns),
             (3, signed_permutation((2, 3, 1), (1, -1, 1)).columns), (3, ((3, ((3, 1),)),))]
    m, columns = draw(st.sampled_from(known))
    known = (m, draw(st.permutations(list(columns) + draw(st.sampled_from([[], [(1, ((1, 1),))]])))))
    index = st.integers(0, 4)
    bad = (n, draw(st.lists(st.tuples(index, st.lists(st.tuples(index, entry), max_size=3)), max_size=3)))
    n, columns = draw(st.sampled_from([(n, dense), known, bad]))
    return {"n": n, "columns": columns}


# Field values that reach each class's checks; every other field draws `value`.
FIELDS = {
    "Translation": {"s": scalar, "y": st.lists(scalar, max_size=3) | st.tuples(small, small)},
    "GaugePhase": {"lam": scalar, "c": scalar},
    "RadialDecomposition": {"b": st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                                 small, max_size=3)},
    "SamplePlan": {"count": count},
}


@st.composite
def arguments(draw, spec):
    """Keyword arguments for one instance; a defaulted field may be left out."""
    fields = FIELDS.get(spec.cls.__name__, {})
    kwargs = draw(maps()) if spec.cls.__name__ == "OrthogonalMatrix" else {}
    for name in spec.names:
        if name not in kwargs and (name not in spec.optional or draw(st.booleans())):
            kwargs[name] = draw(fields.get(name, value))
    return kwargs


def build(cls, names, kwargs, positional):
    """cls(**kwargs), or with the leading given fields passed by position."""
    args = []
    if positional:
        for name in names:
            if name not in kwargs:
                break
            args.append(kwargs[name])
    rest = {name: v for name, v in kwargs.items() if name not in names[:len(args)]}
    try:
        return cls(*args, **rest)
    except Exception as exc:
        return exc


def hashed(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("spec", TWINS, ids=lambda spec: spec.cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_value_class_matches_its_dataclass_twin(spec, data):
    positional = data.draw(st.booleans())
    kwargs = data.draw(arguments(spec))
    ours = build(spec.cls, spec.names, kwargs, positional)
    twin = build(spec.twin, spec.names, kwargs, positional)
    if isinstance(twin, Exception):
        assert (type(ours), str(ours)) == (type(twin), str(twin))
        return
    assert type(ours) is spec.cls
    assert repr(ours) == repr(twin)
    for name in spec.names:
        assert getattr(ours, name) == getattr(twin, name)

    # Equality against the same arguments, fresh ones, or one field changed.
    fresh = data.draw(arguments(spec))
    other = data.draw(st.sampled_from([kwargs, fresh, *({**kwargs, name: fresh[name]} for name in fresh)]))
    ours2 = build(spec.cls, spec.names, other, positional)
    twin2 = build(spec.twin, spec.names, other, positional)
    if not isinstance(twin2, Exception):
        assert (ours == ours2) == (twin == twin2)
        assert (ours != ours2) == (twin != twin2)
    assert ours == ours and not ours != ours
    assert ours != twin and twin != ours and ours != object()
    assert ours.__eq__(twin) is NotImplemented
    # A subclass is another class too, even with equal fields.
    sub, twin_sub = (build(type("Sub", (cls,), {}), spec.names, kwargs, positional)
                     for cls in (spec.cls, spec.twin))
    assert (sub == ours, ours == sub) == (twin_sub == twin, twin == twin_sub)

    assert hashed(ours) == hashed(twin)
    if spec.frozen:
        for target in (ours, twin):
            for name in (*spec.names, "extra"):
                with pytest.raises(AttributeError):
                    setattr(target, name, 1)
            with pytest.raises(AttributeError):
                delattr(target, spec.names[0])
        assert repr(ours) == repr(twin)
    else:
        assert type(ours).__hash__ is None


# Required arguments that pass each class's checks; other classes take (1, 2).
VALID = {
    "Translation": {"s": 1, "y": (1, 2)},
    "OrthogonalMatrix": {"n": 2, "columns": reflection(2, 1).columns},
}


@pytest.mark.parametrize("spec", TWINS, ids=lambda spec: spec.cls.__name__)
def test_defaults_match_the_dataclass_twin(spec):
    required = VALID.get(spec.cls.__name__) or {
        name: (1, 2) for name in spec.names if name not in spec.optional}
    ours, twin = spec.cls(**required), spec.twin(**required)
    for name in spec.optional:
        assert getattr(ours, name) == getattr(twin, name)
        assert type(getattr(ours, name)) is type(getattr(twin, name))
    assert repr(ours) == repr(twin)
    if "b" in spec.optional:  # a fresh dict per instance
        assert spec.cls(**required).b is not ours.b
