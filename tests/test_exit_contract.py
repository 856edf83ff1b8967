"""The exit contract of every subcommand, on expressions drawn from the grammar.

Expressions are drawn from the whole operator language (numbers, `i`,
`I`, `t` and `x<k>` coefficients, `Dt`, `Dx<k>` and `Lap`, powered and
signed groups, products and sums) at n = 1..3, and each subcommand runs
on them through `cli.main` in kv format, as QuickCheck (Claessen and
Hughes, ICFP 2000) runs a property on generated input and grammar-based
fuzzing (Godefroid, Kiezun and Levin, PLDI 2008) draws input from a
grammar.  For every run:

- the status is 0, 1 or 2, never 3;
- exit 2 prints nothing on stdout and a message on stderr;
- exits 0 and 1 print only key=value lines, one of them `verdict`.

Across runs:

- a `classify2` accept implies accepts from `check-translation`,
  `check-rotation`, and `check-boost` at the printed lambda;
- a `classifym` accept at lam implies a `check-boost` accept at lam;
- a `check-boost` accept implies an `oracle` accept at the same lam;
- every lambda and coefficient list that a report prints as an input
  value can be passed back with the space syntax: `theta` takes an
  accept's lambda, `synthesize` takes `classify2`'s beta,alpha and
  `classifym`'s coefficients, and the operator it prints is the one that
  was classified.  A non-real lambda, which a `classify2` reject prints
  at stage `lambda-not-real`, is no value of `--lambda` and is not passed.

A refusal at the degree cap names its budget.  `max_examples` is fixed,
and the existing caps bound each run.
"""

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from galinv.cli import main

NUMBERS = ["0", "1", "2", "3", "1/2", "3/4", "i", "2i", "1/2i"]
LAMS = ["1", "2", "-1", "-1/2", "1/3", "0"]
# 2i*lam*Dt + Lap at lam = 1, 2, -1: groups that make accepts common.
FACTORS = ["(2i*Dt + Lap)", "(4i*Dt + Lap)", "(-2i*Dt + Lap)"]


def expressions(n: int):
    """Operator texts over dimension n; whatever they parse to."""
    index = st.integers(1, n).map(str)
    atoms = st.one_of(
        st.sampled_from(NUMBERS + FACTORS + ["I", "t", "Dt", "Lap"]),
        index.map(lambda k: "x" + k),
        index.map(lambda k: "Dx" + k),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.integers(0, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
            st.tuples(inner, st.sampled_from(["*", " * "]), inner).map("".join),
            st.tuples(inner, st.sampled_from([" + ", " - ", "+", "-"]), inner).map("".join),
            inner.map(lambda e: f"(-{e})"),
            inner.map(lambda e: f"({e})i"),
        )

    return st.recursive(atoms, extend, max_leaves=5)


@st.composite
def cases(draw):
    """(operator text, dimension option, drawn lam): the text sometimes
    signed in front, the dimension sometimes left to inference."""
    n = draw(st.integers(1, 3))
    text = draw(expressions(n))
    if draw(st.integers(0, 4)) == 0:
        text = "-" + text
    dims = ["--n", str(n)] if draw(st.booleans()) or "Lap" in text else []
    return text, dims, draw(st.sampled_from(LAMS))


def galinv(*argv: str) -> tuple[int, dict[str, str]]:
    """Run one kv command in process; check the contract of one run and
    return its status and report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([*argv, "--format", "kv"])
    stdout, stderr = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2), (argv, status, stderr)
    if status == 2:
        assert stdout == "" and stderr.strip(), (argv, stdout, stderr)
        if "exceeds the cap" in stderr:
            assert "cap of 64" in stderr or "cap of 1000" in stderr, stderr
        return status, {}
    lines = stdout.splitlines()
    assert lines and all("=" in line and line.split("=", 1)[0] for line in lines), (argv, stdout)
    report = dict(line.split("=", 1) for line in lines)
    assert len(report) == len(lines) and "verdict" in report, (argv, stdout)
    assert stderr == "", (argv, stderr)
    return status, report


def accepts(status: int, report: dict, verdict: str) -> bool:
    assert (status == 0) == (report.get("verdict") == verdict)
    return status == 0


def assert_boost_implies_oracle(text: str, dims: list[str], lam: str) -> None:
    status, report = galinv("check-boost", text, "--lambda", lam, *dims)
    if accepts(status, report, "invariant"):
        status, report = galinv("oracle", text, "--lambda", lam, *dims, "--count", "3")
        assert accepts(status, report, "invariant"), (text, lam, report)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example(("i*Dt - Dx1*Dx1", ["--n", "1"], "1"))  # classify2 prints lambda=-1/2
@example(("-Lap + 3", ["--n", "2"], "-1"))
@example(("-(2i*Dt + Lap)^2 + 1/2i", ["--n", "2"], "1"))
@example(("(Dt^2+Dx1)^33", ["--n", "1"], "1"))  # past the degree cap
def test_every_subcommand_keeps_the_exit_contract(case):
    text, dims, lam = case
    galinv("check-translation", text, *dims)
    galinv("check-rotation", text, *dims)
    assert_boost_implies_oracle(text, dims, lam)

    status, report = galinv("classify2", text, *dims)
    if accepts(status, report, "accept"):
        printed = report["lambda"]
        assert accepts(*galinv("check-translation", text, *dims), "invariant")
        assert accepts(*galinv("check-rotation", text, *dims), "invariant")
        assert accepts(*galinv("check-boost", text, "--lambda", printed, *dims), "invariant")
        assert_boost_implies_oracle(text, dims, printed)
        assert galinv("theta", "--lambda", printed)[0] == 0
        coeffs = f"{report['beta']},{report['alpha']}"
        status, built = galinv("synthesize", "--lambda", printed, "--coeffs", coeffs, "--n", report["n"])
        assert status == 0 and built["coeffs"] == coeffs
        status, again = galinv("classify2", built["operator"], "--n", report["n"])
        assert status == 0 and again == report, (text, built, again)

    status, report = galinv("classifym", text, "--lambda", lam, *dims)
    if accepts(status, report, "accept"):
        assert galinv("theta", "--lambda", report["lambda"])[0] == 0
        assert accepts(*galinv("check-boost", text, "--lambda", lam, *dims), "invariant")
        status, built = galinv("synthesize", "--lambda", lam, "--coeffs", report["coeffs"], "--n", report["n"])
        assert status == 0 and built["coeffs"] == report["coeffs"]
        status, again = galinv("classifym", built["operator"], "--lambda", lam, "--n", report["n"])
        assert status == 0 and again == report, (text, built, again)
