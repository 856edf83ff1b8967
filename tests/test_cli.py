"""Command-line behavior: reports, formats, exit codes."""

import argparse
import gc
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from galinv import MAX_DIMENSION, cli
from galinv.cli import _COMMANDS, _KEYS, _render, build_arg_parser, main, theta_text
from galinv.actions import gauge_phase
from galinv.errors import InconsistencyError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out.strip()
    return status, out


def kv(out: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in out.splitlines())


def test_classify2_accepts_schrodinger(capsys):
    status, out = run(capsys, "classify2", "2i*Dt + Lap", "--n", "3", "--format", "kv")
    assert status == 0
    table = kv(out)
    assert table["verdict"] == "accept"
    assert table["alpha"] == "1"
    assert table["beta"] == "0"
    assert table["lambda"] == "1"
    assert table["theta"] == "c + v.x - (1/2)t|v|^2"


def test_classify2_rejects_heat(capsys):
    status, out = run(capsys, "classify2", "Dt - Lap", "--n", "2", "--format", "kv")
    assert status == 1
    table = kv(out)
    assert table["verdict"] == "reject"
    assert table["stage"] == "lambda-not-real"
    assert table["lambda"] == "1/2i"


def test_classifym_group_power(capsys):
    status, out = run(
        capsys, "classifym", "(2i*Dt + Lap)^2", "--lambda", "1", "--n", "2",
        "--format", "kv",
    )
    assert status == 0
    table = kv(out)
    assert table["verdict"] == "accept"
    assert table["coeffs"] == "0,0,1"


def test_check_commands_exit_codes(capsys):
    assert run(capsys, "check-translation", "t*Dx1")[0] == 1
    assert run(capsys, "check-translation", "Dx1")[0] == 0
    assert run(capsys, "check-rotation", "Lap", "--n", "2")[0] == 0
    assert run(capsys, "check-rotation", "Dx1", "--n", "2")[0] == 1
    assert run(capsys, "check-boost", "2i*Dt + Lap", "--n", "2", "--lambda", "1")[0] == 0
    assert run(capsys, "check-boost", "Lap", "--n", "2", "--lambda", "1")[0] == 1


def test_check_rotation_on_variable_coefficients_is_usage_error(capsys):
    status = main(["check-rotation", "t*Dx1"])
    captured = capsys.readouterr()
    assert status == 2
    assert "translation" in captured.err


def test_synthesize_reports_operator(capsys):
    status, out = run(
        capsys, "synthesize", "--lambda", "1", "--coeffs", "0,1", "--n", "2",
        "--format", "kv",
    )
    assert status == 0
    table = kv(out)
    assert table["m"] == "2"
    # the emitted operator text parses back to the Schrodinger factor
    from galinv import LPDO, parse_operator

    assert parse_operator(table["operator"], n=2) == LPDO.schrodinger_factor(2, 1)


def test_theta_symbolic_and_concrete(capsys):
    status, out = run(capsys, "theta", "--lambda", "1", "--format", "kv")
    assert status == 0
    assert kv(out)["theta"] == "c + v.x - (1/2)t|v|^2"
    status, out = run(capsys, "theta", "--lambda", "2", "--c", "0", "--v", "1")
    assert status == 0
    assert "2*x1 - t" in out or "-t + 2*x1" in out
    status, out = run(capsys, "theta", "--lambda", "0", "--format", "kv")
    assert status == 0
    assert kv(out)["theta"] == "x-independent"


def test_oracle_command(capsys):
    status, out = run(
        capsys, "oracle", "2i*Dt + Lap", "--n", "2", "--lambda", "1",
        "--seed", "11", "--count", "4", "--format", "kv",
    )
    assert status == 0
    table = kv(out)
    assert table["verdict"] == "invariant"
    assert table["seed"] == "11"
    status, out = run(
        capsys, "oracle", "Lap", "--n", "2", "--lambda", "1", "--format", "kv"
    )
    assert status == 1
    assert kv(out)["verdict"] == "not-invariant"


def test_usage_errors_exit_2(capsys):
    assert main(["classifym", "Lap", "--n", "2"]) == 2  # missing --lambda
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["classify2", "2i*Dt + ", "--n", "2"]) == 2  # parse error
    captured = capsys.readouterr()
    assert "error:" in captured.err


def test_kv_output_parses_back_losslessly(capsys):
    for argv in (
        ["classify2", "2i*Dt + Lap", "--n", "3"],
        ["classify2", "Dt - Lap", "--n", "2"],
        ["classifym", "Lap^2", "--lambda", "1", "--n", "2"],
        ["check-boost", "Lap", "--n", "2", "--lambda", "1"],
    ):
        main(argv + ["--format", "kv"])
        out = capsys.readouterr().out
        table = kv(out)
        assert _render(table, True) + "\n" == out
        # The text format prints the same keys and values.
        main(argv)
        assert _render(table, False) + "\n" == capsys.readouterr().out


# One kv run of each subcommand, with as many keys as it prints.
_ONE_OF_EACH = [
    ["check-translation", "Dx1 + 3"],
    ["check-rotation", "Dx1", "--n", "2"],
    ["check-boost", "Lap", "--lambda", "1", "--n", "2"],
    ["classify2", "2i*Dt + Lap", "--n", "3"],
    ["classify2", "Dt - Lap", "--n", "2"],
    ["classifym", "(2i*Dt + Lap)^2", "--lambda", "1", "--n", "2"],
    ["classifym", "Lap^2", "--lambda", "1", "--n", "2"],
    ["synthesize", "--lambda", "1", "--coeffs", "0,1", "--n", "2"],
    ["theta", "--lambda", "2", "--v", "1,2"],
    ["oracle", "2i*Dt + Lap", "--lambda", "1", "--n", "2", "--count", "2"],
    ["oracle", "Lap", "--lambda", "1", "--n", "2"],
]


def test_kv_keys_follow_the_key_order(capsys):
    assert {argv[0] for argv in _ONE_OF_EACH} == set(_COMMANDS)
    for argv in _ONE_OF_EACH:
        main(argv + ["--format", "kv"])
        keys = list(kv(capsys.readouterr().out))
        assert keys and all(key in _KEYS for key in keys), keys
        positions = [_KEYS.index(key) for key in keys]
        assert positions == sorted(set(positions)), keys


def test_exit_codes_match_verdicts_on_corpus(capsys):
    cases = [
        ("2i*Dt + Lap", "2", 0),
        ("Dt - Lap", "2", 1),
        ("Dt^2 - Lap", "2", 1),
        ("Dx1*Dx2", "2", 1),
        ("Lap + 3", "2", 0),
        ("Dt - (1/2)i*Lap", "2", 0),
    ]
    for text, n, expected in cases:
        status, out = run(capsys, "classify2", text, "--n", n, "--format", "kv")
        assert status == expected
        verdict = kv(out)["verdict"]
        assert (verdict == "accept") == (expected == 0)


def test_theta_text_shapes():
    assert theta_text(gauge_phase(1)) == "c + v.x - (1/2)t|v|^2"
    assert theta_text(gauge_phase(2)) == "c + (2)v.x - t|v|^2"
    assert theta_text(gauge_phase(0)) == "x-independent"


def test_oracle_count_below_one_is_usage_error(capsys):
    for count in ("0", "-2"):
        status = main(["oracle", "Dt", "--n", "1", "--lambda", "1", "--count", count])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "count" in captured.err


def test_theta_dimension_below_one_is_usage_error(capsys):
    for argv in (["--n", "0"], ["--n", "-3"], ["--n", "0", "--lambda", "0"]):
        status = main(["theta", "--lambda", "1", *argv])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "dimension must be at least 1" in captured.err


def test_oracle_count_below_one_names_count_alone(capsys):
    assert main(["oracle", "Dt", "--n", "1", "--lambda", "1", "--count", "0"]) == 2
    assert capsys.readouterr().err == "error: count must be positive\n"


@pytest.mark.parametrize("how", ["--n", "--v"])
def test_theta_dimension_is_capped(capsys, how):
    def argv(n):
        return ["--n", str(n)] if how == "--n" else ["--v", ",".join(["1"] * n)]

    assert main(["theta", "--lambda", "1", *argv(MAX_DIMENSION), "--format", "kv"]) == 0
    table = kv(capsys.readouterr().out)
    assert table["verdict"] == "ok"
    if how == "--v":
        assert table["n"] == str(MAX_DIMENSION)
    status = main(["theta", "--lambda", "1", *argv(MAX_DIMENSION + 1)])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == f"error: spatial dimension {MAX_DIMENSION + 1} exceeds the cap of {MAX_DIMENSION}\n"


@pytest.mark.parametrize("lam", ["0", "1"])
def test_theta_vector_length_is_checked_at_every_lambda(capsys, lam):
    status = main(["theta", "--lambda", lam, "--v", "1,2,3", "--n", "2"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "error: v has 3 components, n = 2\n"


def test_deep_nesting_is_usage_error(capsys):
    status = main(["classify2", "(" * 3000 + "Dt" + ")" * 3000])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "nest" in captured.err


def test_symbol_over_degree_cap_is_parse_error_everywhere(capsys):
    for argv in (
        ["check-translation", "Dt^70"],
        ["check-rotation", "Dt^40*Dt^30"],
        ["classify2", "t*Dt^40*Dt^30"],
        ["check-translation", "Dt^2000000000"],
    ):
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "exceeds" in captured.err


def test_dimension_over_the_cap_is_usage_error(capsys):
    started = time.perf_counter()
    status = main(["check-rotation", "Lap", "--n", "100000"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert "exceeds the cap" in captured.err
    assert elapsed < 1.0, f"refusing n = 100000 took {elapsed:.2f}s"
    argv = ["synthesize", "--lambda", "1", "--coeffs", "0,1", "--n", str(MAX_DIMENSION + 1)]
    assert main(argv) == 2
    assert "exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize("error", [InconsistencyError("routes disagree"), KeyError("k")])
def test_internal_error_exits_3(capsys, monkeypatch, error):
    def broken(op):
        raise error

    monkeypatch.setattr(cli, "check_translation_invariance", broken)
    status = main(["check-translation", "Dx1"])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert type(error).__name__ in captured.err


def _galinv(argv, stdout):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.Popen(
        [sys.executable, "-m", "galinv", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


@pytest.mark.parametrize(
    "argv, status",
    [
        (["check-boost", "2i*Dt + Lap", "--lambda", "1", "--n", "2"], 0),
        (["check-boost", "Dt^2", "--lambda", "1", "--n", "2"], 1),
    ],
)
def test_closed_stdout_keeps_the_verdict_status(argv, status):
    # A reader that stops after the first line, as `| head -1` does.
    proc = _galinv(argv + ["--format", "kv"], subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"verdict=")
    proc.stdout.close()
    assert proc.wait(timeout=60) == status
    assert proc.stderr.read() == b""
    proc.stderr.close()
    # A reader gone before the first write: the write always fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _galinv(argv, write_end)
    os.close(write_end)
    assert proc.wait(timeout=60) == status
    assert proc.stderr.read() == b""
    proc.stderr.close()


# One argv per subcommand, then a usage error (missing --lambda).
_EACH_SUBCOMMAND = [
    ["check-translation", "Dx1 + 3"],
    ["check-rotation", "Lap", "--n", "2"],
    ["check-boost", "Dt^2", "--lambda", "1", "--n", "2"],
    ["classify2", "2i*Dt + Lap", "--n", "3"],
    ["classifym", "(2i*Dt + Lap)^2", "--lambda", "1", "--n", "2"],
    ["synthesize", "--lambda", "1", "--coeffs", "0,1", "--n", "2"],
    ["theta", "--lambda", "1", "--v", "1,2"],
    ["oracle", "2i*Dt + Lap", "--lambda", "1", "--n", "2", "--count", "2"],
    ["classifym", "Lap", "--n", "2"],
]


def test_freeze_cases_cover_every_subcommand():
    assert {argv[0] for argv in _EACH_SUBCOMMAND} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", _EACH_SUBCOMMAND, ids=" ".join)
def test_main_in_process_never_freezes_the_collector(capsys, argv):
    frozen = gc.get_freeze_count()
    main(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


# Runs the console script's entry point with an atexit handler that reports
# whether the collector was frozen by the time the interpreter shut down.
_ENTRY = """\
import atexit, gc, sys
from galinv.cli import entry
atexit.register(lambda: sys.stderr.write(f"atexit frozen={gc.get_freeze_count() > 0}\\n"))
sys.argv = ["galinv", *sys.argv[1:]]
entry()
"""


@pytest.mark.parametrize(
    "argv, status",
    [
        (["classify2", "2i*Dt + Lap", "--n", "3"], 0),
        (["check-boost", "Dt^2", "--lambda", "1", "--n", "2", "--format", "kv"], 1),
        (["classify2", "Dt +"], 2),
    ],
)
def test_entry_keeps_status_report_and_atexit_handlers(capsys, argv, status):
    assert main(argv) == status
    want = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == status
    assert proc.stdout == want.out
    assert (proc.stdout == "") == (status == 2)
    assert proc.stderr == want.err + "atexit frozen=True\n"


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_subcommand_parser_helps_as_the_full_parser(command):
    full, lean = build_arg_parser(), build_arg_parser(command)
    assert lean.format_help() == full.format_help()
    assert lean.format_usage() == full.format_usage()
    for name, sub in _subparsers(lean).items():
        if name == command:
            assert sub.format_help() == _subparsers(full)[name].format_help()
        else:
            assert [a.dest for a in sub._actions] == ["help"]


# The usage paths: help, no or unknown subcommand, bad options and values,
# stray tokens, and options placed before the subcommand.
_USAGE_CASES = [
    ["-h"],
    *([command, "-h"] for command in cli._COMMANDS),
    [],
    ["no-such-command"],
    ["check-boost", "Dt"],
    ["classify2", "Dt", "--format", "json"],
    ["oracle", "Dt", "--lambda", "1", "--count", "x"],
    ["theta", "--lambda", "1", "--v", "1,a"],
    ["classify2", "Dt", "--bogus"],
    ["classify2", "Dt", "extra"],
    ["--format", "kv", "classify2", "Dt"],
]


@pytest.mark.parametrize("argv", _USAGE_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_output_matches_the_full_parser(capsys, monkeypatch, argv):
    lean = (main(argv), *capsys.readouterr())
    full = cli.build_arg_parser
    monkeypatch.setattr(cli, "build_arg_parser", lambda command=None: full())
    assert lean == (main(argv), *capsys.readouterr())
