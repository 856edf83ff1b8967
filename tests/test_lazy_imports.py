"""Start-up cost: the package and the CLI load a module on first use only,
and no module imports a name it never reads."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import galinv
from galinv import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Names that left the package: moved to the test references or deleted.
REMOVED = (
    "BoostedFrequency IdentityVerdict RationalMatrix apply_plane_wave boosted_frequency "
    "conj_boost_gauge differentiate_expwave plane_wave_at sampled_identity_check"
).split()


def _loaded_by(code: str, *argv: str) -> set[str]:
    """The galinv submodules a fresh interpreter holds after running code;
    the code leaves them, space-separated, on its last stdout line."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode in (0, 1), proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


_LIST = "print(' '.join(m[7:] for m in sys.modules if m.startswith('galinv.')))"


def test_import_galinv_loads_no_submodule():
    assert _loaded_by("import sys, galinv\n" + _LIST) == set()


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["theta", "--lambda", "1"], {"checks", "classify", "oracle", "opparse", "matrices"}),
        (["theta", "--lambda", "1", "--v", "1,2"], {"checks", "classify", "oracle", "opparse"}),
        (["check-translation", "Dx1"], {"classify", "oracle"}),
        (["check-translation", "x1*Dx1", "--n", "1"], {"classify", "oracle"}),
        (["check-rotation", "Lap", "--n", "2"], {"classify", "oracle", "matrices"}),
        (["classify2", "2i*Dt + Lap", "--n", "2"], {"oracle", "matrices", "waves"}),
        (["check-boost", "Dt^3", "--lambda", "1", "--n", "2"], {"classify", "oracle", "waves", "matrices"}),
    ],
)
def test_each_subcommand_loads_only_what_it_runs(argv, absent):
    code = "import sys\nfrom galinv.cli import main\nmain(sys.argv[1:])\n" + _LIST
    loaded = _loaded_by(code, *argv)
    assert "cli" in loaded
    assert not loaded & absent, sorted(loaded & absent)


_MAIN = "import sys\nfrom galinv.cli import main\nmain(sys.argv[1:])\n"
_ALL = "print(' '.join(sys.modules))"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-translation", "x1*Dx1", "--n", "1"],
        ["check-rotation", "Dx1", "--n", "2"],
        ["check-boost", "Dt^3", "--lambda", "1", "--n", "2"],
        ["classify2", "Dt - Lap", "--n", "2"],
        ["classifym", "(2i*Dt + Lap)^2", "--lambda", "1", "--n", "2"],
        ["synthesize", "--lambda", "1", "--coeffs", "0,1", "--n", "2"],
        ["theta", "--lambda", "1", "--v", "1,2"],
        ["oracle", "2i*Dt + Lap", "--lambda", "1", "--n", "2", "--count", "2"],
    ],
)
def test_no_subcommand_loads_dataclasses_or_inspect(argv):
    """Value classes are plain classes: no process pays for `dataclasses`,
    which loads `inspect`, or for the methods it compiles per class."""
    bare = _loaded_by("import sys\n" + _ALL)
    loaded = _loaded_by(_MAIN + _ALL, *argv)
    assert "galinv.cli" in loaded
    assert not (loaded - bare) & {"dataclasses", "inspect"}


def test_random_rational_lives_in_universe():
    from galinv import checks, universe

    assert checks.random_rational is universe.random_rational


def test_every_public_name_is_its_home_modules_object():
    for name in galinv.__all__:
        home = import_module(f"galinv.{galinv._HOME[name]}")
        value = getattr(galinv, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
        # Bound on first use: later reads never reach the hook again.
        assert vars(galinv)[name] is value, name


def test_dir_and_star_import_cover_all():
    assert set(galinv.__all__) <= set(dir(galinv))
    namespace: dict = {}
    exec("from galinv import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(galinv.__all__)
    assert galinv.__version__ == "0.1.0"


def test_unknown_names_raise_attribute_error():
    for module in (galinv, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "another_missing_name")
    for name in REMOVED:
        assert name not in galinv.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(galinv, name)
    # A submodule is still importable by name from the package.
    from galinv import universe

    assert universe.DEFAULT_SEED == 94281


def test_cli_names_resolve_to_their_home_objects():
    from galinv import checks, universe

    assert cli.check_translation_invariance is checks.check_translation_invariance
    assert cli.random_rational is universe.random_rational


def _import_faults(path: Path) -> list[str]:
    """Names the module imports and never reads, and any import of a test
    helper.  Lines marked `# noqa: F401` and `from __future__` are exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    faults = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        module = getattr(node, "module", None) or ""
        for name in [module] + [alias.name for alias in node.names]:
            if any(part.startswith("reference_") or part == "conftest" for part in name.split(".")):
                faults.append(f"imports {name}")
        if module == "__future__" or any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                faults.append(f"never reads {bound}")
    return faults


def test_no_module_imports_a_name_it_never_reads():
    faults = {
        path.name: _import_faults(path)
        for path in sorted(Path(SRC, "galinv").glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: found for name, found in faults.items() if found} == {}
