"""Import contract: the exact and scalar commands run without numpy.

numpy costs more start-up time than the rest of the package together, so
only the simulation modules and the array functions load it.  The exact and
scalar commands, and ``epsilon`` without ``--n``, whose closed form lives in
the numpy-free ``band``, also leave ``dataclasses`` and ``inspect``
unloaded: their value types are ``values.value_type`` classes.  The package
namespace stays complete: ``import deltamachine`` loads no submodule, and
every public name resolves on first access.  The modules keep one layering:
``values`` is a leaf that holds every argument check and ``value_type``, and
only the simulation modules import numpy at the top or ``dataclasses``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import deltamachine
from deltamachine import cli, ensemble, interval, serialize

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "deltamachine"


def run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter; its assertions must hold."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr


def test_exact_and_scatter_commands_never_import_numpy():
    run_fresh(
        """
        import contextlib, io, sys

        # dataclasses (and through it inspect) is compared with the modules
        # loaded before, so that a .pth file that imports it cannot fail the check.
        before = set(sys.modules)

        def no_numpy(where):
            assert "numpy" not in sys.modules, f"numpy imported by {where}"
            for name in ("dataclasses", "inspect"):
                assert name in before or name not in sys.modules, f"{name} imported by {where}"

        import deltamachine
        loaded = [m for m in sys.modules if m.startswith("deltamachine.")]
        assert not loaded, f"import deltamachine loaded {loaded}"
        from deltamachine import ElectricState
        assert "deltamachine.spheres" in sys.modules
        no_numpy("from deltamachine import ElectricState")
        from deltamachine import ElasticExperiment, OutcomePair, epsilon_probabilities, quantum_spin_probabilities
        no_numpy("from deltamachine import the four names of band")
        from deltamachine import cli
        no_numpy("import deltamachine.cli")
        # The default seed reads os.urandom; secrets would pull in hashlib.
        for name in ("secrets", "hashlib"):
            assert name not in sys.modules, f"{name} imported by import deltamachine.cli"

        commands = (
            ["tables", "--K", "5", "--golden"],
            ["classify", "--K", "8"],
            ["classify", "--K", "128"],
            ["scatter", "--E", "1"],
            ["scatter", "--E", "1", "--grid", "0.1:10:50"],
            ["epsilon", "--theta", "1", "--eps", "0.5", "--seed", "1"],
        )
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                for fmt in ("text", "json", "csv"):
                    assert cli.main([*argv, "--format", fmt]) == 0, argv
                    no_numpy(f"{argv} --format {fmt}")
            assert cli.main(["--help"]) == 0
            no_numpy("--help")

            # The simulation commands load numpy themselves, in this process:
            # epsilon with --n first, so that it alone is seen to load it.
            assert cli.main(["epsilon", "--theta", "1", "--eps", "0.5", "--n", "100", "--seed", "1"]) == 0
            assert "numpy" in sys.modules
            cell = ["--kp", "2", "--km", "1", "--k", "1", "--seed", "1"]
            assert cli.main(["simulate", *cell, "--n", "100"]) == 0
            assert cli.main(["convergence", *cell, "--schedule", "10,100"]) == 0
        """
    )


def test_json_and_csv_load_only_with_their_generic_renderers():
    run_fresh(
        """
        import contextlib, io, sys

        # Compared with the modules loaded before, so that a .pth file that
        # imports one of them at start-up cannot fail the check.
        before = set(sys.modules)

        def not_loaded(where):
            for name in ("json", "csv"):
                assert name in before or name not in sys.modules, f"{name} imported by {where}"

        from deltamachine import cli
        not_loaded("import deltamachine.cli")
        argv = ["scatter", "--E", "0", "--E", "1", "--grid", "0.1:10:50"]
        with contextlib.redirect_stdout(io.StringIO()):
            for fmt in ("text", "json", "csv"):
                assert cli.main([*argv, "--format", fmt]) == 0
                not_loaded(f"scatter --format {fmt}")
            # Every other command renders JSON and CSV with the modules.
            assert cli.main(["tables", "--K", "3", "--format", "json"]) == 0
            assert cli.main(["tables", "--K", "3", "--format", "csv"]) == 0
        assert {"json", "csv"} <= set(sys.modules)
        """
    )


def test_submodules_resolve_after_a_bare_import():
    run_fresh(
        """
        import importlib
        import deltamachine

        assert deltamachine.run_ensemble is deltamachine.machine.run_ensemble
        for name in deltamachine._EXPORTS:
            module = getattr(deltamachine, name)
            assert module is importlib.import_module(f"deltamachine.{name}"), name
        """
    )


def _imports(node: ast.AST, *, top: bool):
    """``(module, names)`` of each import under ``node``, with ``module``
    relative to the package (``"."`` for ``from . import x``).  With ``top``,
    only the imports that run when the module loads: none inside a function
    or an ``if TYPE_CHECKING:`` block."""
    for child in ast.iter_child_nodes(node):
        if top and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if top and isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
            continue
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield alias.name, ()
        elif isinstance(child, ast.ImportFrom):
            module = "." * child.level + (child.module or "")
            yield module, tuple(alias.name for alias in child.names)
        yield from _imports(child, top=top)


def _modules():
    """Each module of the package, by name, as its syntax tree."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


class TestLayering:
    """``values`` is the leaf that every module takes its checks from, and
    numpy and ``dataclasses`` stay in the simulation modules."""

    CHECKS = {"as_int", "is_bool", "as_real", "as_real_array", "FrozenInstanceError", "value_type"}

    def test_values_imports_nothing_from_the_package(self):
        for module, names in _imports(_modules()["values"], top=False):
            assert not module.startswith((".", "deltamachine")), (module, names)

    def test_only_values_defines_the_checks_and_value_type(self):
        for name, tree in _modules().items():
            defined = {
                node.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in self.CHECKS
            }
            assert defined == (self.CHECKS if name == "values" else set()), name

    def test_every_module_takes_the_checks_from_values(self):
        for name, tree in _modules().items():
            for module, names in _imports(tree, top=False):
                if self.CHECKS & set(names):
                    assert module == ".values", (name, module, names)

    def test_only_ensemble_and_machine_import_dataclasses(self):
        importers = {
            name
            for name, tree in _modules().items()
            if any(module == "dataclasses" for module, _ in _imports(tree, top=False))
        }
        assert importers == {"ensemble", "machine"}

    def test_only_the_simulation_modules_import_numpy_when_they_load(self):
        importers = {
            name
            for name, tree in _modules().items()
            if any(module.split(".")[0] == "numpy" for module, _ in _imports(tree, top=True))
        }
        assert importers == {"rng", "ensemble", "machine", "elastic"}


class TestNamespace:
    @pytest.mark.parametrize("name", deltamachine.__all__)
    def test_name_is_its_defining_modules_object(self, name):
        value = getattr(deltamachine, name)
        defining = getattr(value, "__module__", "")
        if not defining.startswith("deltamachine."):
            defining = "deltamachine.spheres"  # a constant or a type alias
        assert getattr(importlib.import_module(defining), name) is value
        assert vars(deltamachine)[name] is value  # cached after first use

    def test_all_is_sorted_without_duplicates(self):
        assert deltamachine.__all__ == sorted(set(deltamachine.__all__))

    def test_dir_lists_every_public_name(self):
        assert set(deltamachine.__all__) <= set(dir(deltamachine))

    def test_from_import_of_a_numpy_backed_name(self):
        from deltamachine import run_ensemble
        from deltamachine.machine import run_ensemble as defined

        assert run_ensemble is defined

    def test_unknown_name_is_an_error(self):
        with pytest.raises(AttributeError):
            deltamachine.nope
        with pytest.raises(ImportError):
            from deltamachine import nope  # noqa: F401

    def test_z_default_is_defined_once(self):
        args = cli.build_parser().parse_args(
            ["simulate", "--kp", "1", "--km", "1", "--k", "1", "--n", "1"]
        )
        assert args.z is interval.DEFAULT_Z
        # The report's modules read the interval; the simulation layer holds none.
        assert serialize.wilson_interval is interval.wilson_interval
        for name in ("DEFAULT_Z", "wilson_interval"):
            assert not hasattr(ensemble, name), name
        # One interval: the normal half-width is a test oracle, not a report field.
        assert not hasattr(interval, "normal_half_width")


def test_every_traced_boundary_exists(monkeypatch):
    """The benchmark tracer wraps module attributes by name; each must exist."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    if not (bench / "tracing.py").is_file():
        pytest.skip("no bench/ directory")
    monkeypatch.syspath_prepend(str(bench))
    try:
        boundaries = importlib.import_module("tracing")._boundaries()
    finally:
        sys.modules.pop("tracing", None)
    for owner, attr, _, _ in boundaries:
        if isinstance(owner, dict):
            assert attr in owner, attr
        else:
            assert hasattr(owner, attr), f"{owner.__name__}.{attr}"


def test_recorded_traced_counts_cover_every_exact_count(monkeypatch):
    """CI compares the traced passes with ``data/traced_counts.json``.

    The file must name each benchmark workload and, for each, every count the
    tracer declares exact, so that no count goes unchecked.
    """
    root = Path(__file__).resolve().parents[1]
    if not (root / "bench" / "tracing.py").is_file():
        pytest.skip("no bench/ directory")
    monkeypatch.syspath_prepend(str(root / "bench"))
    try:
        exact = importlib.import_module("tracing").EXACT_COUNTS
    finally:
        sys.modules.pop("tracing", None)
    recorded = json.loads((root / "tests" / "data" / "traced_counts.json").read_text())
    workloads = json.loads((root / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(recorded) == sorted(w["name"] for w in workloads)
    for name, counts in recorded.items():
        assert list(counts) == list(exact), name
