"""Import contract: the exact and scalar commands run without numpy.

numpy costs more start-up time than the rest of the package together, so
only the simulation modules and the array functions load it.  The exact and
scalar commands also leave ``dataclasses`` and ``inspect`` unloaded: their
value types are ``spheres.value_type`` classes.  The package
namespace stays complete: ``import deltamachine`` loads no submodule, and
every public name resolves on first access.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import deltamachine
from deltamachine import cli, ensemble, interval, serialize

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
        from deltamachine import cli
        no_numpy("import deltamachine.cli")
        # The default seed reads os.urandom; secrets would pull in hashlib.
        for name in ("secrets", "hashlib"):
            assert name not in sys.modules, f"{name} imported by import deltamachine.cli"

        commands = (
            ["tables", "--K", "5", "--golden"],
            ["classify", "--K", "8"],
            ["scatter", "--E", "1", "--grid", "0.1:10:50"],
        )
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                for fmt in ("text", "json", "csv"):
                    assert cli.main([*argv, "--format", fmt]) == 0, argv
                    no_numpy(f"{argv} --format {fmt}")
            assert cli.main(["--help"]) == 0
            no_numpy("--help")

            # The simulation commands load numpy themselves, in this process.
            cell = ["--kp", "2", "--km", "1", "--k", "1", "--seed", "1"]
            assert cli.main(["simulate", *cell, "--n", "100"]) == 0
            assert cli.main(["epsilon", "--theta", "1", "--eps", "0.5", "--n", "100", "--seed", "1"]) == 0
            assert cli.main(["convergence", *cell, "--schedule", "10,100"]) == 0
        assert "numpy" in sys.modules
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
        modules = ("machine", "elastic", "ensemble", "rng", "spheres", "regimes", "scattering")
        for name in modules:
            module = getattr(deltamachine, name)
            assert module is importlib.import_module(f"deltamachine.{name}"), name
        """
    )


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
