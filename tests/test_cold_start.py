"""Cold start: each command imports only the layers it runs.

Every check runs in a fresh interpreter, because this test process has
already imported everything. The module sets are deterministic, so
these gates carry no timing noise; ``benchmarks/import_ratio.py``
times the same imports.
"""

import json
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Layers ``import repro.cli`` must not load.
CLI_FORBIDDEN = (
    "numpy",
    "repro.resilience",
    "repro.distserve",
    "repro.monitor.scenario",
    "repro.telemetry.servelog",
)

#: Every package whose ``__init__`` re-exports names.
PACKAGES = (
    "repro", "repro.analysis", "repro.core", "repro.distserve",
    "repro.explain", "repro.frameworks", "repro.gpusim", "repro.graph",
    "repro.hw", "repro.ledger", "repro.models", "repro.monitor", "repro.ops",
    "repro.resilience", "repro.runtime", "repro.telemetry", "repro.uarch",
    "repro.workloads",
)


def _fresh(code: str) -> subprocess.CompletedProcess:
    prelude = f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code], cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )


def _modules_after(statement: str) -> set:
    proc = _fresh(
        f"import json\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded(modules: set, prefix: str) -> list:
    return sorted(
        m for m in modules if m == prefix or m.startswith(prefix + ".")
    )


class TestModuleSets:
    def test_cli_import_loads_no_heavy_layer(self):
        modules = _modules_after("import repro.cli")
        for prefix in CLI_FORBIDDEN:
            assert not _loaded(modules, prefix), prefix

    @pytest.mark.parametrize("package", ["repro", "repro.hw", "repro.ledger"])
    def test_light_packages_load_no_numpy(self, package):
        assert not _loaded(_modules_after(f"import {package}"), "numpy")


class TestCommandsInFreshInterpreters:
    @pytest.mark.parametrize("argv,numpy_free", [
        (["platforms"], True),
        (["models"], False),
        (["check", "--rules", "ci/slo.toml", "baselines"], True),
        (["diff", "baselines", "--against", "baselines",
          "--fail-on-regression"], True),
    ])
    def test_command_exits_zero(self, argv, numpy_free):
        proc = _fresh(
            "from repro.cli import main\n"
            f"code = main({argv!r})\n"
            "print('numpy loaded:', 'numpy' in sys.modules)\n"
            "sys.exit(code)"
        )
        assert proc.returncode == 0, proc.stderr
        if numpy_free:
            assert proc.stdout.splitlines()[-1] == "numpy loaded: False"


class TestLazyReExports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_export_resolves(self, name):
        package = __import__(name, fromlist=["__all__"])
        listed = set(dir(package))
        for export in package.__all__:
            value = getattr(package, export)
            assert not isinstance(value, types.ModuleType), export
            assert export in listed
        with pytest.raises(AttributeError):
            getattr(package, "no_such_name")

    @pytest.mark.parametrize("name", PACKAGES)
    def test_no_export_shares_a_submodule_name(self, name):
        """Importing a submodule binds it to the package attribute of the
        same name, which would shadow a lazy export of that name."""
        package = __import__(name, fromlist=["__all__"])
        submodules = {m.name for m in pkgutil.iter_modules(package.__path__)}
        assert not submodules & set(package.__all__)
