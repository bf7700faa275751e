"""CLI start-up: what a command imports, and what the lazy packages export.

A command loads the simulator only when it simulates.  The import
budget below runs each command in a fresh interpreter and checks
``sys.modules`` membership (deterministic, unlike timings): start-up,
``list``, ``--help`` and warm store hits must not import the cycle
kernel, the attack machinery, the serving machine, the daemon, perf or
the lint engine.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Modules a warm invocation must never import.
FORBIDDEN = (
    "repro.mem.hierarchy",
    "repro.ooo.frontend",
    "repro.attacks.coschedule",
    "repro.os_model.machine",
    "repro.daemon.server",
    "repro.perf",
    "repro.lint.engine",
    "repro.obs.export",
)

#: Runs ``python -m repro <argv>`` and reports the forbidden modules it
#: left in ``sys.modules`` on stderr, after the command's own output.
_PROBE = """
import atexit, json, runpy, sys
forbidden = json.loads(sys.argv[1])
atexit.register(lambda: sys.stderr.write(
    "\\nloaded=" + json.dumps([name for name in forbidden if name in sys.modules]) + "\\n"
))
sys.argv = ["repro", *sys.argv[2:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

#: Packages whose ``__init__`` exports names lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.attacks",
    "repro.core",
    "repro.daemon",
    "repro.fleet",
    "repro.lint",
    "repro.mem",
    "repro.obs",
    "repro.ooo",
    "repro.service",
    "repro.workloads",
)


def _run(code_args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    completed = subprocess.run(
        [sys.executable, *code_args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return completed


def _loaded_by(argv, cwd):
    completed = _run(["-c", _PROBE, json.dumps(FORBIDDEN), *argv], cwd)
    marker = completed.stderr.rsplit("loaded=", 1)
    assert len(marker) == 2, completed.stderr[-2000:]
    return completed, json.loads(marker[1])


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    """A store holding one small sweep, fleet and attack run (cold, in-process)."""
    directory = tmp_path_factory.mktemp("cli-store")
    commands = _warm_commands(directory)
    for argv in commands.values():
        assert cli_main(argv) == 0
    return directory, commands


def _warm_commands(directory):
    store = ["--cache-dir", str(directory), "--json"]
    return {
        "sweep": ["sweep", "--variants", "BASE", "F+P+M+A", "--benchmarks", "gcc",
                  "--instructions", "2000", "--seed", "211", *store],
        "fleet": ["fleet", "--variants", "F+P+M+A", "--load", "0.6", "--requests", "40",
                  "--instructions", "500", "--seed", "211", *store],
        "attack": ["attack", "prime_probe", "--variants", "BASE", "--seed", "211", *store],
    }


class TestImportBudget:
    def test_import_of_the_cli_loads_no_simulator(self, tmp_path):
        completed = _run(
            ["-c", "import json, sys, repro.cli; "
             f"print(json.dumps([m for m in {list(FORBIDDEN)!r} if m in sys.modules]))"],
            tmp_path,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == []

    @pytest.mark.parametrize("argv", [["list"], ["--help"]])
    def test_list_and_help_load_no_simulator(self, argv, tmp_path):
        completed, loaded = _loaded_by(argv, tmp_path)
        assert completed.returncode == 0, completed.stderr
        assert loaded == []

    @pytest.mark.parametrize("command", ["sweep", "fleet", "attack"])
    def test_warm_commands_load_no_simulator(self, command, filled_store, tmp_path):
        directory, commands = filled_store
        completed, loaded = _loaded_by(commands[command], tmp_path)
        assert completed.returncode == 0, completed.stderr
        cache = json.loads(completed.stdout)["cache"]
        assert cache["runs_simulated"] == 0 and cache["warm_from_disk"] > 0
        assert loaded == []


#: Imports every ``repro`` module as the first ``repro`` import of the
#: process (clearing the package between modules) and prints the ones
#: that fail: lazy package ``__init__``s must leave no import cycle that
#: only a particular entry order resolves.
_IMPORT_ORDER_PROBE = """
import importlib, json, pathlib, sys
root = pathlib.Path(sys.argv[1])
failures = []
for path in sorted((root / "repro").rglob("*.py")):
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__main__":
        continue
    name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except ImportError as error:
        failures.append(f"{name}: {error}")
print(json.dumps(failures))
"""


class TestImportOrder:
    def test_every_module_imports_first(self, tmp_path):
        completed = _run(["-c", _IMPORT_ORDER_PROBE, str(SRC)], tmp_path)
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert json.loads(completed.stdout.splitlines()[-1]) == []


def _type_checking_imports(package):
    """Name -> module of the ``if TYPE_CHECKING:`` imports in ``package``."""
    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom)
                for alias in statement.names:
                    names[alias.name] = statement.module
    return names


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_public_name_resolves_from_its_declared_module(self, package):
        module = importlib.import_module(package)
        declared = _type_checking_imports(package)
        assert declared, f"{package} declares no lazy exports"
        assert set(declared) <= set(module.__all__)
        for name in module.__all__:
            value = getattr(module, name)
            if name in declared:
                owner = importlib.import_module(declared[name])
                assert value is getattr(owner, name), f"{package}.{name}"
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_names_raise_attribute_error(self):
        import repro.core

        with pytest.raises(AttributeError):
            repro.core.NoSuchName  # noqa: B018

    def test_moved_value_types_keep_their_old_paths(self):
        from repro.attacks import outcome as attack_outcome
        from repro.attacks.scenarios import ScenarioOutcome
        from repro.core import outcome as core_outcome
        from repro.core.processor import WorkloadRun
        from repro.fleet import outcome as fleet_outcome
        from repro.fleet.simulation import FleetOutcome, ShardOutcome
        from repro.mem import config as mem_config
        from repro.mem.dram import DramConfig
        from repro.mem.llc import LlcConfig
        from repro.mem.mshr import MshrConfig
        from repro.ooo import config as ooo_config
        from repro.ooo.core import CoreConfig, CoreResult
        from repro.service import outcome as service_outcome
        from repro.service.simulation import ServiceOutcome

        assert ScenarioOutcome is attack_outcome.ScenarioOutcome
        assert WorkloadRun is core_outcome.WorkloadRun
        assert FleetOutcome is fleet_outcome.FleetOutcome
        assert ShardOutcome is fleet_outcome.ShardOutcome
        assert (DramConfig, LlcConfig, MshrConfig) == (
            mem_config.DramConfig,
            mem_config.LlcConfig,
            mem_config.MshrConfig,
        )
        assert (CoreConfig, CoreResult) == (ooo_config.CoreConfig, ooo_config.CoreResult)
        assert ServiceOutcome is service_outcome.ServiceOutcome
