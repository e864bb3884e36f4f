"""The import surface: lazy package exports and what a serving process loads.

Every package ``__init__`` except :mod:`repro.faults` exports through
one ``{submodule: names}`` table (:func:`repro._lazy.lazy_exports`), so
importing a package loads none of its submodules and a process loads
only the modules it uses.  scipy backs only the contact solve that runs
on an artifact-cache miss, so the serving path must not import it.
The surface checks run in a fresh interpreter and assert on
``sys.modules``, never on wall time.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg)

#: What the gateway, the inference service and the scenario builders
#: (which calibrate the served models) import.
SERVING = ("repro.gateway.server", "repro.serve.service",
           "repro.experiments.scenarios")

#: Offline-only modules: contact solves, baselines, paper-figure
#: runners and the alternative waveforms.
OFFLINE = ("scipy", "repro.baselines", "repro.experiments.runners",
           "repro.experiments.montecarlo", "repro.experiments.sweeps",
           "repro.reader.fmcw", "repro.reader.uwb")


def _modules_after(statements: str) -> list:
    """``sys.modules`` of a fresh interpreter after ``statements``."""
    script = (f"{statements}\nimport json, sys\n"
              "print(json.dumps(sorted(sys.modules)))")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(result.stdout.splitlines()[-1])


def _export_table(package: str) -> dict:
    """``{name: (defining module, is the module itself)}`` from the
    package ``__init__``: its ``lazy_exports`` table, or its
    ``from ... import`` lines for the eager :mod:`repro.faults`."""
    source = Path(importlib.import_module(package).__file__).read_text()
    table = {}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.ImportFrom) and node.module != "repro._lazy"
                and node.module.startswith(package + ".")):
            table.update((alias.name, (node.module, False))
                         for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", "") == "lazy_exports"):
            for module, names in ast.literal_eval(node.value.args[1]).items():
                table.update((name, (f"{package}.{module}", name == module))
                             for name in names)
    return table


class TestImportSurface:
    def test_import_repro_loads_no_subpackage(self):
        subpackages = set(PACKAGES) - {"repro"}
        loaded = _modules_after("import repro")
        assert [name for name in loaded
                if ".".join(name.split(".")[:2]) in subpackages] == []

    def test_serving_path_loads_no_offline_module(self):
        loaded = _modules_after("\n".join(f"import {m}" for m in SERVING))
        assert [name for name in loaded
                if any(name == offline or name.startswith(offline + ".")
                       for offline in OFFLINE)] == []


class TestExportTables:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_is_its_defining_object(self, package):
        module = importlib.import_module(package)
        table = _export_table(package)
        listing = dir(module)
        assert len(set(module.__all__)) == len(module.__all__)
        assert sorted(set(table) - set(module.__all__)) == []
        for name in module.__all__:
            value = getattr(module, name)
            assert name in listing
            if name not in table:
                # Defined in the package ``__init__`` itself.
                assert getattr(value, "__module__", package) == package
                continue
            defining, itself = table[name]
            defined = importlib.import_module(defining)
            assert value is (defined if itself else getattr(defined, name))

    def test_star_import(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["build_default_system"] is repro.build_default_system

    def test_faults_inject_is_the_function(self):
        import repro.faults.inject  # noqa: F401  (binds the submodule)
        from repro.faults import inject

        assert callable(inject)
        assert inject is sys.modules["repro.faults.inject"].inject
