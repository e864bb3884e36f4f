"""The import surface: lazy package exports and what a serving process loads.

Every package ``__init__`` except :mod:`repro.faults` exports through
one ``{submodule: names}`` table (:func:`repro._lazy.lazy_exports`), so
importing a package loads none of its submodules and a process loads
only the modules it uses.  scipy backs only the contact solve that runs
on an artifact-cache miss, so the serving path must not import it, nor
the reader and channel simulation a served request never runs; an
offline campaign loads neither the event loop nor the process pool.
The surface checks run in a fresh interpreter and assert on
``sys.modules``, never on wall time.  A static import graph checks
that ``src/`` holds only code a program runs: a module that only
tests reach belongs under ``tests/``.  A scan of every call checks
that each default of an experiment function is one some call
overrides.
"""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
ROOT = SRC.parent

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

#: The simulated reader and channel: a served request arrives as
#: phases, so only the scenario builders' deployments run them.
READER_STACK = ("repro.reader", "repro.channel", "repro.core.harmonics",
                "repro.core.pipeline")

#: What an offline campaign imports: the paper-figure runners, the
#: Monte-Carlo campaigns and sweeps, and the artifact cache.
CAMPAIGN = ("repro.experiments.runners", "repro.experiments.montecarlo",
            "repro.experiments.sweeps", "repro.cache.store")

#: What only serving or a sharded run needs: the event loop (with the
#: ssl and subprocess layers asyncio loads) and the process pool.
EVENT_LOOP_AND_POOL = ("asyncio", "ssl", "multiprocessing",
                       "concurrent.futures.process")

#: Where a program enters the package: the CLI behind ``python -m
#: repro``, the gateway server, and every script of these directories
#: (the examples, the end-to-end benchmark, the paper-figure and perf
#: benchmarks).
ENTRY_MODULES = ("repro.__main__", "repro.cli", "repro.gateway.server")
ENTRY_DIRS = ("examples", "e2e_bench", "benchmarks")

#: Where a call can pass an experiment parameter.
CALLER_DIRS = ("src", "tests") + ENTRY_DIRS

#: The packages whose module-level functions must see every defaulted
#: parameter passed somewhere, besides ``repro.build_default_system``:
#: the paper-figure protocols and the serving and observability stack.
PARAMETER_PACKAGES = ("experiments", "obs", "serve", "gateway", "cache",
                      "faults")


def _modules_after(statements: str) -> list:
    """``sys.modules`` of a fresh interpreter after ``statements``."""
    script = (f"{statements}\nimport json, sys\n"
              "print(json.dumps(sorted(sys.modules)))")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(result.stdout.splitlines()[-1])


def _under(loaded: list, packages: tuple) -> list:
    """The modules of ``loaded`` that are, or sit under, ``packages``."""
    return [name for name in loaded
            if any(name == package or name.startswith(package + ".")
                   for package in packages)]


def _source(module: str):
    """The file of a ``repro`` module or package; ``None`` for a name
    that is no such module."""
    if module.partition(".")[0] != "repro":
        return None
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _module_name(path: Path) -> str:
    """The dotted name of the ``src/`` module at ``path``."""
    return (".".join(path.relative_to(SRC).with_suffix("").parts)
            .removesuffix(".__init__"))


def _export_table(package: str) -> dict:
    """``{name: (defining module, is the module itself)}`` from the
    package ``__init__``: its ``lazy_exports`` table, or its
    ``from ... import`` lines for the eager :mod:`repro.faults`."""
    source = _source(package).read_text()
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


def _imports(path: Path, module: str = ""):
    """The modules the ``import`` and ``from`` statements of ``path``
    name, function bodies included; ``module`` is its dotted name, for
    relative imports.  ``from pkg import Name`` names the submodule
    ``pkg.Name`` or, through pkg's export table, Name's defining one."""
    package = (module if path.name == "__init__.py"
               else module.rpartition(".")[0]).split(".")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = node.module
            if node.level:
                parts = package[:len(package) + 1 - node.level]
                source = ".".join(parts + [source] if source else parts)
            yield source
            found = _source(source)
            table = (_export_table(source)
                     if found is not None and found.name == "__init__.py"
                     else {})
            for alias in node.names:
                yield (table[alias.name][0] if alias.name in table
                       else f"{source}.{alias.name}")


def _reached() -> set:
    """Every ``repro`` module the entry points import, directly or
    through others, with the packages whose ``__init__`` runs first."""
    pending = list(ENTRY_MODULES)
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            pending.extend(_imports(path))
    reached = set()
    while pending:
        module = pending.pop()
        path = _source(module)
        if path is None or module in reached:
            continue
        reached.add(module)
        pending.append(module.rpartition(".")[0])
        pending.extend(_imports(path, module))
    return reached


def _uses(tree: ast.Module, module: str = "") -> set:
    """Every name ``tree`` uses: names, attributes, keyword arguments,
    imported names and the identifier-shaped tokens of its strings
    other than docstrings.  Export tables are not uses: a
    ``lazy_exports`` table literal, an ``__all__`` list and the
    re-export imports of a package ``__init__``."""
    ignored = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            ignored.add(node.body[0])
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", "") == "lazy_exports"):
            ignored.add(node.args[1])
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, (ast.List, ast.Tuple))
              and [getattr(t, "id", "") for t in node.targets] == ["__all__"]):
            ignored.add(node.value)
        elif (isinstance(node, ast.ImportFrom) and module
              and (node.module or "").startswith(module + ".")):
            ignored.add(node)
    names = set()
    pending = [tree]
    while pending:
        node = pending.pop()
        if node in ignored:
            continue
        pending.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def _calls(tree: ast.AST):
    """Every call in ``tree``, including those in the Python source a
    string constant holds (the script a child interpreter runs)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from _calls(ast.parse(node.value))
            except (SyntaxError, ValueError):
                pass


def _defaulted(function: ast.FunctionDef):
    """``(name, position)`` of each parameter of ``function`` with a
    default; the position is None for a keyword-only one."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    first = len(positional) - len(arguments.defaults)
    for position, argument in enumerate(positional[first:], start=first):
        yield argument.arg, position
    for argument, default in zip(arguments.kwonlyargs,
                                 arguments.kw_defaults):
        if default is not None:
            yield argument.arg, None


def _definitions(tree: ast.Module):
    """``(qualified name, name)`` of each public top-level function or
    class of ``tree`` and each public method of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if (isinstance(method, kinds[:2])
                        and not method.name.startswith("_")):
                    yield f"{node.name}.{method.name}", method.name


class TestImportSurface:
    def test_import_repro_loads_no_subpackage(self):
        subpackages = set(PACKAGES) - {"repro"}
        loaded = _modules_after("import repro")
        assert [name for name in loaded
                if ".".join(name.split(".")[:2]) in subpackages] == []

    def test_serving_path_loads_no_offline_module(self):
        loaded = _modules_after("\n".join(f"import {m}" for m in SERVING))
        assert _under(loaded, OFFLINE) == []

    def test_serving_path_loads_no_reader_stack(self):
        """Sessions, the tracker and the scenario builders name the
        reader types only in annotations or inside the function that
        builds a deployment."""
        loaded = _modules_after("\n".join(f"import {m}" for m in SERVING))
        assert _under(loaded, READER_STACK) == []

    def test_campaign_loads_no_event_loop_or_process_pool(self):
        """The artifact cache imports only the event-loop-free part of
        :mod:`repro.faults`, and the pool machinery loads on the first
        sharded run."""
        loaded = _modules_after("\n".join(f"import {m}" for m in CAMPAIGN))
        assert _under(loaded, EVENT_LOOP_AND_POOL) == []

    def test_serving_stack_records_ungated(self):
        """The serving stack records into the process registry whether
        or not observation is on, so no module under ``repro.serve``
        or ``repro.gateway`` imports the ``active()`` gate."""
        gated = sorted(
            _module_name(path)
            for package in ("serve", "gateway")
            for path in (SRC / "repro" / package).rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.ImportFrom)
                and any(alias.name == "active" for alias in node.names))
            or (isinstance(node, ast.Attribute) and node.attr == "active"))
        assert gated == []

    def test_every_module_is_reached_from_an_entry_point(self):
        """A module only tests import is a test oracle or dead code."""
        reached = _reached()
        modules = {_module_name(path)
                   for path in (SRC / "repro").rglob("*.py")}
        unreached = sorted(modules - reached)
        assert not unreached, f"only tests import {', '.join(unreached)}"

    def test_every_public_definition_is_reached(self):
        """A public definition whose name no program code mentions is a
        test helper or dead code, even inside a reached module."""
        trees = {module: ast.parse(_source(module).read_text())
                 for module in _reached()}
        used = set()
        for module, tree in trees.items():
            used |= _uses(tree, module if _source(module).name
                          == "__init__.py" else "")
        for directory in ENTRY_DIRS:
            for path in (ROOT / directory).rglob("*.py"):
                used |= _uses(ast.parse(path.read_text()))
        unused = sorted(f"{module}.{qualified}"
                        for module, tree in trees.items()
                        for qualified, name in _definitions(tree)
                        if name not in used)
        assert not unused, (f"{len(unused)} definitions only tests use: "
                            + ", ".join(unused))

    def test_every_experiment_parameter_is_passed(self):
        """A default no call overrides is a constant of the protocol or
        of the serving stack: it belongs in the body, not in the
        signature."""
        passes = {}
        for directory in CALLER_DIRS:
            for path in (ROOT / directory).rglob("*.py"):
                for call in _calls(ast.parse(path.read_text())):
                    name = getattr(call.func, "id",
                                   getattr(call.func, "attr", None))
                    starred = (any(isinstance(argument, ast.Starred)
                                   for argument in call.args)
                               or any(keyword.arg is None
                                      for keyword in call.keywords))
                    passes.setdefault(name, []).append(
                        (len(call.args), {keyword.arg
                                          for keyword in call.keywords},
                         starred))
        paths = sorted(path for package in PARAMETER_PACKAGES
                       for path in (SRC / "repro" / package).glob("*.py"))
        paths.append(SRC / "repro" / "__init__.py")
        unpassed = [
            f"{_module_name(path)}.{node.name}({name})"
            for path in paths for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            for name, position in _defaulted(node)
            if not any(starred or name in keywords
                       or (position is not None and position < count)
                       for count, keywords, starred
                       in passes.get(node.name, ()))]
        assert not unpassed, (f"{len(unpassed)} parameters no call "
                              "passes: " + ", ".join(unpassed))


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
