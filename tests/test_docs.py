"""Documentation health: the docs must track the code.

These tests keep README/DESIGN/EXPERIMENTS honest: referenced files
exist, the quickstart snippet uses real API names, the DESIGN
experiment index points at bench files that are actually there, and
every public module carries a docstring.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


class TestDocFilesExist:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ALGORITHM.md",
    ])
    def test_present_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), f"{name} missing"
        assert len(path.read_text()) > 500


class TestDesignIndex:
    def test_bench_targets_exist(self):
        """Every benchmarks/... path named in DESIGN.md must exist."""
        text = (ROOT / "DESIGN.md").read_text()
        targets = set(re.findall(r"`(benchmarks/[\w./]+\.py)`", text))
        assert targets, "DESIGN.md names no bench targets?"
        for target in targets:
            assert (ROOT / target).exists(), f"{target} referenced but missing"

    def test_module_references_exist(self):
        """Every src path mentioned in DESIGN.md exists."""
        text = (ROOT / "DESIGN.md").read_text()
        modules = set(re.findall(r"`(src/repro/[\w/]+/?)`", text))
        for module in modules:
            assert (ROOT / module).exists(), f"{module} missing"


class TestReadme:
    def test_quickstart_names_exist(self):
        import repro
        text = (ROOT / "README.md").read_text()
        snippet = re.search(r"```python\n(.*?)```", text, re.S).group(1)
        for name in re.findall(r"from repro import (.+)", snippet):
            for symbol in name.split(","):
                assert hasattr(repro, symbol.strip())

    def test_examples_listed_exist(self):
        text = (ROOT / "README.md").read_text()
        for example in re.findall(r"python (examples/[\w.]+\.py)", text):
            assert (ROOT / example).exists(), f"{example} missing"

    def test_mentions_paper(self):
        text = (ROOT / "README.md").read_text()
        assert "WiForce" in text
        assert "NSDI" in text


class TestModuleDocstrings:
    def test_every_module_documented(self):
        import repro
        missing = []
        for info in pkgutil.walk_packages(repro.__path__,
                                          prefix="repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ and len(module.__doc__.strip()) > 20):
                missing.append(info.name)
        assert not missing, f"undocumented modules: {missing}"

    def test_every_package_documented(self):
        import repro
        assert repro.__doc__ and "WiForce" in repro.__doc__


class TestExperimentsDoc:
    def test_every_paper_artifact_covered(self):
        """EXPERIMENTS.md must carry a row for every evaluated artefact."""
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for artefact in ("Fig. 4", "Fig. 5", "Figs. 7", "Fig. 10",
                         "Table 1", "Fig. 13", "Fig. 14", "Fig. 16",
                         "Fig. 17", "Fig. 18", "Fig. 19"):
            assert artefact in text, f"{artefact} missing from EXPERIMENTS.md"

    def test_deviations_documented(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert "Known deviations" in text
