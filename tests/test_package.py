"""Package-level surface tests: imports, exports, docstrings."""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

SUBPACKAGES = [
    "repro",
    "repro.sim",
    "repro.cluster",
    "repro.cache",
    "repro.core",
    "repro.press",
    "repro.web",
    "repro.traces",
    "repro.analytic",
    "repro.experiments",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol}"


def test_version():
    import repro

    assert repro.__version__


def test_public_classes_have_docstrings():
    from repro.cache import AgedLRU, BlockCache, FileLayout, GlobalDirectory
    from repro.cluster import Cluster, Disk, Node
    from repro.core import CoopCacheLayer, CoopCacheService
    from repro.press import FileCache, PressServer
    from repro.sim import ServiceCenter, Simulator
    from repro.web import ClosedLoopDriver, CoopCacheWebServer

    for cls in (AgedLRU, BlockCache, FileLayout, GlobalDirectory, Cluster,
                Disk, Node, CoopCacheLayer, CoopCacheService, FileCache,
                PressServer, ServiceCenter, Simulator, ClosedLoopDriver,
                CoopCacheWebServer):
        assert cls.__doc__, f"{cls.__name__} lacks a docstring"
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            assert getattr(member, "__doc__", None), (
                f"{cls.__name__}.{name} lacks a docstring"
            )



def _repro_env_names(*roots):
    """Every ``REPRO_*`` name used as a string constant under ``roots``:
    how the code names an environment variable it reads."""
    names = set()
    for root in roots:
        for path in (REPO / root).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)):
                    names.add(node.value)
    return names


def test_readme_documents_exactly_the_env_knobs():
    """README names every ``REPRO_*`` variable the program reads, and no
    variable that nothing reads any more."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"REPRO_[A-Z0-9_]*[A-Z0-9]", readme))
    assert _repro_env_names("src", "benchmarks") <= documented
    assert documented <= _repro_env_names("src", "benchmarks", "tests")
