"""Every name a demo imports from virso_kit must exist; no demo is run."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _virso_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("virso_kit"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("virso_kit"):
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    names = list(_virso_imports(demo))
    assert names, f"{demo.name} imports nothing from virso_kit"
    for module, name in names:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{demo.name}: {module}.{name} does not exist"
