"""Every name a demo imports from virso_kit must exist, and the fast demos run.

Demo 03 trains a model for over half a minute, so it is only import-checked.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FAST_DEMOS = [d for d in DEMOS if d.name[:2] in ("01", "02", "04")]


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
    assert len(FAST_DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    names = list(_virso_imports(demo))
    assert names, f"{demo.name} imports nothing from virso_kit"
    for module, name in names:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{demo.name}: {module}.{name} does not exist"


@pytest.mark.parametrize("demo", FAST_DEMOS, ids=lambda p: p.name)
def test_fast_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{demo.name} failed:\n{proc.stderr}"
