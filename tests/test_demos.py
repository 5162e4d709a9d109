"""Every demo script and the README's Python quickstart run to completion,
and every public name is one that they or the acceptance suite import."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import l1sketch

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def _readme_python_blocks():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)


def test_readme_quickstart_runs(tmp_path):
    blocks = _readme_python_blocks()
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3


def test_public_names_are_imported_by_readme_demos_or_acceptance():
    sources = _readme_python_blocks() + [
        path.read_text(encoding="utf-8") for path in [*DEMOS, ROOT / "tests" / "test_acceptance.py"]
    ]
    imported = {
        alias.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "l1sketch"
        for alias in node.names
    }
    public = {name: getattr(l1sketch, name) for name in l1sketch.__all__}
    errors = {
        name for name, obj in public.items() if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert errors  # the exception types are public without an import
    assert sorted(set(public) - imported - errors - {"__version__"}) == []
