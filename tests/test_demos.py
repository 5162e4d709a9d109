"""Every demo script and the README's Python quickstart run to completion,
every public name is one that they or the acceptance suite import, and
every module-level name in the package is used."""

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


def _imported_names(package_only: bool) -> set[str]:
    """Names that the README quickstart, the demos and the acceptance suite
    import from ``l1sketch`` (with ``package_only``) or from any of its
    modules."""
    sources = _readme_python_blocks() + [
        path.read_text(encoding="utf-8") for path in [*DEMOS, ROOT / "tests" / "test_acceptance.py"]
    ]
    return {
        alias.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module == "l1sketch" or not package_only and node.module.startswith("l1sketch."))
        for alias in node.names
    }


def test_public_names_are_imported_by_readme_demos_or_acceptance():
    imported = _imported_names(package_only=True)
    public = {name: getattr(l1sketch, name) for name in l1sketch.__all__}
    errors = {
        name for name, obj in public.items() if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert errors  # the exception types are public without an import
    assert sorted(set(public) - imported - errors - {"__version__"}) == []


def _defined_names(statement) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return {statement.target.id}
    return set()


def _used_names(statement) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_every_module_level_name_is_used():
    # a function, class or constant of the package is read somewhere in
    # src/ outside its own definition, or is public, or is imported by the
    # README quickstart, a demo or the acceptance suite; otherwise it is dead
    statements = [
        statement
        for path in sorted((ROOT / "src" / "l1sketch").glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    uses = [_used_names(statement) for statement in statements]
    kept = set(l1sketch.__all__) | _imported_names(package_only=False)
    dead = sorted(
        name
        for statement in statements
        for name in _defined_names(statement) - kept
        if not name.startswith("__")
        and not any(name in used for other, used in zip(statements, uses) if other is not statement)
    )
    assert dead == []


def test_package_imports_only_itself_numpy_and_the_standard_library():
    # src/ depends on numpy alone; scipy and hypothesis stay in the tests
    outside = sorted(
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "l1sketch").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.split(".")[0] not in {"l1sketch", "numpy"} | sys.stdlib_module_names
    )
    assert outside == []
