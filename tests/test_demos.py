"""Smoke tests of the package as shipped: every demo script runs to completion without a traceback, and the
package imports only the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clfmetrics

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr


def test_package_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"clfmetrics"}
    modules = sorted(Path(clfmetrics.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            outside += [f"{path}:{node.lineno}: {name}" for name in names if name.partition(".")[0] not in allowed]
    assert outside == []
