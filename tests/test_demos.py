"""Every narrative demo runs to completion against the current API."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridexplore

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_package_exports_resolve_and_cover_the_demo_imports():
    """Every name in gridexplore.__all__ is an attribute of the package, and
    every name a demo imports from gridexplore is in __all__."""
    exported = gridexplore.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(gridexplore, name)] == []
    imported = {alias.name for demo in DEMOS for node in ast.walk(ast.parse(demo.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "gridexplore"
                for alias in node.names}
    assert imported and sorted(imported - set(exported)) == []
