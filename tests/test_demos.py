"""The demos keep up with the library: every name a demo imports from
basinlab exists, and the quickest demos run to exit 0: 01, 03, and 04,
which calls all three critical searches."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import basinlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def basinlab_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name of each `from basinlab... import` in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "basinlab" for alias in node.names]


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_imported_names_resolve(demo):
    # checked without running the demo: most take seconds to minutes
    imports = basinlab_imports(demo)
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("name", ["01_volume_scaling", "03_two_part_code",
                                  "04_compression_thresholds"])
def test_quick_demo_exits_0(name):
    src = str(Path(basinlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    demo = next(p for p in DEMOS if p.stem == name)
    run = subprocess.run([sys.executable, str(demo)], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout
