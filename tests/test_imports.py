"""Every name a module of src/qcanon imports is used in that module.  A name
imported only so that other code can import it from there is a re-export:
import it from the module that defines it instead."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qcanon"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of `source` (`__future__`
    aside) that no expression of it reads, annotations included."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_all_modules_found():
    assert {"cli", "reference", "verify"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_finds_a_re_export():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Sequence\n"
              "from .diagrams import ZeroBlockError, block_map as bm\n"
              "def f(lam: Sequence[int]):\n"
              "    return bm(lam)\n")
    assert unused_imports(source) == ["ZeroBlockError", "os"]
