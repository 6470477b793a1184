"""The package's module structure, read from its source with ``ast``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mqpure
from mqpure import evolution, sectors

PACKAGE = Path(mqpure.__file__).parent

# the sector engine's names, by the private names they had in evolution
MOVED = {
    "_Orbits": "Orbits",
    "_orbits": "orbits_of",
    "_state_permutation": "state_permutation",
    "_sector_reader": "sector_reader",
    "_momentum_blocks": "momentum_blocks",
    "_rotation_sign": "rotation_sign",
    "_QUARTER_TURNS": "QUARTER_TURNS",
    "_character": "character",
    "_Part": "Part",
    "_sector_groups": "sector_groups",
    "_sector_parts": "sector_parts",
    "_pair_parts": "pair_parts",
    "_add_part": "add_part",
    "_class_matrices": "class_matrices",
    "_elements": "elements",
}


def relative_imports(path: Path):
    """(module, name) of every name a source file imports from within the package."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                yield node.module, alias.name


def test_no_module_imports_a_private_name_of_another():
    private = [f"{path.name}: from .{module or ''} import {name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for module, name in relative_imports(path) if name.startswith("_")]
    assert private == []


def test_sectors_imports_only_spin_core():
    assert {module for module, _ in relative_imports(PACKAGE / "sectors.py")} == {"spin_core"}


def test_moved_names_live_only_in_sectors():
    assert [old for old in MOVED if hasattr(evolution, old)] == []
    assert [new for new in MOVED.values() if not hasattr(sectors, new)] == []


def test_the_command_line_loads_no_logging():
    # concurrent.futures loads logging, about 8 ms of every command's set-up;
    # filter-check's worker is a plain threading.Thread
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, mqpure.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "mqpure.cli" in loaded
    assert {"concurrent.futures", "logging"} & set(loaded) == set()
