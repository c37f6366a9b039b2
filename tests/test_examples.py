"""Smoke tests for the runnable examples and the tutorial.

The fast examples run end-to-end as subprocesses (the README promises they
work); every example is compiled and each name it imports from ``repro``
is resolved, so syntax or API drift in the slow ones fails here too.  The
tutorial's Python snippets run in order, as a reader would paste them.
"""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
TUTORIAL = EXAMPLES_DIR.parent / "docs" / "tutorial.md"

FAST_EXAMPLES = ["quickstart.py", "interweave_beamforming.py"]
SLOW_EXAMPLES = [
    "overlay_relay_testbed.py",
    "underlay_multihop_image.py",
    "network_lifetime.py",
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) > 5


@pytest.mark.parametrize("name", FAST_EXAMPLES + SLOW_EXAMPLES)
def test_example_compiles(name):
    path = EXAMPLES_DIR / name
    source = path.read_text()
    compile(source, str(path), "exec")


def _repro_imports(path):
    """``(module, name)`` for each ``from repro... import name`` in a file."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "repro"
        for alias in node.names
    ]


@pytest.mark.parametrize("name", FAST_EXAMPLES + SLOW_EXAMPLES)
def test_example_imports_resolve(name):
    imports = _repro_imports(EXAMPLES_DIR / name)
    assert imports
    for module, attr in imports:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_every_example_is_listed():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(FAST_EXAMPLES + SLOW_EXAMPLES)


def test_tutorial_snippets_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", TUTORIAL.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for index, block in enumerate(blocks):
        exec(compile(block, f"{TUTORIAL.name} python block {index + 1}", "exec"), namespace)
