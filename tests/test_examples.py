"""Smoke tests for the runnable examples and the tutorial.

The fast examples run end-to-end as subprocesses (the README promises they
work); the slow ones are import-checked for syntax/API drift.  The
tutorial's Python snippets run in order, as a reader would paste them.
"""

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


def test_every_example_is_listed():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(FAST_EXAMPLES + SLOW_EXAMPLES)


def test_tutorial_snippets_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", TUTORIAL.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for index, block in enumerate(blocks):
        exec(compile(block, f"{TUTORIAL.name} python block {index + 1}", "exec"), namespace)
