"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e``.

The benchmark's modules are scripts beside ``run.py``, imported by file
name; the library comes from ``src``.
"""

import pathlib
import sys

E2E = pathlib.Path(__file__).resolve().parent.parent
ROOT = E2E.parent.parent
for path in (ROOT / "src", E2E):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
