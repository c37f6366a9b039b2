"""The real service binary with benchmark-owned span wrappers installed.

Usage: ``traced_server.py SPANS_OUT [repro-service arguments...]``

Installs the serving and simulation wrappers of :mod:`tracing`, then runs
``repro.service.cli.main`` unchanged.  Spans stay in memory and are written
to ``SPANS_OUT`` when the server drains on SIGTERM.  Only this process's
spans are kept: pool workers and simulation children inherit the wrappers
when they fork but exit without writing.
"""

import pathlib
import sys
from typing import List

import tracing


def main(argv: List[str]) -> int:
    from repro.service import cli

    log, patches = tracing.SpanLog(), tracing.Patches()
    tracing.install_service_tracing(log, patches)
    tracing.install_simulation_tracing(log, patches)
    try:
        return cli.main(argv[1:])
    finally:
        log.dump(pathlib.Path(argv[0]), patches.missing)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
