"""``python -m repro.lintkit`` dispatch."""

from repro.lintkit.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
