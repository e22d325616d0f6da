"""`python -m ulpsim`: the same command line as the `ulpsim` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
