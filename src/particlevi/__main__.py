"""`python -m particlevi`: the command-line harness of `particlevi.cli`."""

from particlevi.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
