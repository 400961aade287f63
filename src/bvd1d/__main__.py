"""`python -m bvd1d`: the same command line as the `bvd1d` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
