"""`python -m measengine`: the command-line front end, also from a source checkout."""

from .cli import entry

if __name__ == "__main__":
    entry()
