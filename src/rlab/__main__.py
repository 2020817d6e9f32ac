"""``python -m rlab``: the same command line as the ``rlab`` script."""
from .cli import entry

if __name__ == "__main__":
    entry()
