"""``python -m nearfeas``: the command-line interface of ``nearfeas.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
