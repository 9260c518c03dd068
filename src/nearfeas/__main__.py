"""``python -m nearfeas``: the command-line interface of ``nearfeas.cli``."""
import sys

from .cli import main

sys.exit(main())
