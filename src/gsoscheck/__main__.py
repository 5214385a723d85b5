"""``python -m gsoscheck``: the ``gsoscheck`` command line of ``cli.main``."""
import sys

from .cli import main

sys.exit(main())
