"""``python3 -m covariants``: the command-line interface of ``covariants.cli``."""

import sys

from .cli import main

sys.exit(main())
