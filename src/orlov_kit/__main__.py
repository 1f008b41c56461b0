"""``python -m orlov_kit <command> ...``: the ``orlov-kit`` command line."""

import sys

from .cli import main

sys.exit(main())
