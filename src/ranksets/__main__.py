"""``python -m ranksets``: run the command line of :mod:`ranksets.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
