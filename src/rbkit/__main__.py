"""``python3 -m rbkit``: the ``rbkit`` command line from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
