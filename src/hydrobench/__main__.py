"""``python -m hydrobench``: the same command line as the ``hydrobench`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
