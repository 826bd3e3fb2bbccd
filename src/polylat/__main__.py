"""``python -m polylat``: the shell's command line."""

import sys

from .shell import main

if __name__ == "__main__":
    sys.exit(main())
