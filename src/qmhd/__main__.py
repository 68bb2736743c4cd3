"""``python -m qmhd``: the ``qmhd`` command line without the installed script."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
