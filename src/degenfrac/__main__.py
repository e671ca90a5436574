"""``python -m degenfrac``: the command-line front end without installation."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
