"""`python -m mlz ...` runs the command line, as the `mlz` script does."""

from .cli import main

main()
