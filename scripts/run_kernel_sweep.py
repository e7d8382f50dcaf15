#!/usr/bin/env python3
"""Kernel suprema sweep over the order grid 0.1..0.9.

Writes out/phi_sweep.csv; pass --nu F (or a config file setting nu) for
one order, --quick for nu = 0.75 alone.
"""

import sys

from fracdg.cli import main

if __name__ == "__main__":
    sys.exit(main(["phi", *sys.argv[1:]]))
