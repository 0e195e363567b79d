"""Fresh-process set-up: imports, load_config and make_family, then exit.

Usage: python3 setup_probe.py <repo root> <config.json>
The caller times this process from launch to exit.
"""

import sys

sys.path.insert(0, sys.argv[1] + "/src")

from cyflab.cli import load_config  # noqa: E402
from cyflab.models import make_family  # noqa: E402

make_family(load_config(sys.argv[2])["spec"])
