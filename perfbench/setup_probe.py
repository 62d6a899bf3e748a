"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: ``python3 setup_probe.py <src-dir> <problem-file>...``

Imports qshift from ``<src-dir>``, reads and parses every problem file and
builds its critical locus, then prints ``ready <n>``.  The parent times the
whole child, interpreter start-up included.
"""

import sys
from pathlib import Path


def main(argv):
    sys.path.insert(0, argv[1])
    import qshift  # noqa: F401  (the package import is part of set-up)
    from qshift import cli

    for path in argv[2:]:
        cli.parse_problem(Path(path).read_text()).crit_locus()
    print(f"ready {len(argv) - 2}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
