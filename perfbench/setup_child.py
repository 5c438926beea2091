"""Set-up probe of the in-process workloads.

Usage: ``python3 perfbench/setup_child.py <workload> <seed>``.  Imports the
program, builds the workload's broker or engine exactly as a unit does
(:data:`replays.BUILDS`), prints ``ready`` and exits.  ``run.py`` times it
from spawn to that line: interpreter start, imports, topology and path
sets, and the build itself -- what a user pays before the first epoch.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from replays import BUILDS  # noqa: E402


def main() -> int:
    BUILDS[sys.argv[1]](int(sys.argv[2]))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
