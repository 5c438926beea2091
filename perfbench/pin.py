"""Regenerate ``golden.json``: the output digests the benchmark's gate pins.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py

Pins, for seeds ``0 .. SEEDS-1``: the digest of unit 0's per-epoch
accepted/rejected sets and objective values (9 significant digits) for
trace-benders and operator-online, and wire-mixed's open-loop decision
digest.  Re-pin only for a change that is
meant to alter the program's decisions, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from common import GOLDEN_PATH, digest  # noqa: E402

SEEDS = 10


def main() -> int:
    import wire
    from replays import UNITS

    digests: dict[str, dict[str, str]] = {}
    for workload, make_unit in UNITS.items():
        digests[workload] = {str(seed): make_unit(seed).digest for seed in range(SEEDS)}
    digests["wire-mixed"] = {}
    for seed in range(SEEDS):
        result, _ = wire.run_fixed(seed, traced=False)
        if result.problems:
            raise SystemExit(f"wire-mixed seed {seed}: {result.problems}")
        digests["wire-mixed"][str(seed)] = digest(result.rows())
    GOLDEN_PATH.write_text(
        json.dumps({"schema": 1, "seeds": SEEDS, "digests": digests}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
