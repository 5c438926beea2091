"""Compare two sets of benchmark results, flagging a comparison across hosts.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records as ``run.py`` appends them to
``.perfbench/results.jsonl`` (copy the file aside between the two sides).
For every (workload, trace mode, metric) it prints each side's median,
quartile spread (as a share of the median) and the change of the median.
Records whose host or toolchain differ (CPU model, ``nproc``, Python,
numpy, scipy) are flagged: their difference is not the code's alone.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import HOST_KEYS  # noqa: E402


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def hosts(records) -> set[tuple]:
    return {tuple(r["provenance"].get(key) for key in HOST_KEYS) for r in records}


def grouped(records) -> dict[tuple, list[float]]:
    values: dict[tuple, list[float]] = {}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            key = (record["workload"], record["trace"], name)
            values.setdefault(key, []).append(metric["value"])
    return values


def summary(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    base, new = load(argv[1]), load(argv[2])
    base_hosts, new_hosts = hosts(base), hosts(new)
    if len(base_hosts | new_hosts) > 1:
        print("CROSS-HOST comparison: the sides ran on different hosts or toolchains:")
        for host in sorted(base_hosts | new_hosts, key=str):
            print("  ", dict(zip(HOST_KEYS, host)))
    old_values, new_values = grouped(base), grouped(new)
    print(f"{'workload':16} {'t':1} {'metric':32} {'base':>12} {'spread':>7} "
          f"{'new':>12} {'spread':>7} {'change':>8}")
    for key in sorted(old_values.keys() & new_values.keys()):
        (b, b_spread), (n, n_spread) = summary(old_values[key]), summary(new_values[key])
        change = (n - b) / abs(b) if b else 0.0
        print(f"{key[0]:16} {key[1]:1} {key[2]:32} {b:12.5g} {b_spread:7.1%} "
              f"{n:12.5g} {n_spread:7.1%} {change:+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
