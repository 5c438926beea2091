"""Shared helpers: percentiles, output digests, provenance and the result line."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output of the benchmark inside the checkout (spans, result log).
OUT_DIR = ROOT / ".perfbench"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Minimum number of samples a percentile needs strictly beyond it.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (``ValueError``) when fewer than :data:`MIN_BEYOND` samples lie
    beyond the percentile's rank: such a figure is one or two outliers, not
    a percentile.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def fastest(items, seconds_of, enough):
    """The fastest of ``items`` (units of the same work, ranked by
    ``seconds_of``), in their original order: the fastest quarter (rounded
    up), and then as many more, fastest first, as it takes until
    ``enough(kept)`` holds.

    The host's interference only ever adds time, and on a shared VM it
    comes in phases of seconds to minutes that cover a varying share of a
    run; the fastest units measure the program, the slower ones mostly
    that share.
    """
    ranked = sorted(range(len(items)), key=lambda i: seconds_of(items[i]))
    count = (len(items) + 3) // 4
    while count < len(items) and not enough([items[i] for i in ranked[:count]]):
        count += 1
    return [items[i] for i in sorted(ranked[:count])]


def fnum(value: float) -> float:
    """A float rounded to 9 significant digits, for output digests."""
    return float(f"{value:.9g}")


def digest(payload) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def pinned_digest(workload: str, seed: int) -> str | None:
    """The pinned output digest of ``workload`` under ``seed``, if any."""
    return load_golden()["digests"].get(workload, {}).get(str(seed))


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """Digest of the program's sources (``src/``), for checkouts without git."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> dict:
    """Where a result came from: code, host and library versions."""
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


#: Provenance keys that identify the host and toolchain; results that differ
#: in any of them are a cross-host comparison.
HOST_KEYS = ("cpu_model", "nproc", "python", "numpy", "scipy")


@dataclass
class Outcome:
    """What one workload run produced, before it becomes the result line."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


def emit(workload: str, seed: int, trace: bool, outcome: Outcome) -> None:
    """Print the detail line, log the result and print the result line last."""
    failed = outcome.attempted if not outcome.correct else outcome.failed
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "provenance": provenance(),
        "problems": outcome.problems,
        "failed_ratio": failed / outcome.attempted,
        **outcome.report,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as log:
        log.write(json.dumps({"time": time.time(), **detail, "result": result}) + "\n")
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
