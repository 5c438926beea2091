"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload trace-benders --seed 0 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
repeats a fixed amount of the workload untraced and then traced (span
wrappers around every layer's public calls, see :mod:`tracer`) and reports
the per-layer metrics plus the tracing overhead.  Both modes run the output
gate: unit outputs are compared with ``golden.json`` where a digest is
pinned for the seed, and invariants are checked always.  The last stdout
line is the JSON result; the line before it carries the detail (provenance,
digests, per-kind latencies, layer shares).  Results are appended to
``.perfbench/results.jsonl`` and traced spans written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
from common import (  # noqa: E402
    OUT_DIR,
    Outcome,
    digest,
    emit,
    fastest,
    peak_rss_mb,
    percentile,
    pinned_digest,
)

WORKLOADS = ("trace-benders", "operator-online", "wire-mixed")
#: A run times at least this many units, and at least twice as many as
#: it reports (:func:`common.fastest`): the fastest quarter, or as many
#: fastest units as it takes to put this many decisions behind their p90.
MIN_UNITS = 8
MIN_EPOCHS = 110
#: The operations' p99 pools every timed unit (see :func:`run_replay`),
#: which must hold at least this many operations.
MIN_OPS = 1100
#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_SPAWNS = 3
#: Untraced/traced unit pairs a traced replay run times for the overhead.
TRACE_PAIRS = 3
#: Error codes of the broker's taxonomy, plus transport and epoch failures.
FAILURE_CODES = ("validation", "duplicate", "lifecycle", "solver", "capacity",
                 "not_found", "broker_error", "connection", "degraded")


# ---------------------------------------------------------------------- #
# In-process workloads
# ---------------------------------------------------------------------- #
def _unit_problems(workload: str, seed: int, index: int, unit) -> list[str]:
    problems = [f"unit {index}: {p}" for p in unit.problems]
    if index == 0:
        pinned = pinned_digest(workload, seed)
        if pinned is not None and pinned != unit.digest:
            problems.append(f"unit 0 output differs from the digest pinned for seed {seed}")
    return problems


def spawn_setup(workload: str, seed: int) -> float:
    """Seconds from spawning :mod:`setup_child` until it has built the workload."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{workload} set-up process failed")
    return elapsed


def run_replay(workload: str, seed: int, seconds: float) -> Outcome:
    from replays import UNITS, unit_seed

    make_unit = UNITS[workload]
    setups = [spawn_setup(workload, seed) for _ in range(SETUP_SPAWNS)]
    warmup = make_unit(seed)
    problems = _unit_problems(workload, seed, 0, warmup)

    def enough(kept):
        return sum(len(u.epoch_ms) for u in kept) >= MIN_EPOCHS

    timed, units = [], []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds or len(timed) < MIN_UNITS
           or not enough(units) or 2 * len(units) > len(timed)
           or sum(len(u.op_ms) for u in timed) < MIN_OPS):
        unit = make_unit(unit_seed(seed, len(timed) + 1))
        problems += _unit_problems(workload, seed, len(timed) + 1, unit)
        timed.append(unit)
        units = fastest(timed, lambda u: u.loop_s / len(u.epoch_ms), enough)
    ops = sum(u.ops for u in units)
    loop_s = sum(u.loop_s for u in units)
    decisions = [ms for u in units for ms in u.epoch_ms]
    op_ms = [ms for u in units for ms in u.op_ms]
    # An operation waits for its epoch's report together with the rest of
    # that epoch's calls, so a p99 needs many epochs behind it: more than
    # the fastest units hold.  It pools the operations of every timed unit.
    all_op_ms = [ms for u in timed for ms in u.op_ms]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "epochs_per_s": (len(decisions) / loop_s, "1/s"),
        "decision_p50_ms": (percentile(decisions, 50), "ms"),
        "decision_p90_ms": (percentile(decisions, 90), "ms"),
        "net_revenue": (warmup.revenue, "units"),
        "ops_per_s": (ops / loop_s, "1/s"),
        "op_p50_ms": (percentile(op_ms, 50), "ms"),
        "op_p99_ms": (percentile(all_op_ms, 99), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = {
        "timed_units": len(timed),
        "kept_units": len(units),
        "kept_unit_s": [round(u.loop_s, 4) for u in units],
        "slower_unit_s": [round(u.loop_s, 4) for u in timed
                          if all(u is not kept for kept in units)],
        "epochs": len(decisions),
        "ops": ops,
        "digest": warmup.digest,
        "pinned_digest": pinned_digest(workload, seed),
        "unit0_counts": warmup.counts,
        "setups_s": setups,
    }
    attempted = warmup.ops + sum(u.ops for u in timed)
    failed = warmup.failed + sum(u.failed for u in timed)
    return Outcome(metrics, attempted, failed, problems, report)


def _timed_unit(make_unit, seed: int, tracer=None):
    """One unit and its wall time, traced by ``tracer`` when one is given."""
    restore = tr.install(tracer) if tracer is not None else None
    try:
        started = time.perf_counter()
        unit = make_unit(seed)
        return unit, time.perf_counter() - started
    finally:
        if restore is not None:
            restore()


def trace_replay(workload: str, seed: int) -> Outcome:
    """Unit 0 untraced and traced, alternately :data:`TRACE_PAIRS` times.

    Per-layer metrics come from the first traced unit; the overhead from
    the median traced and untraced times.
    """
    from replays import UNITS

    make_unit = UNITS[workload]
    make_unit(seed)  # warm-up
    tracer = tr.Tracer()
    units, plain_s, traced_s = [], [], []
    for index in range(TRACE_PAIRS):
        unit, seconds = _timed_unit(make_unit, seed)
        units.append(unit)
        plain_s.append(seconds)
        unit, seconds = _timed_unit(make_unit, seed, tracer if index == 0 else tr.Tracer())
        units.append(unit)
        traced_s.append(seconds)
    plain, traced = units[0], units[1]
    problems = _unit_problems(workload, seed, 0, plain)
    if any(unit.digest != plain.digest for unit in units):
        problems.append("traced and untraced runs produced different outputs")
    spans = tracer.spans
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    metrics = layer_metrics(spans, traced.counts, overhead * 100.0)
    report = {
        "digest": traced.digest,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "self_shares_of_api.advance_epoch": shares(spans, "api.advance_epoch"),
        "spans_file": _dump(tracer.export(), workload, seed),
    }
    return Outcome(metrics, traced.ops, traced.failed, problems, report)


# ---------------------------------------------------------------------- #
# wire-mixed
# ---------------------------------------------------------------------- #
def trace_wire(seed: int) -> Outcome:
    import wire
    from replays import solver_counts

    plain, _ = wire.run_fixed(seed, traced=False)
    traced, final = wire.run_fixed(seed, traced=True)
    problems = plain.problems + traced.problems
    if digest(plain.rows()) != digest(traced.rows()):
        problems.append("traced and untraced runs produced different outputs")
    spans = tr.spans_from(final["spans"])
    handler_s = sum(
        s.end - s.start for s in spans if s.parent is None and s.name.startswith("api.")
    )
    rtt_s = sum(op.end - op.start for op in traced.ops)
    counts = solver_counts(traced.reports)
    overhead = traced.duration_s / plain.duration_s - 1.0
    metrics = layer_metrics(spans, counts, overhead * 100.0)
    metrics["api.wire.overhead_ms"] = ((rtt_s - handler_s) / len(traced.ops) * 1e3, "ms")
    for code, n in wire.failures(traced.ops).items():
        metrics[f"api.failed.{code}"] = (n, "count")
    report = {
        "digest": digest(traced.rows()),
        "tenants": traced.tenants,
        "requests": len(traced.ops),
        "untraced_s": plain.duration_s,
        "traced_s": traced.duration_s,
        "self_shares_of_api.advance_epoch": shares(spans, "api.advance_epoch"),
        "spans_file": _dump(final["spans"], "wire-mixed", seed),
    }
    return Outcome(metrics, len(traced.ops), sum(op.code is not None for op in traced.ops),
                   problems, report)


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
def layer_metrics(spans, counts: dict, overhead_pct: float) -> dict:
    def ms(seconds: float) -> float:
        return seconds * 1e3

    def busy_ms(name: str) -> tuple[float, str]:
        return ms(tr.busy(spans, name)), "ms"

    lp_calls = tr.count(spans, "core.lp")
    base = counts.get("epochs", 0) - counts.get("idle", 0) - counts.get("reuse", 0)
    fastpath = counts.get("fastpath", 0)
    metrics = {
        "core.lp.calls": (lp_calls, "count"),
        "core.lp.busy_ms": busy_ms("core.lp"),
        "core.lp.ms_per_call": (ms(tr.total(spans, "core.lp")) / lp_calls if lp_calls else 0.0, "ms"),
        "core.blocks.busy_ms": busy_ms("core.blocks"),
        "core.slave.busy_ms": busy_ms("core.slave"),
        "core.milp.calls": (tr.count(spans, "core.milp"), "count"),
        "core.milp.busy_ms": busy_ms("core.milp"),
        "core.cutpool.seed_ms": busy_ms("core.cutpool.seed"),
        "core.benders.busy_ms": busy_ms("core.benders"),
        "core.benders.iterations": (counts.get("iterations", 0), "count"),
        "core.fastpath.hits": (fastpath, "count"),
        "core.fastpath.base": (base, "count"),
        "core.fastpath.hit_ratio": (fastpath / base if base else 0.0, "ratio"),
        "core.replay.hits": (counts.get("replay", 0), "count"),
        "controlplane.reuse.hits": (counts.get("reuse", 0), "count"),
        "core.problem_build.busy_ms": busy_ms("core.problem_build"),
        "controlplane.run_epoch.busy_ms": busy_ms("controlplane.run_epoch"),
        "controlplane.run_epoch.self_ms": (ms(tr.self_time(spans, "controlplane.run_epoch")), "ms"),
        "controlplane.forecast.busy_ms": busy_ms("controlplane.forecast"),
        "forecasting.forecast.busy_ms": busy_ms("forecasting.forecast"),
        "controlplane.monitoring.busy_ms": busy_ms("controlplane.monitoring"),
        "controlplane.controllers.busy_ms": busy_ms("controlplane.controllers"),
        "dataplane.multiplex.busy_ms": busy_ms("dataplane.multiplex"),
        "simulation.revenue.busy_ms": busy_ms("simulation.revenue"),
        "api.submit.busy_ms": busy_ms("api.submit"),
        "api.read.busy_ms": busy_ms("api.read"),
        "api.release.busy_ms": busy_ms("api.release"),
        "api.advance_epoch.busy_ms": busy_ms("api.advance_epoch"),
        "api.advance_epoch.self_ms": (ms(tr.self_time(spans, "api.advance_epoch")), "ms"),
        "api.wire.overhead_ms": (0.0, "ms"),
        "workloads.trace.busy_ms": busy_ms("workloads.trace"),
        "topology.path_sets_ms": busy_ms("topology.path_sets"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for code in FAILURE_CODES:
        metrics[f"api.failed.{code}"] = (0, "count")
    return metrics


def shares(spans, root: str) -> dict[str, float]:
    """Self time of each layer inside ``root`` spans (the root's own included),
    as a share of the root's busy time: where a decision's time goes."""
    root_busy = tr.busy(spans, root)
    if not root_busy:
        return {}
    inside = {id(span) for span in tr.descendants(spans, root)}
    own: dict[str, float] = {}
    for span, seconds in zip(spans, tr.self_times(spans)):
        if span.name == root or id(span) in inside:
            own[span.name] = own.get(span.name, 0.0) + seconds
    return {name: round(seconds / root_busy, 4) for name, seconds in sorted(own.items())}


def _dump(rows: list, workload: str, seed: int) -> str:
    """Write the spans out once the run is over; return the file's path."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"spans": rows}))
    return str(path.relative_to(HERE.parent))


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "wire-mixed":
        import wire

        outcome = trace_wire(args.seed) if args.trace else wire.run_untraced(args.seed, args.seconds)
    elif args.trace:
        outcome = trace_replay(args.workload, args.seed)
    else:
        outcome = run_replay(args.workload, args.seed, args.seconds)
    emit(args.workload, args.seed, bool(args.trace), outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
