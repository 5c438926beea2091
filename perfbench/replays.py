"""The two in-process workloads: trace-benders and operator-online.

Each run repeats *units* -- one complete replay or simulation on inputs
drawn from ``(seed, unit index)``; unit 0 uses the seed itself.  Unit 0
warms the process up and is not timed; its output digest is the one the
output gate compares with ``golden.json``, and its yield is the run's
``net_revenue``.  Every unit is checked for invariants.
Decision and operation latencies are timed by wrapping the broker
instance's public methods (two clock reads per call), never by tracing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from common import digest, fnum

#: The golden small-block trace shape at the arrival rate of the benchmark.
TRACE_EPOCHS = 12
TRACE_ARRIVAL_RATE = 8.0
#: Online forecasting needs two 24-epoch seasons before Holt-Winters engages.
OPERATOR_EPOCHS = 60
OPERATOR_TENANTS = 12
OPERATOR_BASE_STATIONS = 6

FASTPATH_MARK = "warm fast path"
REPLAY_MARK = "replayed identical instance"
REUSE_MARK = "reused unchanged decision"


@dataclass
class Unit:
    """Measurements and outputs of one unit of work."""

    loop_s: float
    epoch_ms: list[float]
    #: Northbound calls made (submit, release, report_load, advance_epoch).
    ops: int
    #: Per call: ms from the call until the ``EpochReport`` that took it
    #: into account (the next ``advance_epoch`` returned).
    op_ms: list[float]
    failed: int
    revenue: float
    digest: str
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


def unit_seed(seed: int, index: int) -> int:
    return seed if index == 0 else int(digest([seed, index])[:8], 16)


class CallLog:
    """Times calls of wrapped bound methods, per operation kind, and each
    call's wait for the ``EpochReport`` that takes it into account."""

    def __init__(self):
        self.ms: dict[str, list[float]] = {}
        self.calls = 0
        self.to_report_ms: list[float] = []
        self._pending: list[float] = []

    def timed(self, kind: str, method, after=None, decides=False):
        """``method`` wrapped; ``decides`` marks the call that returns the
        report (``advance_epoch``), which settles every call since the last."""
        log = self.ms.setdefault(kind, [])

        def call(*args, **kwargs):
            started = time.perf_counter()
            result = method(*args, **kwargs)
            ended = time.perf_counter()
            log.append((ended - started) * 1e3)
            self.calls += 1
            self._pending.append(started)
            if decides:
                self.to_report_ms.extend((ended - s) * 1e3 for s in self._pending)
                self._pending.clear()
            if after is not None:
                after(args, kwargs, result)
            return result

        return call


def solver_counts(reports) -> dict[str, int]:
    """Decision-path counts read from the public ``EpochReport`` fields."""
    counts = {"epochs": 0, "idle": 0, "reuse": 0, "replay": 0, "fastpath": 0,
              "iterations": 0, "degraded": 0}
    for report in reports:
        counts["epochs"] += 1
        counts["iterations"] += report.solver_iterations
        counts["degraded"] += int(report.degraded)
        if report.idle:
            counts["idle"] += 1
        elif REUSE_MARK in report.solver_message:
            counts["reuse"] += 1
        elif REPLAY_MARK in report.solver_message:
            counts["replay"] += 1
        elif FASTPATH_MARK in report.solver_message:
            counts["fastpath"] += 1
    return counts


def epoch_rows(reports) -> list:
    return [
        [r.epoch, list(r.accepted), list(r.rejected), fnum(r.objective_value)]
        for r in reports
    ]


def check_reports(reports, submitted_by_epoch) -> list[str]:
    """Every epoch decides exactly the requests collected for it."""
    problems = []
    for report in reports:
        accepted, rejected = set(report.accepted), set(report.rejected)
        if accepted & rejected:
            problems.append(f"epoch {report.epoch}: slices both accepted and rejected")
        missing = submitted_by_epoch.get(report.epoch, set()) - accepted - rejected
        if missing:
            problems.append(f"epoch {report.epoch}: {len(missing)} submitted slices undecided")
        if report.degraded:
            problems.append(f"epoch {report.epoch}: degraded ({report.degraded_reasons})")
    return problems


def _instrument_broker(broker, log: CallLog, reports: list, submitted: dict) -> None:
    def on_submit(args, kwargs, ticket):
        request = args[0]
        submitted.setdefault(request.arrival_epoch, set()).add(request.name)

    broker.submit = log.timed("submit", broker.submit, on_submit)
    broker.release = log.timed("release", broker.release)
    broker.report_load = log.timed("report_load", broker.report_load)
    broker.advance_epoch = log.timed(
        "advance_epoch", broker.advance_epoch, lambda a, k, report: reports.append(report),
        decides=True,
    )


# ---------------------------------------------------------------------- #
# trace-benders
# ---------------------------------------------------------------------- #
def trace_spec():
    from repro.workloads.catalogue import SliceClass, TemplateCatalogue
    from repro.workloads.trace import TraceSpec

    catalogue = TemplateCatalogue(
        name="golden-block",
        classes=(
            SliceClass(name="embb-short", template="eMBB", elastic=True, weight=2.0,
                       duration_epochs=(2, 5), mean_fraction=0.4, relative_std=0.2),
            SliceClass(name="urllc-short", template="uRLLC", elastic=False, weight=1.0,
                       duration_epochs=(2, 4), mean_fraction=0.3, penalty_factor=2.0),
        ),
    )
    return TraceSpec(
        name="bench-block",
        catalogue=catalogue,
        horizon_epochs=TRACE_EPOCHS,
        arrival_rate=TRACE_ARRIVAL_RATE,
        day_profile=(1.0,) * 24,
        week_profile=(1.0,),
        early_release_probability=0.25,
        renewal_probability=0.4,
    )


def build_broker(seed: int):
    from repro.api import SliceBroker
    from repro.core.benders import BendersSolver
    from repro.topology import operators

    return SliceBroker(
        topology=operators.testbed_topology(), solver=BendersSolver(multi_cut=True)
    )


def trace_benders_unit(seed: int) -> Unit:
    from repro.workloads.replay import BrokerReplayDriver

    spec = trace_spec()
    broker = build_broker(seed)
    log, reports, submitted = CallLog(), [], {}
    _instrument_broker(broker, log, reports, submitted)
    started = time.perf_counter()
    BrokerReplayDriver(broker, spec, seed=seed).run()
    loop_s = time.perf_counter() - started
    return Unit(
        loop_s=loop_s,
        epoch_ms=list(log.ms["advance_epoch"]),
        ops=log.calls,
        op_ms=log.to_report_ms,
        failed=sum(r.degraded for r in reports),
        revenue=-sum(r.objective_value for r in reports),
        digest=digest(epoch_rows(reports)),
        problems=check_reports(reports, submitted),
        counts=solver_counts(reports),
    )


# ---------------------------------------------------------------------- #
# operator-online
# ---------------------------------------------------------------------- #
def build_simulation(seed: int):
    from repro.core.benders import BendersSolver
    from repro.core.slices import EMBB_TEMPLATE, URLLC_TEMPLATE
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.scenario import heterogeneous_scenario

    scenario = heterogeneous_scenario(
        "romanian", EMBB_TEMPLATE, URLLC_TEMPLATE,
        num_tenants=OPERATOR_TENANTS, fraction_b=0.5, num_epochs=OPERATOR_EPOCHS,
        num_base_stations=OPERATOR_BASE_STATIONS, seed=seed, forecast_mode="online",
    )
    return SimulationEngine(scenario, BendersSolver(multi_cut=True))


def operator_online_unit(seed: int) -> Unit:
    engine = build_simulation(seed)
    scenario = engine.scenario
    log, reports = CallLog(), []
    submitted = {0: {w.name for w in scenario.workloads}}
    _instrument_broker(engine.broker, log, reports, {})
    started = time.perf_counter()
    result = engine.run()
    loop_s = time.perf_counter() - started
    rows = epoch_rows(reports)
    for row, record in zip(rows, result.epoch_records):
        row.append(fnum(record.net_revenue))
    problems = check_reports(reports, submitted)
    if len(reports) != OPERATOR_EPOCHS:
        problems.append(f"{len(reports)} epochs run, expected {OPERATOR_EPOCHS}")
    return Unit(
        loop_s=loop_s,
        epoch_ms=list(log.ms["advance_epoch"]),
        ops=log.calls,
        op_ms=log.to_report_ms,
        failed=sum(r.degraded for r in reports),
        revenue=result.net_revenue,
        digest=digest(rows),
        problems=problems,
        counts=solver_counts(reports),
    )


#: What a unit builds before it runs: its set-up, timed in a fresh process.
BUILDS = {
    "trace-benders": build_broker,
    "operator-online": build_simulation,
}
UNITS = {
    "trace-benders": trace_benders_unit,
    "operator-online": operator_online_unit,
}
