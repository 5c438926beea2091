"""wire-mixed: the broker over HTTP, loaded from this process.

The broker runs in a child process (:mod:`server_child`); this process
drives it through two ``BrokerClient`` connections, one per worker thread.
Tenant ``k`` belongs to epoch batch ``k // BATCH`` and runs: a tokened
submit, a replay of that token, a status read, a quote and -- for even
``k``, half the tenants -- a release of the still-queued request.  Once
every tenant of the next batch is done, the worker that notices advances
that epoch, which decides the batch's odd tenants.  Batches are therefore
fixed functions of the tenant inputs, and a fixed tenant count gives a
deterministic decision stream whichever worker runs which tenant.

Three servers, one after the other:

* closed loop -- both workers run tenants back to back (saturated
  throughput) in rounds of :data:`ROUND_TENANTS` tenants, one round after
  the other on one server, after an untimed warm-up round; this runs
  twice, on a server before and on one after the open loop.  Every round
  is the same work, and the closed-loop metrics come from the fastest
  timed rounds (:func:`common.fastest`): the host's slow phases only ever
  add time;
* open loop -- at a fixed rate of :data:`OPEN_LOAD` times the tenant rate
  the first server's rounds saturated at, tenant ``k`` is due at
  ``k / rate``; each of its requests is timed from when it was due (the
  first from the schedule, later ones from the end of the previous), so a
  stall is charged to every request it delays.  The phase is invalid when
  the generator falls behind its own schedule.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from common import Outcome, digest, fastest, fnum, percentile, pinned_digest

HERE = Path(__file__).resolve().parent

BATCH = 8
#: The open loop runs at this share of the closed loop's saturated tenant
#: rate, so it probes the same utilisation whatever the speed of the host
#: (at a fixed absolute rate, a slower host would queue more and its tail
#: latency would swing far more than its service times).  With only two
#: connections the generator stalls whenever both wait behind an
#: ``advance_epoch``; at half of saturation those stalls cascade often
#: enough to make the submit p99 swing by a third between runs.
OPEN_LOAD = 0.35
#: Share of the run's time given to the closed loop (half before the open
#: loop, half after); the open loop's fixed tenant count takes about the rest.
CLOSED_SHARE = 0.6
#: Open-loop tenant count (fixed, so the open loop's decisions are a
#: function of the seed alone).
OPEN_TENANTS = 540
#: Tenants of one closed-loop round: every round is the same amount of work.
ROUND_TENANTS = 80
#: Timed rounds per closed-loop server at least.  The run reports the
#: fastest rounds that hold 100 ``advance_epoch`` calls (a p90) and 1000
#: submits (a p99), at least the fastest quarter: here the fastest half.
MIN_ROUNDS_PER_SERVER = 10
MIN_ADVANCES = 100
MIN_SUBMITS = 1010
#: Untimed first round on each server (client and server warm-up).
WARMUP_TENANTS = 2 * BATCH
#: The open loop is invalid when its last quarter starts this late on average.
MAX_MEAN_LAG_S = 0.1
TEMPLATES = ("eMBB", "uRLLC", "mMTC")


def tenant_payload(seed: int, phase: str, k: int, first_epoch: int = 0) -> dict:
    from repro.api import SliceRequestV1

    rng = random.Random(f"{seed}:{phase}:{k}")
    return SliceRequestV1.of(
        f"{phase}-{k:06d}",
        rng.choice(TEMPLATES),
        duration_epochs=rng.randint(2, 3),
        penalty_factor=rng.choice((1.0, 2.0)),
        arrival_epoch=first_epoch + k // BATCH,
    ).to_dict()


class ServerProcess:
    """One broker server child: spawn, time until it serves, stop."""

    def __init__(self, traced: bool = False):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"), "1" if traced else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if not line:
            self.kill()
            raise RuntimeError("broker server child exited before serving")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.close()
        final = json.loads(self.proc.stdout.readline())
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)


@dataclass
class Op:
    kind: str
    due: float
    start: float
    end: float
    code: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.end - self.due) * 1e3

    @property
    def rtt_ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class PhaseResult:
    ops: list[Op]
    reports: list
    duration_s: float
    tenants: int
    lag_s: list[float]
    #: Requests made before the workers stopped (the flush advance excluded).
    loop_ops: int
    #: The server's next epoch once the phase is over.
    next_epoch: int
    problems: list[str] = field(default_factory=list)

    def rows(self) -> list:
        return [
            [r.epoch, list(r.accepted), list(r.rejected), fnum(r.objective_value)]
            for r in self.reports
        ]


class Phase:
    """Drive one server with two workers; see the module docstring."""

    def __init__(self, port: int, seed: int, name: str, *, tenants: int,
                 rate=None, first_epoch=0):
        self.port, self.seed, self.name = port, seed, name
        self.tenants, self.rate = tenants, rate
        #: The server's next epoch when the phase starts: phases can follow
        #: each other on one server.
        self.first_epoch = first_epoch
        self._taken = 0
        self._lock = threading.Lock()
        self._advance_lock = threading.Lock()
        self._done: dict[int, int] = {}
        self._next_epoch = first_epoch
        self.ops: list[Op] = []
        self.reports: list = []
        self.tickets: dict[str, object] = {}
        self.replays: dict[str, object] = {}
        self.states: dict[str, str | None] = {}
        self.lag_s: list[float] = []
        self.crashes: list[str] = []

    # -- one request --------------------------------------------------- #
    def _call(self, kind: str, due: float, fn, *args, **kwargs):
        from repro.api import BrokerConnectionError, BrokerError

        start = time.perf_counter()
        result, code = None, None
        try:
            result = fn(*args, **kwargs)
        except BrokerError as error:
            code = error.code
        except BrokerConnectionError:
            code = "connection"
        end = time.perf_counter()
        if kind == "advance" and result is not None and result.degraded:
            code = "degraded"
        with self._lock:
            self.ops.append(Op(kind, due if due is not None else start, start, end, code))
        return result, end

    # -- tenants and epochs -------------------------------------------- #
    def _tenant(self, client, k: int, due: float | None) -> None:
        payload = tenant_payload(self.seed, self.name, k, self.first_epoch)
        name, token = payload["name"], f"{self.name}-token-{k}"
        ticket, due = self._call("submit", due, client.submit, payload, client_token=token)
        replay, due = self._call("submit", due, client.submit, payload, client_token=token)
        status, due = self._call("read", due, client.status, name)
        _, due = self._call("read", due, client.quote, payload)
        if k % 2 == 0:
            self._call("release", due, client.release, name,
                       epoch=self.first_epoch + k // BATCH)
        with self._lock:
            self.tickets[name] = ticket
            self.replays[name] = replay
            self.states[name] = status.state if status is not None else None
            batch = k // BATCH
            self._done[batch] = self._done.get(batch, 0) + 1

    def _advance_ready(self, client, tenants_taken: int | None = None) -> None:
        """Advance every epoch whose batch is done, in order.

        With ``tenants_taken`` (after the workers stopped) the last, partial
        batch is advanced too.
        """
        if not self._advance_lock.acquire(blocking=tenants_taken is not None):
            return
        try:
            while True:
                epoch = self._next_epoch
                batch = epoch - self.first_epoch
                if tenants_taken is None:
                    if self._done.get(batch, 0) < BATCH:
                        return
                elif batch * BATCH >= tenants_taken:
                    return
                report, _ = self._call("advance", None, client.advance_epoch, epoch)
                self._next_epoch += 1
                if report is not None:
                    self.reports.append(report)
        finally:
            self._advance_lock.release()

    def _take(self) -> int | None:
        """The next tenant index, or ``None`` once the phase is over.

        Taken indices are contiguous and every taken tenant is run.
        """
        with self._lock:
            k = self._taken
            if k >= self.tenants:
                return None
            self._taken += 1
            return k

    def _worker(self, t0: float) -> None:
        from repro.api import BrokerClient

        try:
            with BrokerClient("127.0.0.1", self.port) as client:
                while True:
                    k = self._take()
                    if k is None:
                        return
                    due = None
                    if self.rate is not None:
                        due = t0 + k / self.rate
                        delay = due - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                        with self._lock:
                            self.lag_s.append(max(0.0, time.perf_counter() - due))
                    self._tenant(client, k, due)
                    self._advance_ready(client)
        except Exception:  # a crashed worker fails the output gate, with its traceback
            self.crashes.append(traceback.format_exc())

    def run(self) -> PhaseResult:
        from repro.api import BrokerClient

        t0 = time.perf_counter()
        workers = [
            threading.Thread(target=self._worker, args=(t0,), daemon=True)
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        duration = time.perf_counter() - t0
        loop_ops = len(self.ops)
        taken = self._taken
        with BrokerClient("127.0.0.1", self.port) as client:
            # Decide the last, partial batch; then read the event feed.
            self._advance_ready(client, tenants_taken=taken)
            events = self._drain_events(client)
        result = PhaseResult(self.ops, self.reports, duration, taken, self.lag_s, loop_ops,
                             next_epoch=self._next_epoch)
        result.problems = self._check(taken, events)
        return result

    @staticmethod
    def _drain_events(client) -> list:
        events, cursor = [], 0
        while True:
            page = client.events(cursor, limit=1000)
            events.extend(event for _, event in page)
            if page.next_cursor == cursor:
                return events
            cursor = page.next_cursor

    # -- output gate ---------------------------------------------------- #
    def _check(self, taken: int, events) -> list[str]:
        from repro.api import LifecycleEventKind

        problems = [f"{self.name}: a worker crashed: {crash}" for crash in self.crashes]
        names = [f"{self.name}-{k:06d}" for k in range(taken)]
        tickets = [self.tickets.get(name) for name in names]
        if any(ticket is None for ticket in tickets):
            problems.append(f"{self.name}: dropped tickets")
        elif len({ticket.ticket_id for ticket in tickets}) != taken:
            problems.append(f"{self.name}: duplicated ticket ids")
        if any(self.replays.get(name) != self.tickets.get(name) for name in names):
            problems.append(f"{self.name}: a token replay differs from its ticket")
        if any(self.states.get(name) != "queued" for name in names):
            problems.append(f"{self.name}: a tenant was not queued before its epoch")
        released = names[0::2]
        decided = 0
        for report in self.reports:
            first = (report.epoch - self.first_epoch) * BATCH
            batch = set(names[first + 1:first + BATCH:2])
            accepted, rejected = set(report.accepted), set(report.rejected)
            if accepted & rejected or not batch <= accepted | rejected:
                problems.append(f"{self.name}: epoch {report.epoch} misdecided its batch")
            decided += len(batch & (accepted | rejected))
        if decided != len(names[1::2]):
            problems.append(
                f"{self.name}: {decided} tenants decided, {len(names[1::2])} collected"
            )
        prefix = f"{self.name}-"
        delivered = [
            e.slice_name for e in events
            if e.kind is LifecycleEventKind.RELEASED and e.slice_name.startswith(prefix)
        ]
        if sorted(delivered) != sorted(released):
            problems.append(f"{self.name}: RELEASED events not delivered exactly once")
        failed = [op for op in self.ops if op.code is not None]
        if failed:
            problems.append(f"{self.name}: {len(failed)} failed requests ({failed[0].code})")
        return problems


def failures(ops) -> dict[str, int]:
    counts: dict[str, int] = {}
    for op in ops:
        if op.code is not None:
            counts[op.code] = counts.get(op.code, 0) + 1
    return counts


def closed_rounds(port: int, seed: int, server: str, seconds: float) -> list[PhaseResult]:
    """Closed-loop rounds of :data:`ROUND_TENANTS` tenants on one server.

    An untimed warm-up round comes first; timed rounds follow, one after
    the other on the same server, until ``seconds`` are spent and at least
    :data:`MIN_ROUNDS_PER_SERVER` rounds ran.  Returns the warm-up round
    first, then the timed rounds.
    """
    warmup = Phase(port, seed, f"{server}-warm", tenants=WARMUP_TENANTS).run()
    rounds, epoch, spent = [warmup], warmup.next_epoch, 0.0
    while spent < seconds or len(rounds) <= MIN_ROUNDS_PER_SERVER:
        result = Phase(port, seed, f"{server}-r{len(rounds)}", tenants=ROUND_TENANTS,
                       first_epoch=epoch).run()
        rounds.append(result)
        epoch, spent = result.next_epoch, spent + result.duration_s
    return rounds


def run_untraced(seed: int, seconds: float) -> Outcome:
    """The timed run: closed rounds, the open loop, closed rounds, each
    group on a fresh server.

    Closed-loop metrics come from the fastest timed rounds
    (:func:`common.fastest`); the open loop is reported in the detail.
    """
    setups, rss = [], []

    def serve(run_phase):
        server = ServerProcess()
        try:
            setups.append(server.setup_s)
            result = run_phase(server.port)
            rss.append(server.stop()["peak_rss_mb"])
            return result
        finally:
            server.kill()

    closed_s = max(1.0, seconds * CLOSED_SHARE / 2)
    first = serve(lambda port: closed_rounds(port, seed, "closed-a", closed_s))
    timed_a = first[1:]
    rate = OPEN_LOAD * sum(r.tenants for r in timed_a) / sum(r.duration_s for r in timed_a)
    open_ = serve(lambda port: Phase(port, seed, "open", tenants=OPEN_TENANTS, rate=rate).run())
    second = serve(lambda port: closed_rounds(port, seed, "closed-b", closed_s))
    timed = timed_a + second[1:]

    def enough(rounds):
        kinds = [op.kind for r in rounds for op in r.ops[:r.loop_ops]]
        return kinds.count("advance") >= MIN_ADVANCES and kinds.count("submit") >= MIN_SUBMITS

    kept = fastest(timed, lambda r: r.duration_s, enough)
    phases = (*first, open_, *second)
    problems = [problem for phase in phases for problem in phase.problems]
    tail = open_.lag_s[len(open_.lag_s) * 3 // 4:]
    mean_tail_lag = statistics.fmean(tail) if tail else 0.0
    if mean_tail_lag > MAX_MEAN_LAG_S:
        problems.append(
            f"open loop invalid: generator ran {mean_tail_lag * 1e3:.1f} ms late "
            f"on average over its last quarter (limit {MAX_MEAN_LAG_S * 1e3:.0f} ms)"
        )
    pinned = pinned_digest("wire-mixed", seed)
    out_digest = digest(open_.rows())
    if pinned is not None and pinned != out_digest:
        problems.append("wire-mixed: open-loop decisions differ from the pinned digest")
    kept_ops = [op for r in kept for op in r.ops[:r.loop_ops]]
    advances = [op.rtt_ms for op in kept_ops if op.kind == "advance"]
    submits = [op.rtt_ms for op in kept_ops if op.kind == "submit"]
    kept_s = sum(r.duration_s for r in kept)
    by_kind = {
        kind: [op.latency_ms for op in open_.ops if op.kind == kind]
        for kind in ("submit", "read")
    }
    all_ops = [op for phase in phases for op in phase.ops]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "epochs_per_s": (len(advances) / kept_s, "1/s"),
        "decision_p50_ms": (percentile(advances, 50), "ms"),
        "decision_p90_ms": (percentile(advances, 90), "ms"),
        "net_revenue": (-sum(r.objective_value for r in open_.reports), "units"),
        "ops_per_s": (len(kept_ops) / kept_s, "1/s"),
        "op_p50_ms": (percentile(submits, 50), "ms"),
        "op_p99_ms": (percentile(submits, 99), "ms"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    report = {
        "digest": out_digest,
        "pinned_digest": pinned,
        "closed_loop": {
            "round_tenants": ROUND_TENANTS, "timed_rounds": len(timed),
            "kept_round_s": [round(r.duration_s, 4) for r in kept],
            "slower_round_s": [round(r.duration_s, 4) for r in timed
                               if all(r is not k for k in kept)],
            "kept_requests": len(kept_ops), "connections": 2,
        },
        "open_loop": {
            "rate_tenants_per_s": rate, "tenants": open_.tenants,
            "requests": len(open_.ops),
            "seconds": open_.duration_s,
            "submit_p50_ms": percentile(by_kind["submit"], 50),
            "submit_p99_ms": percentile(by_kind["submit"], 99),
            "read_p50_ms": percentile(by_kind["read"], 50),
            "read_p99_ms": percentile(by_kind["read"], 99),
            "all_p50_ms": percentile([op.latency_ms for op in open_.ops], 50),
            "advance_p50_ms": percentile(
                [op.rtt_ms for op in open_.ops if op.kind == "advance"], 50),
            "generator_lag_p50_ms": percentile(open_.lag_s, 50) * 1e3,
            "generator_lag_max_ms": max(open_.lag_s) * 1e3,
            "generator_tail_mean_lag_ms": mean_tail_lag * 1e3,
            "valid": mean_tail_lag <= MAX_MEAN_LAG_S,
        },
        "failures": failures(all_ops),
        "server_setups_s": setups,
    }
    failed = sum(op.code is not None for op in all_ops)
    return Outcome(metrics, len(all_ops), failed, problems, report)


def run_fixed(seed: int, traced: bool):
    """The open loop's tenants, run as a closed loop.

    Decisions depend only on the tenants, so the output digest is the open
    loop's.  The traced run repeats this untraced, then traced.
    """
    server = ServerProcess(traced=traced)
    try:
        result = Phase(server.port, seed, "open", tenants=OPEN_TENANTS).run()
        final = server.stop()
    finally:
        server.kill()
    return result, final
