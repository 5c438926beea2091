"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Covers the self-time arithmetic over nested and overlapping spans, the
percentile helper's refusal of thin tails, and a tiny-size smoke of every
workload: each emits every metric ``BENCHMARK.json`` names, with its unit,
and its traced and untraced runs give identical output digests.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import replays  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import wire  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: A seed without a pinned digest: tiny sizes change every output.
SMOKE_SEED = 990001


def span(name, start, end, parent=None):
    return tr.Span(name, float(start), float(end), parent, "r1")


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            span("root", 0, 10),
            span("a", 1, 4, parent=0),
            span("b", 3, 6, parent=0),  # overlaps a: [1, 6] covered once
            span("a.inner", 2, 3, parent=1),
        ]
        self.assertEqual(tr.self_times(spans), [5.0, 2.0, 3.0, 1.0])

    def test_child_outliving_its_parent_is_clipped(self):
        spans = [span("root", 0, 10), span("late", 8, 12, parent=0)]
        self.assertEqual(tr.self_time(spans, "root"), 8.0)

    def test_busy_counts_concurrent_spans_once(self):
        spans = [span("api", 0, 4), span("api", 2, 6), span("api", 8, 9)]
        self.assertEqual(tr.busy(spans, "api"), 7.0)
        self.assertEqual(tr.total(spans, "api"), 9.0)

    def test_descendants_at_any_depth(self):
        spans = [
            span("epoch", 0, 10),
            span("solve", 1, 9, parent=0),
            span("lp", 2, 3, parent=1),
            span("other", 11, 12),
        ]
        self.assertEqual([s.name for s in tr.descendants(spans, "epoch")], ["solve", "lp"])

    def test_shares_split_the_root_by_self_time(self):
        spans = [
            span("epoch", 0, 10),
            span("solve", 1, 9, parent=0),
            span("lp", 2, 5, parent=1),
            span("lp", 20, 30),  # outside any epoch: not counted
        ]
        self.assertEqual(run.shares(spans, "epoch"), {"epoch": 0.2, "lp": 0.3, "solve": 0.5})

    def test_tracer_links_parents_and_contexts(self):
        clock = iter(range(100)).__next__
        tracer = tr.Tracer(clock=clock)
        outer = tracer.begin("outer", ctx="epoch-3")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(outer)
        rows = tracer.export()
        self.assertEqual(rows[1][3], outer)
        self.assertEqual(rows[1][4], "epoch-3")
        self.assertEqual(tr.self_time(tracer.spans, "outer"), 2.0)


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            common.percentile(list(range(19)), 50)
        self.assertEqual(common.percentile(list(range(20)), 50), 9)
        with self.assertRaises(ValueError):
            common.percentile(list(range(999)), 99)
        self.assertEqual(common.percentile(list(range(1000)), 99), 989)

    def test_fastest_keeps_a_quarter_or_enough_in_order(self):
        times = [3.0, 1.0, 4.0, 1.5, 9.0, 2.0, 8.0, 7.0]
        self.assertEqual(common.fastest(times, float, lambda kept: True), [1.0, 1.5])
        self.assertEqual(
            common.fastest(times, float, lambda kept: len(kept) >= 4), [3.0, 1.0, 1.5, 2.0]
        )
        self.assertEqual(common.fastest(times, float, lambda kept: False), times)
        self.assertEqual(common.fastest([], float, lambda kept: True), [])


def _tiny(test):
    """Shrink every workload to seconds of work for the smoke tests."""
    patches = [
        mock.patch.object(common, "MIN_BEYOND", 0),
        mock.patch.object(run, "MIN_UNITS", 2),
        mock.patch.object(run, "MIN_EPOCHS", 1),
        mock.patch.object(run, "MIN_OPS", 1),
        mock.patch.object(run, "SETUP_SPAWNS", 1),
        mock.patch.object(replays, "TRACE_EPOCHS", 3),
        mock.patch.object(replays, "OPERATOR_EPOCHS", 4),
        mock.patch.object(replays, "OPERATOR_TENANTS", 4),
        mock.patch.object(wire, "OPEN_TENANTS", 32),
        mock.patch.object(wire, "ROUND_TENANTS", 16),
        mock.patch.object(wire, "MIN_ROUNDS_PER_SERVER", 1),
        mock.patch.object(wire, "WARMUP_TENANTS", 8),
    ]
    for patch in patches:
        patch.start()
        test.addCleanup(patch.stop)


class WorkloadSmokeTest(unittest.TestCase):
    def setUp(self):
        _tiny(self)

    def assert_metrics(self, outcome, section):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        emitted = {name: unit for name, (_, unit) in outcome.metrics.items()}
        self.assertEqual(emitted, expected)

    def check(self, workload, untraced, traced):
        self.assertEqual(untraced.problems, [], workload)
        self.assertEqual(traced.problems, [], workload)
        self.assert_metrics(untraced, "end_to_end")
        self.assert_metrics(traced, "per_layer")
        self.assertEqual(untraced.report["digest"], traced.report["digest"], workload)

    def test_replays(self):
        for workload in ("trace-benders", "operator-online"):
            with self.subTest(workload=workload):
                untraced = run.run_replay(workload, SMOKE_SEED, seconds=0.0)
                traced = run.trace_replay(workload, SMOKE_SEED)
                self.check(workload, untraced, traced)

    def test_wire(self):
        untraced = wire.run_untraced(SMOKE_SEED, seconds=0.0)
        traced = run.trace_wire(SMOKE_SEED)
        self.check("wire-mixed", untraced, traced)


if __name__ == "__main__":
    unittest.main()
