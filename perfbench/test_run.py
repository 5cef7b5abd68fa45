"""Tests of the benchmark's own arithmetic, parsers and checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            run.median([])

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.percentile(xs, 900), 90)
        self.assertEqual(run.percentile(xs, 500), 50)
        self.assertEqual(run.percentile([7], 990), 7)

    def test_p90_needs_100_samples(self):
        self.assertEqual(run.highest_percentile(list(range(100)))[0], 900)
        self.assertEqual(run.highest_percentile(list(range(99)))[0], 750)

    def test_a_percentile_needs_10_samples_beyond_it(self):
        self.assertIsNone(run.highest_percentile(list(range(19))))
        self.assertEqual(run.highest_percentile(list(range(20))), (500, 9))
        self.assertEqual(run.highest_percentile(list(range(1000)))[0], 990)
        self.assertEqual(run.highest_percentile(list(range(10000)))[0], 999)


class Normalization(unittest.TestCase):
    def test_times_scale_by_the_reference_around_them(self):
        refs = iter([0.1, 0.3, 0.4])
        host = run.HostSpeed(reference=lambda: next(refs))
        host.last = float("inf")  # no reference run between records
        host.record("regen", 2.0)
        host.record("regen", 4.0)
        host.probe()
        host.record("setup", 1.0)
        host.close()
        self.assertEqual(host.raw("regen"), [2.0, 4.0])
        # The reference around both regenerations averages 0.2 s, the
        # one around the set-up 0.35 s.
        self.assertEqual([round(x, 9) for x in host.normalized("regen")],
                         [2.0 * run.REFERENCE_S / 0.2, 4.0 * run.REFERENCE_S / 0.2])
        self.assertAlmostEqual(host.normalized("setup")[0], run.REFERENCE_S / 0.35)
        self.assertEqual(len(host.refs), 3)

    def test_close_adds_a_reference_only_when_one_is_missing(self):
        host = run.HostSpeed(reference=lambda: 0.2)
        host.close()
        self.assertEqual(len(host.refs), 1)


def span(start, end, parent=None):
    return {"start_ns": start, "end_ns": end, "parent": parent}


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [span(0, 100), span(10, 40, 0), span(50, 60, 0), span(15, 20, 1)]
        self.assertEqual(run.self_times(spans), [60, 25, 10, 5])

    def test_overlapping_children_count_once(self):
        # Children on two threads overlap; their union is 10..60.
        spans = [span(0, 100), span(10, 40, 0), span(30, 60, 0)]
        self.assertEqual(run.self_times(spans)[0], 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(10, 20), span(5, 15, 0)]
        self.assertEqual(run.self_times(spans), [5, 10])

    def test_appended_spans_keep_their_parents(self):
        spans = [span(0, 10), span(1, 2, 0)]
        run.append_spans(spans, [span(20, 30), span(21, 22, 0)])
        self.assertEqual([s["parent"] for s in spans], [None, 0, None, 2])

    def test_descendants(self):
        spans = [dict(span(0, 9), name="section.a"), dict(span(0, 1, 0), name="x"),
                 dict(span(10, 20), name="reexec.a"), dict(span(10, 15, 2), name="x"),
                 dict(span(11, 12, 3), name="y"), dict(span(20, 30), name="reexec.b")]
        self.assertEqual(run.descendants(spans, "reexec."), {3, 4})
        self.assertEqual(run.descendants(spans, "missing"), set())


TRAILER = """running with 1 jobs, replay engine
run pool: 16 keys, 16 captures, 0 disk loads, 1 grid hits, 104 MiB
trace store: 64 hits, 0 demotions, 0 evictions, peak 104 MiB
robustness: 0 retried, 0 degraded, 0 over deadline; 0 stale rejected, 0 quarantined, 0 io retries, 0 write failures, persistence on
"""

DRAIN = """serving sweeps on 127.0.0.1:40123; SIGTERM or `probranch-client 127.0.0.1:40123 --shutdown` drains
service: 210 requests (3 coalesced), 1 shed, 2 cancelled, 4 failed; drained, 0 pending traces flushed
"""


class Parsers(unittest.TestCase):
    def test_trailer(self):
        self.assertEqual(run.parse_trailer(TRAILER), {
            "keys": 16, "captures": 16, "disk_loads": 0, "store_hits": 64, "grid_hits": 1,
            "pool_peak_mb": 104, "retried_cells": 0, "degraded_cells": 0})

    def test_incomplete_trailer_is_refused(self):
        with self.assertRaises(ValueError):
            run.parse_trailer(TRAILER.split("robustness")[0])

    def test_drain_line(self):
        self.assertEqual(run.parse_drain(DRAIN), {
            "requests": 210, "coalesced": 3, "shed": 1, "cancelled": 2, "failed": 4})
        with self.assertRaises(ValueError):
            run.parse_drain(DRAIN.splitlines()[0])

    def test_bound_address(self):
        self.assertEqual(run.BOUND_LINE.search(DRAIN).group(1), "127.0.0.1:40123")


class Checks(unittest.TestCase):
    def test_digest_mismatch_is_a_failed_operation(self):
        tally = run.Tally()
        tally.record("regen", run.output_problems(b"changed", run.digest(b"recorded")))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("digest", tally.errors[0])

    def test_matching_output_passes_and_a_bad_exit_fails(self):
        tally = run.Tally()
        tally.record("regen", run.output_problems(b"same", run.digest(b"same")))
        tally.record("regen", run.output_problems(b"same", run.digest(b"same"), exit_code=3))
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(tally.errors, ["regen: exit code 3"])

    def test_count_problems(self):
        counts = run.parse_trailer(TRAILER)
        self.assertEqual(run.count_problems(counts, run.COLD_COUNTS), [])
        self.assertEqual(run.count_problems(counts, run.WARM_COUNTS),
                         ["captures = 16, want 0", "disk_loads = 0, want 64"])


if __name__ == "__main__":
    unittest.main()
