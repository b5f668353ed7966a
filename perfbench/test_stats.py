"""Unit tests of the harness on fixed inputs: statistics, the wire
encoder and the reply checks.
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import run
import spread
import stats
import workloads


class Percentile(unittest.TestCase):
    def test_order_statistics(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(xs, 0.0), 1.0)
        self.assertEqual(stats.percentile(xs, 0.5), 3.0)
        self.assertEqual(stats.percentile(xs, 1.0), 5.0)

    def test_interpolates_between_ranks(self):
        # rank 0.9 * 3 = 2.7: 30 + 0.7 * (40 - 30)
        self.assertAlmostEqual(stats.percentile([10, 20, 30, 40], 0.9), 37.0)
        self.assertAlmostEqual(stats.median([10, 20, 30, 40]), 25.0)

    def test_single_value(self):
        self.assertEqual(stats.percentile([7.5], 0.9), 7.5)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 1.5)

    def test_samples_beyond_p90(self):
        # p90 sits at rank 0.9 * (n - 1): ten distinct samples beyond it
        # need n >= 92
        self.assertEqual(stats.beyond(list(range(100)), 0.9), 10)
        self.assertEqual(stats.beyond(list(range(92)), 0.9), 10)
        self.assertEqual(stats.beyond(list(range(91)), 0.9), 9)


class Spread(unittest.TestCase):
    def test_iqr_share(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(stats.iqr_share(xs), 5.5 / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.iqr_share([2.0] * 10), 0.0)


class Rate(unittest.TestCase):
    def test_rate(self):
        self.assertEqual(stats.rate(30, 1.5), 20.0)

    def test_empty_window_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.rate(3, 0.0)


class ClassPosition(unittest.TestCase):
    # two classes with disjoint latencies: 60 fast, 40 slow
    samples = [("fast", 0.010 + 0.0001 * i) for i in range(60)] + [
        ("slow", 0.100 + 0.001 * i) for i in range(40)
    ]

    def test_inside_a_class(self):
        self.assertEqual(stats.class_position(self.samples, 0.3), "fast")
        self.assertEqual(stats.class_position(self.samples, 0.9), "slow")

    def test_between_two_classes(self):
        # p60 interpolates across the gap between the classes
        self.assertIsNone(stats.class_position(self.samples, 0.597))


class SetCompare(unittest.TestCase):
    def test_worse_share_follows_the_direction(self):
        first, second = [1.0, 2.0, 3.0], [1.5, 2.2, 3.5]
        self.assertAlmostEqual(spread.worse_share(first, second, "lower"), 0.1)
        self.assertAlmostEqual(spread.worse_share(first, second, "higher"), -0.1)


class FixedRounds(unittest.TestCase):
    def test_seed_only_shuffles(self):
        # every round of every seed holds the same requests, apart from
        # serve-cached's never-seen miss, which moves on each round
        for wl in workloads.WORKLOADS.values():
            keys = []
            for seed in (1, 2):
                _, rounds = wl.start(seed)
                for ops in [next(rounds), next(rounds)]:
                    keys.append(sorted(op.key for op in ops if op.cls != "miss-shil-tanh"))
            self.assertTrue(all(k == keys[0] for k in keys), wl.name)


class WireForm(unittest.TestCase):
    # the bytes Api.Request.to_string gives for the same request
    def test_canonical_request(self):
        op = workloads.shil("tanh", 0.03, reduced=True)
        self.assertEqual(
            op.wire("r1"),
            '{"id":"r1","op":"shil","params":{"osc":"tanh","n":3,'
            '"vi":0.029999999999999999,"reduced":true}}')
        self.assertEqual(workloads.Op("ping", []).wire("p"), '{"id":"p","op":"ping"}')

    def test_numbers(self):
        self.assertEqual(workloads.encode(1024), "1024")
        self.assertEqual(workloads.encode(3.0e6), "3000000")
        self.assertEqual(workloads.encode(2e-8), "2e-08")
        self.assertEqual(workloads.encode(["t"]), '["t"]')


class ReplyCheck(unittest.TestCase):
    op = workloads.shil("tanh", 0.03)
    ref = run.REFERENCE[op.key]

    def report(self, lo, hi):
        return "injection band:  [%r, %r] Hz (delta = 1 Hz)\n" % (lo, hi)

    def test_band_within_tolerance(self):
        self.assertIsNone(run.check_report(self.op, self.report(self.ref["lo"], self.ref["hi"])))
        self.assertIsNone(run.check_report(
            self.op, self.report(self.ref["lo"] + 0.9 * self.ref["tol"], self.ref["hi"])))

    def test_band_off_reference(self):
        self.assertIsNotNone(run.check_report(
            self.op, self.report(self.ref["lo"] + 2 * self.ref["tol"], self.ref["hi"])))

    def test_missing_band(self):
        self.assertIsNotNone(run.check_report(self.op, "SHIL analysis: no band"))


if __name__ == "__main__":
    unittest.main()
