"""Tests of the benchmark itself: oracles, span recorder, metric lists.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

cli = run.import_mumkit()
import mumkit  # noqa: E402
from mumkit.series import TruncSeries  # noqa: E402


def small_solve_job(workdir: Path) -> workloads.Job:
    fam = workloads.QUINTIC
    (workdir / "ops").mkdir()
    (workdir / "out").mkdir()
    ops = workloads._ops_file(workdir, "small", [fam])
    return workloads._job("small", ["solve", "--file", ops, "--trunc", 12],
                          workloads._solve_oracle(fam, 12))


def corrupting(main):
    """cli.main that adds 1 to one coefficient of f in the report it writes."""
    def corrupted(argv):
        status = main(argv)
        out = Path(argv[argv.index("--out") + 1])
        doc = json.loads(out.read_text())
        doc["results"][0]["f"][3] = str(Fraction(doc["results"][0]["f"][3]) + 1)
        out.write_text(json.dumps(doc))
        return status
    return corrupted


class OracleTest(unittest.TestCase):
    def run_small(self, main):
        def body(workdir):
            runner = run.JobRunner(types.SimpleNamespace(main=main),
                                   [small_solve_job(workdir)])
            runner.run_once()
            runner.run_once()
            return runner
        return run.in_workdir(body)

    def test_clean_reports_pass(self):
        runner = self.run_small(cli.main)
        self.assertEqual((runner.attempted, runner.failed), (2, 0), runner.problems)

    def test_corrupted_coefficient_gives_failed_share(self):
        runner = self.run_small(corrupting(cli.main))
        self.assertGreater(runner.failed / runner.attempted, 0)
        self.assertIn("f differs from the closed form", runner.problems[0])

    def test_digest_ignores_timing_only(self):
        doc = {"results": [1], "timing_ms": 5}
        same = workloads.report_digest({"results": [1], "timing_ms": 9})
        self.assertEqual(workloads.report_digest(doc), same)
        self.assertNotEqual(workloads.report_digest({"results": [2], "timing_ms": 5}), same)

    def test_closed_forms(self):
        self.assertEqual(workloads.QUINTIC.f(3), [1, 120, 113400])
        self.assertEqual(workloads.QUINTIC.g(2), [0, 770])
        self.assertEqual(workloads.QUINTIC.q(4), [0, 1, 770, 1014275])

    def test_seed_picks_the_inputs(self):
        def inputs(seed):
            def body(workdir):
                jobs = workloads.build_jobs("mirror", seed, workdir)
                files = sorted((workdir / "ops").iterdir())
                return [job.argv for job in jobs], [f.read_text() for f in files]
            return run.in_workdir(body)
        self.assertEqual(inputs(1), inputs(1))
        self.assertEqual(len({str(inputs(seed)) for seed in range(1, 6)}), 5)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return float(next(self.ticks))


class RecorderTest(unittest.TestCase):
    def test_nested_self_time(self):
        rec = spans.Recorder(FakeClock([0, 1, 3, 4, 7, 10]))
        inner = rec.wrap("series.inner", lambda: None)
        outer = rec.wrap("cli.outer", lambda: (inner(), inner()))
        outer()
        self.assertEqual(spans.self_times(rec), [5.0, 2.0, 3.0])
        layers = spans.layer_metrics(rec, wall_s=10.5, untraced_s=10.0)
        self.assertEqual(layers["cli.self_s"], 5.0)
        self.assertEqual(layers["series.self_s"], 5.0)
        self.assertEqual(layers["series.busy_s"], 5.0)
        self.assertEqual(layers["cli.busy_s"], 10.0)
        self.assertEqual(layers["trace.outside_s"], 0.5)
        self.assertAlmostEqual(layers["trace.overhead_share"], 0.05)

    def test_jobs_do_not_mix(self):
        rec = spans.Recorder(FakeClock(range(100)))
        inner = rec.wrap("series.inner", lambda: None)
        outer = rec.wrap("cli.outer", lambda: inner())
        for job in (0, 1, 2):
            rec.job = job
            outer()
        roots = [i for i in range(len(rec.name)) if rec.parent[i] < 0]
        self.assertEqual([rec.job_of[i] for i in roots], [0, 1, 2])
        for i in range(len(rec.name)):
            if rec.parent[i] >= 0:
                self.assertEqual(rec.job_of[i], rec.job_of[rec.parent[i]])
        self.assertEqual(rec.stack, [])

    def test_span_closes_when_the_call_raises(self):
        rec = spans.Recorder(FakeClock(range(10)))

        def boom():
            raise ValueError

        with self.assertRaises(ValueError):
            rec.wrap("cli.boom", boom)()
        self.assertEqual((rec.stack, list(rec.end)), ([], [1.0]))

    def test_tracer_wraps_every_binding_site_and_restores(self):
        sites = [
            (mumkit.solve, "uniform_part"),
            (mumkit.frobtransfer, "uniform_part"),
            (mumkit, "uniform_part"),
            (mumkit.cli, "main"),
        ]
        methods = [(TruncSeries, "__mul__"), (TruncSeries, "__rmul__"),
                   (TruncSeries, "from_coeffs")]
        before = [getattr(m, a) for m, a in sites] + [vars(c)[a] for c, a in methods]
        rec = spans.Recorder()
        with spans.Tracer(rec):
            during = [getattr(m, a) for m, a in sites] + [vars(c)[a] for c, a in methods]
            op = mumkit.monicize(mumkit.builtin("quintic"), 6)
            mumkit.frobtransfer.uniform_part(op, 6)
        after = [getattr(m, a) for m, a in sites] + [vars(c)[a] for c, a in methods]
        self.assertTrue(all(b is a for b, a in zip(before, after)))
        self.assertTrue(all(b is not d for b, d in zip(before, during)))
        names = {rec.names[i] for i in rec.name}
        self.assertIn("solve.uniform_part", names)
        self.assertIn("series.TruncSeries.__mul__", names)
        layers = spans.layer_metrics(rec, wall_s=1.0, untraced_s=1.0)
        self.assertEqual(layers["solve.max_order"], 6)
        own = sum(layers[f"{m}.self_s"] for m in spans.MODULES)
        roots = sum(rec.end[i] - rec.start[i] for i in range(len(rec.name)) if rec.parent[i] < 0)
        self.assertAlmostEqual(own, roots, places=9)


class MetricListTest(unittest.TestCase):
    def test_benchmark_json_lists_what_the_runs_print(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, spans.metric_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
