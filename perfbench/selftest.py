"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root.  The file is not named test_*.py, so the
package's own pytest suite does not collect it.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import graphs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, pass_rng  # noqa: E402

lib = run.import_package()
SCRATCH = os.path.join(run.ROOT, ".perfbench", f"selftest-{os.getpid()}")
_DIRS = itertools.count()

COUNT_METRICS = [
    name
    for name, unit in tracing.PER_LAYER_UNITS.items()
    if unit == "count" or name.endswith("_max")
]


def setUpModule():
    os.makedirs(SCRATCH)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _workdir() -> str:
    path = os.path.join(SCRATCH, str(next(_DIRS)))
    os.makedirs(path)
    return path


def _read(paths: list[str]) -> list[bytes]:
    out = []
    for p in paths:
        with open(p, "rb") as fh:
            out.append(fh.read())
    return out


def _run(args: list[str], cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class Generation(unittest.TestCase):
    def test_same_seed_gives_byte_identical_gtf(self):
        wl = WORKLOADS["cli-explore"]
        texts = []
        for _ in range(2):
            texts.append(_read(wl.prepare(lib, wl.specs(pass_rng(wl.name, 7, 0)), _workdir())))
        self.assertEqual(texts[0], texts[1])
        other = wl.prepare(lib, wl.specs(pass_rng(wl.name, 8, 0)), _workdir())
        self.assertNotEqual(texts[0], _read(other))

    def test_every_workload_generates_the_same_specs_per_seed(self):
        for wl in WORKLOADS.values():
            first = wl.specs(pass_rng(wl.name, 3, 1))
            self.assertEqual(first, wl.specs(pass_rng(wl.name, 3, 1)), wl.name)
            self.assertNotEqual(first, wl.specs(pass_rng(wl.name, 3, 2)), wl.name)


class Reference(unittest.TestCase):
    def test_primes_are_prime_and_above_2_61(self):
        for p in reference.PRIMES:
            self.assertGreater(p, 2**61)
            # Fermat and strong-probable-prime tests to many bases
            for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
                self.assertEqual(pow(a, p - 1, p), 1)

    def test_mod_p_ranks_agree_with_the_package_on_small_graphs(self):
        rng = pass_rng("selftest", 0, 0)
        for h in range(1, 13):
            for spec in (
                graphs.random_out(h, 0, 3, rng),
                graphs.random_out(h, 0, 3, rng, loops=2),
                graphs.source_free(h, rng),
            ):
                g = lib.build_graph(spec.vertices, spec.edges)
                self.assertEqual(reference.reference_ranks(spec), lib.ibn_ranks(g))

    def test_closed_forms_agree_with_elimination(self):
        rng = pass_rng("selftest", 0, 1)
        for h in (2, 5, 17):
            for spec in (graphs.cycle(h, rng), graphs.chain(h, rng)):
                general = spec._replace(family="other")
                self.assertEqual(reference.reference_ranks(spec), (h - 1, h))
                self.assertEqual(reference.reference_ranks(general), (h - 1, h))


class SpeedScaling(unittest.TestCase):
    def test_scale_uses_the_median_probe_near_the_operation(self):
        log = speed.SpeedLog()
        log.starts = [0.0, 0.1, 0.2, 5.0, 5.1, 5.2]
        log.durations = [0.001, 0.002, 0.001, 0.004, 0.004, 0.009]
        ref = speed.REFERENCE_PROBE_S
        self.assertAlmostEqual(log.scale(0.15, 0.16), ref / 0.001)
        self.assertAlmostEqual(log.scale(5.05, 5.06), ref / 0.004)
        self.assertAlmostEqual(log.scale(2.0, 3.0), ref / 0.004)  # no probe near: the next one
        self.assertAlmostEqual(log.scale(9.0, 9.5), ref / 0.009)  # past the last probe

    def test_the_probe_is_not_counted_as_operation_time(self):
        run.PROCESS_START = time.perf_counter()
        wl = WORKLOADS["rank-sparse-ibn"]
        specs = [graphs.cycle(6, pass_rng("selftest", 6, 0))]
        items = wl.prepare(lib, specs, _workdir())
        tally = run.Tally()
        log = speed.SpeedLog()
        probe = speed.probe
        speed.probe = lambda: time.sleep(0.2)
        try:
            elapsed = run.run_pass(
                wl, lambda g: time.sleep(0.05) or lib.decide_ibn(g), specs, items, tally, 1.0,
                speed=log,
            )
        finally:
            speed.probe = probe
        self.assertEqual(len(log.durations), 2)  # before the first operation and after it
        self.assertGreaterEqual(min(log.durations), 0.2)
        self.assertLess(elapsed / 1e9, 0.15)
        self.assertEqual(tally.failed, 0)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(run.percentile(values, 0.5), 50.0)
        self.assertEqual(run.percentile(values, 0.9), 90.0)
        self.assertEqual(run.percentile([4.0], 0.9), 4.0)

    def test_p90_keeps_ten_samples_beyond_at_the_minimum_op_count(self):
        values = [float(v) for v in range(run.MIN_OPS)]
        p90 = run.percentile(values, 0.9)
        self.assertGreaterEqual(sum(v > p90 for v in values), 10)


class Failures(unittest.TestCase):
    """Every way an operation can fail is counted, by cause."""

    def setUp(self):
        run.PROCESS_START = time.perf_counter()  # the run deadline counts from here

    def _pass(self, wl, root, specs, timeout_s=run.OP_TIMEOUT_S):
        tally = run.Tally()
        items = wl.prepare(lib, specs, _workdir())
        run.run_pass(wl, root, specs, items, tally, timeout_s)
        return tally

    def test_wrong_verdict_counts_as_failure(self):
        wl = WORKLOADS["rank-sparse-ibn"]
        rng = pass_rng("selftest", 1, 0)
        specs = [graphs.cycle(6, rng), graphs.chain(6, rng)]

        def flipped(g):
            v = lib.decide_ibn(g)
            return v.__class__(not v.has_ibn, v.rank_m, v.rank_aug, v.witness)

        self.assertEqual(self._pass(wl, lib.decide_ibn, specs).failed, 0)
        tally = self._pass(wl, flipped, specs)
        self.assertEqual(dict(tally.failures), {"wrong-result": 2})
        self.assertFalse(tally.correct)

    def test_wrong_cli_rule_and_exit_code_count_as_failures(self):
        wl = WORKLOADS["cli-explore"]
        rng = pass_rng("selftest", 2, 0)
        # two loops and an edge to a sink: no IBN, so no rule may fire
        spec = graphs.Spec("other", ("a", "b"), (("l1", "a", "a"), ("l2", "a", "a"), ("e", "a", "b")))
        self.assertFalse(reference.has_ibn(reference.reference_ranks(spec)))

        def unsound(argv):
            code = lib.cli.main(argv)
            if argv[0] == "classify":
                sys.stdout.truncate(0)
                sys.stdout.seek(0)
                sys.stdout.write(json.dumps({"rule": "isolated-vertex", "evidence": {}}))
            return code

        self.assertEqual(self._pass(wl, lib.cli.main, [spec]).failed, 0)
        tally = self._pass(wl, unsound, [spec])
        self.assertEqual(dict(tally.failures), {"wrong-result": 1})
        tally = self._pass(wl, lambda argv: 70, [graphs.cycle(3, rng)])
        self.assertEqual(dict(tally.failures), {"exit-70": 1})

    def test_oracle_equality_on_an_ibn_graph_counts_as_failure(self):
        wl = WORKLOADS["oracle-small"]
        rng = pass_rng("selftest", 3, 0)
        spec = graphs.cycle(3, rng)
        fake = lib.RefuteResult(
            2, 1, lib.Equal(lib.RewriteTrace(), lib.RewriteTrace(), lib.MonoidVector({}))
        )
        tally = self._pass(wl, lambda g: fake, [spec])
        self.assertEqual(dict(tally.failures), {"wrong-result": 1})

    def test_exception_is_counted_by_type(self):
        wl = WORKLOADS["rank-sparse-ibn"]
        spec = graphs.cycle(4, pass_rng("selftest", 4, 0))

        def broken(g):
            raise RecursionError("deep")

        self.assertEqual(dict(self._pass(wl, broken, [spec]).failures), {"RecursionError": 1})

    def test_known_seed_defects_show_as_timeouts(self):
        rng = pass_rng("selftest", 5, 0)
        # dense elimination at h >= 1000
        wl = WORKLOADS["rank-sparse-ibn"]
        tally = self._pass(wl, lib.decide_ibn, [graphs.cycle(1000, rng)], timeout_s=0.5)
        self.assertEqual(dict(tally.failures), {"timeout": 1})
        self.assertTrue(tally.correct)
        self.assertGreaterEqual(tally.latencies_ms[0], 500.0)
        # exponential cycle enumeration in classify on a source-free graph
        wl = WORKLOADS["cli-explore"]
        specs = [graphs.source_free(64, rng)]
        tally = self._pass(
            wl,
            lambda argv: lib.cli.main(argv) if argv[0] == "classify" else 0,
            specs,
            timeout_s=0.5,
        )
        self.assertEqual(dict(tally.failures), {"timeout": 1})


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            ["root", 0, 100, -1, 1],
            ["a", 10, 30, 0, 1],
            ["b", 20, 50, 0, 1],  # overlaps a: union of children is 10..50
            ["c", 60, 70, 0, 1],
            ["d", 25, 28, 1, 1],
        ]
        self.assertEqual(tracing.self_times_ns(spans), [50, 17, 30, 10, 3])

    def test_wrappers_are_removed_after_the_traced_block(self):
        before = [getattr(m, a) for m, a, _, _ in tracing.wrapped_names(lib)]
        rec = tracing.Recorder()
        g = lib.build_graph(["a"], [("l1", "a", "a"), ("l2", "a", "a")])
        with tracing.Installed(rec, lib):
            lib.decide_ibn(g)
        self.assertEqual(before, [getattr(m, a) for m, a, _, _ in tracing.wrapped_names(lib)])
        names = {s[0] for s in rec.spans}
        self.assertIn("exact_linalg.augmented_ranks", names)
        self.assertIn("graph_monoid.replay_trace", names)

    def test_counts_repeat_exactly_across_two_runs(self):
        for name in WORKLOADS:
            counts = []
            for _ in range(2):
                proc = _run(["--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1"])
                self.assertEqual(proc.returncode, 0, proc.stderr)
                metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
                self.assertEqual(set(metrics), set(tracing.PER_LAYER_UNITS))
                counts.append({k: metrics[k]["value"] for k in COUNT_METRICS})
            self.assertEqual(counts[0], counts[1], name)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.PER_LAYER_UNITS
        )

    def test_untraced_run_prints_every_end_to_end_metric(self):
        proc = _run(["--workload", "oracle-small", "--seed", "2", "--seconds", "1", "--trace", "0"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))
        self.assertGreaterEqual(result["attempted"], run.MIN_OPS)
        self.assertTrue(result["correct"])
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_fails_without_the_program(self):
        bare = _workdir()
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "oracle-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
