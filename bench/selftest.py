"""Self-tests of the benchmark harness.  Run from the repository root:

    python3 bench/selftest.py

They check that generation is deterministic, that a failing op counts
as failed, that tracing changes no output and reaches every import site,
and that every metric name is well formed and matches BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracing
import workloads
from workloads import Context, Op

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
PKG = run.import_package()


def _tmpdir():
    """A temporary directory inside the checkout, removed afterwards."""
    run.OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT)


def _context(workload: str, seed: int, directory: Path):
    files = workloads.generate(workload, seed, directory)
    return files, Context(PKG, workloads.load_systems(workload, PKG, files))


class Generation(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in workloads.WORKLOADS:
            with _tmpdir() as a, _tmpdir() as b, _tmpdir() as c:
                first = workloads.generate(workload, 7, Path(a))
                again = workloads.generate(workload, 7, Path(b))
                other = workloads.generate(workload, 8, Path(c))
                read = lambda files: {k: Path(p).read_bytes() for k, p in files.paths.items()}
                self.assertEqual(read(first), read(again), workload)
                if workload != "symbolic":  # the symbolic system has no parameters
                    self.assertNotEqual(read(first), read(other), workload)


class Failures(unittest.TestCase):
    def test_failing_ops_count(self):
        with _tmpdir() as tmp:
            files, ctx = _context("sweep", 1, Path(tmp))
            monic = files.paths["monic"]

            def wrong(out, ctx):
                raise workloads.CheckFailed("deliberately wrong")

            ops = [
                Op("moments", workloads.expect_success,
                   argv=["moments", "--max", "3", "--system", monic, "--format", "records"]),
                Op("missing system file", workloads.expect_success,
                   argv=["lincoef", "--m", "1", "--n", "1", "--system", f"{tmp}/none.json"]),
                Op("raises", workloads.expect_success, call=lambda ctx: 1 / 0),
                Op("wrong output", wrong, argv=["moments", "--max", "2", "--system", monic]),
            ]
            tally = run.Tally(ops)
            for _ in range(2):
                tally.add([run.run_op(op, ctx) for op in ops], timed=True)
            tally.finish(ctx)
            self.assertEqual((tally.attempted, tally.failed), (8, 6))


class Tracing(unittest.TestCase):
    def test_traced_output_is_identical(self):
        for workload in workloads.WORKLOADS:
            with _tmpdir() as tmp:
                files, ctx = _context(workload, 3, Path(tmp))
                ops = workloads.ops(workload, files)
                plain = [run.run_op(op, ctx).digest for op in ops]
                tracer = tracing.Tracer(PKG)
                tracer.install()
                try:
                    traced = [run.run_op(op, ctx).digest for op in ops]
                finally:
                    tracer.uninstall()
                self.assertEqual(plain, traced, workload)
                self.assertGreater(tracer.entries["cli" if workload != "deep" else "weights.dp"], 0)

    def test_every_import_site_is_wrapped_and_restored(self):
        sites = [
            (PKG.cli, "path_sum_monic"), (PKG.cli, "load_system"),
            (PKG.weights, "enumerate_paths"), (PKG.positivity, "path_weight_mixed"),
            (PKG, "dp_sum"), (PKG.weights, "dp_sum"), (PKG.scalars.Poly, "__mul__"),
            (PKG.systems.AffineSeq, "at"),
        ]
        before = [vars(owner)[name] for owner, name in sites]
        tracer = tracing.Tracer(PKG)
        tracer.install()
        try:
            during = [vars(owner)[name] for owner, name in sites]
        finally:
            tracer.uninstall()
        after = [vars(owner)[name] for owner, name in sites]
        for (owner, name), b, d in zip(sites, before, during):
            self.assertIsNot(b, d, name)
            self.assertIs(d.__wrapped__, b, name)
        self.assertEqual(before, after)


class MetricNames(unittest.TestCase):
    def test_names_match_and_are_reported(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        declared = {
            0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]},
        }
        for names in declared.values():
            for name in names:
                self.assertRegex(name, NAME)
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", "symbolic",
                 "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, check=True, timeout=300,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            self.assertEqual(set(result["metrics"]), declared[trace])


if __name__ == "__main__":
    unittest.main()
