"""orthopath benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

Usage, from the repository root::

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 bench/selftest.py

The workloads (``sweep``, ``deep``, ``symbolic``) are described in
``workloads.py``.  One run generates the workload's system files from
the seed, measures set-up, then drives orthopath in-process through
``orthopath.cli.main`` and the package's public functions, one op after
the other in a single thread (a closed loop with one caller), pass
after pass over the workload's op list until ``--seconds`` of passes are
spent.  The first pass's outputs are checked against independent
references, outside the timed region; every later pass must reproduce
its bytes.  A failed op is one that exits nonzero, raises, prints a
traceback or fails its check.

End-to-end metrics (``--trace 0``):

* ``run_s``: wall seconds of one pass over the op list, median of passes;
* ``instance_p50_ms`` / ``instance_p99_ms``: latency of one streamed
  instance, from timestamps taken as stdout lines are written; each
  pass's percentile, median over passes.  ``sweep`` streams about 1,100
  instances a pass, so a pass's p99 has at least ten beyond it; on
  ``deep`` and ``symbolic`` an instance is one op and p99 is in effect
  the slowest op;
* ``peak_rss_mb``: peak resident memory of this process;
* ``setup_s``: importing orthopath and loading the workload's system
  files in a fresh interpreter, median over several starts.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py`` instead, plus the tracing overhead
(``trace.overhead_s``: traced minus untraced ``run_s``) and the share of
the traced pass that the layers' self times cover (``trace.coverage``).
Spans are written to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it say the
same for a reader, with ``failed_frac``, each op's stdout sha256 and the
outcome of any known-defect probe.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict, List, Optional

import tracing
import workloads
from workloads import CheckFailed, Context, Op, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
SETUP_STARTS = 25

# Run in a fresh interpreter per start; prints its own elapsed seconds.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import orthopath, orthopath.cli
for path in sys.argv[2:]:
    orthopath.load_system(path)
print(time.perf_counter() - t0)
"""

# The layers' source files, for the least-code trajectory.
SLOC_FILES = ("cli", "oracle", "weights", "paths", "positivity", "systems", "scalars")


class _StampedWriter:
    """A stdout that remembers when each line was finished."""

    def __init__(self) -> None:
        self.parts: List[str] = []
        self.line_ends: List[float] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        if "\n" in text:
            now = time.perf_counter()
            self.line_ends.extend([now] * text.count("\n"))
        return len(text)

    def flush(self) -> None:
        pass


def run_op(op: Op, ctx: Context) -> Outcome:
    out, err = _StampedWriter(), io.StringIO()
    rc: Optional[int] = None
    value, error = None, ""
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op.argv is not None:
                rc = ctx.pkg.cli.main(op.argv)
            else:
                value, rc = op.call(ctx), 0
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the op failed; the benchmark records it and goes on
        error = traceback.format_exc()
    end = time.perf_counter()
    return Outcome(rc, "".join(out.parts), err.getvalue(), start, end,
                   out.line_ends, value, error)


class Tally:
    """Failures, digests and instance latencies accumulated over passes.

    Passes are compared by digest as they finish; the first pass's outputs
    are kept and checked against the references only in ``finish``, after
    the last pass, so that the references' memory stays out of
    ``peak_rss_mb``.
    """

    def __init__(self, ops: List[Op]) -> None:
        self.ops = ops
        self.first: List[Outcome] = []
        self.digests: List[str] = []
        self.passes = 0
        self.differs = [0] * len(ops)
        self.failures: List[str] = []
        self.latencies: List[List[float]] = []   # per timed pass

    def add(self, outs: List[Outcome], timed: bool) -> None:
        if not self.first:
            self.first, self.digests = outs, [out.digest for out in outs]
        else:
            for i, out in enumerate(outs):
                if out.failed or out.digest != self.digests[i]:
                    self.differs[i] += 1
                    self.failures.append(f"{self.ops[i].name}: exit {out.rc}; "
                                         "output differs from the first pass")
        self.passes += 1
        if timed:
            self.latencies.append([t for op, out in zip(self.ops, outs)
                                   for t in op.instances(out)])

    def finish(self, ctx: Context) -> None:
        """Check the first pass; an op whose output is wrong fails in every
        pass that reproduced it."""
        for i, (op, out) in enumerate(zip(self.ops, self.first)):
            try:
                op.check(out, ctx)
            except Exception as exc:  # any error reading the output fails the op
                self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                self.differs[i] = self.passes

    @property
    def attempted(self) -> int:
        return self.passes * len(self.ops)

    @property
    def failed(self) -> int:
        return sum(self.differs)

    @property
    def stdout_bytes(self) -> int:
        return sum(len(out.stdout.encode()) for out in self.first)

    @property
    def result_bits(self) -> int:
        return sum(workloads.result_bits(out)
                   for out, failed in zip(self.first, self.differs) if not failed)


def _quantile(per_pass: List[List[float]], pct: int) -> float:
    """Median over passes of each pass's ``pct``-th percentile."""
    return statistics.median(
        statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        if len(values) > 1 else values[0]
        for values in per_pass
    )


def measure_setup(files: List[str]) -> List[float]:
    """Set-up seconds of fresh interpreters; the first start is a warm-up
    that leaves the bytecode cache behind, as a user's second start would."""
    times = []
    for _ in range(SETUP_STARTS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), *files],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        )
        times.append(float(done.stdout))
    return times[1:]


def import_package():
    sys.path.insert(0, str(SRC))
    import orthopath
    import orthopath.cli  # noqa: F401  (binds orthopath.cli)

    if SRC not in Path(orthopath.__file__).resolve().parents:
        raise ImportError(f"orthopath was imported from {orthopath.__file__}, not {SRC}")
    return orthopath


def sloc(module: str) -> int:
    """Non-blank lines that are not comments."""
    text = (SRC / "orthopath" / f"{module}.py").read_text()
    return sum(1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#"))


def layer_metrics(tracer: tracing.Tracer, seconds: float) -> Dict[str, float]:
    """Per-layer figures of one traced pass."""
    self_s = tracer.self_s
    entries = tracer.entries
    return {
        "cli.self_s": self_s["cli"],
        "oracle.calls": entries["oracle"],
        "oracle.self_s": self_s["oracle"],
        "oracle.vector_terms": tracer.vector_terms,
        "weights.enum.calls": entries["weights.enum"],
        "weights.enum.self_s": self_s["weights.enum"],
        "weights.paths_weighted": tracer.calls_matching("weights.path_weight_"),
        "weights.dp.calls": entries["weights.dp"],
        "weights.dp.self_s": self_s["weights.dp"],
        "paths.calls": entries["paths"],
        "paths.self_s": self_s["paths"],
        "paths.enumerated": tracer.paths_enumerated,
        "positivity.self_s": self_s["positivity"],
        "positivity.cert_rows": tracer.cert_rows,
        "systems.lookups": sum(tracer.calls[f"systems.{cls}.at"] for cls in (
            "ExplicitSeq", "AffineSeq", "ConstantSeq", "SymbolicSeq", "ShiftedSeq")),
        "systems.self_s": self_s["systems"],
        "scalars.poly_ops": entries["scalars.poly"],
        "scalars.poly_s": self_s["scalars.poly"],
        "scalars.poly_terms_max": tracer.poly_terms_max,
        "scalars.format_s": self_s["scalars.format"],
        "trace.run_s": seconds,
        "trace.coverage": sum(self_s.values()) / seconds,
    }


# Metric names and units are declared once, in BENCHMARK.json.
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
}


def measure(workload: str, seed: int, seconds: float, traced: bool, ctx: Context,
            files: workloads.Files) -> dict:
    ops = workloads.ops(workload, files)
    tally = Tally(ops)
    plain: List[float] = []
    per_pass: List[Dict[str, float]] = []
    tracers: List[tracing.Tracer] = []
    spent = 0.0
    while True:
        times = plain + [m["trace.run_s"] for m in per_pass]
        if len(times) >= MIN_PASSES and spent + max(times) > seconds:
            break
        # in a traced run, every second pass is traced
        tracer = tracing.Tracer(ctx.pkg) if traced and len(plain) > len(per_pass) else None
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            outs = [run_op(op, ctx) for op in ops]
            took = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        spent += took
        tally.add(outs, timed=tracer is None)
        if tracer:
            per_pass.append(layer_metrics(tracer, took))
            tracers.append(tracer)
        else:
            plain.append(took)
        del outs

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.finish(ctx)
    probe_ops = workloads.probes(workload, files)
    probe_failures = []
    for op in probe_ops:
        out = run_op(op, ctx)
        try:
            op.check(out, ctx)
        except CheckFailed as exc:
            probe_failures.append(f"{op.name}: {exc}".splitlines()[0])

    run_s = statistics.median(plain)
    if traced:
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics.update({
            "cli.stdout_bytes": tally.stdout_bytes,
            "cli.probe_failures": len(probe_failures),
            "scalars.result_bits": tally.result_bits,
            "trace.overhead_s": metrics["trace.run_s"] - run_s,
            **{f"{name}.sloc": sloc(name) for name in SLOC_FILES},
        })
        _write_spans(workload, seed, tracers)
    else:
        metrics = {
            "run_s": run_s,
            "instance_p50_ms": 1000 * _quantile(tally.latencies, 50),
            "instance_p99_ms": 1000 * _quantile(tally.latencies, 99),
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "tally": tally, "metrics": metrics, "passes": len(plain), "traced_passes": len(per_pass),
        "probe_failures": probe_failures, "probes": len(probe_ops),
    }


def _write_spans(workload: str, seed: int, tracers: List[tracing.Tracer]) -> None:
    with open(OUT / f"trace-{workload}-seed{seed}.jsonl", "w") as fh:
        for index, tracer in enumerate(tracers):
            for rec in tracer.span_records():
                fh.write(json.dumps({"pass": index, **rec}) + "\n")


def report(args, result: dict) -> int:
    tally: Tally = result["tally"]
    metrics = result["metrics"]
    failed = tally.failed
    print(f"orthopath benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={result['passes']} traced_passes={result['traced_passes']}")
    for op, digest in zip(tally.ops, tally.digests):
        print(f"  op {op.name}: stdout sha256 {digest}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    for name, value in metrics.items():
        print(f"  {name:24} {value:.6g} {UNITS[name]}")
    if not args.trace:
        print(f"  {'instances':24} {len(tally.latencies[0])} a pass, "
              f"percentiles are medians over {len(tally.latencies)} passes")
        print(f"  {'setup starts':24} {SETUP_STARTS}")
    print(f"  {'failed_frac':24} {failed / tally.attempted:.6g} fraction "
          f"({failed} of {tally.attempted} ops)")
    probes, probe_failed = result["probes"], result["probe_failures"]
    if probes:
        print(f"  {'failed_frac with probes':24} "
              f"{(failed + len(probe_failed)) / (tally.attempted + probes):.6g} fraction")
        for line in probe_failed:
            print(f"  known-defect probe failed: {line}")
    correct = not tally.failures
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        files = workloads.generate(args.workload, args.seed, tmp)
        setup = measure_setup(list(files.paths.values()))
        pkg = import_package()
        ctx = Context(pkg, workloads.load_systems(args.workload, pkg, files))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), ctx, files)
        if not args.trace:
            result["metrics"]["setup_s"] = statistics.median(setup)
        return report(args, result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.splitlines() or ["{}"]
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        except (json.JSONDecodeError, KeyError):
            print(done.stderr, file=sys.stderr)
        total["correct"] &= done.returncode == 0
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orthopath" / "__init__.py").is_file():
        print(f"error: no orthopath sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
