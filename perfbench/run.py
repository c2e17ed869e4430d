#!/usr/bin/env python3
"""slatkit benchmark: time to verdict per CLI command, end to end and per layer.

    python3 perfbench/run.py --workload ladder|ontology|mixed --seed N \
        --seconds S --trace 0|1

One client drives the workload in a closed loop from this process: the
next command starts when the previous one has returned. Every command
goes through slatkit.cli.main(argv), so each measurement covers parse,
engine and output formatting, without interpreter start-up; setup_s
counts start-up once. The loop runs whole passes over the workload's
fixed command mix until about S seconds have gone by, checking every
output outside the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 spends half the time
untraced and half with timing wrappers on every layer (see tracing.py),
prints the per-layer metrics, and repeats one traced pass in a child
process under another hash seed: output bytes must match, and counters
that differ are counted in trace.count_mismatches.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
SETUP_REPEATS = 9
P90_MIN_SAMPLES = 100          # at least ten samples beyond the 90th percentile
REPLAY_TIMEOUT_S = 120


def _reference_kernel() -> int:
    """Fixed pure-Python work (hashing, dicts, sorting, recursion), about
    0.2 ms; it never changes, so its speed is the speed of the host."""
    def depth(t):
        return 1 + max((depth(x) for x in t if isinstance(x, tuple)), default=0)

    counts: dict = {}
    for i in range(50):
        key = (i % 37, str(i % 11), ((i % 5,),))
        counts[key] = counts.get(key, 0) + depth(key)
    return len({k[0] for k in sorted(counts, key=lambda k: (k[1], k[0]))})


class SpeedGauge:
    """Scales measured times to a reference speed of the host.

    The benchmark host is shared, and its speed drifts by up to 2x within
    seconds. The gauge is read (best of three kernel runs) between
    consecutive timed regions, outside them; a region's time is reported
    as measured x REFERENCE_S / (mean of the readings just before and just
    after it), i.e. in seconds of a host on which the kernel takes
    REFERENCE_S.
    """

    REFERENCE_S = 0.0002

    def __init__(self):
        self.last = self._read()

    @staticmethod
    def _read() -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _reference_kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def scale_after(self) -> float:
        """Read the gauge after a timed region; the scale for that region."""
        before, self.last = self.last, self._read()
        return 2 * self.REFERENCE_S / (before + self.last)


def _load_program():
    """Import slatkit afresh, so that every setup pays the import."""
    for name in [m for m in sys.modules if m == "slatkit" or m.startswith("slatkit.")]:
        del sys.modules[name]
    return importlib.import_module("slatkit.cli")


def _write_inputs(workload, work: Path, copies) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, text in workload.files.items():
        (work / name).write_text(text, encoding="utf-8")
    for name in copies:
        shutil.copyfile(DATA / name, work / name)


@contextlib.contextmanager
def _cwd(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_command(cli, cmd):
    """Run one command in process; returns exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(cmd.argv))
        except SystemExit as e:
            code = e.code
        except Exception:
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def setup(args, work: Path):
    """Import, generate and write the inputs, warm up; returns (cli, mix)."""
    cli = _load_program()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    traced = args.trace == 1
    mix = workloads.traced_mix(workload) if traced else workload.commands
    _write_inputs(workload, work, workloads.all_copies() if traced else workload.copies)
    with _cwd(work):
        for cmd in workload.warmup:
            run_command(cli, cmd)
    _settle_heap()
    return cli, mix


def _settle_heap() -> None:
    """Move every live object out of the collector's reach, so that a
    command's collections scan only what it allocates, as in a fresh CLI
    process, and not the benchmark's own growing state."""
    gc.collect()
    gc.freeze()


class Run:
    """Closed-loop measurement over whole passes of a command mix."""

    def __init__(self, cli, mix, checker, gauge: SpeedGauge, tracer=None):
        self.cli, self.mix, self.checker, self.tracer = cli, mix, checker, tracer
        self.gauge = gauge
        self.latencies = {kind: [] for kind in workloads.KINDS}   # reference seconds
        self.raw = {kind: [] for kind in workloads.KINDS}         # as measured
        self.by_command: dict[tuple, list[float]] = {}
        self.busy = 0.0
        self.attempted = self.failed = self.passes = 0
        self.problems: list[str] = []
        self.pass_counts: list[dict] = []
        self.digest = ""

    def measure(self, seconds: float, work: Path) -> "Run":
        start = time.perf_counter()
        with _cwd(work):
            while True:
                self._one_pass()
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / self.passes / 2 >= seconds:
                    return self

    def _one_pass(self) -> None:
        tracer = self.tracer
        before = dict(tracer.counts) if tracer else {}
        sha = hashlib.sha256()
        for cmd in self.mix:
            if tracer:
                tracer.command += 1
            code, out, err, elapsed = run_command(self.cli, cmd)
            scale = self.gauge.scale_after()
            if tracer:
                tracer.end_command(cmd.kind)
            self.raw[cmd.kind].append(elapsed)
            self.latencies[cmd.kind].append(elapsed * scale)
            self.by_command.setdefault(cmd.argv, []).append(elapsed * scale)
            self.busy += elapsed
            self.attempted += 1
            sha.update(repr((cmd.argv, code, out, err)).encode())
            problem = self.checker(cmd, code, out, err)
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{' '.join(cmd.argv)}: {problem}")
        self.passes += 1
        _settle_heap()
        if self.passes == 1:
            self.digest = sha.hexdigest()
        if tracer:
            self.pass_counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})

    @property
    def ops_per_s(self) -> float:
        """Commands per second over the fixed mix, from each command's
        median time, so one disturbed sample does not move it."""
        return len(self.mix) / sum(statistics.median(v) for v in self.by_command.values())


def _p50_ms(samples) -> float:
    return statistics.median(samples) * 1000


def _p90_ms(samples) -> float | None:
    if len(samples) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10)[-1] * 1000


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _report_end_to_end(args, run: Run, setup_times) -> dict:
    setup_s = statistics.median(setup_times)
    print(f"workload {args.workload}  seed {args.seed}  passes {run.passes}  "
          f"commands {run.attempted}  measured {run.busy:.3f} s  closed loop, 1 client")
    print(f"setup_s            {setup_s:.4f} s   (median of {len(setup_times)} setups)")
    print(f"ops_per_s          {run.ops_per_s:.3f} ops/s")
    metrics = {"setup_s": (setup_s, "s"), "ops_per_s": (run.ops_per_s, "ops/s")}
    for kind in workloads.KINDS:
        samples = run.latencies[kind]
        if not samples:
            print(f"{kind + '_p50_ms':<18} n/a (no {kind} commands in this workload)")
            continue
        p50, p90 = _p50_ms(samples), _p90_ms(samples)
        shown = (f"{p90:.3f} ms" if p90 is not None
                 else f"n/a (needs {P90_MIN_SAMPLES} samples)")
        print(f"{kind + '_p50_ms':<18} {p50:.3f} ms   {kind}_p90_ms {shown}   n={len(samples)}"
              f"   (as measured: p50 {_p50_ms(run.raw[kind]):.3f} ms)")
        if kind != "beth":
            metrics[f"{kind}_p50_ms"] = (p50, "ms")
    print(f"error_rate         {run.failed / run.attempted:.6f} ratio   "
          f"({run.failed} of {run.attempted})")
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    print(f"peak_rss_mb        {metrics['peak_rss_mb'][0]:.3f} MB")
    return metrics


def _replay(args) -> dict:
    """One traced pass in a child process under another hash seed."""
    env = dict(os.environ, PYTHONHASHSEED="4091")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "1", "--replay"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=REPLAY_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"replay failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _count_mismatches(run: Run, replay: dict) -> set[str]:
    """Counters that differ between traced passes or from the replay."""
    first = run.pass_counts[0]
    return {k for counts in (*run.pass_counts, replay["counts"])
            for k in first.keys() | counts.keys() if first.get(k) != counts.get(k)}


def _traced(args, cli, mix, checker, gauge, work):
    plain = Run(cli, mix, checker, gauge).measure(args.seconds / 2, work)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = Run(cli, mix, checker, gauge, tracer).measure(args.seconds / 2, work)
    overhead = plain.ops_per_s / traced.ops_per_s - 1
    replay = _replay(args)
    mismatched = _count_mismatches(traced, replay)
    same_bytes = replay["digest"] == traced.digest
    values = tracer.layer_metrics(overhead, len(mismatched))
    print(f"workload {args.workload}  seed {args.seed}  traced passes {traced.passes}  "
          f"commands {tracer.counts['commands']}  (values per command unless noted)")
    print(f"untraced ops_per_s {plain.ops_per_s:.3f}, traced {traced.ops_per_s:.3f}")
    for name, (unit, moves) in tracing.LAYER_MAP.items():
        print(f"{name:<30} {values[name]:>14.4f} {unit:<6} -> {moves}")
    print(f"determinism: {traced.passes} traced passes and a replay under another hash seed; "
          f"output bytes {'agree' if same_bytes else 'differ'}; counts "
          + (f"differ in {sorted(mismatched)}" if mismatched else "agree"))
    metrics = {name: (values[name], unit) for name, (unit, _) in tracing.LAYER_MAP.items()}
    return metrics, (plain, traced), same_bytes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("ladder", "ontology", "mixed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", action="store_true",
                    help="internal: one traced pass; print its counts and output digest")
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "slatkit" / "cli.py", DATA / "golden") if not p.exists()]
    if missing:
        print(f"perfbench: run from a slatkit checkout; missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench-work" / str(os.getpid())
    gauge = SpeedGauge()
    try:
        setup_times = []
        for _ in range(1 if args.replay else SETUP_REPEATS):
            start = time.perf_counter()
            cli, mix = setup(args, work)
            elapsed = time.perf_counter() - start
            setup_times.append(elapsed * gauge.scale_after())
        checker = checks.Checker(ROOT)
        if args.replay:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            run = Run(cli, mix, checker, gauge, tracer).measure(0, work)
            print(json.dumps({"counts": run.pass_counts[0], "digest": run.digest}))
            return 0
        if args.trace:
            metrics, runs, same_bytes = _traced(args, cli, mix, checker, gauge, work)
        else:
            run = Run(cli, mix, checker, gauge).measure(args.seconds, work)
            metrics, runs, same_bytes = _report_end_to_end(args, run, setup_times), (run,), True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    problems = [p for r in runs for p in r.problems]
    for p in problems[:10]:
        print(f"FAILED {p}", file=sys.stderr)
    if not same_bytes:
        print("FAILED output bytes differ from a replay under another hash seed", file=sys.stderr)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0 and same_bytes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
