#!/usr/bin/env python3
"""swapsim benchmark: end-to-end metrics, a correctness gate, and a traced
per-layer run.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` it measures the end-to-end metrics untraced;
with ``--trace 1`` it runs one fixed pass untraced and again with span
wrappers bound, and reports the per-layer metrics.  The load is closed-loop:
one client, one call in flight, this process plus at most one child.  The
last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import gate as gate_mod
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CLI_TIMEOUT_S = 120
# In-process workloads take the CLI import metrics from a few plain runs.
IMPORT_PROBE_REPEATS = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# Every time the benchmark reports is at reference speed.  On a shared
# machine the CPU's speed swings by up to 1.7x within minutes, for this
# process and its children alike.  The reference task is a fresh Python
# process that imports a fixed set of standard-library modules and runs a
# fixed dict-and-complex loop: a separate process, so the program's heap,
# caches and imports cannot slow it, while a slower machine does.  It is
# timed every REF_EVERY_S during a pass, and a time is multiplied by
# REF_NOMINAL_S over the reference time around it.
REFERENCE_CODE = """\
import argparse, asyncio, decimal, email.mime.multipart, gc, http.server, json, xml.dom.minidom
gc.disable()
d = {}
for i in range(60000):
    k = (i % 13, i % 7, i % 5, i % 3)
    d[k] = d.get(k, 0.0) + complex(i, 1) * 0.5
"""
REF_NOMINAL_S = 0.17
REF_EVERY_S = 1.0


class Size(NamedTuple):
    setup_repeats: int  # fresh set-ups measured for setup_s
    min_calls: int  # p90 needs at least 10 samples beyond it
    trace_calls: dict  # calls in the traced pass, from the start of the stream
    stop_every: int | None  # calls between stopping points, if not the workload's
    import_probes: int | None  # `-X importtime` children in the traced run


FULL = Size(7, 100, {"scheme-a-highorder": 96, "mixed-loworder": 1600, "cli-cold": 110},
            None, None)
TINY = Size(1, 2, {"scheme-a-highorder": 2, "mixed-loworder": 2, "cli-cold": 2}, 1, 1)


# --------------------------------------------------------------------------
# Running calls
# --------------------------------------------------------------------------

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd, env=None):
    """Run a child process to its end; returns (code, stdout, stderr, peak
    RSS in MB).  The child is reaped with wait4 to read its own peak RSS."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        with proc.stdout, proc.stderr, ThreadPoolExecutor(1) as pool:
            stderr = pool.submit(proc.stderr.read)
            stdout = proc.stdout.read()
            stderr = stderr.result()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, stderr, usage.ru_maxrss / 1024


def run_cli_process(argv, importtime: bool = False):
    """One fresh ``python -m swapsim.cli`` process; returns (code, stdout,
    stderr, peak RSS in MB)."""
    flags = ["-X", "importtime"] if importtime else []
    return run_child([sys.executable, *flags, "-m", "swapsim.cli", *argv], cli_env())


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU: moving
    between CPUs makes call times spread wider."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reference_task() -> float:
    """Seconds for the reference process, from start to end."""
    t0 = time.perf_counter()
    code = run_child([sys.executable, "-I", "-c", REFERENCE_CODE])[0]
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"reference task exited {code}")
    return elapsed


class Speed:
    """Times the reference task every REF_EVERY_S during a pass."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> int:
        """Take a sample if one is due; returns the latest sample's index."""
        if time.perf_counter() >= self._due:
            self.samples.append(reference_task())
            self._due = time.perf_counter() + REF_EVERY_S
        return len(self.samples) - 1

    def scale(self) -> float:
        """Factor that turns a time measured in the pass into one at
        reference speed."""
        return REF_NOMINAL_S / statistics.median(self.samples)

    def local_scales(self) -> list[float]:
        """The factor for the time after each sample, from the median of the
        samples within two of it: the speed drifts within a run too."""
        s = self.samples
        return [REF_NOMINAL_S / statistics.median(s[max(0, k - 2):k + 3])
                for k in range(len(s))]


class Tally:
    """Attempted and failed calls; the first few failures are printed."""

    def __init__(self, checker: gate_mod.Gate):
        self.checker = checker
        self.attempted = 0
        self.failed = 0

    def call(self, run_one, call) -> tuple[float, bool]:
        """Time one call and gate its output; returns (seconds, passed)."""
        problems = None
        t0 = time.perf_counter()
        try:
            output = run_one(call)
        except Exception as exc:  # a failed call is counted, not fatal
            problems = [f"raised {exc!r}"]
        dt = time.perf_counter() - t0
        if problems is None:
            try:
                problems = self.checker.check(call, output)
            except Exception as exc:  # malformed output fails the gate
                problems = [f"gate could not read the output: {exc!r}"]
        self.record(call, problems)
        return dt, not problems

    def record(self, call, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {call.key}: {'; '.join(problems)}", file=sys.stderr)


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------

class Setup(NamedTuple):
    run_one: object
    calls: object  # iterator over the workload's stream of calls
    stop_every: int  # a timed pass stops only after a multiple of this
    checker: gate_mod.Gate
    peak_rss_mb: object  # () -> peak RSS of whatever ran the calls, in MB


def load_workload(workload, seed, size, golden):
    stop_every = size.stop_every or workloads.generate(workload, seed).stop_every
    checker = gate_mod.Gate(gate_mod.load_golden(workload) if golden is None else golden)
    return workloads.stream(workload, seed), stop_every, checker


def in_process_setup(workload, seed, size, golden=None) -> Setup:
    """Import the package, generate the inputs and warm up each entry point."""
    from swapsim import protocols

    calls, stop_every, checker = load_workload(workload, seed, size, golden)
    for call in workloads.warmup_calls(workload):
        workloads.execute(protocols, call)
    return Setup(lambda call: workloads.execute(protocols, call), calls, stop_every, checker,
                 lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def cli_setup(workload, seed, size, golden=None) -> Setup:
    """Generate the script and run a warm-up command once, which also
    compiles the package's bytecode on a fresh checkout."""
    calls, stop_every, checker = load_workload(workload, seed, size, golden)
    run_cli_process(workloads.generate(workload, seed, workloads.WARMUP).calls[0].args)
    peak = [0.0]  # of the command processes only, not of the reference task's

    def run_one(call):
        code, stdout, _, peak_mb = run_cli_process(call.args)
        peak[0] = max(peak[0], peak_mb)
        return code, stdout

    return Setup(run_one, calls, stop_every, checker, lambda: peak[0])


def setup_probe(workload, seed, size, golden):
    """A function that times one fresh set-up.  An in-process set-up runs in
    a child process, timed from its start until it is ready for the first
    timed call."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]

    def once() -> float:
        t0 = time.perf_counter()
        if workload == "cli-cold":
            cli_setup(workload, seed, size, golden)
            return time.perf_counter() - t0
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            ready = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            if child.wait(timeout=CLI_TIMEOUT_S) != 0 or ready != "ready\n":
                raise RuntimeError("set-up probe failed")
        return elapsed

    return once


# --------------------------------------------------------------------------
# Untraced timed pass: the end-to-end metrics
# --------------------------------------------------------------------------

def run_end_to_end(workload, seed, seconds, size=FULL, golden=None) -> dict:
    time_setup = setup_probe(workload, seed, size, golden)
    make = in_process_setup if workload != "cli-cold" else cli_setup
    run_one, calls, stop_every, checker, peak_rss_mb = make(workload, seed, size, golden)
    tally, speed = Tally(checker), Speed()
    # seconds of every call attempted, whether it passed, and the reference
    # sample it is scaled by; kept in arrays so that the harness adds little
    # to peak_rss_mb
    taken, passed, taken_ref = array("d"), array("b"), array("l")
    setups, setup_ref = [], []
    deadline = time.perf_counter() + seconds
    # Set-up time shifts within seconds on a shared machine, so the set-ups
    # are spread over the pass, between stopping points, not run in a row.
    next_setup = 0.0
    # Stop only at the workload's stopping points (block or list ends) so
    # that every kind of call in the mix is equally represented; a pass also
    # needs min_calls samples for its p90.
    while True:
        if len(setups) < size.setup_repeats and time.perf_counter() >= next_setup:
            setup_ref.append(speed.tick())
            setups.append(time_setup())
            next_setup = time.perf_counter() + seconds / size.setup_repeats
        for call in itertools.islice(calls, stop_every):
            taken_ref.append(speed.tick())
            dt, ok = tally.call(run_one, call)
            taken.append(dt)
            passed.append(ok)
        if time.perf_counter() >= deadline and tally.attempted >= size.min_calls:
            break
    while len(setups) < size.setup_repeats:
        setup_ref.append(speed.tick())
        setups.append(time_setup())
    peak = peak_rss_mb()

    def figures(scales) -> dict:
        pass_s = [dt * scales[k] for dt, k in zip(taken, taken_ref)]
        done = [dt for dt, ok in zip(pass_s, passed) if ok] or [0.0]
        deciles = statistics.quantiles(done, n=10) if len(done) > 1 else 9 * done
        return {
            "setup_s": statistics.median(t * scales[k] for t, k in zip(setups, setup_ref)),
            # completed calls over the time of all calls attempted, so a
            # failed call lowers the rate; the gate's checking is not counted
            "evals_per_s": sum(passed) / sum(pass_s),
            "call_ms_p50": deciles[4] * 1e3,
            "call_ms_p90": deciles[8] * 1e3,
            "peak_rss_mb": peak,
        }

    values = figures(speed.local_scales())
    raw = figures([1.0] * len(speed.samples))
    print(f"samples: {sum(passed)} completed calls; golden-checked: "
          f"{checker.golden_checked}; reference task median "
          f"{statistics.median(speed.samples) * 1e3:.1f} ms over {len(speed.samples)} runs",
          file=sys.stderr)
    print("as measured, not scaled: " + ", ".join(
        f"{k} {v:.6g} {END_TO_END_UNITS[k]}" for k, v in raw.items()), file=sys.stderr)
    return make_result(tally, {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()})


# --------------------------------------------------------------------------
# Traced run: the per-layer metrics
# --------------------------------------------------------------------------

def run_traced(workload, seed, size=FULL, golden=None) -> dict:
    """A fixed pass traced and another of the same mix untraced; counts
    repeat exactly for a seed because the passes do not depend on the clock.
    Each pass has inputs of its own, so the traced one repeats none."""
    import swapsim.cli  # loaded so that every layer, oracle included, is bound
    from swapsim import protocols

    stream, _, checker = load_workload(workload, seed, size, golden)
    if workload == "cli-cold":
        def run_one(call):
            out = io.StringIO()
            code = swapsim.cli.run(list(call.args), out=out)
            return code, out.getvalue()
    else:
        def run_one(call):
            return workloads.execute(protocols, call)
    # for cli-cold a whole script, as scipy loads parts of itself on first use
    for call in workloads.warmup_calls(workload):
        run_one(call)
    tally, speed, tracer = Tally(checker), Speed(), spans.Tracer()
    n = size.trace_calls[workload]
    passes = {True: list(itertools.islice(stream, n)), False: list(itertools.islice(stream, n))}
    busy = {True: 0.0, False: 0.0}
    # The passes take turns block by block, each going first every other
    # time, so that the machine's drift falls on both alike.
    block = workloads.generate(workload, seed).block
    for start in range(0, n, block):
        for traced in ((True, False) if start // block % 2 else (False, True)):
            if traced:
                tracer.bind_all()
            try:
                for i in range(start, min(start + block, n)):
                    speed.tick()
                    tracer.call_id = i
                    busy[traced] += tally.call(run_one, passes[traced][i])[0]
            finally:
                tracer.unbind()
    scale = speed.scale()
    values = {k: v * scale if spans.PER_LAYER[k][0] == "ms" else v
              for k, v in tracer.metrics().items()}
    values["trace.overhead_frac"] = busy[True] / busy[False] - 1.0

    # Import times come from `-X importtime` child processes.
    if workload == "cli-cold":
        probes = workloads.generate(workload, seed).calls
    else:
        probes = [c for c in workloads.cli_cold(seed).calls if c.args[0] == "bell-check"]
        probes *= IMPORT_PROBE_REPEATS
    samples, probe_speed = [], Speed()
    for call in probes[:size.import_probes]:
        probe_speed.tick()
        code, stdout, stderr, _ = run_cli_process(call.args, importtime=True)
        tally.record(call, checker.check(call, (code, stdout)))
        samples.append(spans.import_times(stderr))
    for name in spans.IMPORT_METRICS:
        values[name] = statistics.mean(s[name] for s in samples) * probe_speed.scale()

    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    if tracer.missing:
        print(f"missing layer functions: {sorted(tracer.missing)}", file=sys.stderr)
    print(f"traced pass times scaled by {scale:.4f}", file=sys.stderr)
    return make_result(tally, {k: (v, spans.PER_LAYER[k][0]) for k, v in values.items()})


# --------------------------------------------------------------------------
# Results
# --------------------------------------------------------------------------

def make_result(tally: Tally, values: dict) -> dict:
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def ops_failed_frac(result: dict) -> float:
    return result["failed"] / result["attempted"]


def run_workload(workload, seed, seconds, trace, size=FULL, golden=None) -> dict:
    if trace:
        return run_traced(workload, seed, size, golden)
    return run_end_to_end(workload, seed, seconds, size, golden)


def print_summary(workload: str, result: dict) -> None:
    print(f"== {workload}")
    for name, m in result["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'ops_failed_frac':<30} {ops_failed_frac(result):>16.6g} "
          f"({result['failed']} of {result['attempted']} calls)")


def run_all(args) -> dict:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "swapsim" / "__init__.py").is_file():
        print(f"error: no swapsim package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    if args.setup_probe:
        in_process_setup(args.workload, args.seed, FULL)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print_summary(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
