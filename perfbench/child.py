"""One workload in its own process: warm-up, timed operations, checks.

Run by ``run.py``; writes its result as JSON to the path given by
``--result``. Operations run one at a time (a closed loop with one
client) through ``qheat.cli.main`` with an argv list in this process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from reference import NOMINAL_SAMPLE_S, Calibration, SpeedSampler
from workloads import CheckFailed, build_op

MIN_OPS = 3
MIN_OPS_TRACED = 4
PROBE_TIMEOUT_S = 60


def probe_setup(src: str, argv_list: list[list[str]]) -> tuple[float, float]:
    """A fresh interpreter imports qheat and parses the commands.

    Returns the probe's own ``perf_counter`` readings at the start and
    the end of that work; ``setup_s`` is calibrated from them at the end
    of the run.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), src, json.dumps(argv_list)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def execute(op, cli, tracer=None, op_index=0):
    """Run one operation; returns (wall s, cpu s, failure or None, start).

    An operation fails on a nonzero exit code, an exception, or a failed
    output check. Only the commands are timed, from ``start`` of
    ``time.perf_counter``; the checks run afterwards.
    """
    for command in op:
        for path, text in command.files.items():
            path.write_text(text)
    failure = None
    t0, c0 = time.perf_counter(), time.process_time()
    for j, command in enumerate(op):
        if tracer is not None:
            tracer.begin(op_index, j)
        try:
            rc = cli.main(command.argv)
        except (Exception, SystemExit):
            rc = None
            failure = failure or f"{command.label}: {traceback.format_exc(limit=3)}"
        if tracer is not None:
            tracer.end()
        if rc not in (0, None):
            failure = failure or f"{command.label}: exit code {rc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if failure is None:
        for command in op:
            try:
                command.check(command.out)
            except (CheckFailed, OSError) as exc:
                failure = f"{command.label}: {exc}"
                break
    return wall, cpu, failure, t0


def calibrate(cal: Calibration, start: float, end: float) -> dict:
    """An interval's wall, own and nominal seconds, and its mean reference sample time."""
    own, nominal = cal.own(end) - cal.own(start), cal.nominal(end) - cal.nominal(start)
    return {"wall_s": end - start, "own_s": own, "nominal_s": nominal, "ref_s": NOMINAL_SAMPLE_S * own / nominal}


def pin_to_current_cpu():
    """Keep this process, and the processes it starts, on the CPU it runs on.

    The two CPUs of a shared machine slow down independently, so the
    speed samples only calibrate work that ran on the same CPU.
    """
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, workdir: Path, src: str, probes: int) -> dict:
    with SpeedSampler() as sampler:
        result, probe_times, tracer = _run(workload, seed, seconds, trace, tiny, workdir, src, probes)
        samples = sampler.stop()
    cal = Calibration(samples)
    for op in result["ops"]:
        op.update(calibrate(cal, op["start"], op["start"] + op["wall_s"]))
        op["op_s"] = op.pop("nominal_s")
        op["cpu_op_s"] = op["cpu_s"] * NOMINAL_SAMPLE_S / op["ref_s"]
    for start, end in probe_times:
        probe = calibrate(cal, start, end)
        probe["setup_s"] = probe.pop("nominal_s")
        result["setup"].append(probe)
    result["speed_samples"] = samples
    if tracer is not None:
        result["trace"] = trace_summary(tracer, result["ops"], cal, workdir)
    return result


def _run(workload, seed, seconds, trace, tiny, workdir, src, probes) -> tuple[dict, list, object]:
    from qheat import cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()

    failures: list[str] = []
    attempted = 0

    def attempt(op_index, size_tiny, traced):
        nonlocal attempted
        op = build_op(workload, seed, op_index, workdir, tiny=size_tiny)
        if traced:
            tracer.install()
        try:
            wall, cpu, failure, start = execute(op, cli, tracer if traced else None, op_index)
        finally:
            if traced:
                tracer.uninstall()
        attempted += 1
        if failure:
            failures.append(f"op {op_index}: {failure}")
        return {
            "op": op_index,
            "start": start,
            "wall_s": wall,
            "cpu_s": cpu,
            "ok": failure is None,
            "traced": traced,
            "n_traj": sum(c.n_traj for c in op),
            "csv_bytes": sum(c.out.stat().st_size for c in op if c.out.exists()),
            "commands": [c.label for c in op],
        }

    # Warm-up: one reduced-size operation through the same commands, so
    # imports, caches and lazy set-up are done before timing starts.
    attempt(0, True, False)

    # Set-up probes use the first operation's inputs. They are spread
    # evenly over the run, so that their median sees the same mix of
    # machine speeds as the operations; one unrecorded probe first fills
    # the bytecode cache.
    probe_op = build_op(workload, seed, 1, workdir, tiny=tiny)
    for command in probe_op:
        for path, text in command.files.items():
            path.write_text(text)
    probe_argv = [c.argv for c in probe_op]
    probe_times: list[tuple[float, float]] = []
    if probes:
        probe_setup(src, probe_argv)

    ops = []
    min_ops = MIN_OPS_TRACED if trace else MIN_OPS
    start = time.perf_counter()
    index = 1
    while True:
        elapsed = time.perf_counter() - start
        while len(probe_times) < math.ceil(probes * min(1.0, elapsed / seconds)):
            probe_times.append(probe_setup(src, probe_argv))
        if len(ops) >= min_ops:
            typical = statistics.median(o["wall_s"] for o in ops)
            if elapsed + typical > seconds:
                break
        # In a traced run, untraced and traced operations alternate.
        ops.append(attempt(index, tiny, trace and index % 2 == 0))
        index += 1
    while len(probe_times) < probes:
        probe_times.append(probe_setup(src, probe_argv))

    result = {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "ops": ops,
        "setup": [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }
    return result, probe_times, tracer


def trace_summary(tracer, ops: list[dict], cal: Calibration, workdir: Path) -> dict:
    """Per-op means of span totals and counters over the traced operations.

    Span times, like the op times, are read on the nominal clock of
    ``Calibration``, so layer times add up to ``trace.op_s`` and compare
    across runs.
    """
    from collections import defaultdict

    from tracer import summarize

    traced = [o for o in ops if o["traced"]]
    n = len(traced)
    totals = summarize([(*span[:4], cal.nominal(span[4]), cal.nominal(span[5])) for span in tracer.spans])
    counts: dict[str, float] = defaultdict(float)
    per_command: dict[str, dict] = {}
    for (_, cmd), c in tracer.counts.items():
        per = per_command.setdefault(traced[0]["commands"][cmd], defaultdict(float))
        for k, v in c.items():
            counts[k] += v
            per[k] += v / n
    spans_path = workdir / "spans.csv.gz"
    tracer.write(spans_path)
    return {
        "n_traced_ops": n,
        "totals": dict(totals),
        "counts": dict(counts),
        "per_command": per_command,
        "traced_op_s": sum(o["op_s"] for o in traced),
        "traced_cpu_s": sum(o["cpu_op_s"] for o in traced),
        "traced_csv_bytes": sum(o["csv_bytes"] for o in traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-probes", type=int, default=0)
    args = parser.parse_args(argv)
    pin_to_current_cpu()
    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, Path(args.workdir),
        args.src, args.setup_probes,
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
