"""qheat benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a qheat checkout. ``--trace 0`` runs the workload in
its own child process for ``--seconds``, with set-up probes in fresh
interpreters spread over the run, and reports the end-to-end metrics of
BENCHMARK.json. Times are put at one nominal machine speed with a
reference computation that a sibling process on the same CPU times
every 20 ms throughout the run (see ``reference.py``).
``--trace 1`` runs the workload with spans around the public functions
of every layer and reports the per-layer metrics instead. Every
operation's output is checked. Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record
with every operation's time (and, traced, every span) is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from reference import NOMINAL_SAMPLE_S
from tracer import LAYERS, REQUIRED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170


def src_loc(src: Path) -> dict[str, int]:
    """Non-blank, non-comment source lines per qheat module (static count)."""
    out = {}
    for path in sorted((src / "qheat").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        lines = [ln.strip() for ln in path.read_text().splitlines()]
        out[f"{name}.src_loc"] = sum(1 for ln in lines if ln and not ln.startswith("#"))
    out["qheat.src_loc"] = sum(out.values())
    return out


def git_commit(root: Path) -> str:
    """HEAD of a git checkout read from .git directly; "unknown" elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(src: Path, args, workdir: Path) -> dict:
    result_path = workdir / "child.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), "--result", str(result_path),
        "--src", str(src), "--setup-probes", str(0 if args.trace else 3 if args.tiny else SETUP_PROBES),
    ]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=child_env(src), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def end_to_end(child: dict) -> tuple[dict, dict]:
    """Gated metrics, plus the ungated extras printed beside them.

    ``op_s_p50`` and ``setup_s`` are times at the reference's nominal
    speed (see reference.py); the raw wall times are extras.
    """
    timed = [o for o in child["ops"] if o["ok"]]
    if not timed:
        raise RuntimeError("no operation succeeded")
    metrics = {
        "op_s_p50": statistics.median(o["op_s"] for o in timed),
        "setup_s": statistics.median(p["setup_s"] for p in child["setup"]),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    extras = {
        "op_wall_s_p50": statistics.median(o["wall_s"] for o in timed),
        "setup_wall_s_p50": statistics.median(p["wall_s"] for p in child["setup"]),
        "ref_s_mean": statistics.mean(o["ref_s"] for o in timed),
        "error_rate": child["failed"] / child["attempted"],
    }
    if child["workload"].startswith("mc_"):
        extras["traj_per_s"] = timed[0]["n_traj"] / metrics["op_s_p50"]
    return metrics, extras


def per_layer(child: dict, loc: dict[str, int], names: list[str]) -> tuple[dict, dict]:
    """Per-op means over the traced operations, the tracing overhead and the checks.

    All times are read on the nominal clock of ``reference.Calibration``,
    spans and operations alike, so layer times add up to
    ``trace.op_s`` and the traced minus untraced difference is the
    tracing overhead and not drift. A per-layer metric that the workload
    must record (``tracer.REQUIRED``) but did not fails the run.
    """
    trace = child["trace"]
    n = trace["n_traced_ops"]
    totals, counts = trace["totals"], trace["counts"]
    ops = [o for o in child["ops"] if o["ok"]]
    traced = [o["op_s"] for o in ops if o["traced"]]
    untraced = [o["op_s"] for o in ops if not o["traced"]]
    if not traced or not untraced:
        raise RuntimeError("a traced run needs traced and untraced operations that succeed")
    timing = {
        "trace.op_s": statistics.median(traced),
        "trace.untraced_op_s": statistics.median(untraced),
        "cli.csv_bytes": trace["traced_csv_bytes"] / n,
        "proc.cpu_s": trace["traced_cpu_s"] / n,
    }
    timing["trace.overhead_s"] = timing["trace.op_s"] - timing["trace.untraced_op_s"]
    known = {**loc, **timing, **{k: v / n for k, v in counts.items()}}
    metrics = {name: known[name] if name in known else totals.get(name, 0.0) / n for name in names}
    recorded = set(totals) | {k for k, v in counts.items() if v > 0}
    self_sum = sum(totals.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    checks = {
        "self_sum_s": self_sum / n,
        "traced_op_s": trace["traced_op_s"] / n,
        # Self times must account for the whole traced op time; what is
        # left is the cost of entering and leaving the outermost wrapper.
        "self_sum_ok": abs(self_sum - trace["traced_op_s"]) <= 1e-3 * trace["traced_op_s"],
        "not_recorded": [name for name in REQUIRED[child["workload"]] if name not in recorded],
        "per_command": trace["per_command"],
        "spans": trace["spans"],
    }
    return metrics, checks


def run_one(args, src: Path, spec: dict, out_dir: Path) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        child = run_child(src, args, workdir)
        loc = src_loc(src)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": child["numpy"],
            "commit": git_commit(src.parent),
            "src_loc": loc,
            "setup": child["setup"],
            "speed_samples": child["speed_samples"],
            "ops": child["ops"],
            "failures": child["failures"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        correct = child["failed"] == 0
        if args.trace:
            metrics, checks = per_layer(child, loc, [m["name"] for m in spec["per_layer"]])
            correct = correct and checks["self_sum_ok"] and not checks["not_recorded"]
            record["trace_checks"] = checks
            spans = Path(child["trace"]["spans_file"])
            kept = out_dir / f"{args.workload}-seed{args.seed}-spans.csv.gz"
            shutil.move(spans, kept)
            record["spans_file"] = str(kept.relative_to(ROOT)) if kept.is_relative_to(ROOT) else str(kept)
        else:
            metrics, extras = end_to_end(child)
            record["extras"] = extras
        record["metrics"] = metrics
        result = {
            "correct": correct,
            "attempted": child["attempted"],
            "failed": child["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        record["result"] = result
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out_dir / name).write_text(json.dumps(record, indent=1))
        report(record)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(record: dict):
    """Human-readable lines for one workload."""
    res = record["result"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"attempted {res['attempted']}  failed {res['failed']}  correct {res['correct']}  "
        f"(nproc {record['nproc']}, python {record['python']}, numpy {record['numpy']}, "
        f"commit {record['commit'][:12]})"
    )
    for failure in record["failures"]:
        print(f"  FAILED {failure.strip().splitlines()[-1]}")
    for name, m in res["metrics"].items():
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}")
    extras = record.get("extras")
    if extras:
        n_ops = sum(o["ok"] for o in record["ops"])
        print(f"  ({n_ops} ops after 1 warm-up op, {len(record['setup'])} set-up probes, "
              f"{len(record['speed_samples'])} speed samples; times at the reference's nominal speed)")
        print(f"  {'op_wall_s_p50':38s} {extras['op_wall_s_p50']:>14.6g} s (raw wall)")
        print(f"  {'setup_wall_s_p50':38s} {extras['setup_wall_s_p50']:>14.6g} s (raw wall)")
        print(f"  {'ref_s_mean':38s} {extras['ref_s_mean']:>14.6g} s (reference sample; nominal {NOMINAL_SAMPLE_S})")
        if "traj_per_s" in extras:
            print(f"  {'traj_per_s':38s} {extras['traj_per_s']:>14.6g} 1/s")
        print(f"  {'error_rate':38s} {extras['error_rate']:>14.6g} ({res['failed']}/{res['attempted']})")
    checks = record.get("trace_checks")
    if checks:
        print(f"  self times sum {checks['self_sum_s']:.6f} s/op vs traced op {checks['traced_op_s']:.6f} s/op "
              f"({'ok' if checks['self_sum_ok'] else 'MISMATCH'}); {checks['spans']} spans")
        if checks["not_recorded"]:
            print(f"  NOT RECORDED on this workload: {', '.join(checks['not_recorded'])}")
        for label, counts in checks["per_command"].items():
            if not counts:
                continue
            shown = ", ".join(f"{k} {v:g}" for k, v in sorted(counts.items()))
            print(f"  per '{label}' command: {shown}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="reduced input sizes (smoke test)")
    parser.add_argument("--src", default=str(ROOT / "src"), help="qheat source tree to measure")
    parser.add_argument("--out-dir", default=str(ROOT / ".bench_out"), help="where run records go")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    if not (src / "qheat" / "__init__.py").is_file():
        print(f"error: no qheat package under {src}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload != "all":
            result = run_one(args, src, spec, out_dir)
        else:
            results = {}
            for name in names:
                results[name] = run_one(argparse.Namespace(**{**vars(args), "workload": name}), src, spec, out_dir)
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
            }
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
