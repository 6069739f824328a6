"""Compare two qheat source trees, the parent's and the change's, in alternating pairs.

    python3 perfbench/compare.py run --parent DIR --change DIR [--workload W ...] [--out pairs.json]
    python3 perfbench/compare.py judge pairs.json

``run`` measures both trees in 10 pairs per workload with this
benchmark's own code and settings, ``run_seconds`` of BENCHMARK.json
included: each pair runs both sides on the same seed (seeds 1000 to
1009), and the side that runs first alternates from pair to pair.
``judge`` refuses fewer than 10 pairs per workload, and then decides,
per workload and end-to-end metric:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved``: either side's spread (interquartile range over median)
  exceeds the metric's bound, unless every change run beats every parent
  run;
* ``REGRESSION``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` otherwise.

A gain does not count when the change fails more operations than the
parent. The exit code is 1 when any regression or extra failure is
found, 2 when there are too few pairs.

Run with the same tree on both sides, the two sides are two sets of
runs of the same code: each side's spread and the "within bound"
verdict show whether the benchmark is steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WIN_SHARE = 0.9
PAIRS = 10
SEED_BASE = 1000


def run_side(checkout: Path, workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--src", str(checkout / "src"), "--out-dir", str(out_dir),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(parent: Path, change: Path, workloads: list[str], seconds: float) -> list[dict]:
    out = []
    for workload in workloads:
        for i in range(PAIRS):
            seed = SEED_BASE + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            entry = {"workload": workload, "pair": i, "seed": seed, "first": order[0]}
            for side in order:
                checkout = parent if side == "parent" else change
                entry[side] = run_side(checkout, workload, seed, seconds, ROOT / ".bench_out" / "compare" / side)
                print(f"{workload} pair {i} {side}: {json.dumps(entry[side]['metrics'])}", flush=True)
            out.append(entry)
    return out


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def judge_metric(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, dict]:
    """Verdict for one metric on one workload from paired values."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    med_p, q1_p, q3_p = _spread(parent)
    med_c, q1_c, q3_c = _spread(change)
    spread_p = (q3_p - q1_p) / abs(med_p) if med_p else 0.0
    spread_c = (q3_c - q1_c) / abs(med_c) if med_c else 0.0
    worse_by = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    every_run_better = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    stats = {
        "parent": [med_p, q1_p, q3_p],
        "change": [med_c, q1_c, q3_c],
        "spread": [spread_p, spread_c],
        "wins": wins,
        "pairs": len(gains),
        "worse_by": worse_by,
    }
    if wins >= WIN_SHARE * len(gains) and sign * (med_p - med_c) > q3_p - q1_p:
        return "gain", stats
    if max(spread_p, spread_c) > bound and not every_run_better:
        return "unresolved", stats
    if worse_by > bound:
        return "REGRESSION", stats
    return "within bound", stats


def judge(pairs: list[dict], spec: dict) -> int:
    by_workload: dict[str, list[dict]] = {}
    for p in pairs:
        by_workload.setdefault(p["workload"], []).append(p)
    short = {w: len(rows) for w, rows in by_workload.items() if len(rows) < PAIRS}
    if short or not by_workload:
        print(f"too few pairs {short}: the 9-of-10 rule needs {PAIRS} per workload", file=sys.stderr)
        return 2
    status = 0
    for workload, rows in by_workload.items():
        failed = {side: sum(r[side]["failed"] for r in rows) for side in ("parent", "change")}
        extra_failures = failed["change"] > failed["parent"]
        print(f"{workload}: {len(rows)} pairs; failed ops parent {failed['parent']}, change {failed['change']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["parent"]["metrics"][name]["value"] for r in rows]
            change = [r["change"]["metrics"][name]["value"] for r in rows]
            verdict, s = judge_metric(parent, change, metric["better"], metric["bound"])
            if verdict == "gain" and extra_failures:
                verdict = "no gain (more failed ops)"
            if verdict == "REGRESSION":
                status = 1
            print(
                f"  {name:14s} parent {s['parent'][0]:.6g} [{s['parent'][1]:.6g}, {s['parent'][2]:.6g}] "
                f"spread {s['spread'][0]:.1%}  change {s['change'][0]:.6g} [{s['change'][1]:.6g}, "
                f"{s['change'][2]:.6g}] spread {s['spread'][1]:.1%} {metric['unit']}  "
                f"change wins {s['wins']}/{s['pairs']}  worse by {s['worse_by']:+.1%} (bound {metric['bound']:.0%})  "
                f"-> {verdict}"
            )
        if extra_failures:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure both trees in alternating pairs, then judge")
    run.add_argument("--parent", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--workload", action="append", help="workload (repeatable; default all)")
    run.add_argument("--out", default=str(ROOT / ".bench_out" / "pairs.json"))
    jud = sub.add_parser("judge", help="judge saved pairs")
    jud.add_argument("pairs_file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.command == "run":
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        pairs = run_pairs(Path(args.parent).resolve(), Path(args.change).resolve(), workloads, spec["run_seconds"])
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(pairs, indent=1))
    else:
        pairs = json.loads(Path(args.pairs_file).read_text())
    return judge(pairs, spec)


if __name__ == "__main__":
    sys.exit(main())
