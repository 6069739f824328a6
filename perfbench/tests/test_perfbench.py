"""Tests of the benchmark itself: smoke runs, self-time arithmetic, checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from reference import NOMINAL_SAMPLE_S, Calibration  # noqa: E402
from tracer import self_times, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def span(parent, name, start, end, op=0, cmd=0):
    return (op, cmd, parent, name, start, end)


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        span(-1, "cli.main", 0.0, 10.0),
        span(0, "engine.a", 1.0, 3.0),
        span(0, "engine.b", 2.0, 5.0),  # overlaps engine.a: covered once
        span(0, "tls.c", 9.0, 12.0),  # sticks out of the parent: clipped
        span(2, "disorder.d", 2.5, 3.5),
    ]
    own = self_times(spans)
    assert own == pytest.approx([5.0, 2.0, 2.0, 3.0, 1.0])


def test_layer_self_times_sum_to_root_duration():
    spans = [
        span(-1, "cli.main", 0.0, 4.0),
        span(0, "engine.sample_heats", 0.5, 3.5),
        span(1, "engine.sample_heats_chunk", 0.5, 3.0),
        span(2, "disorder.sample_waiting_times", 1.0, 1.25),
        span(2, "disorder.sample_waiting_times", 2.0, 2.5),
        span(-1, "cli.main", 5.0, 6.0, op=1),
    ]
    totals = summarize(spans)
    layers = sum(totals.get(f"{layer}.self_s", 0.0) for layer in ("cli", "engine", "disorder", "operators", "tls"))
    assert layers == pytest.approx(5.0)
    assert totals["disorder.sample_waiting_times.calls"] == 2
    assert totals["engine.sample_heats_chunk.self_s"] == pytest.approx(1.75)
    assert totals["cli.self_s"] == pytest.approx(2.0)
    assert "tls.self_s" not in totals  # no tls span: not recorded


def test_calibration_clocks():
    # The sampler held the CPU over [1, 2], [5, 6] and [8, 9]; its samples
    # took 0.9, 0.8 and 0.5 s.
    cal = Calibration([(1.0, 1.1, 2.0), (5.0, 5.2, 6.0), (8.0, 8.5, 9.0)])
    assert [cal.own(t) for t in (0.5, 1.5, 3.0, 5.5, 10.0)] == pytest.approx([0.5, 1.0, 2.0, 4.0, 7.0])
    nominal = NOMINAL_SAMPLE_S
    assert cal.nominal(6.5) - cal.nominal(5.5) == pytest.approx(0.5 * nominal / 0.8)
    assert cal.nominal(10.0) - cal.nominal(0.5) == pytest.approx((3.5 / 0.9 + 2.0 / 0.8 + 1.0 / 0.5) * nominal)


class _CorruptingCli:
    """Runs the real CLI, then damages the CSV it wrote."""

    def __init__(self, damage):
        from qheat import cli

        self.cli, self.damage = cli, damage

    def main(self, argv):
        rc = self.cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(self.damage(out.read_text()))
        return rc


def _nan_exp_avg(text):
    lines = text.splitlines()
    return "\n".join(",".join(ln.split(",")[:2] + ["nan", "0.0"]) if ln.startswith("exp_avg") else ln for ln in lines)


@pytest.mark.parametrize(
    "workload,damage",
    [
        ("mc_tls_paper", _nan_exp_avg),
        ("mc_tls_paper", lambda t: "\n".join(ln for ln in t.splitlines() if not ln.startswith("exp_avg"))),
        ("exact_enum", lambda t: t.replace("p_atom,", "p_atom,x", 1)),
        ("figures", lambda t: "\n".join(t.splitlines()[:-1])),
    ],
)
def test_corrupted_csv_is_a_failed_op(tmp_path, workload, damage):
    from qheat import cli

    op = workloads.build_op(workload, 7, 1, tmp_path, tiny=True)
    assert child.execute(op, cli)[2] is None
    failure = child.execute(op, _CorruptingCli(damage))[2]
    assert failure is not None


def test_nonzero_exit_is_a_failed_op(tmp_path):
    op = workloads.build_op("mc_tls_paper", 7, 1, tmp_path, tiny=True)
    op[0].files = {path: "{}" for path in op[0].files}  # empty spec: config error, exit 2
    from qheat import cli

    assert "exit code 2" in child.execute(op, cli)[2]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_of_every_workload(tmp_path, workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--tiny", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        return
    record = json.loads((tmp_path / f"{workload}-seed3-trace1.json").read_text())
    per_command = record["trace_checks"]["per_command"]
    if workload == "exact_enum":
        assert per_command["exact tls"]["engine.enumerations"] == 18
        assert per_command["exact matrix"]["engine.enumerations"] == 18
    if workload.startswith("mc_"):
        assert per_command["simulate"]["engine.traj"] == workloads.TINY_N_TRAJ


def _traced_checks(tmp_path, workload):
    result = child.run(workload, 5, 0.1, True, True, tmp_path, str(ROOT / "src"), 0)
    assert result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer"]]
    return run.per_layer(result, run.src_loc(ROOT / "src"), names)[1]


def test_traced_run_records_what_its_workload_requires(tmp_path):
    assert _traced_checks(tmp_path, "mc_tls_paper")["not_recorded"] == []


def test_traced_run_fails_when_a_target_is_not_wrapped(tmp_path, monkeypatch):
    kept = [t for t in tracer.TARGETS if t[0] != "engine.sample_heats_chunk"]
    monkeypatch.setattr(tracer, "TARGETS", kept)
    missing = _traced_checks(tmp_path, "mc_tls_paper")["not_recorded"]
    assert missing == ["engine.sample_heats_chunk.self_s", "engine.blocks"]


def test_every_per_layer_metric_is_required_somewhere():
    computed = {"cli.csv_bytes", "proc.cpu_s", "trace.op_s", "trace.untraced_op_s", "trace.overhead_s"}
    required = {name for names in tracer.REQUIRED.values() for name in names}
    assert set(tracer.REQUIRED) == set(NAMES)
    for m in SPEC["per_layer"]:
        name = m["name"]
        assert name in required or name in computed or name.endswith(".src_loc"), name
    assert required <= {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WORKLOADS
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_judge_verdicts():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    faster = [v * 0.8 for v in parent]
    assert compare.judge_metric(parent, faster, "lower", 0.1)[0] == "gain"
    assert compare.judge_metric(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "REGRESSION"
    assert compare.judge_metric(parent, [v * 1.05 for v in parent], "lower", 0.1)[0] == "within bound"
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0, 0.9, 1.1]
    assert compare.judge_metric(noisy, [v * 1.15 for v in noisy], "lower", 0.1)[0] == "unresolved"


def test_judge_refuses_fewer_than_ten_pairs(capsys):
    def side(v):
        return {"failed": 0, "metrics": {m["name"]: {"value": v} for m in SPEC["end_to_end"]}}

    pairs = [{"workload": NAMES[0], "parent": side(1.0), "change": side(0.5)} for _ in range(3)]
    assert compare.judge(pairs, SPEC) == 2
    assert compare.judge(pairs * 4, SPEC) == 0
    assert "-> gain" in capsys.readouterr().out
