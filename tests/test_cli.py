"""Tests for the command-line interface and its file formats."""

import hashlib
import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qheat import cli, tls


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def load_perfbench(monkeypatch, name):
    """A module of the benchmark harness in ``perfbench/``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def base_spec(**overrides):
    spec = {
        "system": {"kind": "tls", "energy": 1.0, "a_sq": 0.25, "excited_pop": 0.3},
        "model": {"kind": "fixed", "tau_bar": 1.0},
        "schedule": {"m_count": 5},
        "beta": 1.0,
        "seed": 99,
        "n_traj": 1500,
    }
    spec.update(overrides)
    return spec


def read_csv(path):
    metadata, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            metadata[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return metadata, columns, rows


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_spec(tmp_path, base_spec())
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_do_not_change_data(self, tmp_path):
        cfg = write_spec(tmp_path, base_spec())
        rows = []
        for threads, name in ((1, "t1.csv"), (3, "t3.csv")):
            out = tmp_path / name
            assert (
                cli.main(
                    ["simulate", "--config", cfg, "--threads", str(threads), "--out", str(out)]
                )
                == 0
            )
            rows.append(read_csv(out)[2])
        assert rows[0] == rows[1]

    def test_output_structure(self, tmp_path):
        cfg = write_spec(tmp_path, base_spec())
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        metadata, columns, rows = read_csv(out)
        assert columns == ["quantity", "arg", "value", "error"]
        assert metadata["seed"] == "99"
        assert "config" in metadata and "config_hash" in metadata
        atoms = [r for r in rows if r[0] == "p_atom"]
        assert sum(float(r[2]) for r in atoms) == pytest.approx(1.0, abs=1e-12)
        assert {float(r[1]) for r in atoms} <= {-2.0, 0.0, 2.0}
        exp_rows = [r for r in rows if r[0] == "exp_avg"]
        assert len(exp_rows) == 1
        moments = [r for r in rows if r[0] == "moment"]
        assert [r[1] for r in moments] == ["1", "2"]

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_spec(tmp_path, base_spec())
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", "--config", cfg, "--seed", "777", "--out", str(out)]) == 0
        metadata, _, _ = read_csv(out)
        assert metadata["seed"] == "777"

    def test_total_time_schedule(self, tmp_path):
        cfg = write_spec(tmp_path, base_spec(schedule={"total_time": 4.0}, n_traj=200))
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    def test_interval_cap_exits_promptly(self, tmp_path, capsys):
        # Uncapped, each of the 1500 trajectories would draw 1e8 intervals.
        spec = base_spec(model={"kind": "fixed", "tau_bar": 1e-7}, schedule={"total_time": 10.0})
        start = time.perf_counter()
        code = cli.main(["simulate", "--config", write_spec(tmp_path, spec)])
        assert time.perf_counter() - start < 5.0
        assert code == cli.ENUMERATION_ERROR
        assert "hint: shorten total_time" in capsys.readouterr().err

    def test_energy_basis_measurements_leave_no_heat(self, tmp_path):
        spec = base_spec(system={"kind": "tls", "energy": 1.0, "a_sq": 0.0, "excited_pop": 0.3})
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", "--config", write_spec(tmp_path, spec), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        atoms = [r for r in rows if r[0] == "p_atom"]
        assert [(float(r[1]), float(r[2])) for r in atoms] == [(0.0, 1.0)]


class TestExact:
    def test_thermal_values(self, tmp_path):
        c_th = tls.thermal_excited_pop(1.0, 1.0)
        spec = base_spec(
            system={"kind": "tls", "energy": 1.0, "a_sq": 0.25, "excited_pop": c_th},
            u_grid=[0.0, 1.0],
            moments=[1, 2],
        )
        out = tmp_path / "out.csv"
        assert cli.main(["exact", "--config", write_spec(tmp_path, spec), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns == ["quantity", "arg", "value", "aux"]
        atoms = [r for r in rows if r[0] == "p_atom"]
        assert sum(float(r[2]) for r in atoms) == pytest.approx(1.0, abs=1e-10)
        g0 = [r for r in rows if r[0] == "char_fn" and float(r[1]) == 0.0][0]
        assert float(g0[2]) == pytest.approx(1.0, abs=1e-12)
        assert float(g0[3]) == pytest.approx(0.0, abs=1e-12)
        exp_avg = [r for r in rows if r[0] == "exp_avg"][0]
        assert float(exp_avg[2]) == pytest.approx(1.0, abs=1e-10)

    def test_matrix_system_round_trip(self, tmp_path):
        # A qubit given explicitly as matrices: symmetric observable basis.
        s = 1 / math.sqrt(2)
        spec = base_spec(
            system={
                "kind": "matrix",
                "hamiltonian": [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "basis": [[[s, 0.0], [s, 0.0]], [[-s, 0.0], [s, 0.0]]],
                "rho0": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
            },
            u_grid=[0.0],
        )
        out = tmp_path / "out.csv"
        assert cli.main(["exact", "--config", write_spec(tmp_path, spec), "--out", str(out)]) == 0

    def test_enumeration_cap_exit_code(self, tmp_path):
        spec = base_spec(
            model={"kind": "annealed", "values": [0.1, 0.9], "probs": [0.5, 0.5]},
            schedule={"m_count": 24},
        )
        assert cli.main(["exact", "--config", write_spec(tmp_path, spec)]) == cli.ENUMERATION_ERROR


class TestConfigErrors:
    def test_missing_field(self, tmp_path, capsys):
        spec = base_spec()
        del spec["system"]["energy"]
        code = cli.main(["simulate", "--config", write_spec(tmp_path, spec)])
        assert code == cli.CONFIG_ERROR
        assert "system.energy" in capsys.readouterr().err

    def test_bad_probabilities_named(self, tmp_path, capsys):
        spec = base_spec(model={"kind": "quenched", "values": [0.1, 0.9], "probs": [0.6, 0.6]})
        code = cli.main(["simulate", "--config", write_spec(tmp_path, spec)])
        assert code == cli.CONFIG_ERROR
        assert "probabilities" in capsys.readouterr().err

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"system": }')
        code = cli.main(["simulate", "--config", str(path)])
        assert code == cli.CONFIG_ERROR
        assert "line 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == cli.CONFIG_ERROR

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"schedule": {"m_count": "5"}}, "schedule.m_count"),
            ({"schedule": {"m_count": 5.5}}, "schedule.m_count"),
            ({"schedule": {"m_count": True}}, "schedule.m_count"),
            ({"schedule": {"total_time": "3"}}, "schedule.total_time"),
            ({"seed": -3}, "<root>.seed"),
            ({"seed": "7"}, "<root>.seed"),
            ({"beta": -1.0}, "<root>.beta"),
            ({"beta": "1"}, "<root>.beta"),
            (
                {
                    "system": {
                        "kind": "matrix",
                        "hamiltonian": [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                        "basis": np.stack([np.eye(3), np.zeros((3, 3))], axis=-1).tolist(),
                        "rho0": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                    }
                },
                "system",
            ),
            ({"n_traj": "100"}, "<root>.n_traj"),
            ({"n_traj": 2.7}, "<root>.n_traj"),
            ({"moments": 3}, "<root>.moments"),
            ({"moments": [7]}, "<root>.moments"),
            ({"u_grid": 1.0}, "<root>.u_grid"),
        ],
    )
    def test_bad_value_named_without_traceback(self, tmp_path, capsys, overrides, field):
        # An unhandled exception would propagate out of main and fail here.
        code = cli.main(["simulate", "--config", write_spec(tmp_path, base_spec(**overrides))])
        err = capsys.readouterr().err
        assert code == cli.CONFIG_ERROR
        assert f"config field '{field}'" in err
        assert "Traceback" not in err

    def test_unknown_system_kind(self, tmp_path, capsys):
        spec = base_spec(system={"kind": "spin-chain"})
        assert cli.main(["simulate", "--config", write_spec(tmp_path, spec)]) == cli.CONFIG_ERROR
        assert "system.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "exact"])
    def test_non_finite_exp_avg_named(self, tmp_path, capsys, command):
        # exp(-beta*q) overflows at beta = 800 for the heat -2.
        out = tmp_path / "out.csv"
        cfg = write_spec(tmp_path, base_spec(beta=800, u_grid=[0.0]))
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.CONFIG_ERROR
        err = capsys.readouterr().err
        assert "config field '<root>.beta'" in err and "not finite" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestFigures:
    def test_fig1_lines_and_crossing(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert cli.main(["figure", "fig1", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns[0] == "c1"
        flat = [float(r[columns.index("g_a0.0")]) for r in rows]
        assert max(abs(v - 1.0) for v in flat) < 1e-12
        c_th = tls.thermal_excited_pop(1.0, 1.0)
        cross = [r for r in rows if abs(float(r[0]) - c_th) < 1e-12]
        assert len(cross) == 1
        for a in ("0.0", "0.1", "0.5"):
            assert float(cross[0][columns.index(f"g_a{a}")]) == pytest.approx(1.0, abs=1e-10)

    def test_fig2_main_and_inset(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert cli.main(["figure", "fig2", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert len(rows) >= 21
        out2 = tmp_path / "fig2_inset.csv"
        assert cli.main(["figure", "fig2", "--inset", "--out", str(out2)]) == 0
        _, columns2, rows2 = read_csv(out2)
        assert columns2 == ["a", "a_sq", "slope_fixed", "slope_quenched", "slope_annealed"]
        mid = [r for r in rows2 if abs(float(r[0]) - 0.0) < 1e-12][0]
        # Commuting observable: every slope vanishes.
        assert all(abs(float(v)) < 1e-12 for v in mid[2:])

    def test_fig3_columns_and_signs(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert cli.main(["figure", "fig3", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns[0] == "mean_tau"
        assert len(columns) == 9
        # Support endpoints are disorder-free: the gap vanishes there.
        for edge in (rows[0], rows[-1]):
            assert all(float(v) == 0.0 for v in edge[1:])
        # Just inside the rapid-measurement end the noisy protocol wins.
        short = rows[1]
        assert all(float(v) < 0 for v in short[1:])

    def test_fig4_reference_curves(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert cli.main(["figure", "fig4", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns[0] == "splitting_mean_tau"
        assert len(columns) == 6
        values = np.array([[float(v) for v in r] for r in rows])
        # energy = splitting/2 = 5, mixing 0.2: the peak heat lives between
        # the frozen-dynamics floor 4*E*a2*(1-a2) = 3.2 and E*(1 + (1-2*a2)^2)
        # = 6.8 (the alternating channel can overshoot when the mixed hop
        # probability exceeds one half at an even measurement count).
        assert np.all(values[:, 1:] >= 3.2 - 1e-9)
        assert np.all(values[:, 1:] <= 6.8 + 1e-9)
        # Degenerate-disorder columns dip to the floor at the resonant scale.
        x = values[:, 0]
        p0 = values[:, columns.index("peak_heat_p0.0")]
        near = np.abs(x - 2 * np.pi) < 0.05
        assert p0[near].min() < 3.25

    def test_fig5_slopes_increase_with_count(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert cli.main(["figure", "fig5", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns == ["a_sq", "slope_m2", "slope_m10", "slope_m100", "slope_limit"]
        interior = [r for r in rows if 0.05 < float(r[0]) <= 0.5]
        for r in interior:
            m2, m10, m100 = (float(r[i]) for i in (1, 2, 3))
            assert m2 <= m10 + 1e-12 <= m100 + 2e-12

    def test_figure_overrides(self, tmp_path):
        cfg = write_spec(tmp_path, {"n_traj": 50, "c1_points": 3})
        out = tmp_path / "fig1_small.csv"
        assert cli.main(["figure", "fig1", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 4  # 3 grid points plus the thermal crossing

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"c1_points": "x"}, "figure.c1_points"),
            ({"c1_pointz": 3}, "figure.c1_pointz"),
            ({"n_traj": 2.5}, "figure.n_traj"),
            ({"a_values": [0.0, "x"]}, "figure.a_values"),
            ({"tau_bar": True}, "figure.tau_bar"),
        ],
    )
    def test_bad_override_named(self, tmp_path, capsys, overrides, field):
        code = cli.main(["figure", "fig1", "--config", write_spec(tmp_path, overrides)])
        err = capsys.readouterr().err
        assert code == cli.CONFIG_ERROR
        assert f"config field '{field}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, overrides, field",
        [
            (["fig2", "--inset"], {"a_step": 0.0}, "figure.a_step"),
            (["fig2", "--inset"], {"a_step": -0.1}, "figure.a_step"),
            (["fig2", "--inset"], {"a_step": 1.5}, "figure.a_step"),
            (["fig2"], {"supports": [1.0]}, "figure.supports"),
            (["fig2"], {"supports": [1.0, 1.0]}, "figure.supports"),
            (["fig3"], {"supports": [-0.1, 1.5]}, "figure.supports"),
            (["fig2"], {"p1": 1.5}, "figure.p1"),
            (["fig4"], {"p1_values": [0.5, -0.1]}, "figure.p1_values"),
            (["fig2", "--inset"], {"m_count": 0}, "figure.m_count"),
            (["fig5"], {"m_values": [2, 0]}, "figure.m_values"),
            (["fig1"], {"n_traj": 1}, "figure.n_traj"),
            (["fig1"], {"c1_points": 0}, "figure.c1_points"),
            (["fig3"], {"mean_points": 0}, "figure.mean_points"),
            (["fig4"], {"scale_points": 0}, "figure.scale_points"),
            (["fig5"], {"a_sq_points": 0}, "figure.a_sq_points"),
            (["fig3"], {"total_times": [1.5, 0.0]}, "figure.total_times"),
            (["fig4"], {"total_time": -1.0}, "figure.total_time"),
            (["fig1"], {"tau_bar": 0.0}, "figure.tau_bar"),
            (["fig1"], {"energy": 0.0}, "figure.energy"),
            (["fig3"], {"splitting": 0.0}, "figure.splitting"),
            (["fig4"], {"splitting": -10.0}, "figure.splitting"),
            (["fig1"], {"beta": -1.0}, "figure.beta"),
            (["fig1"], {"a_values": [0.0, 2.0]}, "figure.a_values"),
            (["fig3"], {"a_sq": 1.5}, "figure.a_sq"),
            (["fig5"], {"a_sq_max": 2.0}, "figure.a_sq_max"),
        ],
    )
    def test_override_out_of_range_named(self, tmp_path, capsys, argv, overrides, field):
        out = tmp_path / "out.csv"
        cfg = write_spec(tmp_path, overrides)
        code = cli.main(["figure", *argv, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.CONFIG_ERROR
        assert f"config field '{field}'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_int_override_fits_float_default(self, tmp_path):
        cfg = write_spec(tmp_path, {"tau_bar": 1, "n_traj": 20, "c1_points": 2})
        assert cli.main(["figure", "fig1", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0

    def test_benchmark_tiny_overrides_are_valid(self, tmp_path, monkeypatch):
        # The benchmark's warm-up and smoke runs pass these overrides.
        workloads = load_perfbench(monkeypatch, "workloads")
        for argv in workloads.FIGURES:
            cfg = write_spec(tmp_path, workloads.TINY_FIGURE_OVERRIDES[argv[0]])
            out = str(tmp_path / "out.csv")
            assert cli.main(["figure", *argv, "--config", cfg, "--out", out]) == 0

    def test_figure_determinism(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = write_spec(tmp_path, {"n_traj": 100, "c1_points": 3}, name=f"{name}.json")
            assert cli.main(["figure", "fig1", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestVerifyCommand:
    def test_quick_gate_passes(self, capsys):
        assert cli.main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 10
        assert "summary: 10/10" in out

    def test_seed_recorded_in_report(self, capsys):
        assert cli.main(["verify", "--quick", "--seed", "5"]) == 0
        assert "seed=5" in capsys.readouterr().out


# A real orthonormal basis and a complex Hermitian Hamiltonian in d = 3.
_R3, _R2, _R6 = math.sqrt(1 / 3), math.sqrt(1 / 2), math.sqrt(1 / 6)
D3_SYSTEM = {
    "kind": "matrix",
    "hamiltonian": [
        [[-1.0, 0.0], [0.2, 0.1], [0.0, 0.0]],
        [[0.2, -0.1], [0.1, 0.0], [0.3, 0.0]],
        [[0.0, 0.0], [0.3, 0.0], [1.0, 0.0]],
    ],
    "basis": [
        [[_R3, 0.0], [_R2, 0.0], [_R6, 0.0]],
        [[_R3, 0.0], [-_R2, 0.0], [_R6, 0.0]],
        [[_R3, 0.0], [0.0, 0.0], [-2 * _R6, 0.0]],
    ],
    "rho0": [
        [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.3, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [0.2, 0.0]],
    ],
}


class TestGoldenDigests:
    """sha256 of the CSV bytes for fixed seeds, pinned across versions.

    Re-running one build only shows determinism; these digests also pin
    the seed-to-bytes contract, so a change to the uniform stream, the
    sampler's arithmetic or the CSV format shows here.
    """

    CASES = {
        "simulate-tls-annealed": (
            ["simulate"],
            base_spec(
                model={"kind": "annealed", "values": [0.01, 3.0], "probs": [0.3, 0.7]},
                n_traj=5000,
                seed=2018,
            ),
            "661685c7fce6fe738a11b891385394ceb273e7cfb1b9bea3f0d137e9043e2e83",
        ),
        "simulate-d3-total-time": (
            ["simulate"],
            base_spec(
                system=D3_SYSTEM,
                model={"kind": "annealed", "values": [0.4, 3.5], "probs": [0.6, 0.4]},
                schedule={"total_time": 3.0},
                beta=0.5,
                n_traj=3000,
                seed=5,
            ),
            "a4c614c6787a0a54ad8c6c1f20b3b49fad6b50b99f3f4daf08f2adfd17cd1ef5",
        ),
        "simulate-d3-quenched-total-time": (
            ["simulate"],
            base_spec(
                system=D3_SYSTEM,
                model={"kind": "quenched", "values": [0.4, 3.5], "probs": [0.6, 0.4]},
                schedule={"total_time": 3.0},
                beta=0.5,
                n_traj=3000,
                seed=6,
            ),
            "fdd726045ac9e78c825017fbe2f43d029528d312146ef6ead3e6a5264a8e7d52",
        ),
        "simulate-tls-fixed-total-time": (
            ["simulate"],
            base_spec(
                model={"kind": "fixed", "tau_bar": 0.3},
                schedule={"total_time": 2.0},
                n_traj=3000,
                seed=7,
            ),
            "d88f6547e7d14834a04b387ef93ee9196c3104ce01e4b0274e033284231363cd",
        ),
        "figure-fig1": (
            ["figure", "fig1"],
            {"c1_points": 3, "n_traj": 300},
            "72492311d0f674472f3bd1fd159c5f1ec487da3ed86541810796226fc1dd99d0",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_csv_digest(self, tmp_path, case):
        argv, spec, digest = self.CASES[case]
        out = tmp_path / "out.csv"
        assert cli.main([*argv, "--config", write_spec(tmp_path, spec), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestBenchmarkContract:
    """A traced benchmark run fails when a per-layer metric its workload
    requires goes unrecorded, or when a work count is not a plain number.
    These tests run each workload's reduced-size operation under the
    benchmark's tracer and check both, without timing anything.
    """

    @pytest.mark.parametrize("workload", ["mc_tls_paper", "mc_matrix_total_time", "exact_enum", "figures"])
    def test_tiny_op_records_every_required_metric(self, tmp_path, monkeypatch, workload):
        workloads = load_perfbench(monkeypatch, "workloads")
        tracing = load_perfbench(monkeypatch, "tracer")
        tracer = tracing.Tracer()
        commands = workloads.build_op(workload, 1000, 1, tmp_path, tiny=True)
        tracer.install()
        try:
            for j, command in enumerate(commands):
                for path, text in command.files.items():
                    path.write_text(text)
                tracer.begin(1, j)
                try:
                    assert cli.main(command.argv) == 0
                finally:
                    tracer.end()
        finally:
            tracer.uninstall()
        counts = [(name, value) for per in tracer.counts.values() for name, value in per.items()]
        assert [name for name, value in counts if type(value) not in (int, float)] == []
        recorded = set(tracing.summarize(tracer.spans)) | {name for name, value in counts if value > 0}
        assert [name for name in tracing.REQUIRED[workload] if name not in recorded] == []
        # One enumeration builds the kernel that every route of an ``exact`` command reads.
        exact = [j for j, command in enumerate(commands) if command.argv[0] == "exact"]
        assert [tracer.counts[(1, j)]["engine.enumerations"] for j in exact] == [1] * len(exact)
