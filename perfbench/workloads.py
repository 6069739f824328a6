"""Workload definitions: inputs, per-operation seeds and output checks.

Every input is generated here from the workload seed with plain numpy;
the program under test only ever sees the generated JSON specs and CLI
arguments. qheat itself is used only for the closed forms the checks
compare against and for the figure defaults. An operation is one fixed list of ``qheat`` commands; each
operation derives its own seed, so no two operations of a run repeat an
identical computation.

Checks raise ``CheckFailed``; the caller counts the operation as failed.
They use the paper's exact identity: a thermal initial state gives
G(i*beta) = 1 under any waiting-time disorder, because the averaged
measurement channel is unital.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qheat import cli, tls
from qheat.disorder import Annealed, DiscreteWaitingDist, Fixed

# Why each workload exists. The one-line ``why`` strings are repeated in
# BENCHMARK.json; a test keeps the two in step.
WORKLOADS = {
    "mc_tls_paper": (
        "simulate on the paper's TLS set, 100k trajectories: the fixed-count "
        "sampler does ~95% of the work, enumeration idles"
    ),
    "mc_matrix_total_time": (
        "simulate on a random d=4 system with a total_time schedule: random "
        "count, d>2 and a remainder phase stress the sampler differently"
    ),
    "exact_enum": (
        "exact on the TLS paper set and a random d=3 quenched system at "
        "m_count 6: enumeration does all the work, the sampler none"
    ),
    "figures": (
        "figure fig1..fig5 and the fig2 inset at defaults: the only workload "
        "that runs the tls closed forms and many small samplers"
    ),
}
# mc_tls_paper: ROADMAP item 3 (the vectorised sampler) must show here.
# mc_matrix_total_time: the same sampler used differently
#   (disorder.sample_until_total_time, d > 2, a remainder phase), so a
#   fixed-count optimisation that slows this path shows here.
# exact_enum: ROADMAP item 2 (the transfer-matrix core) must show here.
# figures: without it the tls module would go unmeasured; the closed
#   forms are a small share, the rest is 132 jarzynski_estimate calls of
#   1000 trajectories, so per-call sampler set-up matters here.

# The paper's two-level parameter set.
PAPER_TLS = {"kind": "tls", "energy": 1.0, "a_sq": 0.25, "excited_pop": 0.3}
PAPER_MODEL = {"kind": "annealed", "values": [0.01, 3.0], "probs": [0.3, 0.7]}
PAPER_BETA = 1.0

MC_TLS_N_TRAJ = 100_000
MC_MATRIX_N_TRAJ = 20_000
EXACT_M_COUNT = 6
FIGURES = [["fig1"], ["fig2"], ["fig2", "--inset"], ["fig3"], ["fig4"], ["fig5"]]

# Reduced sizes for the warm-up operation and for --tiny smoke runs. They
# run the same commands and code paths as the full-size operations.
TINY_N_TRAJ = 2000
TINY_M_COUNT = 3
TINY_FIGURE_OVERRIDES = {
    "fig1": {"c1_points": 3, "n_traj": 200, "a_values": [0.0, 0.5]},
    "fig2": {"c1_points": 3, "n_traj": 200, "a_values": [0.0, 0.5], "a_step": 0.25},
    "fig3": {"mean_points": 3, "total_times": [2.0, 5.0]},
    "fig4": {"scale_points": 5},
    "fig5": {"a_sq_points": 5},
}


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


@dataclass
class Command:
    """One qheat CLI invocation; ``files`` are inputs written before timing."""

    label: str
    argv: list[str]
    out: Path
    check: Callable[[Path], None]
    files: dict[Path, str] = field(default_factory=dict)
    n_traj: int = 0


def op_rng(workload_seed: int, op_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(workload_seed, spawn_key=(op_index,)))


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _pairs(m: np.ndarray) -> list:
    """Complex matrix as the CLI's nested [re, im] pairs."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    x = rng.normal(scale=scale, size=(dim, dim)) + 1j * rng.normal(scale=scale, size=(dim, dim))
    return 0.5 * (x + x.conj().T)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def thermal_state(h: np.ndarray, beta: float) -> np.ndarray:
    evals, vecs = np.linalg.eigh(h)
    w = np.exp(-beta * (evals - evals[0]))
    rho = (vecs * (w / w.sum())) @ vecs.conj().T
    return 0.5 * (rho + rho.conj().T)


def random_matrix_system(dim: int, beta: float, rng: np.random.Generator) -> tuple[dict, np.ndarray]:
    """A random Hermitian H, a Haar-random basis and the thermal rho0 of H."""
    h = random_hermitian(dim, rng)
    system = {
        "kind": "matrix",
        "hamiltonian": _pairs(h),
        "basis": _pairs(haar_unitary(dim, rng)),
        "rho0": _pairs(thermal_state(h, beta)),
    }
    return system, np.linalg.eigvalsh(h)


# --- output parsing --------------------------------------------------------


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    if not lines:
        raise CheckFailed(f"{path.name}: no table")
    columns = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(columns) for r in rows):
        raise CheckFailed(f"{path.name}: ragged rows")
    return columns, rows


def _num(cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CheckFailed(f"non-numeric cell {cell!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite cell {cell!r}")
    return value


def read_quantities(path: Path) -> dict[str, list[tuple[float, float, float]]]:
    """simulate/exact output as {quantity: [(arg, value, error_or_aux), ...]}."""
    columns, rows = read_table(path)
    if columns[0] != "quantity" or len(columns) != 4:
        raise CheckFailed(f"{path.name}: unexpected columns {columns}")
    out: dict[str, list] = {}
    for r in rows:
        out.setdefault(r[0], []).append(tuple(_num(c) for c in r[1:]))
    return out


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _one(quantities: dict, name: str) -> tuple[float, float, float]:
    rows = quantities.get(name, [])
    _require(len(rows) == 1, f"expected one {name} row, found {len(rows)}")
    return rows[0]


def _check_atoms(quantities: dict, allowed: np.ndarray, tol_sum: float):
    atoms = quantities.get("p_atom", [])
    _require(bool(atoms), "no p_atom rows")
    total = sum(p for _, p, _ in atoms)
    _require(abs(total - 1.0) <= tol_sum, f"atoms sum to {total!r}")
    for q, _, _ in atoms:
        _require(bool(np.any(np.abs(allowed - q) <= 1e-9)), f"atom {q!r} is not an energy gap")


def _gaps(evals: np.ndarray) -> np.ndarray:
    return (evals[:, None] - evals[None, :]).ravel()


def check_simulate(expected: float, gaps: np.ndarray, z: float = 4.0):
    """exp_avg within ``z`` standard errors of ``expected``; atoms on energy gaps."""

    def check(path: Path):
        q = read_quantities(path)
        _check_atoms(q, gaps, 1e-9)
        _, est, err = _one(q, "exp_avg")
        _require(abs(est - expected) <= z * err, f"exp_avg {est!r} vs {expected!r} (err {err!r})")
        _require(sorted(a for a, _, _ in q.get("moment", [])) == [1.0, 2.0], "missing moments")

    return check


def check_exact(expected: float, gaps: np.ndarray, n_u: int):
    """Atoms sum to 1 within 1e-12; exp_avg equals ``expected`` within 1e-10."""

    def check(path: Path):
        q = read_quantities(path)
        _check_atoms(q, gaps, 1e-12)
        _, re, im = _one(q, "exp_avg")
        _require(abs(re - expected) <= 1e-10 and abs(im) <= 1e-10, f"exp_avg {re!r}{im:+}j vs {expected!r}")
        _require(len(q.get("char_fn", [])) == n_u, "missing char_fn rows")
        _require(sorted(a for a, _, _ in q.get("moment", [])) == [1.0, 2.0], "missing moments")

    return check


def check_figure(rows_expected: int, sweep: dict | None = None):
    """Every cell finite and no row missing.

    For the population sweeps (fig1, fig2; ``sweep`` holds the figure's
    parameters and waiting-time model) the thermal row must have every
    g_a* = 1 within 1e-10 and every mc_a* must lie within 5 standard
    errors of its g_a*. The
    standard error is the exact one, sqrt((G(2i*beta) - G(i*beta)^2) / n)
    from the closed forms: the sample error in the err_a* column comes
    from only 1000 skewed weights and is too small exactly when rare
    large weights are missing, which would fail about one correct
    figures operation in eleven.
    """

    def check(path: Path):
        columns, rows = read_table(path)
        table = [[_num(c) for c in r] for r in rows]
        _require(len(table) == rows_expected, f"{len(table)} rows, expected {rows_expected}")
        if sweep is None:
            return
        beta = sweep["beta"]
        thermal_c1 = tls.thermal_excited_pop(sweep["energy"], beta)
        thermal = [r for r in table if abs(r[0] - thermal_c1) <= 1e-12]
        _require(columns[0] == "c1" and len(thermal) == 1, "no thermal row")
        for j, a in enumerate(sweep["a_values"]):
            i = 1 + 3 * j
            _require(columns[i] == f"g_a{a}", f"unexpected columns {columns}")
            _require(abs(thermal[0][i] - 1.0) <= 1e-10, f"thermal {columns[i]} = {thermal[0][i]!r}")
            for r in table:
                p = tls.TwoLevelParams(
                    energy=sweep["energy"], a_sq=a * a, excited_pop=r[0], n_meas=sweep["m_count"], beta=beta
                )
                g1 = tls.char_fn(p, sweep["model"], 1j * beta).real
                g2 = tls.char_fn(p, sweep["model"], 2j * beta).real
                stderr = math.sqrt(max(g2 - g1 * g1, 0.0) / sweep["n_traj"])
                g, mc = r[i], r[i + 1]
                _require(abs(mc - g) <= 5.0 * stderr + 1e-12, f"{columns[i + 1]} {mc!r} vs {g!r} (stderr {stderr!r})")

    return check


def figure_sweep(which: str, params: dict) -> dict:
    """Parameters of a fig1/fig2 population sweep, with its waiting-time model."""
    if which == "fig1":
        return {**params, "model": Fixed(params["tau_bar"])}
    return {**params, "model": Annealed(DiscreteWaitingDist.bimodal(*params["supports"], params["p1"]))}


# --- closed forms used by the checks ---------------------------------------


def tls_exp_avg(excited_pop: float, m_count: int) -> float:
    """Closed-form G(i*beta) of the paper's TLS set (qheat.tls.char_fn)."""
    p = tls.TwoLevelParams(
        energy=PAPER_TLS["energy"],
        a_sq=PAPER_TLS["a_sq"],
        excited_pop=excited_pop,
        n_meas=m_count,
        beta=PAPER_BETA,
    )
    model = Annealed(DiscreteWaitingDist(np.array(PAPER_MODEL["values"]), np.array(PAPER_MODEL["probs"])))
    return tls.char_fn(p, model, 1j * PAPER_BETA).real


TLS_GAPS = _gaps(np.array([-PAPER_TLS["energy"], PAPER_TLS["energy"]]))


# --- operations ------------------------------------------------------------


def _experiment(label, command, spec, seed, workdir, tag, check, extra=(), n_traj=0) -> Command:
    cfg = workdir / f"{tag}.json"
    out = workdir / f"{tag}.csv"
    argv = [command, "--config", str(cfg), "--seed", str(seed), *extra, "--out", str(out)]
    return Command(label, argv, out, check, {cfg: json.dumps(spec)}, n_traj)


def build_op(workload: str, workload_seed: int, op_index: int, workdir: Path, tiny: bool = False) -> list[Command]:
    """The commands of one operation, with inputs derived from (seed, op_index)."""
    rng = op_rng(workload_seed, op_index)
    tag = f"op{op_index}"
    if workload == "mc_tls_paper":
        n_traj = TINY_N_TRAJ if tiny else MC_TLS_N_TRAJ
        m_count = 5
        spec = {
            "system": PAPER_TLS,
            "model": PAPER_MODEL,
            "schedule": {"m_count": m_count},
            "beta": PAPER_BETA,
            "n_traj": n_traj,
        }
        check = check_simulate(tls_exp_avg(PAPER_TLS["excited_pop"], m_count), TLS_GAPS)
        return [_experiment("simulate", "simulate", spec, _cli_seed(rng), workdir, tag, check, ("--threads", "1"), n_traj)]
    if workload == "mc_matrix_total_time":
        n_traj = TINY_N_TRAJ if tiny else MC_MATRIX_N_TRAJ
        beta = 0.5
        system, evals = random_matrix_system(4, beta, rng)
        spec = {
            "system": system,
            "model": {"kind": "annealed", "values": [0.2, 0.7, 1.5], "probs": [0.25, 0.5, 0.25]},
            "schedule": {"total_time": 8.0},
            "beta": beta,
            "n_traj": n_traj,
        }
        check = check_simulate(1.0, _gaps(evals))
        return [_experiment("simulate", "simulate", spec, _cli_seed(rng), workdir, tag, check, ("--threads", "1"), n_traj)]
    if workload == "exact_enum":
        m_count = TINY_M_COUNT if tiny else EXACT_M_COUNT
        # Only the initial population is drawn per operation: it leaves the
        # cost unchanged and keeps operations from repeating a computation.
        excited_pop = float(rng.uniform(0.1, 0.5))
        tls_spec = {
            "system": {**PAPER_TLS, "excited_pop": excited_pop},
            "model": PAPER_MODEL,
            "schedule": {"m_count": m_count},
            "beta": PAPER_BETA,
            "moments": [1, 2],
        }
        beta = 1.0
        system, evals = random_matrix_system(3, beta, rng)
        matrix_spec = {
            "system": system,
            "model": {"kind": "quenched", "values": [0.3, 1.1], "probs": [0.4, 0.6]},
            "schedule": {"m_count": m_count},
            "beta": beta,
            "moments": [1, 2],
        }
        return [
            _experiment("exact tls", "exact", tls_spec, _cli_seed(rng), workdir, f"{tag}_tls",
                        check_exact(tls_exp_avg(excited_pop, m_count), TLS_GAPS, 5)),
            _experiment("exact matrix", "exact", matrix_spec, _cli_seed(rng), workdir, f"{tag}_matrix",
                        check_exact(1.0, _gaps(evals), 5)),
        ]
    if workload == "figures":
        commands = []
        for j, fig_args in enumerate(FIGURES):
            which, label = fig_args[0], " ".join(fig_args)
            out = workdir / f"{tag}_{j}.csv"
            argv = ["figure", *fig_args, "--seed", str(_cli_seed(rng)), "--out", str(out)]
            files = {}
            overrides = TINY_FIGURE_OVERRIDES[which] if tiny else {}
            if overrides:
                cfg = workdir / f"{tag}_{j}.json"
                files[cfg] = json.dumps(overrides)
                argv[-2:-2] = ["--config", str(cfg)]
            params = {**cli.FIGURE_DEFAULTS[which], **overrides}
            sweep = figure_sweep(which, params) if label in ("fig1", "fig2") else None
            n_traj = len(params["a_values"]) * params["n_traj"] * _figure_rows(label, params) if sweep else 0
            commands.append(Command(label, argv, out, check_figure(_figure_rows(label, params), sweep), files, n_traj))
        return commands
    raise ValueError(f"unknown workload {workload!r}")


def _figure_rows(label: str, params: dict) -> int:
    """Rows of a figure table; fig1/fig2 sweep c1_points populations plus the thermal one."""
    if label in ("fig1", "fig2"):
        grid = set(np.linspace(0.0, 1.0, params["c1_points"]).tolist())
        return len(grid | {tls.thermal_excited_pop(params["energy"], params["beta"])})
    if label == "fig2 --inset":
        return len(np.arange(0.0, 1.0 + 1e-9, params["a_step"]))
    return params[{"fig3": "mean_points", "fig4": "scale_points", "fig5": "a_sq_points"}[label]]
