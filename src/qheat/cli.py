"""Command-line front end.

Four subcommands: ``simulate`` (Monte Carlo), ``exact`` (one enumerated
outcome kernel per run serves the atoms, the characteristic function and
the moments), ``figure`` (reference curves for the standard parameter
sets) and ``verify`` (the acceptance gate). Experiments are described
by a JSON document; results are CSV with a comment header carrying the
metadata needed to re-run the experiment. Output is byte-deterministic
for a fixed config and seed: no timestamps, shortest-roundtrip float
formatting.

Exit codes: 0 success, 2 config error, 3 size cap exceeded (enumeration
terms for ``exact``, waiting times per trajectory for ``simulate``),
4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, engine, tls
from .disorder import Annealed, DiscreteWaitingDist, Fixed, Quenched
from .exceptions import ConfigError, EnumerationTooLargeError, IntervalCapError, QheatError
from .operators import DensityMatrix, MeasurementBasis, spectral_decompose

CONFIG_ERROR = 2
ENUMERATION_ERROR = 3
VERIFY_ERROR = 4


@dataclass
class ResultTable:
    """Rectangular result set plus run metadata for the CSV header."""

    columns: list[str]
    rows: list[list] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *cells):
        if len(cells) != len(self.columns):
            raise ValueError("row width does not match the column count")
        self.rows.append(list(cells))

    def _format(self, cell) -> str:
        if isinstance(cell, str):
            return cell
        if isinstance(cell, (int, np.integer)):
            return str(int(cell))
        return repr(float(cell))

    def write(self, stream):
        for key, value in self.metadata.items():
            stream.write(f"# {key}: {value}\n")
        stream.write(",".join(self.columns) + "\n")
        for row in self.rows:
            stream.write(",".join(self._format(c) for c in row) + "\n")


def _require(mapping, key, kind, where, default=...):
    """``mapping[key]`` checked to be a ``kind``; ``default`` (if given) when the key is absent."""
    if key not in mapping:
        if default is not ...:
            return default
        raise ConfigError(f"{where}.{key}", "missing")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    # bool is a subclass of int, but JSON true/false is never a number here.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _seed(spec: dict) -> int:
    seed = _require(spec, "seed", int, "<root>", 0)
    if seed < 0:
        raise ConfigError("<root>.seed", "must be a non-negative integer")
    return seed


def _parse_complex_matrix(raw, where) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(where, f"not a numeric array: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(where, "expected a square matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_model(raw, where="model"):
    kind = _require(raw, "kind", str, where)
    if kind == "fixed":
        return Fixed(_require(raw, "tau_bar", float, where))
    if kind in ("quenched", "annealed"):
        values = _require(raw, "values", list, where)
        probs = _require(raw, "probs", list, where)
        try:
            dist = DiscreteWaitingDist(np.asarray(values, float), np.asarray(probs, float))
        except ValueError as exc:
            raise ConfigError(where, str(exc)) from None
        return Quenched(dist) if kind == "quenched" else Annealed(dist)
    raise ConfigError(f"{where}.kind", f"unknown model kind {kind!r}")


def parse_experiment(spec: dict) -> engine.ProtocolConfig:
    """Build a ProtocolConfig from a JSON experiment description."""
    if not isinstance(spec, dict):
        raise ConfigError("<root>", "top-level config must be an object")
    system = _require(spec, "system", dict, "<root>")
    kind = _require(system, "kind", str, "system")
    beta = _require(spec, "beta", float, "<root>", 0.0)
    if not beta >= 0:
        raise ConfigError("<root>.beta", "must be non-negative")
    if kind == "tls":
        params = tls.TwoLevelParams(
            energy=_require(system, "energy", float, "system"),
            a_sq=_require(system, "a_sq", float, "system"),
            excited_pop=_require(system, "excited_pop", float, "system"),
            n_meas=1,
            beta=beta,
        )
        h, basis = tls.hamiltonian(params), tls.measurement_basis(params)
        rho0 = tls.initial_state(params)
    elif kind == "matrix":
        h = spectral_decompose(_parse_complex_matrix(system.get("hamiltonian"), "system.hamiltonian"))
        basis = MeasurementBasis.from_vectors(
            _parse_complex_matrix(system.get("basis"), "system.basis")
        )
        rho0 = DensityMatrix(_parse_complex_matrix(system.get("rho0"), "system.rho0"))
        if not h.dim == basis.dim == rho0.dim:
            raise ConfigError("system", "hamiltonian, basis and rho0 dimensions differ")
    else:
        raise ConfigError("system.kind", f"unknown system kind {kind!r}")

    model = _parse_model(_require(spec, "model", dict, "<root>"))
    schedule = _require(spec, "schedule", dict, "<root>")
    m_count = _require(schedule, "m_count", int, "schedule", None)
    total_time = _require(schedule, "total_time", float, "schedule", None)
    seed = _seed(spec)
    try:
        return engine.ProtocolConfig(
            h=h,
            basis=basis,
            rho0=rho0,
            model=model,
            beta=beta,
            seed=seed,
            m_count=m_count,
            total_time=total_time,
        )
    except ValueError as exc:
        raise ConfigError("schedule", str(exc)) from None


def _config_hash(spec: dict) -> str:
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _base_metadata(command: str, spec: dict, seed: int) -> dict:
    return {
        "tool": f"qheat {__version__}",
        "command": command,
        "seed": seed,
        "config_hash": _config_hash(spec),
        "config": json.dumps(spec, sort_keys=True, separators=(",", ":")),
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _run_fields(spec: dict) -> tuple[int, list, list]:
    """The spec's ``n_traj``, ``u_grid`` and ``moments``, checked by every command."""
    n_traj = _require(spec, "n_traj", int, "<root>", 10_000)
    if n_traj < 2:
        raise ConfigError("<root>.n_traj", "need at least 2 trajectories")
    u_grid = _require(spec, "u_grid", list, "<root>", [-2.0, -1.0, 0.0, 1.0, 2.0])
    if not all(_is_number(u) and math.isfinite(u) for u in u_grid):
        raise ConfigError("<root>.u_grid", "expected a list of finite numbers")
    orders = _require(spec, "moments", list, "<root>", [1, 2])
    if not all(type(order) is int and 1 <= order <= 4 for order in orders):
        raise ConfigError("<root>.moments", "expected a list of integers in 1..4")
    return n_traj, u_grid, orders


def _require_finite(value: float, error: float):
    """Reject an exponential average that over- or underflowed."""
    if not (math.isfinite(value) and math.isfinite(error)):
        raise ConfigError(
            "<root>.beta",
            f"exponential average is not finite ({value!r}, {error!r}); reduce beta",
        )


def cmd_simulate(spec: dict, seed: int) -> ResultTable:
    """Monte Carlo run: heat histogram, exponential average, first moments."""
    config = parse_experiment({**spec, "seed": seed})
    n_traj, _, _ = _run_fields(spec)
    heats = engine.sample_heats(config, n_traj)
    dist = engine.HeatDistribution.from_samples(heats)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(-config.beta * heats)
        est = float(weights.mean())
        err = float(weights.std(ddof=1) / math.sqrt(n_traj))
    _require_finite(est, err)

    table = ResultTable(columns=["quantity", "arg", "value", "error"])
    table.metadata = _base_metadata("simulate", spec, seed)
    table.metadata["n_traj"] = n_traj
    for q, p in dist.atoms:
        table.add("p_atom", q, p, 0.0)
    table.add("exp_avg", config.beta, est, err)
    for order in (1, 2):
        table.add("moment", order, float(np.mean(heats**order)), 0.0)
    return table


def cmd_exact(spec: dict, seed: int) -> ResultTable:
    """Exact enumeration: atom probabilities, characteristic function, moments."""
    config = parse_experiment({**spec, "seed": seed})
    _, u_grid, orders = _run_fields(spec)
    dist = engine.exact_distribution(config)

    table = ResultTable(columns=["quantity", "arg", "value", "aux"])
    table.metadata = _base_metadata("exact", spec, seed)
    for q, p in dist.atoms:
        table.add("p_atom", q, p, 0.0)
    for u in u_grid:
        g = engine.characteristic_function(config, float(u))
        table.add("char_fn", float(u), g.real, g.imag)
    with np.errstate(over="ignore", invalid="ignore"):
        g_beta = engine.characteristic_function(config, 1j * config.beta)
    _require_finite(g_beta.real, g_beta.imag)
    table.add("exp_avg", config.beta, g_beta.real, g_beta.imag)
    for order in orders:
        table.add("moment", order, engine.heat_moment(config, order), 0.0)
    return table


# Parameter sets behind the reference figures. Values not fixed by the
# figure captions (the fixed-protocol waiting time of the first set, the
# level splitting of the resonance sweep) are chosen here and recorded in
# the output metadata.
FIGURE_DEFAULTS = {
    "fig1": {
        "a_values": [0.0, 0.1, 0.5],
        "energy": 1.0,
        "beta": 1.0,
        "m_count": 5,
        "tau_bar": 1.0,
        "n_traj": 1000,
        "c1_points": 21,
    },
    "fig2": {
        "a_values": [0.0, 0.1, 0.5],
        "energy": 1.0,
        "beta": 1.0,
        "m_count": 5,
        "supports": [0.01, 3.0],
        "p1": 0.3,
        "n_traj": 1000,
        "c1_points": 21,
        "a_step": 0.05,
    },
    "fig3": {
        "splitting": 1.0,
        "supports": [0.1, 1.5],
        "a_sq": 0.2,
        "total_times": [1.5, 2.0, 2.5, 5.0, 10.0, 15.0, 20.0, 50.0],
        "mean_points": 57,
    },
    "fig4": {
        "splitting": 10.0,
        "total_time": 5.0,
        "supports": [0.1, 0.5],
        "a_sq": 0.2,
        "p1_values": [0.0, 0.25, 0.5, 0.75, 1.0],
        "scale_points": 200,
    },
    "fig5": {
        "energy": 1.0,
        "beta": 1.0,
        "supports": [0.01, 3.0],
        "p1": 0.3,
        "m_values": [2, 10, 100],
        "a_sq_max": 0.5,
        "a_sq_points": 51,
    },
}


def _mc_point(p: tls.TwoLevelParams, model, seed: int, n_traj: int) -> tuple[float, float]:
    config = tls.to_protocol_config(p, model, seed=seed)
    return engine.jarzynski_estimate(config, n_traj)


def _figure_sweep_c1(params: dict, model_of, seed: int) -> ResultTable:
    """Shared body of the two exponential-average sweeps over the population."""
    c1_grid = sorted(
        set(np.linspace(0.0, 1.0, params["c1_points"]).tolist())
        | {tls.thermal_excited_pop(params["energy"], params["beta"])}
    )
    columns = ["c1"]
    for a in params["a_values"]:
        columns += [f"g_a{a}", f"mc_a{a}", f"err_a{a}"]
    table = ResultTable(columns=columns)
    for i, c1 in enumerate(c1_grid):
        row = [c1]
        for j, a in enumerate(params["a_values"]):
            p = tls.TwoLevelParams(
                energy=params["energy"],
                a_sq=a * a,
                excited_pop=float(c1),
                n_meas=params["m_count"],
                beta=params["beta"],
            )
            model = model_of(p)
            g = tls.char_fn(p, model, 1j * p.beta).real
            est, err = _mc_point(p, model, seed + 1000 * j + i, params["n_traj"])
            row += [g, est, err]
        table.add(*row)
    return table


def _fits(value, default) -> bool:
    """Whether an override has the type of its baked default; an int fits a float."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, float):
        return _is_number(value)
    return type(value) is type(default)


# Range of a figure override, checked after its type: (test, rule).
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_UNIT = (lambda v: 0 <= v <= 1, "must lie in [0, 1]")
_ALL_UNIT = (lambda v: all(0 <= x <= 1 for x in v), "must all lie in [0, 1]")
_FIGURE_RANGES = {
    "a_step": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "supports": (lambda v: len(v) == 2 and min(v) > 0 and v[0] != v[1], "must be two distinct positive values"),
    "p1": _UNIT,
    "p1_values": _ALL_UNIT,
    "a_values": _ALL_UNIT,
    "a_sq": _UNIT,
    "a_sq_max": _UNIT,
    "tau_bar": _POSITIVE,
    "energy": _POSITIVE,
    "splitting": _POSITIVE,
    "total_time": _POSITIVE,
    "total_times": (lambda v: all(0 < x < math.inf for x in v), "must all be positive and finite"),
    "beta": (lambda v: 0 <= v < math.inf, "must be non-negative and finite"),
    "m_count": _AT_LEAST_ONE,
    "m_values": (lambda v: all(x >= 1 for x in v), "must all be >= 1"),
    "n_traj": (lambda v: v >= 2, "must be >= 2"),
    "c1_points": _AT_LEAST_ONE,
    "mean_points": _AT_LEAST_ONE,
    "scale_points": _AT_LEAST_ONE,
    "a_sq_points": _AT_LEAST_ONE,
}


def cmd_figure(which: str, overrides: dict, seed: int, inset: bool = False) -> ResultTable:
    """Reference curves for the standard parameter sets, as plot-ready CSV."""
    if which not in FIGURE_DEFAULTS:
        raise ConfigError("figure", f"unknown figure {which!r}")
    defaults = FIGURE_DEFAULTS[which]
    for key, value in overrides.items():
        if key not in defaults:
            raise ConfigError(f"figure.{key}", f"not a parameter of {which}")
        if not _fits(value, defaults[key]):
            raise ConfigError(f"figure.{key}", f"expected the type of the default {defaults[key]!r}")
        if key in _FIGURE_RANGES:
            test, rule = _FIGURE_RANGES[key]
            if not test(value):
                raise ConfigError(f"figure.{key}", rule)
    params = {**defaults, **overrides}

    if which == "fig1":
        table = _figure_sweep_c1(params, lambda p: Fixed(params["tau_bar"]), seed)
    elif which == "fig2" and not inset:
        dist = DiscreteWaitingDist.bimodal(*params["supports"], params["p1"])
        table = _figure_sweep_c1(params, lambda p: Annealed(dist), seed)
    elif which == "fig2" and inset:
        dist = DiscreteWaitingDist.bimodal(*params["supports"], params["p1"])
        table = ResultTable(
            columns=["a", "a_sq", "slope_fixed", "slope_quenched", "slope_annealed"]
        )
        for a in np.arange(0.0, 1.0 + 1e-9, params["a_step"]):
            p = tls.TwoLevelParams(
                energy=params["energy"],
                a_sq=float(min(a * a, 1.0)),
                excited_pop=0.0,
                n_meas=params["m_count"],
                beta=params["beta"],
            )
            u = 1j * p.beta
            table.add(
                float(a),
                p.a_sq,
                tls.char_fn_slope_c1(p, Fixed(dist.mean()), u).real,
                tls.char_fn_slope_c1(p, Quenched(dist), u).real,
                tls.char_fn_slope_c1(p, Annealed(dist), u).real,
            )
    elif which == "fig3":
        lo, hi = params["supports"]
        energy = params["splitting"] / 2.0
        dist = DiscreteWaitingDist.bimodal(lo, hi, 0.5)
        grid = np.linspace(lo, hi, params["mean_points"])
        columns = ["mean_tau"] + [f"delta_lambda_T{t}" for t in params["total_times"]]
        table = ResultTable(columns=columns)
        for mean_tau in grid:
            p = tls.TwoLevelParams(
                energy=energy, a_sq=params["a_sq"], excited_pop=0.0, n_meas=1
            )
            row = [float(mean_tau)]
            for total in params["total_times"]:
                row.append(tls.suppression_gap(p, dist, float(mean_tau), float(total)))
            table.add(*row)
    elif which == "fig4":
        energy = params["splitting"] / 2.0
        grid = np.linspace(0.05, 4.0 * math.pi, params["scale_points"])
        columns = ["splitting_mean_tau"] + [f"peak_heat_p{p1}" for p1 in params["p1_values"]]
        table = ResultTable(columns=columns)
        base = tls.TwoLevelParams(energy=energy, a_sq=params["a_sq"], excited_pop=0.0, n_meas=1)
        for x in grid:
            row = [float(x)]
            for p1 in params["p1_values"]:
                dist = DiscreteWaitingDist.bimodal(*params["supports"], float(p1))
                row.append(
                    tls.peak_mean_heat_annealed(base, dist, float(x), params["total_time"])
                )
            table.add(*row)
    elif which == "fig5":
        dist = DiscreteWaitingDist.bimodal(*params["supports"], params["p1"])
        columns = ["a_sq"] + [f"slope_m{m}" for m in params["m_values"]] + ["slope_limit"]
        table = ResultTable(columns=columns)
        for a_sq in np.linspace(0.0, params["a_sq_max"], params["a_sq_points"]):
            p = tls.TwoLevelParams(
                energy=params["energy"],
                a_sq=float(a_sq),
                excited_pop=0.0,
                n_meas=1,
                beta=params["beta"],
            )
            u = 1j * p.beta
            row = [float(a_sq)]
            for m in params["m_values"]:
                row.append(tls.char_fn_slope_c1(replace(p, n_meas=int(m)), Quenched(dist), u).real)
            limit = (
                tls.char_fn_limit(replace(p, excited_pop=1.0), u)
                - tls.char_fn_limit(replace(p, excited_pop=0.0), u)
            ).real
            row.append(limit if a_sq > 0 else 0.0)
            table.add(*row)
    else:  # pragma: no cover - guarded above
        raise ConfigError("figure", which)

    table.metadata = _base_metadata(f"figure {which}", params, seed)
    return table


def _load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "<file>", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(spec, dict):
        raise ConfigError("<root>", "top-level config must be an object")
    return spec


def _write_output(table: ResultTable, out: str | None):
    if out is None:
        table.write(sys.stdout)
    else:
        with open(out, "w", newline="") as fh:
            table.write(fh)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qheat",
        description="Heat statistics of repeatedly measured quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo trajectory sampling")
    sim.add_argument("--config", required=True, help="JSON experiment description")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--threads", type=int, default=1, help="recorded in the header; no effect")
    sim.add_argument("--out", default=None, help="output CSV path (default stdout)")

    exa = sub.add_parser(
        "exact",
        help="exact heat statistics from one enumerated outcome kernel",
        description="Enumerates every disorder realization and outcome sequence once "
        "into the outcome kernel K[m, n]; the atoms, the characteristic function on "
        "u_grid, the exponential average and the moments all read it. Needs an "
        "m_count schedule; more than 1e7 enumeration terms exit 3.",
    )
    exa.add_argument("--config", required=True)
    exa.add_argument("--seed", type=int, default=None)
    exa.add_argument("--out", default=None)

    fig = sub.add_parser("figure", help="reference curves for the standard parameter sets")
    fig.add_argument("which", choices=sorted(FIGURE_DEFAULTS))
    fig.add_argument("--config", default=None, help="JSON overrides for the baked parameters")
    fig.add_argument("--inset", action="store_true", help="fig2: emit the sensitivity inset")
    fig.add_argument("--seed", type=int, default=1234)
    fig.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run the acceptance gate")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--quick", action="store_true", help="reduced sample sizes (smoke test)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            spec = _load_spec(args.config)
            seed = args.seed if args.seed is not None else _seed(spec)
            table = cmd_simulate(spec, seed)
            table.metadata["threads"] = args.threads
            _write_output(table, args.out)
        elif args.command == "exact":
            spec = _load_spec(args.config)
            seed = args.seed if args.seed is not None else _seed(spec)
            _write_output(cmd_exact(spec, seed), args.out)
        elif args.command == "figure":
            overrides = _load_spec(args.config) if args.config else {}
            _write_output(cmd_figure(args.which, overrides, args.seed, inset=args.inset), args.out)
        elif args.command == "verify":
            from . import verify as verify_mod

            seed = args.seed if args.seed is not None else verify_mod.DEFAULT_SEED
            results = verify_mod.run_all(seed=seed, quick=args.quick)
            for result in results:
                print(f"seed={seed} {result.line()}")
            n_pass = sum(r.passed for r in results)
            print(f"summary: {n_pass}/{len(results)} checks passed")
            if n_pass != len(results):
                return VERIFY_ERROR
    except EnumerationTooLargeError as exc:
        print(
            f"error: {exc}\nhint: reduce m_count or the number of disorder atoms, "
            "or use 'simulate' (Monte Carlo has no enumeration cap)",
            file=sys.stderr,
        )
        return ENUMERATION_ERROR
    except IntervalCapError as exc:
        print(
            f"error: {exc}\nhint: shorten total_time, lengthen the shortest waiting time, "
            "or use an m_count schedule",
            file=sys.stderr,
        )
        return ENUMERATION_ERROR
    except (QheatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
