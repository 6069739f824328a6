"""Span tracer that wraps qheat's public functions from outside the package.

A span is (op, command, parent, name, start, end); its layer is the part
of the name before the first dot, which is the qheat module that owns
the wrapped function. Spans are recorded only while a command is active,
so the benchmark's own checks, which call into qheat too, stay untraced.
Counts of work are recorded at the same boundaries by per-target hooks.
Nothing under ``src/`` is edited: wrappers replace the module and class
attributes and are removed again by ``uninstall``.
"""

from __future__ import annotations

import gzip
import importlib
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "engine", "disorder", "operators", "tls")


def _traj(counts, args, kwargs, result, stack):
    counts["engine.traj"] += kwargs.get("n_traj", args[1] if len(args) > 1 else 0)


def _block(counts, args, kwargs, result, stack):
    counts["engine.blocks"] += 1


def _intervals(counts, args, kwargs, result, stack):
    counts["disorder.intervals"] += len(result)


def _intervals_total_time(counts, args, kwargs, result, stack):
    counts["disorder.intervals"] += result[0]


def _enumeration(counts, args, kwargs, result, stack):
    """Realizations, and terms = realizations * basis size ** M of the calling engine function."""
    counts["disorder.realizations"] += len(result)
    config = next((a[0] for a in reversed(stack) if a and hasattr(a[0], "basis")), None)
    if config is not None:
        m_count = kwargs.get("m_count", args[1] if len(args) > 1 else None)
        counts["engine.enumerations"] += 1
        counts["engine.terms"] += len(result) * config.basis.size**m_count


# (span name, module, attribute, hook). "Class.method" attributes are
# patched on the class; plain functions are replaced in every qheat module
# that binds them, so calls through ``from .x import f`` are caught too.
TARGETS = [
    ("cli.main", "qheat.cli", "main", None),
    ("cli.parse_experiment", "qheat.cli", "parse_experiment", None),
    ("cli.write", "qheat.cli", "ResultTable.write", None),
    ("engine.sample_heats", "qheat.engine", "sample_heats", _traj),
    ("engine.sample_heats_chunk", "qheat.engine", "sample_heats_chunk", _block),
    ("engine.jarzynski_estimate", "qheat.engine", "jarzynski_estimate", None),
    ("engine.from_samples", "qheat.engine", "HeatDistribution.from_samples", None),
    ("engine.characteristic_function", "qheat.engine", "characteristic_function", None),
    ("engine.exact_distribution", "qheat.engine", "exact_distribution", None),
    ("engine.heat_moment", "qheat.engine", "heat_moment", None),
    ("engine.from_atoms", "qheat.engine", "HeatDistribution.from_atoms", None),
    ("disorder.sample_waiting_times", "qheat.disorder", "sample_waiting_times", _intervals),
    ("disorder.sample_until_total_time", "qheat.disorder", "sample_until_total_time", _intervals_total_time),
    ("disorder.enumerate_realizations", "qheat.disorder", "enumerate_realizations", _enumeration),
    ("operators.spectral_decompose", "qheat.operators", "spectral_decompose", None),
    ("operators.energy_populations", "qheat.operators", "energy_populations", None),
    ("tls.char_fn", "qheat.tls", "char_fn", None),
    ("tls.char_fn_slope_c1", "qheat.tls", "char_fn_slope_c1", None),
    ("tls.char_fn_limit", "qheat.tls", "char_fn_limit", None),
    ("tls.suppression_gap", "qheat.tls", "suppression_gap", None),
    ("tls.peak_mean_heat_annealed", "qheat.tls", "peak_mean_heat_annealed", None),
    ("tls.thermal_excited_pop", "qheat.tls", "thermal_excited_pop", None),
    ("tls.to_protocol_config", "qheat.tls", "to_protocol_config", None),
    ("tls.hamiltonian", "qheat.tls", "hamiltonian", None),
    ("tls.measurement_basis", "qheat.tls", "measurement_basis", None),
    ("tls.initial_state", "qheat.tls", "initial_state", None),
]
# The per-layer metrics each workload must record: a span, or a nonzero
# count. A traced run that misses one fails, so a wrapped function that
# the program stops calling, or a metric whose target is gone, shows.
# Every per-layer metric of BENCHMARK.json that is not computed by the
# benchmark itself (``*.src_loc``, ``trace.*``, ``proc.cpu_s``,
# ``cli.csv_bytes``) is required on at least one workload.
_CLI = ("cli.write.s", "cli.self_s")
_SAMPLER = (
    "engine.sample_heats.s", "engine.sample_heats_chunk.self_s", "engine.blocks", "engine.traj",
    "engine.self_s", "disorder.intervals", "disorder.self_s",
)
_FIXED_COUNT = ("disorder.sample_waiting_times.s", "disorder.sample_waiting_times.calls")
_POPULATIONS = ("operators.energy_populations.s", "operators.energy_populations.calls", "operators.self_s")
_DECOMPOSE = ("operators.spectral_decompose.s", "operators.spectral_decompose.calls")
REQUIRED = {
    "mc_tls_paper": (*_CLI, "cli.parse_experiment.s", *_SAMPLER, "engine.from_samples.s", *_FIXED_COUNT, *_POPULATIONS),
    "mc_matrix_total_time": (
        *_CLI, "cli.parse_experiment.s", *_SAMPLER, "engine.from_samples.s",
        "disorder.sample_until_total_time.s", "disorder.sample_until_total_time.calls", *_POPULATIONS, *_DECOMPOSE,
    ),
    "exact_enum": (
        *_CLI, "cli.parse_experiment.s",
        "engine.characteristic_function.s", "engine.characteristic_function.calls",
        "engine.exact_distribution.s", "engine.exact_distribution.calls", "engine.heat_moment.s",
        "engine.from_atoms.s", "engine.enumerations", "engine.terms", "engine.self_s",
        "disorder.enumerate_realizations.s", "disorder.realizations", "disorder.self_s", *_POPULATIONS, *_DECOMPOSE,
    ),
    "figures": (
        *_CLI, *_SAMPLER, "engine.jarzynski_estimate.calls", *_FIXED_COUNT,
        "tls.char_fn.s", "tls.char_fn.calls", "tls.char_fn_slope_c1.s", "tls.char_fn_slope_c1.calls",
        "tls.suppression_gap.s", "tls.suppression_gap.calls",
        "tls.peak_mean_heat_annealed.s", "tls.peak_mean_heat_annealed.calls", "tls.self_s",
    ),
}
MODULES = ("qheat", "qheat.cli", "qheat.engine", "qheat.disorder", "qheat.operators", "qheat.tls")


class Tracer:
    """In-memory span recorder; ``begin``/``end`` bracket one traced command."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, int], defaultdict] = {}
        self._key: tuple[int, int] | None = None
        self._stack: list[int] = []
        self._args: list[tuple] = []
        self._undo: list[tuple] = []

    def begin(self, op: int, command: int):
        self._key = (op, command)
        self.counts.setdefault(self._key, defaultdict(float))

    def end(self):
        self._key = None

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            key = self._key
            if key is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            self._args.append(args)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = perf_counter()
                self._stack.pop()
                self._args.pop()
                self.spans[sid] = (key[0], key[1], parent, name, start, stop)
            if hook is not None:
                hook(self.counts[key], args, kwargs, result, self._args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for name, module_name, attr, hook in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__, hook))
                else:
                    patched = self.wrap(name, raw, hook)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path):
        """Write every span as CSV (gzip), one line per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,op,command,parent,name,start,end\n")
            for sid, (op, cmd, parent, name, start, stop) in enumerate(self.spans):
                fh.write(f"{sid},{op},{cmd},{parent},{name},{start!r},{stop!r}\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans[i]`` is (op, command, parent, name, start, end) with ``parent``
    an index into ``spans`` or -1. Overlapping children are merged and
    clipped to the parent's interval before their coverage is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[2] >= 0:
            children[span[2]].append((span[4], span[5]))
    out = []
    for sid, (_, _, _, _, start, stop) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, stop)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(stop - start - covered)
    return out


def summarize(spans: list[tuple]) -> dict[str, float]:
    """Totals over all spans: ``<name>.s``, ``<name>.calls``, ``<name>.self_s``, ``<layer>.self_s``.

    Only names with at least one span appear.
    """
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name = span[3]
        totals[f"{name}.s"] += span[5] - span[4]
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += own
        totals[f"{name.split('.')[0]}.self_s"] += own
    return totals
