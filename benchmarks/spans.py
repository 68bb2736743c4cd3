"""Span recorder, transform counter and the registry of wrapped qmhd names.

The recorder and the wrappers run inside the workload's interpreter
(``child.py``); ``layer_metrics`` runs in the benchmark's parent process on
the spans the child wrote out.  Nothing here changes qmhd itself: the
wrappers replace module and class attributes after import.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
import weakref

# Every transform entry point of numpy.fft and scipy.fft, c2c and r2c/c2r,
# 1-d, 2-d and n-d, so that a switch between them cannot hide transforms.
TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)
TRANSFORM_MODULES = ("numpy.fft", "scipy.fft")

# (layer, home module, name, other modules that bind the same object).
# Dotted names are methods wrapped on their class.  Any further binding of a
# listed function inside qmhd is found by a scan, wrapped as well and
# reported as unlisted, so the table can be corrected.
REGISTRY = (
    ("cli", "qmhd.cli", "main", ()),
    ("cli", "qmhd.cli", "cmd_run", ()),
    ("cli", "qmhd.cli", "cmd_sweep", ()),
    ("config", "qmhd.cli", "parse_sweep_manifest", ()),
    ("config", "qmhd.config", "parse_config", ("qmhd.cli",)),
    ("config", "qmhd.config", "parse_config_text", ("qmhd.cli",)),
    ("config", "qmhd.config", "canonical_text", ("qmhd.cli",)),
    ("fields", "qmhd.fields", "derivative", ("qmhd.constitutive", "qmhd.diagnostics", "qmhd.experiments")),
    ("fields", "qmhd.fields", "gradient", ("qmhd.constitutive", "qmhd.diagnostics", "qmhd.experiments")),
    ("fields", "qmhd.fields", "divergence", ("qmhd.solver", "qmhd.diagnostics", "qmhd.experiments", "qmhd.cli")),
    ("fields", "qmhd.fields", "curl", ("qmhd.diagnostics",)),
    ("fields", "qmhd.fields", "laplacian", ("qmhd.constitutive", "qmhd.diagnostics")),
    ("fields", "qmhd.fields", "power_laplacian", ()),
    ("fields", "qmhd.fields", "vector_laplacian", ()),
    ("fields", "qmhd.fields", "dealias", ("qmhd.basis", "qmhd.experiments")),
    ("fields", "qmhd.fields", "dealiased_product", ("qmhd.constitutive",)),
    ("fields", "qmhd.fields", "project_divergence_free", ("qmhd.solver", "qmhd.experiments")),
    ("fields", "qmhd.fields", "cross", ()),
    ("fields", "qmhd.fields", "integrate", ("qmhd.solver",)),
    ("fields", "qmhd.fields", "inner_product", ("qmhd.diagnostics", "qmhd.experiments")),
    ("fields", "qmhd.fields", "l2_norm", ("qmhd.solver", "qmhd.diagnostics", "qmhd.cli")),
    ("fields", "qmhd.fields", "sobolev_seminorm", ("qmhd.diagnostics",)),
    ("fields", "qmhd.fields", "lp_norm", ("qmhd.diagnostics",)),
    ("fields", "qmhd.fields", "spectral_resample", ("qmhd.experiments",)),
    ("basis", "qmhd.basis", "GalerkinBasis.lowest_modes", ()),
    ("basis", "qmhd.basis", "GalerkinBasis.gram", ()),
    ("basis", "qmhd.basis", "GalerkinBasis.reconstruct", ()),
    ("basis", "qmhd.basis", "GalerkinBasis.project", ()),
    ("basis", "qmhd.basis", "GalerkinBasis.project_force_spectra", ()),
    ("basis", "qmhd.basis", "MassOperator.__init__", ()),
    ("basis", "qmhd.basis", "MassOperator.solve", ()),
    ("solver", "qmhd.solver", "initial_state", ("qmhd", "qmhd.experiments", "qmhd.cli")),
    ("solver", "qmhd.solver", "run_simulation", ("qmhd", "qmhd.experiments", "qmhd.cli")),
    ("solver", "qmhd.solver", "advance_step", ("qmhd",)),
    ("solver", "qmhd.solver", "solve_density_step", ()),
    ("solver", "qmhd.solver", "solve_magnetic_step", ()),
    ("solver", "qmhd.solver", "momentum_residual", ()),
    ("solver", "qmhd.solver", "cfl_report", ("qmhd.cli",)),
    ("diagnostics", "qmhd.diagnostics", "compute_energy", ("qmhd.experiments",)),
    ("diagnostics", "qmhd.diagnostics", "compute_dissipation", ()),
    ("diagnostics", "qmhd.diagnostics", "norm_monitor", ("qmhd.experiments",)),
    ("diagnostics", "qmhd.diagnostics", "bd_entropy_report", ()),
    ("diagnostics", "qmhd.diagnostics", "energy_identity_residual", ()),
    ("diagnostics", "qmhd.diagnostics", "bd_entropy_residual", ()),
    ("diagnostics", "qmhd.diagnostics", "weak_form_residual", ()),
    ("diagnostics", "qmhd.diagnostics", "DiagnosticsWriter.write_row", ()),
    ("experiments", "qmhd.experiments", "benchmark_state", ("qmhd.cli",)),
    ("experiments", "qmhd.experiments", "run_sweep", ("qmhd.cli",)),
    ("experiments", "qmhd.experiments", "trajectory_distance", ()),
    ("experiments", "qmhd.experiments", "quantum_term_weak_integral", ()),
    ("experiments", "qmhd.experiments", "capillarity_term_weak_integral", ()),
    ("experiments", "qmhd.experiments", "sweep_rows", ("qmhd.cli",)),
    ("snapshots", "qmhd.snapshots", "write_snapshot", ("qmhd.cli",)),
    ("snapshots", "qmhd.snapshots", "read_snapshot", ("qmhd.cli",)),
)

# Functions that take one state; the span notes which state, so the
# diagnostics cost can be divided by the number of distinct states.
PER_STATE = ("compute_energy", "compute_dissipation", "norm_monitor", "bd_entropy_report")


def _state_attr(args, kwargs, result):
    return id(args[0])


def _step_attr(args, kwargs, result):
    info = result[1]
    return [info.picard_iters, max(info.contraction_ratios, default=0.0)]


def _bytes_attr(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


ATTRS = {
    "advance_step": _step_attr,
    "write_snapshot": _bytes_attr,
    "DiagnosticsWriter.write_row": lambda a, k, r: id(a[1] if len(a) > 1 else k["state"]),
    **{name: _state_attr for name in PER_STATE},
}

# closed-span fields, in the order they are written out
FIELDS = (
    "id", "name", "parent", "run", "t0", "t1", "child_ns", "in_step",
    "fft_calls", "fft_ns", "fft_bytes", "fft_calls_incl", "fft_ns_incl", "fft_bytes_incl", "attr",
)


class Recorder:
    """In-memory span stack for one workload run (one interpreter)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._in_transform = False
        self.fft_calls = 0
        self.fft_calls_at_last_step_exit = 0
        self.live_states = 0
        self.sweeps_open = 0
        self.peak_states_in_sweep = 0

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        in_step = bool(parent and (parent[7] or parent[1] == "advance_step"))
        span = [self._next_id, name, parent[0] if parent else -1, self.run_id,
                time.perf_counter_ns(), 0, 0, in_step, 0, 0, 0, 0, 0, 0, None]
        self._next_id += 1
        self._stack.append(span)
        if name == "run_sweep":
            self.sweeps_open += 1
        return span

    def close(self, span: list, attr=None) -> None:
        span[5] = time.perf_counter_ns()
        span[14] = attr
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent[6] += span[5] - span[4]
            parent[11] += span[11]
            parent[12] += span[12]
            parent[13] += span[13]
        if span[1] == "advance_step":
            self.fft_calls_at_last_step_exit = self.fft_calls
        elif span[1] == "run_sweep":
            self.sweeps_open -= 1
        self.spans.append(span)

    def transform(self, fn, args, kwargs):
        if not self.active or self._in_transform or not self._stack:
            return fn(*args, **kwargs)
        self._in_transform = True
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            self._in_transform = False
        elapsed = time.perf_counter_ns() - t0
        arg = args[0] if args else next(iter(kwargs.values()), None)
        nbytes = getattr(arg, "nbytes", 0) + getattr(out, "nbytes", 0)
        top = self._stack[-1]
        for i, v in ((8, 1), (9, elapsed), (10, nbytes)):
            top[i] += v
            top[i + 3] += v
        self.fft_calls += 1
        return out

    def state_created(self, obj) -> None:
        self.live_states += 1
        if self.sweeps_open:
            self.peak_states_in_sweep = max(self.peak_states_in_sweep, self.live_states)
        weakref.finalize(obj, self._state_freed)

    def _state_freed(self) -> None:
        self.live_states -= 1

    def summary(self) -> dict:
        return {
            "fft_calls": self.fft_calls,
            "fft_calls_at_last_step_exit": self.fft_calls_at_last_step_exit,
            "peak_states_in_sweep": self.peak_states_in_sweep,
        }


def install_transform_counter(rec: Recorder) -> None:
    """Replace the transform entry points before qmhd is imported, so names
    bound later by ``from numpy.fft import ...`` resolve to the counter."""
    for modname in TRANSFORM_MODULES:
        mod = importlib.import_module(modname)
        for name in TRANSFORMS:
            fn = getattr(mod, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, **kwargs):
                return rec.transform(_fn, args, kwargs)

            setattr(mod, name, functools.wraps(fn)(counted))


def _span_wrapper(rec: Recorder, fn, name: str):
    attr_fn = ATTRS.get(name)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = rec.open(name)
        attr = None
        try:
            result = fn(*args, **kwargs)
            if attr_fn is not None:
                try:
                    attr = attr_fn(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # the call's signature changed; its metric reads as not measured
            return result
        finally:
            rec.close(span, attr)

    return wrapped


def install_spans(rec: Recorder) -> dict:
    """Wrap every registry name wherever qmhd binds it.

    Returns the install record: names that no longer exist (their metrics
    are reported absent), listed bindings that were not found, and bindings
    the registry does not list."""
    for modname in {entry[1] for entry in REGISTRY} | {m for entry in REGISTRY for m in entry[3]}:
        try:
            importlib.import_module(modname)
        except ImportError:
            pass
    wrapped_by_id: dict[int, object] = {}
    record = {"absent": [], "missing_bindings": [], "unlisted_bindings": []}
    for _layer, home, name, also in REGISTRY:
        mod = sys.modules.get(home)
        if "." in name:
            clsname, attr = name.split(".", 1)
            cls = getattr(mod, clsname, None) if mod else None
            if cls is None or attr not in vars(cls):
                record["absent"].append(name)
                continue
            static = inspect.getattr_static(cls, attr)
            if isinstance(static, classmethod):
                setattr(cls, attr, classmethod(_span_wrapper(rec, static.__func__, name)))
            else:
                setattr(cls, attr, _span_wrapper(rec, static, name))
            continue
        fn = getattr(mod, name, None) if mod else None
        if fn is None:
            record["absent"].append(name)
            continue
        wrapper = _span_wrapper(rec, fn, name)
        wrapped_by_id[id(fn)] = wrapper
        for modname in (home,) + also:
            other = sys.modules.get(modname)
            if other is not None and vars(other).get(name) is fn:
                setattr(other, name, wrapper)
            else:
                record["missing_bindings"].append(f"{modname}.{name}")
    qmhd_modules = [m for n, m in list(sys.modules.items()) if m is not None and n.split(".")[0] == "qmhd"]
    for mod in qmhd_modules:
        for attr, value in list(vars(mod).items()):
            wrapper = wrapped_by_id.get(id(value))
            if wrapper is not None and wrapper is not value:
                setattr(mod, attr, wrapper)
                record["unlisted_bindings"].append(f"{mod.__name__}.{attr}")
    state_cls = getattr(sys.modules.get("qmhd.solver"), "State", None)
    if state_cls is not None:
        init = state_cls.__init__

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            rec.state_created(self)

        state_cls.__init__ = functools.wraps(init)(counted_init)
    return record


# --------------------------------------------------------------------------
# per-layer metrics from closed spans (parent process)

# metric -> (unit, registry names it is computed from; empty: always present)
LAYER_METRICS = {
    "fields.fft_calls_per_step": ("count", ("advance_step",)),
    "fields.fft_ms_per_step": ("ms", ("advance_step",)),
    "fields.fft_bytes_per_step": ("B", ("advance_step",)),
    "fields.fft_calls_post": ("count", ("advance_step",)),
    "basis.build_s": ("s", ("GalerkinBasis.lowest_modes",)),
    "basis.gram_calls_per_step": ("count", ("GalerkinBasis.gram",)),
    "basis.gram_ms": ("ms", ("GalerkinBasis.gram",)),
    "basis.mass_op_ms": ("ms", ("MassOperator.__init__",)),
    "basis.solve_ms": ("ms", ("MassOperator.solve",)),
    "basis.reconstruct_calls_per_step": ("count", ("GalerkinBasis.reconstruct",)),
    "basis.reconstruct_ms": ("ms", ("GalerkinBasis.reconstruct",)),
    "basis.project_ms": ("ms", ("GalerkinBasis.project", "GalerkinBasis.project_force_spectra")),
    "solver.step_ms": ("ms", ("advance_step",)),
    "solver.step_self_ms": ("ms", ("advance_step",)),
    "solver.run_self_ms_per_step": ("ms", ("run_simulation",)),
    "solver.picard_iters_per_step": ("count", ("advance_step",)),
    "solver.picard_ratio_max": ("ratio", ("advance_step",)),
    "solver.density_ms": ("ms", ("solve_density_step",)),
    "solver.density_fft_per_call": ("count", ("solve_density_step",)),
    "solver.magnetic_ms": ("ms", ("solve_magnetic_step",)),
    "solver.magnetic_fft_per_call": ("count", ("solve_magnetic_step",)),
    "solver.residual_ms": ("ms", ("momentum_residual",)),
    "solver.residual_fft_per_call": ("count", ("momentum_residual",)),
    "diagnostics.row_ms": ("ms", ("DiagnosticsWriter.write_row",)),
    "diagnostics.energy_ms": ("ms", ("compute_energy",)),
    "diagnostics.dissipation_ms": ("ms", ("compute_dissipation",)),
    "diagnostics.monitor_ms": ("ms", ("norm_monitor",)),
    "diagnostics.bd_ms": ("ms", ("bd_entropy_report",)),
    "diagnostics.weak_form_s": ("s", ("weak_form_residual",)),
    "diagnostics.fft_per_state": ("count", PER_STATE + ("DiagnosticsWriter.write_row",)),
    "experiments.distance_s": ("s", ("trajectory_distance",)),
    "experiments.weak_integral_s": ("s", ("quantum_term_weak_integral", "capillarity_term_weak_integral")),
    "experiments.states_held": ("count", ("run_sweep",)),
    "snapshots.write_ms": ("ms", ("write_snapshot",)),
    "snapshots.bytes_written": ("B", ("write_snapshot",)),
    "cli.import_s": ("s", ()),
    "config.parse_ms": ("ms", ("parse_config", "parse_config_text", "parse_sweep_manifest")),
}

CONFIG_NAMES = ("parse_config", "parse_config_text", "parse_sweep_manifest")


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[list], summary: dict, absent: list[str]) -> dict[str, float]:
    """Per-layer numbers of one traced run.  A metric whose every source
    name no longer exists is left out; one whose function was not called on
    this workload reads 0."""
    rows = [dict(zip(FIELDS, s)) for s in spans]
    by_id = {r["id"]: r for r in rows}
    by_name: dict[str, list[dict]] = {}
    for r in rows:
        r["dur"] = r["t1"] - r["t0"]
        by_name.setdefault(r["name"], []).append(r)

    def named(*names):
        return [r for n in names for r in by_name.get(n, [])]

    def has_ancestor(r, names):
        p = by_id.get(r["parent"])
        while p is not None:
            if p["name"] in names:
                return True
            p = by_id.get(p["parent"])
        return False

    def mean_ms(*names):
        return _mean([r["dur"] / 1e6 for r in named(*names)])

    def total_s(*names):
        return sum(r["dur"] for r in named(*names)) / 1e9

    def fft_per_call(name):
        calls = named(name)
        return sum(r["fft_calls_incl"] for r in calls) / len(calls) if calls else 0.0

    steps = named("advance_step")
    nsteps = len(steps)
    infos = [r for r in steps if r["attr"] is not None]

    def per_step(x):
        return x / nsteps if nsteps else 0.0

    state_names = PER_STATE + ("DiagnosticsWriter.write_row",)
    outer_diag = [r for r in named(*state_names) if not has_ancestor(r, state_names)]
    n_states = len({r["attr"] for r in outer_diag})
    outer_config = [r for r in named(*CONFIG_NAMES) if not has_ancestor(r, CONFIG_NAMES)]

    values = {
        "fields.fft_calls_per_step": per_step(sum(r["fft_calls_incl"] for r in steps)),
        "fields.fft_ms_per_step": per_step(sum(r["fft_ns_incl"] for r in steps) / 1e6),
        "fields.fft_bytes_per_step": per_step(sum(r["fft_bytes_incl"] for r in steps)),
        "fields.fft_calls_post": summary["fft_calls"] - summary["fft_calls_at_last_step_exit"],
        "basis.build_s": total_s("GalerkinBasis.lowest_modes"),
        "basis.gram_calls_per_step": per_step(sum(r["in_step"] for r in named("GalerkinBasis.gram"))),
        "basis.gram_ms": mean_ms("GalerkinBasis.gram"),
        "basis.mass_op_ms": mean_ms("MassOperator.__init__"),
        "basis.solve_ms": mean_ms("MassOperator.solve"),
        "basis.reconstruct_calls_per_step": per_step(sum(r["in_step"] for r in named("GalerkinBasis.reconstruct"))),
        "basis.reconstruct_ms": mean_ms("GalerkinBasis.reconstruct"),
        "basis.project_ms": mean_ms("GalerkinBasis.project", "GalerkinBasis.project_force_spectra"),
        "solver.step_ms": statistics.median([r["dur"] / 1e6 for r in steps]) if steps else 0.0,
        "solver.step_self_ms": statistics.median([(r["dur"] - r["child_ns"]) / 1e6 for r in steps]) if steps else 0.0,
        "solver.run_self_ms_per_step": per_step(sum(r["dur"] - r["child_ns"] for r in named("run_simulation")) / 1e6),
        "solver.picard_iters_per_step": _mean([r["attr"][0] for r in infos]),
        "solver.picard_ratio_max": max((r["attr"][1] for r in infos), default=0.0),
        "solver.density_ms": mean_ms("solve_density_step"),
        "solver.density_fft_per_call": fft_per_call("solve_density_step"),
        "solver.magnetic_ms": mean_ms("solve_magnetic_step"),
        "solver.magnetic_fft_per_call": fft_per_call("solve_magnetic_step"),
        "solver.residual_ms": mean_ms("momentum_residual"),
        "solver.residual_fft_per_call": fft_per_call("momentum_residual"),
        "diagnostics.row_ms": mean_ms("DiagnosticsWriter.write_row"),
        "diagnostics.energy_ms": mean_ms("compute_energy"),
        "diagnostics.dissipation_ms": mean_ms("compute_dissipation"),
        "diagnostics.monitor_ms": mean_ms("norm_monitor"),
        "diagnostics.bd_ms": mean_ms("bd_entropy_report"),
        "diagnostics.weak_form_s": total_s("weak_form_residual"),
        "diagnostics.fft_per_state": sum(r["fft_calls_incl"] for r in outer_diag) / n_states if n_states else 0.0,
        "experiments.distance_s": total_s("trajectory_distance"),
        "experiments.weak_integral_s": total_s("quantum_term_weak_integral", "capillarity_term_weak_integral"),
        "experiments.states_held": summary["peak_states_in_sweep"],
        "snapshots.write_ms": mean_ms("write_snapshot"),
        "snapshots.bytes_written": sum(r["attr"] or 0 for r in named("write_snapshot")),
        "cli.import_s": summary["import_s"],
        "config.parse_ms": _mean([r["dur"] / 1e6 for r in outer_config]),
    }
    gone = set(absent)
    return {
        name: float(values[name])
        for name, (_unit, sources) in LAYER_METRICS.items()
        if not sources or not all(s in gone for s in sources)
    }

