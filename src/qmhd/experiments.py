"""Parameter-limit studies: Galerkin refinement, vanishing regularization
(a delta rung sets eta = epsilon = delta²), and the vanishing-Planck-constant
limit.

Each sweep runs the final (limit) rung first, then one simulation per rung
from shared initial data, measuring as each finishes its distances to the
limit rung, its norm monitors, and the weak integrals of the terms that are
supposed to vanish.  A rung's result is its ``sweep_results.csv`` row,
which ``_measure`` fills as it measures and ``qmhd sweep`` writes as it
is.  The weak integrals pair each term with the diagnostics' fixed vector
battery under its one envelope g(t) = (1 - t/T)^2, through one walk over
the samples (``_battery_sums``) and the records of the test
fields phi e_c that the weak form reads too
(:class:`qmhd.diagnostics._VectorTest`), built once per integral straight
from the battery table (:func:`qmhd.diagnostics._test_records`).  Both
terms have components along the active axes only, so each pairs its
component c with phi, or gives 0 when c is not an active axis.  The quantum integral forms its two
integrands once per sample (:func:`qmhd.diagnostics.quantum_flux`, which
the weak form reads too).  The capillarity integral pairs the scheme's own
force term (:func:`qmhd.solver._capillary_gradient`), so it costs one
inverse transform per axis and sample.  The distances, monitors and weak
integrals read each sampled state through a view of its own
(:func:`qmhd.solver._view`), so what they derive from it, the velocity's
and B's samples or rho's spectrum, is freed with the view and nothing is
cached on the state.  Everything is deterministic for a fixed
configuration.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .basis import GalerkinBasis
from .constitutive import PhysParams
from .diagnostics import (
    MONITOR_KEYS,
    DerivedFields,
    _pair,
    _test_records,
    compute_energy,
    envelope,
    norm_monitor,
    quantum_flux,
)
from .errors import QMHDError
from .fields import (
    ScalarField,
    VectorField,
    dealias,  # noqa: F401 -- unused; benchmarks/spans.py wraps this binding
    derivative,
    divergence,  # noqa: F401 -- unused; benchmarks/spans.py wraps this binding
    gradient,  # noqa: F401 -- unused; benchmarks/spans.py wraps this binding
    inner_product,
    project_divergence_free,
    spectral_resample,
)
from .grid import TorusGrid
from .solver import RegParams, State, Trajectory, _capillary_gradient, _view, initial_state, run_simulation

BENCHMARK_NAMES = ("single_mode", "density_bump", "random_smooth")


def benchmark_fields(name: str, grid: TorusGrid, seed: int = 0):
    """The three canonical initial data sets (strictly positive density)."""
    mesh = grid.mesh
    x = mesh[0]
    y = mesh[1] if grid.dim >= 2 else None
    zero = np.zeros(grid.shape)
    if name == "single_mode":
        rho = np.ones(grid.shape)
        u = [zero, 0.2 * np.sin(x), zero]
        b = [zero, zero, 0.1 * np.sin(x)]
        if y is not None:
            u = [0.1 * np.sin(y), 0.2 * np.sin(x), zero]
            b = [zero, zero, 0.1 * np.sin(x) + 0.05 * np.cos(y)]
    elif name == "density_bump":
        rho = 1.0 + 0.5 * np.cos(x)
        if y is not None:
            rho = rho + 0.1 * np.cos(y)
        u = [zero, zero, zero]
        b = [zero, zero, 0.1 * np.sin(x)]
    elif name == "random_smooth":
        rng = np.random.default_rng(seed)
        def band_limited():
            keys = [tuple(kk - 2 for kk in axis_k) for axis_k in np.ndindex(*([5] * grid.dim))]
            f = ScalarField.from_modes(
                grid, [(k, rng.normal() + 1j * rng.normal()) for k in keys if any(k)]
            )
            m = np.max(np.abs(f.values))
            return f.values / max(m, 1e-300)
        rho = 1.0 + 0.25 * band_limited()
        u = [0.1 * band_limited() for _ in range(3)]
        b = [0.1 * band_limited() for _ in range(3)]
    else:
        raise ValueError(f"unknown benchmark {name!r}; pick one of {BENCHMARK_NAMES}")
    rho_f = ScalarField(grid, rho)
    u_f = VectorField.from_arrays(grid, u)
    b_f = project_divergence_free(VectorField.from_arrays(grid, b))
    return rho_f, u_f, b_f


def benchmark_state(
    name: str, grid: TorusGrid, basis: GalerkinBasis, reg: RegParams, seed: int = 0
) -> State:
    rho, u, b = benchmark_fields(name, grid, seed)
    return initial_state(rho, u, b, basis, reg)


# --------------------------------------------------------------------------
# state and trajectory distances


@dataclass(frozen=True)
class StateDistance:
    sqrt_rho: float
    rho: float
    momentum: float
    sqrt_rho_u: float
    magnetic: float
    velocity: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def compare_states(a: State, b: State) -> StateDistance:
    """L2 distances of the fields the limit theorems control, on the finer
    of the two grids.  Each state is read through a view of its own
    (:func:`qmhd.solver._view`), so nothing is cached on it."""
    fine = max(a.rho.grid, b.rho.grid, key=lambda g: g.num_points)

    def lift(s: State):
        s = _view(s)
        if s.rho.grid.shape == fine.shape:
            return s.rho, s.u, s.magnetic
        rho = spectral_resample(s.rho, fine)
        u = VectorField(fine, [spectral_resample(c, fine) for c in s.u.components])
        bb = VectorField(fine, [spectral_resample(c, fine) for c in s.magnetic.components])
        return rho, u, bb

    (ra, ua, ba), (rb, ub, bb) = lift(a), lift(b)
    grid = ra.grid
    vol = grid.volume
    rva, rvb = ra.values, rb.values
    wa, wb = np.sqrt(rva), np.sqrt(rvb)
    uva, uvb = [c.values for c in ua.components], [c.values for c in ub.components]
    bva, bvb = [c.values for c in ba.components], [c.values for c in bb.components]

    def l2(diff_sq) -> float:
        return float(np.sqrt(np.mean(diff_sq) * vol))

    return StateDistance(
        sqrt_rho=l2((wa - wb) ** 2),
        rho=l2((rva - rvb) ** 2),
        momentum=l2(sum((rva * a_ - rvb * b_) ** 2 for a_, b_ in zip(uva, uvb))),
        sqrt_rho_u=l2(sum((wa * a_ - wb * b_) ** 2 for a_, b_ in zip(uva, uvb))),
        magnetic=l2(sum((a_ - b_) ** 2 for a_, b_ in zip(bva, bvb))),
        velocity=l2(sum((a_ - b_) ** 2 for a_, b_ in zip(uva, uvb))),
    )


def _trapezoid(traj: Trajectory) -> list[float]:
    """Trapezoid weights h/2, h, ..., h, h/2 of the trajectory's samples."""
    h = traj.sampled_dt
    weights = [h] * len(traj.states)
    weights[0] = weights[-1] = 0.5 * h
    return weights


def trajectory_distance(a: Trajectory, b: Trajectory) -> dict[str, float]:
    """Space-time L2 distances over the common sample times (trapezoid);
    a trajectory is at distance zero from itself, with no comparison."""
    keys = list(StateDistance.__annotations__)
    if a is b:
        return {k: 0.0 for k in keys}
    ta, tb = np.asarray(a.times), np.asarray(b.times)
    if len(ta) != len(tb) or np.max(np.abs(ta - tb)) > 1e-10:
        raise QMHDError("trajectories must share their sample times")
    sq = {k: 0.0 for k in keys}
    for w, sa, sb in zip(_trapezoid(a), a.states, b.states):
        d = compare_states(sa, sb).as_dict()
        for k in keys:
            sq[k] += w * d[k] ** 2
    return {k: float(np.sqrt(v)) for k, v in sq.items()}


# --------------------------------------------------------------------------
# weak integrals of the vanishing terms


def _battery_sums(traj: Trajectory, pairing: Callable[[State], Callable]) -> list[float]:
    """For each vector test field's record (:class:`qmhd.diagnostics._VectorTest`),
    the trapezoid sum over the samples of weight x envelope x pairing:
    ``pairing(state)`` derives what the state's pairings share and returns
    the pairing with one record.  It reads each state through a view of its
    own (:func:`qmhd.solver._view`), so nothing is cached on the state."""
    t_final = traj.times[-1]
    tests = list(_test_records(traj.states[0].rho.grid)[1].values())
    acc = [0.0] * len(tests)
    for wt, s in zip(_trapezoid(traj), traj.states):
        g = envelope(s.time, t_final)
        pair = pairing(_view(s))
        for t, test in enumerate(tests):
            acc[t] += wt * g * pair(test)
    return acc


def quantum_term_weak_integral(traj: Trajectory, kappa: float) -> dict[str, float]:
    """Space-time weak integral of the quantum force in its integrated-by-
    parts form, its two integrands (:func:`qmhd.diagnostics.quantum_flux`)
    formed once per sample; reports the value and value/kappa^2."""
    if kappa == 0.0:
        return {"value": 0.0, "per_kappa_sq": 0.0}
    grid = traj.states[0].rho.grid

    def pairing(s: State):
        w = ScalarField._adopt(grid, np.sqrt(s.rho.values))
        q_grad, q_grad_div = quantum_flux(w.values, [derivative(w, j).values for j in range(grid.dim)])
        return lambda d: _pair(q_grad_div, d.grad_div, grid) + _pair(q_grad[d.c], d.grad, grid) if d.c < grid.dim else 0.0

    total = sum(2.0 * kappa**2 * a for a in _battery_sums(traj, pairing))
    return {"value": float(total), "per_kappa_sq": float(total / kappa**2)}


def capillarity_term_weak_integral(traj: Trajectory, delta: float, s_order: int) -> dict[str, float]:
    """Space-time weak integral of the capillarity term: the scheme's own
    force -delta rho g (:func:`qmhd.solver._capillary_gradient`) paired with
    each test field.  Reports the value and the value scaled by
    delta^((1-alpha)/2) with alpha = (4s+2)/(4s+3)."""
    if delta == 0.0:
        return {"value": 0.0, "scaled": 0.0}
    grid = traj.states[0].rho.grid

    def pairing(st: State):
        force = [ScalarField._adopt(grid, -delta * st.rho.values * g) for g in _capillary_gradient(st.rho, s_order)]
        return lambda d: inner_product(force[d.c], d.phi) if d.c < grid.dim else 0.0

    total = sum(_battery_sums(traj, pairing))
    alpha = (4.0 * s_order + 2.0) / (4.0 * s_order + 3.0)
    return {"value": float(total), "scaled": float(total / delta ** ((1.0 - alpha) / 2.0))}


# --------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple
    benchmark: str = "density_bump"
    dim: int = 1
    points: int = 128
    t_end: float = 0.1
    phys: PhysParams = field(default_factory=PhysParams)
    reg: RegParams = field(default_factory=RegParams)
    n_modes: int = 9
    sample_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.parameter not in ("n", "epsilon", "eta", "delta", "kappa"):
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        vals = tuple(self.values)
        if len(vals) < 3:
            raise ValueError("a ladder needs at least 3 rungs")
        if not self.t_end > 0:
            raise ValueError("a ladder needs t_end > 0")
        diffs = np.diff(np.asarray(vals, dtype=float))
        if self.parameter == "n":
            if not all(float(v).is_integer() for v in vals):
                raise ValueError("mode counts must be integers")
            vals = tuple(int(v) for v in vals)
            if min(vals) < 1:
                raise ValueError("mode counts must be at least 1")
            if not np.all(diffs > 0):
                raise ValueError("mode-count ladders must be strictly increasing")
        else:
            if not np.all(diffs < 0):
                raise ValueError("parameter ladders must be strictly decreasing")
            if not all(0 <= v < np.inf for v in vals):
                raise ValueError("ladder values must be finite and nonnegative")
        object.__setattr__(self, "values", vals)

    def rung_params(self, value) -> tuple[PhysParams, RegParams, int]:
        """The physics, regularization and mode count of one rung.  A delta
        rung sets eta = epsilon = delta², the regime of the
        vanishing-regularization limit."""
        phys, reg, n = self.phys, self.reg, self.n_modes
        if self.parameter == "kappa":
            phys = replace(phys, kappa=float(value))
        elif self.parameter == "n":
            n = int(value)
        elif self.parameter == "delta":
            delta = float(value)
            reg = replace(reg, delta=delta, eta=delta**2, epsilon=delta**2)
        else:
            reg = replace(reg, **{self.parameter: float(value)})
        return phys, reg, n


@dataclass
class SweepResult:
    # one CSV row per rung, as ``_measure`` fills it
    rows: list[dict[str, float]]
    # each rung's mean Picard iterations and full sweeps per step; printed by
    # ``qmhd sweep``, not written to its CSV
    counts: list[tuple[float, float]]
    convergence_orders: dict[str, float]


def _simulate(spec: SweepSpec, value) -> Trajectory:
    grid = TorusGrid((spec.points,) * spec.dim)
    phys, reg, n = spec.rung_params(value)
    basis = GalerkinBasis.lowest_modes(grid, n)
    state = benchmark_state(spec.benchmark, grid, basis, reg, seed=spec.seed)
    return run_simulation(state, phys, reg, spec.t_end, sample_every=spec.sample_every)


def _measure(spec: SweepSpec, reference: Trajectory, value) -> tuple[dict[str, float], tuple[float, float]]:
    """One rung's CSV row, and its mean Picard iterations and full sweeps
    per step; the limit rung is ``reference`` itself."""
    traj = reference if value == spec.values[-1] else _simulate(spec, value)
    phys, reg = traj.phys, traj.reg

    row = {"value": float(value), "min_rho": np.inf, "capillary_energy_max": 0.0, "quantum_energy_max": 0.0}
    row.update({f"max_{k}": 0.0 for k in MONITOR_KEYS})
    for s in traj.states:
        f = DerivedFields.of(s, reg)
        mon = norm_monitor(s, phys, reg, f)
        for k in MONITOR_KEYS:
            row[f"max_{k}"] = max(row[f"max_{k}"], mon[k])
        row["min_rho"] = min(row["min_rho"], float(s.rho.values.min()))
        e = compute_energy(s, phys, reg, f)
        row["capillary_energy_max"] = max(row["capillary_energy_max"], e.capillary)
        row["quantum_energy_max"] = max(row["quantum_energy_max"], e.quantum)

    row.update({f"dist_{k}": v for k, v in trajectory_distance(traj, reference).items()})
    weak: dict[str, float] = {}
    if spec.parameter == "kappa":
        weak = quantum_term_weak_integral(traj, phys.kappa)
    elif spec.parameter == "delta":
        weak = capillarity_term_weak_integral(traj, reg.delta, reg.s)
    row.update({f"weak_{k}": v for k, v in weak.items()})
    if spec.parameter == "n":
        row["tail_energy"] = float(np.sum(reference.final_state.velocity.values[int(value):] ** 2))
    return row, traj.mean_counts()


# the sweep and limit-rung trajectory of a pool worker, installed once per
# worker by ``_install_sweep``, so that a task carries only its rung's value
_worker_sweep: tuple[SweepSpec, Trajectory] | None = None


def _install_sweep(spec: SweepSpec, reference: Trajectory) -> None:
    global _worker_sweep
    _worker_sweep = (spec, reference)


def _measure_installed(value) -> tuple[dict[str, float], tuple[float, float]]:
    return _measure(*_worker_sweep, value)


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run the final (limit) rung, then measure every rung against it, so
    at most two trajectories are held at once.  With ``workers > 1`` each
    worker receives the spec and the limit rung once, and each task only
    its rung's value."""
    reference = _simulate(spec, spec.values[-1])
    if workers > 1:
        # imported here, so that commands running no pool skip importing multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_install_sweep, initargs=(spec, reference)) as pool:
            measured = list(pool.map(_measure_installed, spec.values))
    else:
        measured = [_measure(spec, reference, v) for v in spec.values]
    rows = [row for row, _ in measured]

    orders: dict[str, float] = {}
    vals = np.array([r["value"] for r in rows[:-1]])
    if spec.parameter != "n" and np.all(vals > 0):
        for key in StateDistance.__annotations__:
            dists = np.array([r[f"dist_{key}"] for r in rows[:-1]])
            good = dists > 0
            if good.sum() >= 2:
                slope, _ = np.polyfit(np.log(vals[good]), np.log(dists[good]), 1)
                orders[key] = float(slope)
    return SweepResult(rows, [counts for _, counts in measured], orders)


def sweep_rows(result: SweepResult) -> list[dict[str, float]]:
    """The per-rung CSV rows."""
    return result.rows


def content_hash(path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
