"""Parameter-limit studies: Galerkin refinement, vanishing regularization
(a delta rung sets eta = epsilon = delta²), and the vanishing-Planck-constant
limit.

Each sweep runs one simulation per rung from shared initial data, measures
solution distances against the final (limit) rung, archives the norm
monitors, and evaluates the weak integrals of the terms that are supposed to
vanish.  Those integrals pair each term with the diagnostics' fixed vector
battery under its one envelope g(t) = (1 - t/T)^2, through one walk over
the samples (``_battery_sums``).  The capillarity integral pairs the
scheme's own force term (:func:`qmhd.solver._capillary_gradient`), so it
costs one inverse transform per axis and sample.  Everything is
deterministic for a fixed configuration.
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
    _VectorTest,
    compute_energy,
    default_vector_battery,
    envelope,
    norm_monitor,
    quantum_pairing,
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
from .solver import RegParams, State, Trajectory, _capillary_gradient, initial_state, run_simulation

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
    of the two grids."""
    fine = max(a.rho.grid, b.rho.grid, key=lambda g: g.num_points)

    def lift(s: State):
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
    """Space-time L2 distances over the common sample times (trapezoid)."""
    ta, tb = np.asarray(a.times), np.asarray(b.times)
    if len(ta) != len(tb) or np.max(np.abs(ta - tb)) > 1e-10:
        raise QMHDError("trajectories must share their sample times")
    keys = list(StateDistance.__annotations__)
    sq = {k: 0.0 for k in keys}
    for w, sa, sb in zip(_trapezoid(a), a.states, b.states):
        d = compare_states(sa, sb).as_dict()
        for k in keys:
            sq[k] += w * d[k] ** 2
    return {k: float(np.sqrt(v)) for k, v in sq.items()}


# --------------------------------------------------------------------------
# weak integrals of the vanishing terms


def _battery_sums(traj: Trajectory, tests: list, pairing: Callable[[State], Callable]) -> list[float]:
    """For each vector test, the trapezoid sum over the samples of weight x
    envelope x pairing: ``pairing(state)`` derives what the state's pairings
    share and returns the pairing with one test."""
    t_final = traj.times[-1]
    acc = [0.0] * len(tests)
    for wt, s in zip(_trapezoid(traj), traj.states):
        g = envelope(s.time, t_final)
        pair = pairing(s)
        for t, test in enumerate(tests):
            acc[t] += wt * g * pair(test)
    return acc


def quantum_term_weak_integral(traj: Trajectory, kappa: float) -> dict[str, float]:
    """Space-time weak integral of the quantum force in its integrated-by-
    parts form; reports the value and value/kappa^2."""
    if kappa == 0.0:
        return {"value": 0.0, "per_kappa_sq": 0.0}
    grid = traj.states[0].rho.grid
    tests = [_VectorTest.of(phi) for phi in default_vector_battery(grid).values()]

    def pairing(s: State):
        w = ScalarField._adopt(grid, np.sqrt(s.rho.values))
        dw = [derivative(w, j).values for j in range(grid.dim)]
        return lambda d: quantum_pairing(w.values, dw, d.grad_div, d.grad, grid)

    total = sum(2.0 * kappa**2 * a for a in _battery_sums(traj, tests, pairing))
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
        return lambda phi: sum(inner_product(f, c) for f, c in zip(force, phi.components))

    total = sum(_battery_sums(traj, list(default_vector_battery(grid).values()), pairing))
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
class RungResult:
    value: float
    monitors_max: dict[str, float]
    min_rho: float
    capillary_energy_max: float
    quantum_energy_max: float
    weak_integrals: dict[str, float]
    distance_to_reference: dict[str, float]
    # mean per step; printed by ``qmhd sweep``, not written to its CSV
    picard_iters_per_step: float
    full_sweeps_per_step: float
    tail_energy: float | None = None


@dataclass
class SweepResult:
    spec: SweepSpec
    rungs: list[RungResult]
    convergence_orders: dict[str, float]


def _run_rung(spec: SweepSpec, value) -> tuple[Trajectory, RungResult]:
    grid = TorusGrid((spec.points,) * spec.dim)
    phys, reg, n = spec.rung_params(value)
    basis = GalerkinBasis.lowest_modes(grid, n)
    state = benchmark_state(spec.benchmark, grid, basis, reg, seed=spec.seed)
    traj = run_simulation(state, phys, reg, spec.t_end, sample_every=spec.sample_every)

    monitors = {k: 0.0 for k in MONITOR_KEYS}
    min_rho = np.inf
    cap_max = 0.0
    quant_max = 0.0
    for s in traj.states:
        f = DerivedFields.of(s, reg)
        mon = norm_monitor(s, phys, reg, f)
        for k in MONITOR_KEYS:
            monitors[k] = max(monitors[k], mon[k])
        min_rho = min(min_rho, float(s.rho.values.min()))
        e = compute_energy(s, phys, reg, f)
        cap_max = max(cap_max, e.capillary)
        quant_max = max(quant_max, e.quantum)

    weak: dict[str, float] = {}
    if spec.parameter == "kappa":
        weak = quantum_term_weak_integral(traj, phys.kappa)
    elif spec.parameter == "delta":
        weak = capillarity_term_weak_integral(traj, reg.delta, reg.s)

    iters, sweeps = traj.mean_counts()
    rung = RungResult(
        value=float(value),
        monitors_max=monitors,
        min_rho=float(min_rho),
        capillary_energy_max=cap_max,
        quantum_energy_max=quant_max,
        weak_integrals=weak,
        distance_to_reference={},
        picard_iters_per_step=iters,
        full_sweeps_per_step=sweeps,
    )
    return traj, rung


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Execute every rung, measure distances to the final (limit) rung."""
    if workers > 1:
        # imported here, so that commands running no pool skip importing multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(_run_rung, [spec] * len(spec.values), spec.values))
    else:
        pairs = [_run_rung(spec, v) for v in spec.values]
    trajectories = [p[0] for p in pairs]
    rungs = [p[1] for p in pairs]

    reference = trajectories[-1]
    for i, traj in enumerate(trajectories):
        if i == len(trajectories) - 1:
            rungs[i].distance_to_reference = {k: 0.0 for k in StateDistance.__annotations__}
        else:
            rungs[i].distance_to_reference = trajectory_distance(traj, reference)

    if spec.parameter == "n":
        ref_final = reference.final_state.velocity.values
        for rung in rungs:
            n1 = int(rung.value)
            rung.tail_energy = float(np.sum(ref_final[n1:] ** 2))

    orders: dict[str, float] = {}
    vals = np.array([r.value for r in rungs[:-1]], dtype=float)
    if spec.parameter != "n" and np.all(vals > 0):
        for key in StateDistance.__annotations__:
            dists = np.array([r.distance_to_reference[key] for r in rungs[:-1]])
            good = dists > 0
            if good.sum() >= 2:
                slope, _ = np.polyfit(np.log(vals[good]), np.log(dists[good]), 1)
                orders[key] = float(slope)
    return SweepResult(spec, rungs, orders)


def sweep_rows(result: SweepResult) -> list[dict[str, float]]:
    """Flat per-rung rows (for CSV emission)."""
    rows = []
    for rung in result.rungs:
        row: dict[str, float] = {"value": rung.value, "min_rho": rung.min_rho}
        row["capillary_energy_max"] = rung.capillary_energy_max
        row["quantum_energy_max"] = rung.quantum_energy_max
        for k, v in rung.monitors_max.items():
            row[f"max_{k}"] = v
        for k, v in rung.distance_to_reference.items():
            row[f"dist_{k}"] = v
        for k, v in rung.weak_integrals.items():
            row[f"weak_{k}"] = v
        if rung.tail_energy is not None:
            row["tail_energy"] = rung.tail_energy
        rows.append(row)
    return rows


def content_hash(path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
