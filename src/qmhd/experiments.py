"""Parameter-limit studies: Galerkin refinement, vanishing regularization
(a delta rung sets eta = epsilon = delta²), and the vanishing-Planck-constant
limit.

Each sweep runs the final (limit) rung first, then one simulation per rung
from shared initial data, measuring as each finishes its distances to the
limit rung, its norm monitors, and the weak integrals of the terms that are
supposed to vanish.  A rung's result is its ``sweep_results.csv`` row,
which ``_measure`` fills and ``qmhd sweep`` writes as it is.  A rung is
measured in one walk over its samples (``_walk``), with trapezoid weights
in time: each sample is read through one record
(:meth:`qmhd.diagnostics.DerivedFields.of`), and so is the limit rung's
sample at the same time, and the monitors, the energy maxima, the
distances (``compare_states``) and the weak pairing all read those records,
so what they derive, the velocity's and B's samples or rho's spectrum, is
derived once per sample, freed with its record and never cached on the
state.  ``trajectory_distance`` and the two weak integrals are columns of
the same walk.  The weak integrals pair each term with the diagnostics'
fixed vector battery under its one envelope g(t) = (1 - t/T)^2, through
the records of the test fields phi e_c that the weak form reads too
(:class:`qmhd.diagnostics._VectorTest`), built once per walk straight from
the battery table (:func:`qmhd.diagnostics._test_records`).  Both terms
have components along the active axes only, so each pairs its component c
with phi, or gives 0 when c is not an active axis.  The quantum integral
forms its two integrands once per sample
(:func:`qmhd.diagnostics.quantum_flux`, which the weak form reads too),
from the record's sqrt(rho).  The capillarity integral pairs the scheme's
own force term (:func:`qmhd.solver._capillary_gradient`), so it costs one
inverse transform per axis and sample.  Everything is deterministic for a
fixed configuration.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import partial

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


def compare_states(a: DerivedFields, b: DerivedFields) -> StateDistance:
    """L2 distances of the fields the limit theorems control, between the
    records of two states (:meth:`qmhd.diagnostics.DerivedFields.of`), on
    the finer of the two grids."""
    fine = max(a.rho.grid, b.rho.grid, key=lambda g: g.num_points)

    def lift(f: DerivedFields):
        if f.rho.grid.shape == fine.shape:
            return f.rho, f.u, f.magnetic
        rho = spectral_resample(f.rho, fine)
        u = VectorField(fine, [spectral_resample(c, fine) for c in f.u.components])
        bb = VectorField(fine, [spectral_resample(c, fine) for c in f.magnetic.components])
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


def _quantum_pairs(f: DerivedFields, tests: list) -> list[float]:
    """The quantum force on ``f``'s sample paired with each test field's
    record, its two integrands (:func:`qmhd.diagnostics.quantum_flux`)
    formed once from the record's sqrt(rho)."""
    grid, w = f.rho.grid, f.sqrt_rho
    q_grad, q_grad_div = quantum_flux(w.values, [derivative(w, j).values for j in range(grid.dim)])
    return [
        _pair(q_grad_div, d.grad_div, grid) + _pair(q_grad[d.c], d.grad, grid) if d.c < grid.dim else 0.0 for d in tests
    ]


def _capillary_pairs(f: DerivedFields, tests: list, delta: float, s_order: int) -> list[float]:
    """The scheme's capillarity force -delta rho g on ``f``'s sample
    (:func:`qmhd.solver._capillary_gradient`) paired with each test field's
    record."""
    grid = f.rho.grid
    force = [ScalarField._adopt(grid, -delta * f.rho.values * g) for g in _capillary_gradient(f.rho, s_order)]
    return [inner_product(force[d.c], d.phi) if d.c < grid.dim else 0.0 for d in tests]


def _walk(
    traj: Trajectory, reference: Trajectory, parameter: str | None = None, coefficient: float = 0.0, s_order: int = 1
) -> dict[str, float]:
    """A rung's measured columns, in one walk over its samples: ``min_rho``,
    the energy maxima, the monitor maxima ``max_*``, the space-time L2
    distances ``dist_*`` to ``reference`` over the common sample times
    (trapezoid), and, for ``parameter`` "kappa" or "delta", the weak
    integral ``weak_*`` of the quantum term at kappa = ``coefficient`` or
    of the capillarity term at delta = ``coefficient`` and ``s_order``.
    Each sample and the reference's sample at its time are read through one
    record each, whose floor check every sample must pass.  A trajectory is
    at distance zero from itself, with no comparison, and a term whose
    coefficient is 0 gives 0.0 without pairing."""
    compared = traj is not reference
    ta, tb = np.asarray(traj.times), np.asarray(reference.times)
    if compared and (len(ta) != len(tb) or np.max(np.abs(ta - tb)) > 1e-10):
        raise QMHDError("trajectories must share their sample times")
    phys, reg = traj.phys, traj.reg
    cols = {"min_rho": np.inf, "capillary_energy_max": 0.0, "quantum_energy_max": 0.0}
    cols.update({f"max_{k}": 0.0 for k in MONITOR_KEYS})
    sq = dict.fromkeys(StateDistance.__annotations__, 0.0)
    pairs = None
    if coefficient and parameter == "kappa":
        pairs = _quantum_pairs
    elif coefficient and parameter == "delta":
        pairs = partial(_capillary_pairs, delta=coefficient, s_order=s_order)
    tests = list(_test_records(traj.states[0].rho.grid)[1].values()) if pairs else []
    acc = [0.0] * len(tests)
    h, last, t_final = traj.sampled_dt, len(traj.states) - 1, traj.times[-1]

    for i, s in enumerate(traj.states):
        wt = 0.5 * h if i in (0, last) else h
        f = DerivedFields.of(s, reg)
        mon = norm_monitor(s, phys, reg, f)
        for k in MONITOR_KEYS:
            cols[f"max_{k}"] = max(cols[f"max_{k}"], mon[k])
        cols["min_rho"] = min(cols["min_rho"], float(f.rho_values.min()))
        e = compute_energy(s, phys, reg, f)
        cols["capillary_energy_max"] = max(cols["capillary_energy_max"], e.capillary)
        cols["quantum_energy_max"] = max(cols["quantum_energy_max"], e.quantum)
        if compared:
            d = compare_states(f, DerivedFields.of(reference.states[i], reference.reg)).as_dict()
            for k in sq:
                sq[k] += wt * d[k] ** 2
        if pairs:
            g = envelope(s.time, t_final)
            for t, pair in enumerate(pairs(f, tests)):
                acc[t] += wt * g * pair

    cols.update({f"dist_{k}": float(np.sqrt(v)) for k, v in sq.items()})
    # with a zero coefficient nothing was paired, and the sums are 0
    if parameter == "kappa":
        total = sum(2.0 * coefficient**2 * a for a in acc)
        cols.update(weak_value=float(total), weak_per_kappa_sq=float(total / coefficient**2) if coefficient else 0.0)
    elif parameter == "delta":
        total, alpha = sum(acc), (4.0 * s_order + 2.0) / (4.0 * s_order + 3.0)
        scaled = total / coefficient ** ((1.0 - alpha) / 2.0) if coefficient else 0.0
        cols.update(weak_value=float(total), weak_scaled=float(scaled))
    return cols


def trajectory_distance(a: Trajectory, b: Trajectory) -> dict[str, float]:
    """Space-time L2 distances over the common sample times (trapezoid):
    the ``dist_*`` columns of ``a``'s walk against ``b``.  A trajectory is
    at distance zero from itself, with no comparison.  The walk measures
    the whole rung, so this also forms the monitors and energies it
    discards, and raises ``DensityFloorViolation`` on a sample of ``a`` or
    ``b`` below the density floor."""
    cols = _walk(a, b)
    return {k: cols[f"dist_{k}"] for k in StateDistance.__annotations__}


# --------------------------------------------------------------------------
# weak integrals of the vanishing terms


def quantum_term_weak_integral(traj: Trajectory, kappa: float) -> dict[str, float]:
    """Space-time weak integral of the quantum force in its integrated-by-
    parts form, its two integrands (:func:`qmhd.diagnostics.quantum_flux`)
    formed once per sample: the ``weak_*`` columns of the trajectory's walk,
    the value and value/kappa^2.  The walk measures the whole rung, so this
    also forms the monitors and energies it discards, and raises
    ``DensityFloorViolation`` on a sample below the density floor."""
    cols = _walk(traj, traj, "kappa", kappa)
    return {"value": cols["weak_value"], "per_kappa_sq": cols["weak_per_kappa_sq"]}


def capillarity_term_weak_integral(traj: Trajectory, delta: float, s_order: int) -> dict[str, float]:
    """Space-time weak integral of the capillarity term: the scheme's own
    force -delta rho g (:func:`qmhd.solver._capillary_gradient`) paired with
    each test field, the ``weak_*`` columns of the trajectory's walk.
    Reports the value and the value scaled by delta^((1-alpha)/2) with
    alpha = (4s+2)/(4s+3).  The walk measures the whole rung, so this also
    forms the monitors and energies it discards, and raises
    ``DensityFloorViolation`` on a sample below the density floor."""
    cols = _walk(traj, traj, "delta", delta, s_order)
    return {"value": cols["weak_value"], "scaled": cols["weak_scaled"]}


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
    coefficient = {"kappa": traj.phys.kappa, "delta": traj.reg.delta}.get(spec.parameter, 0.0)
    row = {"value": float(value), **_walk(traj, reference, spec.parameter, coefficient, traj.reg.s)}
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
