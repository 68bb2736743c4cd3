"""Numerical verification of the conservation structure: the energy
identity, the BD (Bresch-Desjardins) entropy identity, the quantum-force
algebraic identity, weak-form residuals, and the norm monitors consumed by
the limit experiments.

The weak form pairs each equation with test functions g(t) phi(x).  The
spatial factors phi are two fixed batteries built from the grid alone, one
scalar and one vector, and every test function has the same time factor
g(t) = (1 - t/T)^2 (``envelope``), which vanishes at the final time T.

Time derivatives of the functionals are centered differences on stored
snapshots, so the residuals measure what the scheme actually produced; with
the second-order stepper they shrink at second order in the step size.

Each field is derived once and each physical term is written in one place.
The fields of a state that several reports read live in one
``DerivedFields`` record, derived on first read; the reports take it as
their optional ``fields`` argument, and a CSV row builds one record for its
energy, dissipation and monitor reports.  The BD report reuses the
dissipation terms and the state's energy report, with only the kinetic term
taken at the shifted velocity u + grad(2 log rho).  The weak form derives
each interval's midpoint fields once for the whole test battery.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, fields as dc_fields, replace
from functools import cached_property, reduce
from itertools import pairwise
from operator import add
from typing import Callable, Iterable, Sequence

import numpy as np

from .basis import VelocityCoeffs
from .constitutive import (
    PhysParams,
    bohm_force_divergence_form,
    bohm_force_hessian_form,
    bohm_force_primary,
    cold_enthalpy,
    cold_enthalpy_second,
    cold_pressure,
    enthalpy,
    enthalpy_second,
    magnetic_diffusivity,
    pressure,
)
from .errors import DensityFloorViolation, NonuniformSampling
from .fields import (
    ScalarField,
    VectorField,
    _backward,
    _cross,
    _gradient_samples,
    curl,
    derivative,
    divergence,
    gradient,
    inner_product,
    l2_norm,
    laplacian,
    lp_norm,
    sobolev_seminorm,
)
from .solver import RegParams, State, Trajectory, _div_norm


# --------------------------------------------------------------------------
# pointwise tensor helpers


def _check_floor(rho: ScalarField, floor: float, context: str) -> np.ndarray:
    vals = rho.values
    if vals.min() < floor:
        raise DensityFloorViolation(f"{context}: density below the floor")
    return vals


def hessian_frobenius_sq(f: ScalarField) -> np.ndarray:
    """|D^2 f|^2 from the dim(dim+1)/2 distinct second derivatives; the
    off-diagonal ones count twice."""
    grid = f.grid
    total = np.zeros(grid.shape)
    for j in range(grid.dim):
        dj = derivative(f, j)
        total = total + derivative(dj, j).values ** 2
        for l in range(j + 1, grid.dim):
            total = total + 2.0 * derivative(dj, l).values ** 2
    return total


def grad_sq(f: ScalarField) -> np.ndarray:
    grid = f.grid
    total = np.zeros(grid.shape)
    for j in range(grid.dim):
        total = total + derivative(f, j).values ** 2
    return total


def _integral(values: np.ndarray, grid) -> float:
    """Grid quadrature of pointwise samples over the torus."""
    return float(values.mean() * grid.volume)


def _pair(a: Sequence[np.ndarray], b: Sequence[np.ndarray], grid) -> float:
    """L2 pairing of two three-component vector fields given by samples."""
    return float(sum((a[l] * b[l]).mean() for l in range(3)) * grid.volume)


# --------------------------------------------------------------------------
# the fields the reports share


@dataclass
class DerivedFields:
    """The fields of one state that more than one report reads: the
    floor-checked density samples, the velocity samples, sqrt(rho) and the
    velocity gradient with its strain and spin squares.  Each is derived on
    its first read, so at most once and only when a report reads it.

    Every per-state report takes the record as ``fields`` and then reads the
    state only through it, so callers holding bare fields pass no state.
    ``velocity`` is the state's velocity in its Galerkin span, if any: the
    velocity gradient and lap u then differentiate its box blocks
    (:attr:`qmhd.basis.VelocityCoeffs.spectra`) by box inverse transforms;
    without it they differentiate the half spectra of ``u``."""

    rho: ScalarField
    u: VectorField
    magnetic: VectorField
    floor: float
    velocity: VelocityCoeffs | None = None

    @classmethod
    def of(cls, state: State, reg: RegParams) -> "DerivedFields":
        return cls(state.rho, state.u, state.magnetic, reg.density_floor, state.velocity)

    @cached_property
    def rho_values(self) -> np.ndarray:
        return _check_floor(self.rho, self.floor, "diagnostics")

    @cached_property
    def u_values(self) -> list[np.ndarray]:
        return self.u.component_values()

    @cached_property
    def sqrt_rho(self) -> ScalarField:
        return ScalarField._adopt(self.rho.grid, np.sqrt(self.rho_values))

    @cached_property
    def velocity_spectra(self) -> tuple:
        """The velocity's component spectra, the wavenumbers ``k`` and
        squares ``k^2`` of their entries, and their box: the box blocks, or
        the half spectra of ``u`` and no box."""
        grid, v = self.u.grid, self.velocity
        if v is None:
            return [c.spectrum for c in self.u.components], grid.kvec, grid.k_squared, None
        return v.spectra, v.basis.box_kvec, grid.k_squared[v.basis.box_index], v.basis.box

    @cached_property
    def velocity_gradient(self) -> tuple[list[list[np.ndarray]], np.ndarray, np.ndarray]:
        """The velocity gradient d_j u_l (active j rows, all three components
        l as columns) and, pointwise, |D(u)|^2 and |A(u)|^2 of its symmetric
        and antisymmetric parts (full 3x3 tensor)."""
        grid = self.u.grid
        dim = grid.dim
        spectra, k, _, box = self.velocity_spectra
        du = _gradient_samples(spectra, k, grid, box)
        strain = np.zeros(grid.shape)
        spin = np.zeros(grid.shape)
        for j in range(3):
            for l in range(3):
                if j >= dim and l >= dim:
                    continue  # both entries vanish
                a = du[j][l] if j < dim else 0.0
                b = du[l][j] if l < dim else 0.0
                strain += (0.5 * (a + b)) ** 2
                spin += (0.5 * (a - b)) ** 2
        return du, strain, spin


# --------------------------------------------------------------------------
# energy identity


def _terms(report, prefix: str = "") -> list[float]:
    """The fields of a report dataclass whose names start with ``prefix``, in
    declaration order, read without copying the report."""
    return [getattr(report, f.name) for f in dc_fields(report) if f.name.startswith(prefix)]


@dataclass(frozen=True)
class _Terms:
    """A term-by-term report; its total sums the terms in field order."""

    @property
    def total(self) -> float:
        return reduce(add, _terms(self))

    def as_dict(self) -> dict[str, float]:
        return {**asdict(self), "total": self.total}


@dataclass(frozen=True)
class EnergyReport(_Terms):
    """Term-by-term values of the energy functional."""

    kinetic: float
    internal: float
    cold: float
    quantum: float
    magnetic: float
    capillary: float


@dataclass(frozen=True)
class DissipationReport(_Terms):
    """Term-by-term dissipation integrals; every entry is a weighted square."""

    viscous: float
    pressure_diss: float
    magnetic_diss: float
    hyper: float
    capillary_diss: float
    quantum_diss: float


def _kinetic(rvals: np.ndarray, uvals: Sequence[np.ndarray], grid) -> float:
    return 0.5 * _integral(rvals * sum(v * v for v in uvals), grid)


def compute_energy(
    state: State | None, phys: PhysParams, reg: RegParams, fields: DerivedFields | None = None
) -> EnergyReport:
    f = fields or DerivedFields.of(state, reg)
    grid = f.rho.grid
    rvals = f.rho_values
    kinetic = _kinetic(rvals, f.u_values, grid)
    internal = _integral(enthalpy(rvals, phys), grid)
    cold = _integral(cold_enthalpy(rvals, phys), grid)
    # note the factor 2: with the quantum force 2 kappa^2 rho grad(lap w / w)
    # the conserved quantity carries 2 kappa^2 |grad sqrt(rho)|^2
    quantum = 2.0 * phys.kappa**2 * _integral(grad_sq(f.sqrt_rho), grid)
    magnetic = 0.5 * sum(l2_norm(c) ** 2 for c in f.magnetic.components)
    capillary = 0.5 * reg.delta * sobolev_seminorm(f.rho, 2 * reg.s + 1) ** 2
    return EnergyReport(kinetic, internal, cold, quantum, magnetic, capillary)


def _dissipation(
    f: DerivedFields, phys: PhysParams, reg: RegParams
) -> tuple[DissipationReport, tuple]:
    """The dissipation report and what the BD report reads again: grad rho,
    curl B, lap u and log rho, and the unscaled integrals
    int (H'' + Hc'') |grad rho|^2, int rho |grad^2 log rho|^2 and the squared
    H^(2s+2) seminorm of rho."""
    grid = f.rho.grid
    rvals = f.rho_values
    _, strain_sq, _ = f.velocity_gradient
    drho = [derivative(f.rho, j).values for j in range(grid.dim)]
    hess_enthalpy = enthalpy_second(rvals, phys) + cold_enthalpy_second(rvals, phys)
    pressure_gradient = _integral(hess_enthalpy * sum(d**2 for d in drho), grid)
    cb = [c.values for c in curl(f.magnetic).components]
    spectra, _, k2, box = f.velocity_spectra
    lap_u = [ScalarField._adopt(grid, _backward(-k2 * s, grid, box)) for s in spectra]
    logr = ScalarField._adopt(grid, np.log(rvals))
    quantum_hessian = _integral(rvals * hessian_frobenius_sq(logr), grid)
    capillary_sq = sobolev_seminorm(f.rho, 2 * (reg.s + 1)) ** 2
    report = DissipationReport(
        viscous=2.0 * _integral(rvals * strain_sq, grid),
        pressure_diss=reg.epsilon * pressure_gradient,
        magnetic_diss=_integral(magnetic_diffusivity(rvals, phys) * sum(c**2 for c in cb), grid),
        hyper=reg.eta * sum(l2_norm(c) ** 2 for c in lap_u),
        capillary_diss=reg.delta * reg.epsilon * capillary_sq,
        quantum_diss=reg.epsilon * phys.kappa**2 * quantum_hessian,
    )
    return report, (drho, cb, lap_u, logr, pressure_gradient, quantum_hessian, capillary_sq)


def compute_dissipation(
    state: State | None, phys: PhysParams, reg: RegParams, fields: DerivedFields | None = None
) -> DissipationReport:
    return _dissipation(fields or DerivedFields.of(state, reg), phys, reg)[0]


@dataclass
class ResidualSeries:
    times: np.ndarray
    raw: np.ndarray
    relative: np.ndarray


def _require_uniform(traj: Trajectory) -> float:
    times = np.asarray(traj.times)
    if times.size < 3:
        raise NonuniformSampling("need at least 3 uniformly spaced samples")
    steps = np.diff(times)
    h = steps[0]
    if np.max(np.abs(steps - h)) > 1e-12 * max(abs(h), 1.0):
        raise NonuniformSampling("trajectory samples are not uniformly spaced")
    return float(h)


def _centred_residual(
    traj: Trajectory, balance: Callable[[State], tuple[float, float, float, Iterable[float]]]
) -> ResidualSeries:
    """Residual of the balance d/dt F + lhs = rhs at each interior sample,
    with dF/dt a centred difference.  ``balance(state)`` returns F, lhs, rhs
    and the terms whose largest magnitude, with |dF/dt|, scales the relative
    residual."""
    h = _require_uniform(traj)
    rows = [balance(s) for s in traj.states]
    times, raw, rel = [], [], []
    for k in range(1, len(rows) - 1):
        dedt = (rows[k + 1][0] - rows[k - 1][0]) / (2.0 * h)
        _, lhs, rhs, terms = rows[k]
        r = dedt + lhs - rhs
        scale = max(abs(dedt), *(abs(v) for v in terms), 1e-300)
        times.append(traj.states[k].time)
        raw.append(r)
        rel.append(r / scale)
    return ResidualSeries(np.array(times), np.array(raw), np.array(rel))


def energy_identity_residual(traj: Trajectory) -> ResidualSeries:
    """Centered-difference energy rate plus dissipation, per interior sample."""
    phys, reg = traj.phys, traj.reg

    def balance(s: State):
        f = DerivedFields.of(s, reg)
        energy = compute_energy(s, phys, reg, f).total
        d = compute_dissipation(s, phys, reg, f)
        return energy, d.total, 0.0, _terms(d)

    return _centred_residual(traj, balance)


# --------------------------------------------------------------------------
# BD entropy identity


@dataclass(frozen=True)
class BDEntropyReport:
    """One snapshot of the BD entropy balance.

    ``lhs_*`` entries are the dissipation integrals that sit with the time
    derivative; ``rhs_*`` entries are the exchange terms.  The identity reads
    d/dt bd_energy + sum(lhs) = sum(rhs).
    """

    bd_energy: float
    lhs_hyper: float
    lhs_antisymmetric: float
    lhs_pressure_gradient: float
    lhs_quantum_hessian: float
    lhs_quantum_hessian_eps: float
    lhs_magnetic: float
    lhs_capillary_eps: float
    lhs_capillary: float
    lhs_pressure_gradient_eps: float
    rhs_density_laplacian: float
    rhs_velocity_gradient: float
    rhs_log_gradient_laplacian: float
    rhs_hyperviscous: float
    rhs_mass_flux: float
    rhs_lorentz: float
    spot_density_laplacian: float

    @property
    def lhs_total(self) -> float:
        return reduce(add, _terms(self, "lhs_"))

    @property
    def rhs_total(self) -> float:
        return reduce(add, _terms(self, "rhs_"))

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def bd_entropy_report(
    state: State | None, phys: PhysParams, reg: RegParams, fields: DerivedFields | None = None
) -> BDEntropyReport:
    f = fields or DerivedFields.of(state, reg)
    grid = f.rho.grid
    diss, shared = _dissipation(f, phys, reg)
    drho, curl_b, lap_u, logr, pressure_gradient, quantum_hessian, capillary_sq = shared
    rvals = f.rho_values
    uvals = f.u_values
    du, _, spin_sq = f.velocity_gradient
    eps, eta, delta, kappa = reg.epsilon, reg.eta, reg.delta, phys.kappa

    # phi = 2 log rho; doubling is exact, so its spectrum is twice that of log rho
    gphi = gradient(ScalarField._adopt(grid, None, 2.0 * logr.spectrum))
    gphi_vals = gphi.component_values()

    # the energy functional at the gradient-shifted velocity: only its
    # kinetic term reads the velocity
    shifted = [uvals[l] + gphi_vals[l] for l in range(3)]
    energy = compute_energy(state, phys, reg, f)
    bd_energy = replace(energy, kinetic=_kinetic(rvals, shifted, grid)).total

    lap_r = laplacian(f.rho)
    phi_prime_lap = ScalarField._adopt(grid, 2.0 / rvals * lap_r.values)
    g_pl = gradient(phi_prime_lap).component_values()
    rhs_density_laplacian = eps * _integral(
        rvals * sum(a * b for a, b in zip(gphi_vals, g_pl)), grid
    )
    spot_density_laplacian = -4.0 * eps * _integral(lap_r.values**2 / rvals, grid)

    coupling = np.zeros(grid.shape)
    for j in range(grid.dim):
        for l in range(grid.dim):
            coupling = coupling + drho[j] * du[j][l] * gphi_vals[l]
    rhs_velocity_gradient = -eps * _integral(coupling, grid)

    rhs_log_gradient_laplacian = eps * _integral(
        0.5 * sum(v * v for v in gphi_vals) * lap_r.values, grid
    )

    lap_gphi = [laplacian(gphi.components[l]).values for l in range(grid.dim)]
    rhs_hyperviscous = -eta * _integral(
        sum(lap_u[l].values * lap_gphi[l] for l in range(grid.dim)), grid
    )

    div_m = divergence(
        VectorField.from_arrays(grid, [rvals * uvals[l] for l in range(3)])
    ).values
    rhs_mass_flux = -eps * _integral(div_m * phi_prime_lap.values, grid)

    lorentz = _cross(curl_b, f.magnetic.component_values())

    return BDEntropyReport(
        bd_energy=bd_energy,
        lhs_hyper=diss.hyper,
        lhs_antisymmetric=2.0 * _integral(rvals * spin_sq, grid),
        lhs_pressure_gradient=2.0 * pressure_gradient,
        lhs_quantum_hessian=2.0 * kappa**2 * quantum_hessian,
        lhs_quantum_hessian_eps=diss.quantum_diss,
        lhs_magnetic=diss.magnetic_diss,
        lhs_capillary_eps=diss.capillary_diss,
        lhs_capillary=2.0 * delta * capillary_sq,
        lhs_pressure_gradient_eps=diss.pressure_diss,
        rhs_density_laplacian=rhs_density_laplacian,
        rhs_velocity_gradient=rhs_velocity_gradient,
        rhs_log_gradient_laplacian=rhs_log_gradient_laplacian,
        rhs_hyperviscous=rhs_hyperviscous,
        rhs_mass_flux=rhs_mass_flux,
        rhs_lorentz=_integral(sum(lorentz[l] * gphi_vals[l] for l in range(3)), grid),
        spot_density_laplacian=spot_density_laplacian,
    )


def bd_entropy_residual(traj: Trajectory) -> tuple[ResidualSeries, list[BDEntropyReport]]:
    reports = []

    def balance(s: State):
        rep = bd_entropy_report(s, traj.phys, traj.reg)
        reports.append(rep)
        return rep.bd_energy, rep.lhs_total, rep.rhs_total, (rep.lhs_total, rep.rhs_total)

    return _centred_residual(traj, balance), reports


# --------------------------------------------------------------------------
# quantum force identity and inequality record


@dataclass(frozen=True)
class BohmIdentityReport:
    primary_vs_divergence: float
    primary_vs_hessian: float
    divergence_vs_hessian: float


def bohm_identity_check(rho: ScalarField, kappa: float, floor: float = 1e-8) -> BohmIdentityReport:
    """Pairwise L2 distances of the three force forms, normalized by kappa^2."""
    if kappa == 0.0:
        return BohmIdentityReport(0.0, 0.0, 0.0)
    f1 = bohm_force_primary(rho, kappa, floor)
    f2 = bohm_force_divergence_form(rho, kappa, floor)
    f3 = bohm_force_hessian_form(rho, kappa, floor)

    def dist(a: VectorField, b: VectorField) -> float:
        return l2_norm(a - b) / kappa**2

    return BohmIdentityReport(dist(f1, f2), dist(f1, f3), dist(f2, f3))


# --------------------------------------------------------------------------
# weak-form residuals


def envelope(t: float, t_final: float) -> float:
    """The time factor g(t) = (1 - t/T)^2 of every test function g(t) phi(x):
    it vanishes at the final time T, as the weak formulation asks."""
    return (1.0 - t / t_final) ** 2


def default_scalar_battery(grid) -> dict[str, ScalarField]:
    """The spatial factors phi(x) of the scalar test functions, by name."""
    mesh = grid.mesh
    battery = {
        "const": ScalarField(grid, np.ones(grid.shape)),
        "cos_x": ScalarField(grid, np.cos(mesh[0])),
        "sin_x": ScalarField(grid, np.sin(mesh[0])),
    }
    if grid.dim >= 2:
        battery["cos_y"] = ScalarField(grid, np.cos(mesh[1]))
    return battery


def default_vector_battery(grid) -> dict[str, VectorField]:
    """The spatial factors phi(x) of the vector test functions, by name."""
    mesh = grid.mesh
    zero = np.zeros(grid.shape)
    items = [
        ("e0_sin_x", [np.sin(mesh[0]), zero, zero]),
        ("e1_cos_x", [zero, np.cos(mesh[0]), zero]),
        ("e2_sin_x", [zero, zero, np.sin(mesh[0])]),
    ]
    if grid.dim >= 2:
        items.append(("e0_cos_y", [np.cos(mesh[1]), zero, zero]))
    return {name: VectorField.from_arrays(grid, arrs) for name, arrs in items}


def quantum_pairing(w: np.ndarray, dw, grad_div_phi, grad_phi, grid) -> float:
    """int w grad w . grad div phi + 2 int d_j w d_l w d_j phi_l, w = sqrt(rho):
    the quantum force 2 kappa^2 rho grad(lap w / w) paired with a test field
    phi, integrated by parts and divided by 2 kappa^2.  Takes samples:
    ``dw[j]``, ``grad_div_phi[l]`` and ``grad_phi[j][l]`` over active axes."""
    inner = 0.0
    for l in range(grid.dim):
        inner += _integral(w * dw[l] * grad_div_phi[l], grid)
    for j in range(grid.dim):
        for l in range(grid.dim):
            inner += 2.0 * _integral(dw[j] * dw[l] * grad_phi[j][l], grid)
    return inner


@dataclass(frozen=True)
class _VectorTest:
    """Samples of a vector test field and of every derivative the momentum
    and induction pairings read."""

    values: list[np.ndarray]
    grad: list[list[np.ndarray]]  # d_j phi_l, active j
    div: np.ndarray
    lap: list[np.ndarray]
    grad_div: list[np.ndarray]  # active axes
    curl: list[np.ndarray]

    @classmethod
    def of(cls, phi: VectorField) -> "_VectorTest":
        div_phi = divergence(phi)
        return cls(
            values=phi.component_values(),
            grad=[[derivative(c, j).values for c in phi.components] for j in range(phi.grid.dim)],
            div=div_phi.values,
            lap=[laplacian(c).values for c in phi.components],
            grad_div=gradient(div_phi).component_values()[: phi.grid.dim],
            curl=curl(phi).component_values(),
        )


def weak_form_residual(traj: Trajectory) -> dict[str, dict[str, float]]:
    """Distributional residuals of continuity, momentum and induction over
    the sampled trajectory, one number per test function g(t) phi(x): phi
    from the fixed batteries, g the one ``envelope``.

    Quadrature is midpoint-in-time with the summation-by-parts pairing, so a
    conservative scheme telescopes the continuity item to solver tolerance
    when the density diffusion is off.  One pass over the intervals derives
    the midpoint fields once and pairs them with every test function.
    """
    h = _require_uniform(traj)
    grid = traj.states[0].rho.grid
    dim = grid.dim
    phys = traj.phys
    t_final = traj.times[-1]
    scalars = default_scalar_battery(grid)
    vectors = default_vector_battery(grid)

    from .fields import dealiased_product

    scalar_grads = [gradient(phi).component_values() for phi in scalars.values()]
    vector_tests = [_VectorTest.of(phi) for phi in vectors.values()]

    first, g_first = traj.states[0], envelope(traj.times[0], t_final)
    m_first = [first.rho.values * first.u.component_values()[l] for l in range(3)]
    b_first = first.magnetic.component_values()
    continuity = [g_first * inner_product(first.rho, phi) for phi in scalars.values()]
    momentum = [g_first * _pair(m_first, d.values, grid) for d in vector_tests]
    magnetic = [g_first * _pair(b_first, d.values, grid) for d in vector_tests]

    for (s0, s1), (t0, t1) in zip(pairwise(traj.states), pairwise(traj.times)):
        # midpoint fields, derived once per interval
        rho_mid = ScalarField._adopt(grid, 0.5 * (s0.rho.values + s1.rho.values))
        rv = rho_mid.values
        uv = [0.5 * (a + b) for a, b in zip(s0.u.component_values(), s1.u.component_values())]
        bv = [
            0.5 * (a + b)
            for a, b in zip(s0.magnetic.component_values(), s1.magnetic.component_values())
        ]
        wv = 0.5 * (np.sqrt(s0.rho.values) + np.sqrt(s1.rho.values))
        w_mid = ScalarField._adopt(grid, wv)
        dw = [derivative(w_mid, j).values for j in range(dim)]
        mv = [rv * uv[l] for l in range(3)]
        flux = [
            dealiased_product(rho_mid, ScalarField._adopt(grid, uv[l])).values for l in range(dim)
        ]
        ptot = pressure(rv, phys) + cold_pressure(rv, phys)
        cb = curl(VectorField.from_arrays(grid, bv)).component_values()
        lorentz = _cross(cb, bv)
        emf = _cross(uv, bv)
        nu = magnetic_diffusivity(rv, phys)

        g0, g1 = envelope(t0, t_final), envelope(t1, t_final)
        gmid = 0.5 * (g0 + g1)
        for i, phi in enumerate(scalars.values()):
            continuity[i] += (g1 - g0) * inner_product(rho_mid, phi)
            flux_pairing = sum(_integral(flux[l] * scalar_grads[i][l], grid) for l in range(dim))
            continuity[i] += h * gmid * flux_pairing

        for i, d in enumerate(vector_tests):
            term = 0.0
            # transport: rho u (x) u : grad phi
            for j in range(dim):
                for l in range(3):
                    term += _integral(mv[j] * uv[l] * d.grad[j][l], grid)
            # pressure work
            term += _integral(ptot * d.div, grid)
            # viscosity in the factored form
            for j in range(dim):
                for l in range(3):
                    term += 2.0 * _integral(dw[j] * wv * uv[l] * d.grad[j][l], grid)
                    if l < dim:
                        term += 2.0 * _integral(wv * uv[j] * dw[l] * d.grad[j][l], grid)
            for l in range(3):
                term += _integral(mv[l] * d.lap[l], grid)
            for l in range(dim):
                term += _integral(mv[l] * d.grad_div[l], grid)
            # quantum terms in the integrated-by-parts form
            if phys.kappa:
                term += 2.0 * phys.kappa**2 * quantum_pairing(wv, dw, d.grad_div, d.grad, grid)
            # Lorentz force
            term += _pair(lorentz, d.values, grid)
            momentum[i] += (g1 - g0) * _pair(mv, d.values, grid)
            momentum[i] += h * gmid * term

            term = _pair(emf, d.curl, grid)
            term -= _integral(nu * sum(cb[l] * d.curl[l] for l in range(3)), grid)
            magnetic[i] += (g1 - g0) * _pair(bv, d.values, grid)
            magnetic[i] += h * gmid * term

    return {
        "continuity": {name: float(r) for name, r in zip(scalars, continuity)},
        "momentum": {name: float(r) for name, r in zip(vectors, momentum)},
        "magnetic": {name: float(r) for name, r in zip(vectors, magnetic)},
    }


# --------------------------------------------------------------------------
# norm monitors


MONITOR_KEYS = (
    "rho_Lgamma",
    "inv_rho_Lgamma_minus",
    "grad_sqrt_rho_L2",
    "sqrt_rho_u_L2",
    "sqrt_rho_Du_L2",
    "grad_rho_gamma_half_L2",
    "B_L2",
    "grad_B_L2",
    "inv_rho_Linf",
    "sqrt_rho_H2",
    "grad_rho_quarter_L4",
)


def norm_monitor(
    state: State | None, phys: PhysParams, reg: RegParams, fields: DerivedFields | None = None
) -> dict[str, float]:
    """The catalog of norms the a priori bounds control, one value each."""
    f = fields or DerivedFields.of(state, reg)
    grid = f.rho.grid
    rvals = f.rho_values
    uvals = f.u_values
    w = f.sqrt_rho
    q = ScalarField._adopt(grid, rvals**0.25)
    rg = ScalarField._adopt(grid, rvals ** (phys.gamma / 2.0))
    grad_w = sobolev_seminorm(w, 1)
    h2 = np.sqrt(l2_norm(w) ** 2 + grad_w**2 + sobolev_seminorm(w, 2) ** 2)
    _, strain_sq, _ = f.velocity_gradient
    return {
        "rho_Lgamma": lp_norm(f.rho, phys.gamma),
        "inv_rho_Lgamma_minus": lp_norm(ScalarField._adopt(grid, 1.0 / rvals), phys.gamma_minus),
        "grad_sqrt_rho_L2": grad_w,
        "sqrt_rho_u_L2": float(
            np.sqrt((rvals * sum(v * v for v in uvals)).mean() * grid.volume)
        ),
        "sqrt_rho_Du_L2": float(np.sqrt((rvals * strain_sq).mean() * grid.volume)),
        "grad_rho_gamma_half_L2": sobolev_seminorm(rg, 1),
        "B_L2": float(np.sqrt(sum(l2_norm(c) ** 2 for c in f.magnetic.components))),
        "grad_B_L2": float(
            np.sqrt(sum(sobolev_seminorm(c, 1) ** 2 for c in f.magnetic.components))
        ),
        "inv_rho_Linf": float(1.0 / rvals.min()),
        "sqrt_rho_H2": float(h2),
        "grad_rho_quarter_L4": float(((grad_sq(q) ** 2).mean() * grid.volume) ** 0.25),
    }


# --------------------------------------------------------------------------
# CSV emission

SCHEMA_VERSION = 1


class DiagnosticsWriter:
    """One CSV row per sampled state, fixed column order, versioned header;
    each row is flushed as it is written."""

    def __init__(self, path, phys: PhysParams, reg: RegParams):
        self.path = path
        self.phys = phys
        self.reg = reg
        energy_cols = [f.name for f in dc_fields(EnergyReport)] + ["energy_total"]
        diss_cols = [f.name for f in dc_fields(DissipationReport)] + ["dissipation_total"]
        self.columns = (
            ["time"]
            + energy_cols
            + diss_cols
            + list(MONITOR_KEYS)
            + ["min_rho", "mass", "div_b", "picard_iters", "picard_max_ratio", "schema_version"]
        )
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(self.columns)

    def write_row(self, state: State, info=None) -> None:
        f = DerivedFields.of(state, self.reg)
        e = compute_energy(state, self.phys, self.reg, f)
        d = compute_dissipation(state, self.phys, self.reg, f)
        mon = norm_monitor(state, self.phys, self.reg, f)
        div_b = _div_norm(state.magnetic)
        iters = info.picard_iters if info is not None else 0
        ratio = (
            max(info.contraction_ratios) if info is not None and info.contraction_ratios else 0.0
        )
        row = (
            [repr(float(state.time))]
            + [repr(float(v)) for v in e.as_dict().values()]
            + [repr(float(v)) for v in d.as_dict().values()]
            + [repr(float(mon[k])) for k in MONITOR_KEYS]
            + [
                repr(float(state.rho.values.min())),
                repr(float(state.mass)),
                repr(float(div_b)),
                str(iters),
                repr(float(ratio)),
                str(SCHEMA_VERSION),
            ]
        )
        self._writer.writerow(row)
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
