"""Numerical verification of the conservation structure: the energy
identity, the BD (Bresch-Desjardins) entropy identity, the quantum-force
identity, weak-form residuals, and the norm monitors consumed by the limit
experiments.

The quantum-force identity (``bohm_identity_check``) compares the pointwise
Bohm force 2 kappa^2 rho grad(lap sqrt(rho) / sqrt(rho)) with the quantum
part of the scheme's own momentum force, read at the full half spectrum
(``solver._momentum_force``); no form of the force is written here.

The weak form pairs each equation with test functions g(t) phi(x).  The
spatial factors phi are two fixed batteries built from the grid alone, one
scalar and one vector, and every test function has the same time factor
g(t) = (1 - t/T)^2 (``envelope``), which vanishes at the final time T.
Each vector test field is one scalar test phi in one component c, phi e_c,
and is paired through one record (``_VectorTest``) of c, phi and the
samples of the derivatives of phi the pairings read; a derivative that is
zero everywhere is neither transformed nor paired.  The records are built
straight from the table of (c, phi) pairs (``_VECTOR_TESTS``) and the
scalar battery (``_test_records``): each scalar test is transformed and
differentiated once, and its gradient samples serve the continuity pairing
and every vector record of that phi.  ``default_vector_battery`` builds the
same fields with all three components, as a reference.

Time derivatives of the functionals are centered differences on stored
snapshots, so the residuals measure what the scheme actually produced; with
the second-order stepper they shrink at second order in the step size.

Each field is derived once and each physical term is written in one place.
The fields of a state that several reports read live in one
``DerivedFields`` record, derived on first read and never cached on the
state.  ``DerivedFields.of`` is the one reader of a state: the record holds
rho and B in fields of its own over the state's arrays, so B's samples,
which a sampled state holds as spectra only, and rho's spectrum, when
derived, live on the record and are freed with it.  The reports take it as
their optional ``fields`` argument, and a CSV row builds one record for its
energy, dissipation and monitor reports, which read the velocity gradient
only through |D(u)|^2.  The BD report reuses the dissipation terms and the
state's energy report, with only the kinetic term taken at the shifted
velocity u + grad(2 log rho).  The weak form reads each state through one
record per pass and carries it from one interval into the next.  It forms
each interval's integrands once, at the midpoint fields, grouped by the
derivative of the test field each meets (grad phi, div phi, lap phi,
grad div phi, phi, curl phi), and pairs column c of each group with each
record once through ``_pair``.  The quantum force's two integrands have one home,
``quantum_flux``, which the Planck ladder's weak integral reads too.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, fields as dc_fields, replace
from functools import cached_property, reduce
from itertools import pairwise
from operator import add
from typing import Callable, Iterable, Sequence

import numpy as np

from .basis import GalerkinBasis, VelocityCoeffs
from .constitutive import (
    PhysParams,
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
from .solver import RegParams, State, Trajectory, _div_norm, _momentum_force


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


def _pair(a, b, grid) -> float:
    """L2 pairing of integrand samples ``a`` with test samples ``b``: arrays,
    or nested lists of equal length paired entry by entry.  A test entry that
    is None, zero everywhere (``_samples``), is skipped."""

    def mean(a, b):
        if isinstance(a, np.ndarray):
            return (a * b).mean()
        return sum(mean(x, y) for x, y in zip(a, b, strict=True) if y is not None)

    return float(mean(a, b) * grid.volume)


# --------------------------------------------------------------------------
# the fields the reports share


def _gradient_part_sq(du: list[list[np.ndarray]], dim: int, symmetric: bool) -> np.ndarray:
    """Pointwise |D(u)|^2 (``symmetric``) or |A(u)|^2 of the symmetric or
    antisymmetric part of the full 3x3 velocity gradient, given its active
    rows ``du[j][l]`` = d_j u_l."""
    total = np.zeros(du[0][0].shape)
    for j in range(3):
        for l in range(3):
            if j >= dim and l >= dim:
                continue  # both entries vanish
            a = du[j][l] if j < dim else 0.0
            b = du[l][j] if l < dim else 0.0
            total += (0.5 * (a + b if symmetric else a - b)) ** 2
    return total


@dataclass
class DerivedFields:
    """The fields of one state that more than one report reads: the
    velocity samples ``u`` and, each derived on its first read, so at most
    once and only when a report reads it, the floor-checked density
    samples, sqrt(rho), the strain square |D(u)|^2 and, for the BD report,
    the velocity gradient.  The record alone holds them, nothing is cached
    on the state, and a CSV row keeps |D(u)|^2 but not the gradient, so a
    row's fields are freed with its record.

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
        """The record of ``state``, the one place a reader wraps a state's
        fields: rho and B are fields of the record's own over the state's
        arrays, samples and spectra (``ScalarField._shared``), and the record
        holds its own velocity samples
        (:meth:`qmhd.basis.VelocityCoeffs.reconstruct`), so B's samples or
        rho's spectrum, when a report derives them, live on the record and
        are freed with it, never cached on ``state``."""
        grid = state.rho.grid
        magnetic = VectorField(grid, [c._shared() for c in state.magnetic.components])
        return cls(state.rho._shared(), state.velocity.reconstruct(), magnetic, reg.density_floor, state.velocity)

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

    def _derive_gradient(self) -> list[list[np.ndarray]]:
        spectra, k, _, box = self.velocity_spectra
        return _gradient_samples(spectra, k, self.u.grid, box)

    @cached_property
    def velocity_gradient(self) -> list[list[np.ndarray]]:
        """The velocity gradient d_j u_l (active j rows, all three components
        l as columns), which only the BD report reads whole."""
        return self._derive_gradient()

    @cached_property
    def strain_sq(self) -> np.ndarray:
        """|D(u)|^2 pointwise (``_gradient_part_sq``), from the gradient the
        record holds if a report has derived it, else from one freed on
        return: a CSV row holds this square, not the 3x3 tensor."""
        du = self.__dict__.get("velocity_gradient") or self._derive_gradient()
        return _gradient_part_sq(du, self.u.grid.dim, symmetric=True)


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
    strain_sq = f.strain_sq
    # the Hessian of log rho first, while none of the nine arrays below is live
    logr = ScalarField._adopt(grid, np.log(rvals))
    quantum_hessian = _integral(rvals * hessian_frobenius_sq(logr), grid)
    drho = [derivative(f.rho, j).values for j in range(grid.dim)]
    hess_enthalpy = enthalpy_second(rvals, phys) + cold_enthalpy_second(rvals, phys)
    pressure_gradient = _integral(hess_enthalpy * sum(d**2 for d in drho), grid)
    cb = [c.values for c in curl(f.magnetic).components]
    spectra, _, k2, box = f.velocity_spectra
    lap_u = [ScalarField._adopt(grid, _backward(-k2 * s, grid, box)) for s in spectra]
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
    # derived before the dissipation terms, whose strain square reads it
    du = f.velocity_gradient
    diss, shared = _dissipation(f, phys, reg)
    drho, curl_b, lap_u, logr, pressure_gradient, quantum_hessian, capillary_sq = shared
    rvals = f.rho_values
    uvals = f.u_values
    spin_sq = _gradient_part_sq(du, grid.dim, symmetric=False)
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
# quantum force identity


def bohm_identity_check(rho: ScalarField, kappa: float) -> float:
    """L2 distance, over kappa^2, of the pointwise quantum force
    2 kappa^2 rho grad(lap sqrt(rho) / sqrt(rho)) (``bohm_force_primary``)
    from the one the scheme runs: the full-window momentum force
    (``solver._momentum_force``) at ``kappa`` less that at kappa = 0, both
    with zero velocity and zero B."""
    if kappa == 0.0:
        return 0.0
    grid = rho.grid
    primary = bohm_force_primary(rho, kappa)
    rest = VelocityCoeffs(GalerkinBasis.lowest_modes(grid, 1), np.zeros(1))
    zero_b = VectorField.zero(grid)

    def force(phys: PhysParams) -> list[np.ndarray]:
        return _momentum_force(rho, rest, zero_b, phys, RegParams(), None)

    quantum = [a - b for a, b in zip(force(PhysParams(kappa=kappa)), force(PhysParams()))]
    scheme = VectorField(grid, [ScalarField._adopt(grid, None, s) for s in quantum])
    return l2_norm(primary - scheme) / kappa**2


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


# each vector test field is one scalar test in one component c:
# name -> (c, name in ``default_scalar_battery``)
_VECTOR_TESTS = {"e0_sin_x": (0, "sin_x"), "e1_cos_x": (1, "cos_x"), "e2_sin_x": (2, "sin_x"), "e0_cos_y": (0, "cos_y")}


def default_vector_battery(grid) -> dict[str, VectorField]:
    """The spatial factors phi(x) of the vector test functions, by name,
    each a scalar test in one component (``_VECTOR_TESTS``), with all three
    components formed: the reference for the records the pairings read
    (``_test_records``), which are built from the same table."""
    scalars, zero = default_scalar_battery(grid), ScalarField._adopt(grid, np.zeros(grid.shape))
    return {
        name: VectorField(grid, [scalars[phi] if l == c else zero for l in range(3)])
        for name, (c, phi) in _VECTOR_TESTS.items()
        if phi in scalars
    }


def quantum_flux(w: np.ndarray, dw) -> tuple[list[list[np.ndarray]], list[np.ndarray]]:
    """The two integrands of the quantum force 2 kappa^2 rho grad(lap w / w),
    w = sqrt(rho), paired with a test field phi, integrated by parts and
    divided by 2 kappa^2: ``2 d_j w d_l w``, by column l, which meets
    d_j phi_l, and ``w d_l w``, which meets d_l div phi.  Takes samples of w
    and ``dw[j]`` over the active axes."""
    return [[2.0 * dj * dl for dj in dw] for dl in dw], [w * dl for dl in dw]


def _samples(f: ScalarField) -> np.ndarray | None:
    """The samples of a test field's derivative ``f``, given by its spectrum,
    or None, which ``_pair`` skips, when that spectrum is zero everywhere: a
    zero test array is neither transformed nor paired."""
    return f.values if np.any(f.spectrum) else None


def _test_gradient(phi: ScalarField) -> list[np.ndarray | None]:
    """The samples of d_j phi over the active axes j (``_samples``)."""
    return [_samples(derivative(phi, j)) for j in range(phi.grid.dim)]


@dataclass(frozen=True)
class _VectorTest:
    """A vector test field phi e_c, one scalar phi in one component c, and
    the samples of the derivatives of phi that the momentum and induction
    pairings read; an array that is zero everywhere is None and is not
    paired.  The divergence d_c phi and its gradient are None when c is not
    an active axis, and the curl of phi e_c is e_(c+1) d_(c+2) phi -
    e_(c+2) d_(c+1) phi, indices mod 3, so it reads the gradient's samples."""

    c: int
    phi: ScalarField
    grad: list[np.ndarray | None]  # d_j phi, active j
    div: np.ndarray | None
    lap: np.ndarray | None
    grad_div: list[np.ndarray | None] | None  # d_j d_c phi, active j
    curl: list[np.ndarray | None]

    @classmethod
    def of(cls, c: int, phi: ScalarField, grad: list[np.ndarray | None]) -> "_VectorTest":
        """The record of phi e_c, given the samples ``grad`` of phi's
        gradient (``_test_gradient``), which the scalar test phi reads too."""
        along = grad + [None] * (3 - len(grad))  # d_j phi on all three axes
        curl = [None] * 3
        curl[(c + 1) % 3] = along[(c + 2) % 3]
        curl[(c + 2) % 3] = None if along[(c + 1) % 3] is None else -along[(c + 1) % 3]
        lap = _samples(laplacian(phi))
        if c >= phi.grid.dim:
            return cls(c, phi, grad, None, lap, None, curl)
        return cls(c, phi, grad, grad[c], lap, _test_gradient(derivative(phi, c)), curl)


def _test_records(grid) -> tuple[dict[str, tuple[ScalarField, list]], dict[str, _VectorTest]]:
    """Both batteries' records, built from the scalar battery once: each
    scalar test phi with the samples of its gradient, and each vector test
    field's record (``_VECTOR_TESTS``), which reads phi and that gradient,
    so each scalar test is transformed and differentiated once."""
    scalars = {name: (phi, _test_gradient(phi)) for name, phi in default_scalar_battery(grid).items()}
    vectors = {name: _VectorTest.of(c, *scalars[phi]) for name, (c, phi) in _VECTOR_TESTS.items() if phi in scalars}
    return scalars, vectors


def _interval_integrands(e0: DerivedFields, e1: DerivedFields, grid, phys: PhysParams) -> tuple:
    """What one interval pairs with the test fields, formed once at the
    midpoint of its ends, read off their records: rho and its flux rho u,
    which meet phi and grad phi; the momentum and, for each column c, its flux
    grouped by the derivative of the test field phi e_c each part meets
    (grad phi, div phi, lap phi, grad div phi, phi); and B and its flux,
    which meet phi and curl phi.  The midpoint fields are freed on return;
    only the integrands are held."""
    from .fields import dealiased_product

    (r0, w0, u0, b0), (r1, w1, u1, b1) = (
        (e.rho.values, e.sqrt_rho.values, e.u_values, e.magnetic.component_values()) for e in (e0, e1)
    )
    dim = grid.dim
    rho_mid = ScalarField._adopt(grid, 0.5 * (r0 + r1))
    rv = rho_mid.values
    uv = [0.5 * (a + b) for a, b in zip(u0, u1)]
    bv = [0.5 * (a + b) for a, b in zip(b0, b1)]
    wv = 0.5 * (w0 + w1)
    dw = [derivative(ScalarField._adopt(grid, wv), j).values for j in range(dim)]
    mv = [rv * uv[l] for l in range(3)]
    mass_flux = [
        dealiased_product(rho_mid, ScalarField._adopt(grid, uv[l])).values for l in range(dim)
    ]
    q_grad, q_grad_div = quantum_flux(wv, dw)
    kq = 2.0 * phys.kappa**2

    # with grad phi, by column l: transport rho u_j u_l and the factored
    # viscosity's 2 d_j w w u_l, both carried by u_l; for l < dim also the
    # factored viscosity's 2 w u_j d_l w and the quantum term
    # 2 kappa^2 2 d_j w d_l w
    carried = [mv[j] + 2.0 * dw[j] * wv for j in range(dim)]
    with_grad = [[carried[j] * uv[l] for j in range(dim)] for l in range(3)]
    for l in range(dim):
        for j in range(dim):
            with_grad[l][j] += 2.0 * wv * uv[j] * dw[l] + kq * q_grad[l][j]
    # with div phi: the pressure work P + Pc
    work = pressure(rv, phys) + cold_pressure(rv, phys)
    # with grad div phi: the factored viscosity's rho u_l and the quantum
    # term 2 kappa^2 w d_l w
    with_grad_div = [mv[l] + kq * q_grad_div[l] for l in range(dim)]
    # with phi: the Lorentz force (curl B) x B
    cb = curl(VectorField.from_arrays(grid, bv)).component_values()
    lorentz = _cross(cb, bv)
    # column c of each group, with lap phi the factored viscosity's rho u_c
    momentum_flux = [(with_grad[c], work, mv[c], with_grad_div, lorentz[c]) for c in range(3)]
    # with curl phi: the EMF u x B less the resistive nu_b curl B
    nu = magnetic_diffusivity(rv, phys)
    induction_flux = [e - nu * c for e, c in zip(_cross(uv, bv), cb)]
    return rho_mid, mass_flux, mv, momentum_flux, bv, induction_flux


def weak_form_residual(traj: Trajectory) -> dict[str, dict[str, float]]:
    """Distributional residuals of continuity, momentum and induction over
    the sampled trajectory, one number per test function g(t) phi(x): phi
    from the fixed batteries, g the one ``envelope``.

    Quadrature is midpoint-in-time with the summation-by-parts pairing, so a
    conservative scheme telescopes the continuity item to solver tolerance
    when the density diffusion is off.  One pass over the intervals reads
    each state through one record (``DerivedFields.of``), carried into the
    next interval, forms each interval's integrands once
    (``_interval_integrands``) and pairs each group of them with every test
    function once.  Nothing is cached on the trajectory's states.
    """
    h = _require_uniform(traj)
    grid = traj.states[0].rho.grid
    t_final = traj.times[-1]
    scalars, vectors = _test_records(grid)

    # each end's record is derived once and carried into the next interval
    ends = (DerivedFields.of(s, traj.reg) for s in traj.states)
    e0 = next(ends)
    r, u, b = e0.rho.values, e0.u_values, e0.magnetic.component_values()
    g_first = envelope(traj.times[0], t_final)
    m_first = [r * u[l] for l in range(3)]
    continuity = [g_first * inner_product(e0.rho, phi) for phi, _ in scalars.values()]
    momentum = [g_first * _pair(m_first[d.c], d.phi.values, grid) for d in vectors.values()]
    magnetic = [g_first * _pair(b[d.c], d.phi.values, grid) for d in vectors.values()]
    # only the carried end holds the first state's samples
    del r, u, b, m_first

    for e1, (t0, t1) in zip(ends, pairwise(traj.times)):
        rho_mid, mass_flux, m, m_flux, b, b_flux = _interval_integrands(e0, e1, grid, traj.phys)
        e0 = e1
        g0, g1 = envelope(t0, t_final), envelope(t1, t_final)
        gmid = 0.5 * (g0 + g1)
        for i, (phi, grad) in enumerate(scalars.values()):
            continuity[i] += (g1 - g0) * inner_product(rho_mid, phi)
            continuity[i] += h * gmid * _pair(mass_flux, grad, grid)
        for i, d in enumerate(vectors.values()):
            # column c of each momentum group meets the derivative of phi e_c
            # that the group meets, group by group, in the groups' order
            derivs = (d.grad, d.div, d.lap, d.grad_div, d.phi.values)
            momentum[i] += (g1 - g0) * _pair(m[d.c], d.phi.values, grid)
            momentum[i] += h * gmid * _pair(m_flux[d.c], derivs, grid)
            magnetic[i] += (g1 - g0) * _pair(b[d.c], d.phi.values, grid)
            magnetic[i] += h * gmid * _pair(b_flux, d.curl, grid)
        # freed before the next interval's are formed: one interval's
        # integrands are held at a time
        del rho_mid, mass_flux, m, m_flux, b, b_flux

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
    strain_sq = f.strain_sq
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
