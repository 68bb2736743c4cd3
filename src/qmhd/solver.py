"""Constructive core: semi-implicit density and magnetic sweeps, the
projected momentum residual, and the per-step fixed-point iteration.

Time discretization is an exponential-midpoint scheme wrapped in one Picard
loop per step: stiff constant-coefficient pieces (density diffusion, mean
magnetic diffusion) are integrated exactly by spectral factors, the
hyperviscous term is taken at the midpoint inside the velocity solve, and
every remaining nonlinearity is evaluated at the iterated midpoint state.
Each iteration sweeps the density, the magnetic field and the velocity once,
and the loop stops when their largest relative update is below
``picard_tol``; the density corridor is checked on the converged step.  A
run carries the three levels before from one step to the next as a starting
guess only: the loop starts from the polynomial through them and ``x_n``,
cubic in the velocity and the density and quadratic in the magnetic field,
whose stiff mean diffusion a higher order would amplify.  Once the
density and the velocity have converged, the iterations that follow keep
the density sweep, the momentum force less its Lorentz part and the velocity
system, and sweep the magnetic field alone, with the Lorentz force it drives
and the velocity solve, since B, whose diffusivity ``nu_b(rho)`` is split
into an exact and an explicit part, is often the last block to converge.  The
velocity sweep is one factored system per full sweep, the density-weighted
Gram matrix of the new density plus the implicit hyperviscous half
``1/2 h eta |k|^4`` on its diagonal (zero when eta = 0).  The
converged map is second-order accurate and time-reversible, which is what
the identity diagnostics measure against.

Each right-hand side is summed on the grid before it is transformed: the
momentum force as one body force and one stress tensor, transformed per
component and per entry, the induction source in one dealiased transform per
component.  The projection reads the force only on the basis's box, so those
forward transforms, like the velocity gradient's inverses, are box transforms
(:mod:`qmhd.fields`).  Each iteration forms the magnetic midpoint field and
the samples of its curl once: the residual reads them, and so does the next
iteration's magnetic sweep, whose midpoint is the same field.
``_reference_diffusivity`` is the one split of ``nu_b`` into the constant
the magnetic sweep integrates exactly and its explicit remainder, and
``cfl_report`` reads the same split.  ``_capillary_gradient`` is the one
home of the capillarity force, which the residual assembles and the
vanishing-regularization weak integral (:mod:`qmhd.experiments`) pairs with
its test fields, and ``_div_b_bound`` is the one solenoidal rule, which
``run_simulation`` applies after each step and ``qmhd check`` to the
initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Callable, Iterator, Sequence

import numpy as np

from .basis import GalerkinBasis, MassOperator, VelocityCoeffs
from .constitutive import (
    PhysParams,
    cold_pressure,
    cold_pressure_derivative,
    magnetic_diffusivity,
    pressure,
    require_finite,
)
from .errors import (
    DensityFloorViolation,
    MaximumPrincipleViolation,
    PicardDivergence,
    QMHDError,
)
from .fields import (
    ScalarField,
    VectorField,
    _backward,
    _cross,
    _curl_spectra,
    _dealiased_forward,
    _forward,
    _gradient_samples,
    _laplacian_power,
    divergence,
    integrate,
    l2_norm,
    project_divergence_free,
)
from .grid import TorusGrid


@dataclass(frozen=True)
class RegParams:
    """Regularization and discretization constants."""

    epsilon: float = 0.0
    eta: float = 0.0
    delta: float = 0.0
    s: int = 1
    dt: float = 1e-3
    picard_tol: float = 1e-10
    picard_max_iters: int = 50
    density_floor: float = 1e-8

    def __post_init__(self):
        require_finite(self)
        if self.epsilon < 0 or self.eta < 0 or self.delta < 0:
            raise ValueError("epsilon, eta, delta must be nonnegative")
        if self.s < 1 or int(self.s) != self.s:
            raise ValueError("capillarity order s must be a positive integer")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.picard_tol <= 0 or self.picard_max_iters < 1:
            raise ValueError("invalid fixed-point controls")
        if self.density_floor <= 0:
            raise ValueError("density floor must be positive")


@dataclass(frozen=True)
class State:
    """One time level: positive density, velocity in the Galerkin span,
    divergence-free magnetic field."""

    time: float
    rho: ScalarField
    velocity: VelocityCoeffs
    magnetic: VectorField

    @property
    def u(self) -> VectorField:
        return self.velocity.field

    @property
    def basis(self) -> GalerkinBasis:
        return self.velocity.basis

    @cached_property
    def mass(self) -> float:
        return integrate(self.rho)


@dataclass
class StepInfo:
    """Per-step bookkeeping for logging and the contraction diagnostics.

    ``update_norms`` holds, per iteration, the largest relative update of the
    velocity coefficients, the density and the magnetic field, and
    ``contraction_ratios`` the ratios of consecutive ones.  ``full_sweeps``
    counts the iterations that swept the density, formed the momentum force
    and built the velocity system; the others (``picard_iters -
    full_sweeps``) kept them and swept the magnetic field alone, and their
    kept density counts as a zero update in ``update_norms``."""

    picard_iters: int
    full_sweeps: int
    update_norms: list[float]
    contraction_ratios: list[float]
    corridor_margin: float
    div_b_norm: float


def initial_state(
    rho: ScalarField,
    velocity: VectorField,
    magnetic: VectorField,
    basis: GalerkinBasis,
    reg: RegParams,
    time: float = 0.0,
) -> State:
    """Build a valid initial state: reject near-vacuum data, project the
    velocity onto the Galerkin span and the magnetic field onto the
    divergence-free subspace."""
    if rho.values.min() < 10.0 * reg.density_floor:
        raise DensityFloorViolation(
            f"initial density minimum {rho.values.min():.3e} is below 10x the floor"
        )
    coeffs = basis.project(velocity)
    b0 = project_divergence_free(magnetic)
    return State(time, rho, VelocityCoeffs(basis, coeffs), b0)


# --------------------------------------------------------------------------
# spectral integrating factors


def _heat_factors(grid: TorusGrid, coef: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-coef dt |k|^2) and exp(-coef dt |k|^2 / 2) on the half spectrum."""
    return np.exp(-coef * dt * grid.k_squared), np.exp(-0.5 * coef * dt * grid.k_squared)


@lru_cache(maxsize=8)
def _density_factors(grid: TorusGrid, epsilon: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    # epsilon and dt are fixed for a run, so these are computed once; the
    # magnetic factors follow the density-dependent mean diffusivity and are
    # rebuilt on every call instead of filling a cache with one-off entries
    factors = _heat_factors(grid, epsilon, dt)
    for f in factors:
        f.setflags(write=False)  # shared by every caller
    return factors


def solve_density_step(
    rho_old: ScalarField,
    u: VectorField,
    epsilon: float,
    dt: float,
    *,
    density_floor: float = 1e-8,
    guess: ScalarField | None = None,
) -> ScalarField:
    """One sweep of the midpoint map of the regularized continuity equation
    with the given (time-centered) velocity: diffusion integrated exactly,
    the advective flux dealiased and taken at the midpoint of ``rho_old`` and
    ``guess`` (default ``rho_old``).  The step is the map's fixed point.

    The result is checked against the density floor.
    """
    grid = rho_old.grid
    full, half = _density_factors(grid, float(epsilon), float(dt))
    start = rho_old if guess is None else guess
    mid = 0.5 * (rho_old.values + start.values)
    uvals = u.component_values()
    div_flux = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for axis in range(grid.dim):
        div_flux += 1j * grid.kvec[axis] * _dealiased_forward(mid * uvals[axis], grid)
    spec_new = full * rho_old.spectrum - dt * half * div_flux
    vals_new = _backward(spec_new, grid)

    new_min = float(vals_new.min())
    if new_min < density_floor:
        raise DensityFloorViolation(
            f"density minimum {new_min:.3e} fell below the floor {density_floor:.3e}"
        )
    return ScalarField._adopt(grid, vals_new, spec_new)


# relative slack of the maximum-principle check on the converged density
_CORRIDOR_SLACK = 1e-8


def corridor_margin(rho_old: ScalarField, rho_new: ScalarField, u: VectorField, dt: float) -> float:
    """Relative excess of ``rho_new`` over the maximum-principle corridor
    min/max rho_old * exp(-+dt * |div u|_inf)."""
    sup = float(np.max(np.abs(divergence(u).values)))
    lower = rho_old.values.min() * np.exp(-abs(dt) * sup)
    upper = rho_old.values.max() * np.exp(abs(dt) * sup)
    below = (lower - rho_new.values.min()) / lower
    above = (rho_new.values.max() - upper) / upper
    return float(max(below, above, 0.0))


def _curl_samples(B: VectorField) -> list[np.ndarray]:
    """Grid samples of curl B, one inverse transform per component."""
    grid = B.grid
    return [_backward(c, grid) for c in _curl_spectra([c.spectrum for c in B.components], grid)]


def _magnetic_midpoint(b_old: VectorField, b_new: VectorField) -> tuple[VectorField, list[np.ndarray]]:
    """The midpoint field of two levels and the samples of its curl."""
    mid = VectorField(b_old.grid, [_midpoint(o, n) for o, n in zip(b_old.components, b_new.components)])
    return mid, _curl_samples(mid)


def _reference_diffusivity(rho_values: np.ndarray, phys: PhysParams) -> tuple[float, np.ndarray]:
    """The reference nu_bar = mean nu_b(rho) and the remainder nu_b - nu_bar."""
    nu_vals = magnetic_diffusivity(rho_values, phys)
    nu_bar = float(nu_vals.mean())
    return nu_bar, nu_vals - nu_bar


def solve_magnetic_step(
    B_old: VectorField,
    u: VectorField,
    rho: ScalarField,
    dt: float,
    phys: PhysParams,
    *,
    density_floor: float = 1e-8,
    mid: tuple[VectorField, list[np.ndarray]] | None = None,
) -> VectorField:
    """One sweep of the midpoint map of the induction equation with given
    (time-centered) velocity and density: mean diffusivity integrated
    exactly, transport and the variable-diffusivity remainder at the
    midpoint field, then a divergence-free projection.  The step is the
    map's fixed point.  ``mid`` is that midpoint with its curl samples, as
    ``_magnetic_midpoint`` makes them; it defaults to ``B_old``'s own."""
    grid = B_old.grid
    if rho.values.min() < density_floor:
        raise DensityFloorViolation("magnetic solve: density below the floor")
    nu_bar, nu_fluct = _reference_diffusivity(rho.values, phys)
    full, half = _heat_factors(grid, nu_bar, dt)

    if mid is None:
        mid = _magnetic_midpoint(B_old, B_old)
    b_mid, curl_mid = mid
    spec_old = [c.spectrum for c in B_old.components]

    # electromotive field u x B minus the variable-coefficient part of the
    # resistive term, nu' curl B, at the midpoint; the 2/3 mask is linear, so
    # one dealiased transform per component takes both
    emf = _cross(u.component_values(), b_mid.component_values())
    rhs = [_dealiased_forward(e - nu_fluct * c, grid) for e, c in zip(emf, curl_mid)]
    curl_rhs = _curl_spectra(rhs, grid)
    spec_new = [full * so + dt * half * cr for so, cr in zip(spec_old, curl_rhs)]
    return project_divergence_free(VectorField(grid, [ScalarField._adopt(grid, None, s) for s in spec_new]))


def _capillary_gradient(rho: ScalarField, s: int) -> Iterator[np.ndarray]:
    """Samples of g_a = -d_a P lap^(2s+1) rho (P the 2/3 mask), one active
    axis a at a time.  The capillarity force is -delta rho g: for a mode in
    component a, - delta < lap^s d_a P(rho e_i), lap^(s+1) rho > equals
    - delta < rho g_a, e_i >."""
    grid = rho.grid
    cap_spec = np.where(grid.dealias_mask, _laplacian_power(grid, 2 * s + 1) * rho.spectrum, 0.0)
    for a in range(grid.dim):
        yield _backward(-1j * grid.kvec[a] * cap_spec, grid)


def momentum_residual(
    rho: ScalarField,
    velocity: VelocityCoeffs,
    B: VectorField,
    phys: PhysParams,
    reg: RegParams,
    *,
    curl_b: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Weak momentum right-hand side tested against every basis mode.

    The force is ``G - div T + kappa^2 grad lap rho``.  The body force ``G``
    collects the Lorentz force, the diffusion-correction term and high-order
    capillarity in its transposed form; the stress ``T`` collects
    convection, viscosity, pressure and the conservative quantum stress.
    Each is summed on the grid and transformed once per component or entry,
    by a box transform, since the projection reads only the basis's box:
    every basis mode lies inside the 2/3 mask, so the projection reads
    nothing a per-term dealiasing would change.  ``kappa^2 grad lap rho`` is
    exact in k, and hyperviscosity is added exactly on the eigenbasis.
    ``curl_b`` gives the samples of curl B when the caller has them.
    """
    grid = rho.grid
    basis = velocity.basis
    if rho.values.min() < reg.density_floor:
        raise DensityFloorViolation("momentum residual: density below the floor")

    u = velocity.field
    uvals = u.component_values()
    rvals = rho.values
    k = grid.kvec
    dim = grid.dim
    box = basis.box
    k_box = [k[j][basis.box_index] for j in range(dim)]

    # velocity gradient d_j u_l for active j; the reconstructed velocity
    # carries its spectra
    du = _gradient_samples(u, grid, box)

    # body force G_l, accumulated on the grid: the Lorentz force (curl B) x B,
    body = _cross(_curl_samples(B) if curl_b is None else curl_b, B.component_values())
    # minus epsilon (grad rho . grad) u_l,
    if reg.epsilon:
        for j in range(dim):
            dr = reg.epsilon * _backward(1j * k[j] * rho.spectrum, grid)
            for l in range(3):
                body[l] -= dr * du[j][l]
    # minus delta rho g_a, capillarity in transposed weak form; each axis's
    # samples are freed before the next axis's are formed
    if reg.delta:
        cap = _capillary_gradient(rho, reg.s)
        for a in range(dim):
            body[a] -= reg.delta * rvals * next(cap)
    force = [_forward(g, grid, box) for g in body]
    del body

    # stress T_jl = P(rho u_j) u_l - rho (d_j u_l + d_l u_j) + delta_jl (P + Pc)
    # + 4 kappa^2 d_j sqrt(rho) d_l sqrt(rho), one entry at a time; along an
    # inactive axis l nothing varies, so only the first two parts remain
    mom = [_backward(_dealiased_forward(rvals * uvals[j], grid), grid) for j in range(dim)]
    p_tot = pressure(rvals, phys) + cold_pressure(rvals, phys)
    if phys.kappa:
        w_spec = _forward(np.sqrt(rvals), grid)
        dw = [2.0 * phys.kappa * _backward(1j * k[j] * w_spec, grid) for j in range(dim)]
        lap_r = -grid.k_squared[basis.box_index] * rho.spectrum[basis.box_index]
    for l in range(3):
        for j in range(dim):
            t = mom[j] * uvals[l] - rvals * (du[j][l] + du[l][j] if l < dim else du[j][l])
            if j == l:
                t += p_tot
            if phys.kappa and l < dim:
                t += dw[j] * dw[l]
            force[l] -= 1j * k_box[j] * _forward(t, grid, box)
        if phys.kappa and l < dim:
            force[l] += phys.kappa**2 * 1j * k_box[l] * lap_r

    entries = basis.project_force_spectra(force)
    if reg.eta:
        # hyperviscosity is exact on the eigenbasis: -eta |k|^4 lambda
        entries -= reg.eta * basis.eigen_k2**2 * velocity.values
    return entries


def _relative_update(new: Sequence[np.ndarray], old: Sequence[np.ndarray]) -> float:
    """l2 norm of ``new - old`` over all arrays, relative to that of ``new``."""
    change = np.sqrt(sum(np.linalg.norm(a - b) ** 2 for a, b in zip(new, old)))
    scale = np.sqrt(sum(np.linalg.norm(a) ** 2 for a in new))
    return float(change / max(scale, 1e-8))


def _midpoint(a: ScalarField, b: ScalarField) -> ScalarField:
    """Average of two levels, values and spectra both, so no transform is redone."""
    return ScalarField._adopt(a.grid, 0.5 * (a.values + b.values), 0.5 * (a.spectrum + b.spectrum))


# orders of the polynomial a step starts from: lambda and rho through up to
# three levels before x_n, B through up to two.  B's mean diffusion is
# integrated exactly and is stiff (``magnetic_mean_exact`` reads 1.4-2.2 on
# the benchmark runs), and an order-p extrapolation amplifies a mode that
# decays by r per step by about r^-p: a cubic start of B took more
# iterations at low density than a quadratic one
_START_ORDER = 3
_MAGNETIC_START_ORDER = 2


def _extrapolate(levels: Sequence[np.ndarray]) -> np.ndarray:
    """The value one step after ``levels[0]`` on the polynomial through
    ``levels``, most recent first and one step apart: for order ``p =
    len(levels) - 1`` the weights are ``(-1)^j C(p+1, j+1)``, that is ``1``,
    then ``2, -1``, ``3, -3, 1`` and ``4, -6, 4, -1``."""
    p = len(levels) - 1
    out = comb(p + 1, 1) * levels[0]
    for j in range(1, p + 1):
        out += (-1) ** j * comb(p + 1, j + 1) * levels[j]
    return out


def _extrapolated(levels: Sequence[ScalarField]) -> ScalarField:
    """:func:`_extrapolate` of fields, values and spectra both."""
    return ScalarField._adopt(
        levels[0].grid, _extrapolate([f.values for f in levels]), _extrapolate([f.spectrum for f in levels])
    )


def _lorentz_entries(basis: GalerkinBasis, b: VectorField, curl_b: list[np.ndarray]) -> np.ndarray:
    """The Lorentz force ``(curl B) x B`` tested against every basis mode:
    the part of :func:`momentum_residual` that a magnetic-only iteration
    redoes, one box forward per component."""
    return basis.project_force_spectra([_forward(g, b.grid, basis.box) for g in _cross(curl_b, b.component_values())])


def advance_step(
    state: State,
    phys: PhysParams,
    reg: RegParams,
    *,
    dt: float | None = None,
    history: Sequence[State] = (),
) -> tuple[State, StepInfo]:
    """One time step of the coupled system via the fixed-point loop: each
    iteration sweeps the density, then the magnetic field, then solves the
    shifted velocity system ``MassOperator(basis, rho_new, shift)``, until
    the largest relative update of the three is below ``picard_tol``.  At
    the fixed point the shift cancels, so the step satisfies
    ``M[rho_new] lambda_new - M[rho_old] lambda_old = h N(mid)``.

    ``history``, the levels before ``state``, most recent first and each one
    step of ``dt`` earlier, serves only as a starting guess: the loop starts
    from the polynomial through ``state`` and that history, of order up to
    three for lambda and rho and up to two for B (``_START_ORDER``,
    ``_MAGNETIC_START_ORDER``), lower when fewer levels are given, and
    without any from ``x_n``.
    Once an iteration's density and velocity updates are both at most
    ``picard_tol``, the loop keeps that iteration's density sweep,
    midpoints, momentum force less its Lorentz part and velocity system, and
    the following iterations sweep the magnetic field, redo the Lorentz
    force and solve for the velocity alone, until a velocity update exceeds
    ``picard_tol`` again.  Raises :class:`PicardDivergence` when the
    iteration stops contracting, two consecutive update ratios being at
    least 1 (halve dt and retry), and
    :class:`MaximumPrincipleViolation` when the converged density leaves the
    corridor."""
    basis = state.basis
    h = reg.dt if dt is None else dt
    lam_old = state.velocity.values
    rho_old = state.rho
    b_old = state.magnetic

    rhs_base = basis.apply_blocks(basis.gram_blocks(rho_old), lam_old)
    # the implicit half of the hyperviscous midpoint -eta |k|^4 lambda_mid:
    # unconditionally stable for arbitrarily stiff eta |k|^4
    shift = (0.5 * h * reg.eta) * basis.eigen_k2**2

    levels = [state, *history[:_START_ORDER]]
    lam_k = _extrapolate([s.velocity.values for s in levels])
    rho_new = _extrapolated([s.rho for s in levels])
    b_levels = [s.magnetic.components for s in levels[: _MAGNETIC_START_ORDER + 1]]
    b_new = VectorField(b_old.grid, [_extrapolated(c) for c in zip(*b_levels)])
    b_mid = _magnetic_midpoint(b_old, b_new)
    update_norms: list[float] = []
    ratios: list[float] = []
    full_sweeps = 0
    magnetic_only = False
    # the divergence rule reads only the ratios after the last return from
    # magnetic-only iterations to full sweeps: a ratio across it compares two maps
    first_ratio = 0

    for _ in range(reg.picard_max_iters):
        # each update is measured as it is made, so no earlier iterate is held
        if magnetic_only:
            rho_upd = 0.0  # the kept density sweep
        else:
            full_sweeps += 1
            vel_mid = VelocityCoeffs(basis, 0.5 * (lam_old + lam_k))
            u_mid = vel_mid.field
            rho_next = solve_density_step(
                rho_old, u_mid, reg.epsilon, h, density_floor=reg.density_floor, guess=rho_new
            )
            rho_upd = _relative_update([rho_next.values], [rho_new.values])
            rho_new = rho_next
            rho_mid = _midpoint(rho_old, rho_new)
        b_next = solve_magnetic_step(
            b_old, u_mid, rho_mid, h, phys, density_floor=reg.density_floor, mid=b_mid
        )
        b_upd = _relative_update(b_next.component_values(), b_new.component_values())
        b_new = b_next
        # the residual and the next iteration's sweep share this midpoint
        b_mid = _magnetic_midpoint(b_old, b_new)
        if magnetic_only:
            n_mid = n_rest + _lorentz_entries(basis, *b_mid)
        else:
            n_mid = momentum_residual(rho_mid, vel_mid, b_mid[0], phys, reg, curl_b=b_mid[1])
            mass = MassOperator(basis, rho_new, shift)

        lam_next = mass.solve(rhs_base + h * n_mid + shift * lam_k)
        lam_upd = _relative_update([lam_next], [lam_k])
        lam_k = lam_next
        upd = max(rho_upd, b_upd, lam_upd)
        if update_norms and update_norms[-1] > 100.0 * np.finfo(float).eps:
            ratios.append(upd / update_norms[-1])
        update_norms.append(upd)
        if upd <= reg.picard_tol:
            break
        if len(ratios) - first_ratio >= 2 and ratios[-1] >= 1.0 and ratios[-2] >= 1.0:
            if upd > 1e4 * np.finfo(float).eps:
                raise PicardDivergence(
                    f"fixed-point updates stopped contracting (ratio {ratios[-1]:.3f}, last update "
                    f"{upd:.3e}, picard_tol {reg.picard_tol:g}); halve dt"
                )
        if lam_upd > reg.picard_tol:
            if magnetic_only:
                first_ratio = len(ratios) + 1  # past the ratio of the next, full, sweep
            magnetic_only = False
        elif not magnetic_only and rho_upd <= reg.picard_tol:
            # only B is still moving: keep the density sweep, the midpoints,
            # the velocity system and the force less its Lorentz part
            magnetic_only = True
            n_rest = n_mid - _lorentz_entries(basis, *b_mid)
    else:
        raise PicardDivergence(
            f"no fixed-point convergence in {reg.picard_max_iters} iterations (last update "
            f"{update_norms[-1]:.3e}, picard_tol {reg.picard_tol:g}); halve dt"
        )

    margin = corridor_margin(rho_old, rho_new, VelocityCoeffs(basis, 0.5 * (lam_old + lam_k)).field, h)
    if margin > _CORRIDOR_SLACK:
        raise MaximumPrincipleViolation(
            f"density left the maximum-principle corridor by {margin:.3e} relative; reduce dt"
        )
    div_b = l2_norm(divergence(b_new))
    new_state = State(state.time + h, rho_new, VelocityCoeffs(basis, lam_k), b_new)
    info = StepInfo(
        picard_iters=len(update_norms),
        full_sweeps=full_sweeps,
        update_norms=update_norms,
        contraction_ratios=ratios,
        corridor_margin=margin,
        div_b_norm=div_b,
    )
    return new_state, info


@dataclass
class Trajectory:
    """Sampled states of one run plus per-step bookkeeping."""

    states: list[State]
    step_infos: list[StepInfo]
    dt: float
    sample_every: int
    phys: PhysParams
    reg: RegParams

    @property
    def times(self) -> list[float]:
        """The sample times, each state's own."""
        return [s.time for s in self.states]

    @property
    def sampled_dt(self) -> float:
        return self.dt * self.sample_every

    @property
    def final_state(self) -> State:
        return self.states[-1]

    def mean_counts(self) -> tuple[float, float]:
        """Mean Picard iterations and full sweeps per step."""
        steps = max(len(self.step_infos), 1)
        return (
            sum(i.picard_iters for i in self.step_infos) / steps,
            sum(i.full_sweeps for i in self.step_infos) / steps,
        )

    def max_contraction_ratio(self) -> float:
        worst = 0.0
        for info in self.step_infos:
            if info.contraction_ratios:
                worst = max(worst, max(info.contraction_ratios))
        return worst


def step_count(t0: float, t_end: float, dt: float, every: int = 1) -> int:
    """The number of steps of ``dt`` from ``t0`` to ``t_end``.  Raises
    ValueError unless it is whole and a multiple of ``every``, so that
    samples every ``every`` steps are uniform and the last is at ``t_end``."""
    span = t_end - t0
    if span < 0:
        raise ValueError(f"t_end={t_end!r} precedes the initial time {t0!r}")
    nsteps = int(round(span / dt))
    if abs(nsteps * dt - span) > 1e-8 * max(abs(span), dt):
        raise ValueError(f"t_end - t0 = {span!r} is not a whole number of steps of dt={dt!r}")
    if every < 1 or nsteps % every:
        raise ValueError(f"the {nsteps} steps to t_end are not a multiple of the sampling cadence {every}")
    return nsteps


def _div_b_bound(b: VectorField) -> float:
    """The largest L2 norm of div B a run accepts: 1e-12 max(||B||, 1)."""
    return 1e-12 * max(l2_norm(b), 1.0)


def run_simulation(
    initial: State,
    phys: PhysParams,
    reg: RegParams,
    t_end: float,
    *,
    sample_every: int = 1,
    on_step: Callable[[int, State, StepInfo | None], None] | None = None,
) -> Trajectory:
    """March from ``initial.time`` to ``t_end`` in fixed steps of ``reg.dt``,
    sampling every ``sample_every`` steps, which must divide the step count
    (``step_count``): the initial state is the first sample and the state at
    ``t_end`` the last.  ``on_step(step, state, info)`` sees the initial
    state (step 0, no info) and each state that passed the step's checks.
    Deterministic for a fixed configuration."""
    nsteps = step_count(initial.time, t_end, reg.dt, sample_every)
    mass0 = initial.mass
    state = initial
    states = [state]
    infos: list[StepInfo] = []
    if on_step is not None:
        on_step(0, state, None)

    # the levels before ``state`` that a start reads, at most three, so
    # memory stays bounded in run length
    history: list[State] = []
    for step in range(1, nsteps + 1):
        new, info = advance_step(state, phys, reg, history=history)
        history = [state, *history][:_START_ORDER]
        state = new
        infos.append(info)

        drift = abs(state.mass - mass0) / max(abs(mass0), 1e-300)
        if drift > 1e-10:
            raise QMHDError(f"mass conservation broke: relative drift {drift:.3e}")
        if info.div_b_norm > _div_b_bound(state.magnetic):
            raise QMHDError(f"magnetic field stopped being solenoidal: {info.div_b_norm:.3e}")

        if step % sample_every == 0:
            states.append(state)
        if on_step is not None:
            on_step(step, state, info)

    return Trajectory(states, infos, reg.dt, sample_every, phys, reg)


def cfl_report(state: State, phys: PhysParams, reg: RegParams) -> dict[str, float]:
    """Advisory stability numbers for the configured step (no adaptivity)."""
    grid = state.rho.grid
    dx = min(grid.spacing)
    umax = max(float(np.max(np.abs(c))) for c in state.u.component_values())
    kmax2 = grid.k_squared_max
    kb = float(np.sqrt(np.max(state.basis.eigen_k2))) if state.basis.n else 0.0
    nu_bar, nu_fluct = _reference_diffusivity(state.rho.values, phys)
    rho_bar = float(state.rho.values.mean())
    sound = float(
        np.sqrt(phys.gamma * rho_bar ** (phys.gamma - 1.0) + cold_pressure_derivative(rho_bar, phys))
    )
    return {
        "advective": umax * reg.dt / dx,
        "density_diffusion_exact": reg.epsilon * kmax2 * reg.dt,
        "magnetic_mean_exact": nu_bar * kmax2 * reg.dt,
        "magnetic_fluctuation": float(np.max(np.abs(nu_fluct))) * kmax2 * reg.dt,
        "hyperviscous_midpoint": reg.eta * kb**4 * reg.dt,
        "acoustic": sound * kb * reg.dt,
        "capillary_wave": float(np.sqrt(reg.delta * rho_bar)) * kb ** (2 * reg.s + 2) * reg.dt,
        "quantum_wave": phys.kappa * kb**2 * reg.dt,
    }
