"""Constructive core: semi-implicit density and magnetic sweeps, the
projected momentum residual, and the per-step fixed-point iteration.

Time discretization is an exponential-midpoint scheme wrapped in one Picard
loop per step: stiff constant-coefficient pieces (density diffusion, mean
magnetic diffusion) are integrated exactly by spectral factors, the
hyperviscous term is taken at the midpoint inside the velocity solve, and
every remaining nonlinearity is evaluated at the iterated midpoint state.
Each iteration sweeps the density, the magnetic field and the velocity once
and appends their relative updates ``(lambda, rho, B)`` to the step's one
record, ``StepInfo.updates``: the loop stops when the largest is at most
``picard_tol``, and the switch below and both divergence rules read the same
record.  The density corridor is checked on the converged step.  A
run carries the five levels before from one step to the next as a starting
guess only.  The velocity and the density start from the polynomial through
``x_n`` and the levels before, the cubic raised one order at a time up to the
quintic while the velocity's next backward difference, the leading term the
lower order leaves out, exceeds ``picard_tol`` relative to the velocity and
still falls with the order (``_start_order``): on ``run_2d_n120`` the cubic
misses ``picard_tol`` in every steady step, and the quintic does not.  The
magnetic field starts from ``E b_n`` plus the quadratic through its
increments ``b_(n-j) - E b_(n-j-1)`` over the first three levels, with ``E``
the factor of its exact mean diffusion.  A polynomial in B itself cannot
follow that stiff decay; in its frame only the smooth forcing is
extrapolated.  Once the density and the
velocity have converged, the iterations that follow keep the density sweep,
the split of ``nu_b(rho_mid)`` with its heat factors, the momentum force less
its Lorentz part and the velocity system, and sweep the magnetic field
alone, with the Lorentz force it drives and the velocity solve, since B,
whose diffusivity ``nu_b(rho)`` is split into an exact and an explicit part,
is often the last block to converge.  The iterations are magnetic-only
exactly while that kept force, ``n_rest``, is held, and each records a zero
density update.  The corridor check reads sup |div u|
off the converged coefficients (``GalerkinBasis.divergence_samples``), and
``StepInfo.div_b_norm`` comes from B's spectra by Parseval.  The
velocity sweep is one factored system per full sweep, the density-weighted
Gram matrix of the new density plus, on its diagonal, the implicit half of
the hyperviscous term and of the viscous stress at the mean density rho_bar,
``1/2 h (eta |k|^4 + rho_bar (|k|^2 + k_c^2))`` with ``k_c`` the
wavevector's entry along the mode's own component; the shift cancels at the
fixed point and only speeds the velocity's convergence.  The converged map
is second-order accurate and time-reversible, which is what the identity
diagnostics measure against.

Each right-hand side is summed on the grid before it is transformed: the
momentum force as one body force and one stress tensor, transformed per
component and per entry, the induction source in one dealiased transform per
component.  ``_momentum_force`` is the one home of the momentum force, its
quantum stress included, at a window: the residual reads it at the basis's
box, so those forward transforms, like the velocity gradient's inverses, are
box transforms (:mod:`qmhd.fields`), and the quantum-force check
(:func:`qmhd.diagnostics.bohm_identity_check`) reads it at the full half
spectrum.  A step holds B in one form, its spectra, as a held state does:
B's start, each sweep's new level and the state the step returns hold no
samples, and B's update is measured on the spectra by Parseval.  Each
iteration averages the two levels' spectra once, takes the curl from the
average and inverts both, so the samples of the magnetic midpoint field and
of its curl are formed once and the average is freed: the residual reads
them, and so does the next iteration's magnetic sweep, whose midpoint is the
same field.  The magnetic sweep frees its source and curl spectra, and the
force its capillary and sqrt(rho) spectra, each diffusion-correction term
and each P(rho u_j), once they are read; it symmetrizes the strain before
capillarity, so the velocity gradient holds 6 arrays, not 9, in 3D while
g_a is formed.  Only the iteration's midpoint velocity, which every sweep
reads, caches its samples; a state does not (``State.u`` forms them on each
read).  A state that outlives its step keeps each field once, in the form
the step made it: ``run_simulation`` samples each state in its held form
(``_held``), bare lambda, rho's samples and spectrum and B's spectra, and a
start's history levels hold less (``_start_level``).  A reader of a held
state, or of a step's whole state, derives through a record of its own
(:meth:`qmhd.diagnostics.DerivedFields.of`), so B's samples or rho's
spectrum live in the reader's record and are freed with it.
``_reference_diffusivity`` is the one rule for the constant part of
``nu_b`` that the magnetic sweep integrates exactly, leaving the rest
explicit, and ``cfl_report`` reads the same rule.  ``_capillary_gradient``
is the one home of the capillarity force, which the residual assembles
and the vanishing-regularization weak integral (:mod:`qmhd.experiments`)
pairs with its test fields, and ``_div_b_bound`` is the one solenoidal
rule, read off B's spectra, which ``run_simulation`` applies after each step
and ``qmhd check`` to the initial state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    _box_index,
    _cross,
    _curl_operands,
    _curl_spectra,
    _dealiased_forward,
    _divergence_spectrum,
    _forward,
    _gradient_samples,
    _laplacian_power,
    _spectral_norm,
    divergence,  # noqa: F401 -- unused; benchmarks/spans.py wraps this binding
    integrate,
    l2_norm,  # noqa: F401 -- unused; benchmarks/spans.py wraps this binding
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
        """The velocity's samples, formed on each read and not cached
        (:meth:`qmhd.basis.VelocityCoeffs.reconstruct`)."""
        return self.velocity.reconstruct()

    @property
    def basis(self) -> GalerkinBasis:
        return self.velocity.basis

    @cached_property
    def mass(self) -> float:
        return integrate(self.rho)


# the blocks of an iteration's update, in the order of ``StepInfo.updates``
_BLOCKS = ("velocity", "density", "magnetic field")


def _contraction_ratios(updates: Sequence[tuple[float, float, float]]) -> list[float]:
    """Ratios of the largest updates of consecutive iterations, skipping each
    ratio over an update at roundoff (at most 100 eps)."""
    norms = [max(u) for u in updates]
    return [b / a for a, b in zip(norms, norms[1:]) if a > 100.0 * np.finfo(float).eps]


@dataclass
class StepInfo:
    """Per-step bookkeeping for logging and the contraction diagnostics.

    ``updates`` is the step's record: per iteration, the relative updates
    ``(lambda, rho, B)`` of the velocity coefficients, the density and the
    magnetic field.  ``update_norms`` are their maxima and
    ``contraction_ratios`` the ratios of consecutive ones.  ``full_sweeps``
    counts the iterations that swept the density, formed the momentum force
    and built the velocity system; the others (``picard_iters -
    full_sweeps``) kept them and swept the magnetic field alone, and their
    kept density counts as a zero update."""

    updates: list[tuple[float, float, float]]
    full_sweeps: int
    corridor_margin: float
    div_b_norm: float

    @property
    def picard_iters(self) -> int:
        return len(self.updates)

    @property
    def update_norms(self) -> list[float]:
        return [max(u) for u in self.updates]

    @property
    def contraction_ratios(self) -> list[float]:
        return _contraction_ratios(self.updates)


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


def _heat_factor(grid: TorusGrid, coef: float, dt: float) -> np.ndarray:
    """exp(-coef dt |k|^2) on the half spectrum."""
    return np.exp(-coef * dt * grid.k_squared)


def _heat_factors(grid: TorusGrid, coef: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The heat factors over dt and dt/2: exp(-coef dt |k|^2) and exp(-coef dt |k|^2 / 2)."""
    return _heat_factor(grid, coef, dt), _heat_factor(grid, 0.5 * coef, dt)


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


def corridor_margin(rho_old: ScalarField, rho_new: ScalarField, sup: float, dt: float) -> float:
    """Relative excess of ``rho_new`` over the maximum-principle corridor
    min/max rho_old * exp(-+dt * sup), ``sup`` being |div u|_inf."""
    lower = rho_old.values.min() * np.exp(-abs(dt) * sup)
    upper = rho_old.values.max() * np.exp(abs(dt) * sup)
    below = (lower - rho_new.values.min()) / lower
    above = (rho_new.values.max() - upper) / upper
    return float(max(below, above, 0.0))


def _curl_samples(curl: Sequence[np.ndarray | None], grid: TorusGrid) -> list[np.ndarray]:
    """Grid samples of the curl spectra ``curl``, as ``fields._curl_spectra``
    forms them, one inverse transform each; the one that is None (the first
    in 1D) is zero samples."""
    return [np.zeros(grid.shape) if c is None else _backward(c, grid) for c in curl]


def _magnetic_midpoint(b_old: VectorField, b_new: VectorField) -> tuple[VectorField, list[np.ndarray]]:
    """The midpoint field of two levels, as samples, and the samples of its
    curl, all inverse transforms of the levels' averaged spectra, which are
    formed once and freed as they are inverted: a step holds B as spectra,
    and every reader of the midpoint reads its samples."""
    grid = b_old.grid
    spectra = [0.5 * (o.spectrum + n.spectrum) for o, n in zip(b_old.components, b_new.components)]
    curl = _curl_spectra(spectra, grid)
    mid = []
    for axis in range(3):
        mid.append(ScalarField._adopt(grid, _backward(spectra[axis], grid)))
        spectra[axis] = None
    return VectorField(grid, mid), _curl_samples(curl, grid)


def _reference_diffusivity(nu: np.ndarray) -> float:
    """The reference nu_bar = mean nu_b of the samples ``nu`` of nu_b(rho);
    the remainder is nu - nu_bar."""
    return float(nu.mean())


def _magnetic_diffusion(rho: ScalarField, phys: PhysParams, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a magnetic sweep reads of its density: the remainder nu_b -
    nu_bar, the heat factor of nu_bar over dt and ``dt`` times that over
    dt/2, the factor of the source."""
    nu = magnetic_diffusivity(rho.values, phys)
    nu_bar = _reference_diffusivity(nu)
    full, half = _heat_factors(rho.grid, nu_bar, dt)
    return nu - nu_bar, full, dt * half


def solve_magnetic_step(
    B_old: VectorField,
    u: VectorField,
    rho: ScalarField,
    dt: float,
    phys: PhysParams,
    *,
    density_floor: float = 1e-8,
    mid: tuple[VectorField, list[np.ndarray]] | None = None,
    diffusion: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> VectorField:
    """One sweep of the midpoint map of the induction equation with given
    (time-centered) velocity and density: mean diffusivity integrated
    exactly, transport and the variable-diffusivity remainder at the
    midpoint field, then a divergence-free projection.  The step is the
    map's fixed point.  ``mid`` is that midpoint with its curl samples, as
    ``_magnetic_midpoint`` makes them; it defaults to ``B_old``'s own.
    ``diffusion`` is ``_magnetic_diffusion`` of ``rho``, for a caller that
    sweeps more than once at one density.  Each grid-sized temporary (the
    electromotive field, the dealiased source, the curl spectra) is freed
    once it has been read, before the divergence-free projection."""
    grid = B_old.grid
    if rho.values.min() < density_floor:
        raise DensityFloorViolation("magnetic solve: density below the floor")
    nu_fluct, full, dt_half = _magnetic_diffusion(rho, phys, dt) if diffusion is None else diffusion

    if mid is None:
        mid = _magnetic_midpoint(B_old, B_old)
    b_mid, curl_mid = mid

    # electromotive field u x B minus the variable-coefficient part of the
    # resistive term, nu' curl B, at the midpoint; the 2/3 mask is linear, so
    # one dealiased transform per component takes both, for each component
    # the curl reads
    emf = _cross(u.component_values(), b_mid.component_values())
    rhs = [None] * 3
    for l in _curl_operands(grid.dim):
        rhs[l] = _dealiased_forward(emf[l] - nu_fluct * curl_mid[l], grid)
        emf[l] = None
    del emf
    curl_rhs = _curl_spectra(rhs, grid)
    del rhs
    spec_new = []
    for axis, c in enumerate(B_old.components):
        cr, curl_rhs[axis] = curl_rhs[axis], None
        spec_new.append(full * c.spectrum if cr is None else full * c.spectrum + dt_half * cr)
    del cr
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


def _momentum_force(
    rho: ScalarField,
    velocity: VelocityCoeffs,
    B: VectorField,
    phys: PhysParams,
    reg: RegParams,
    box: tuple | None,
    *,
    curl_b: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """The spectra of the momentum force ``G - div T + kappa^2 grad lap rho``
    of each component, at the window ``box``: a box block, as
    :func:`qmhd.fields._forward` returns it, or the full half spectrum for
    ``None``.  The body force ``G`` collects the Lorentz force, the
    diffusion-correction term and high-order capillarity in its transposed
    form; the stress ``T`` collects convection, viscosity, pressure and the
    conservative quantum stress.  Each is summed on the grid and transformed
    once per component or entry at the window, with no dealiasing: the
    projection reads only modes inside the 2/3 mask, where a per-term
    dealiasing changes nothing.  ``kappa^2 grad lap rho`` is exact in k.
    ``curl_b`` gives the samples of curl B when the caller has them."""
    grid = rho.grid
    basis = velocity.basis
    if rho.values.min() < reg.density_floor:
        raise DensityFloorViolation("momentum residual: density below the floor")

    u = velocity.field
    uvals = u.component_values()
    rvals = rho.values
    k = grid.kvec
    dim = grid.dim
    window = (slice(None),) if box is None else _box_index(box)
    k_win = [kj[window] for kj in k[:dim]]

    # velocity gradient d_j u_l for active j, from the velocity's box blocks
    du = _gradient_samples(velocity.spectra, basis.box_kvec, grid, basis.box)

    # body force G_l, accumulated on the grid: the Lorentz force (curl B) x B,
    if curl_b is None:
        curl_b = _curl_samples(_curl_spectra([c.spectrum for c in B.components], grid), grid)
    body = _cross(curl_b, B.component_values())
    del curl_b
    # minus epsilon (grad rho . grad) u_l,
    if reg.epsilon:
        for j in range(dim):
            dr = reg.epsilon * _backward(1j * k[j] * rho.spectrum, grid)
            for l in range(3):
                body[l] -= dr * du[j][l]
            del dr
    # the strain d_j u_l + d_l u_j of two active axes, formed in place once
    # and shared by the entries (j, l) and (l, j), now that the last reader
    # of d_j u_l alone is done, so that the gradient holds 6 arrays, not 9,
    # in 3D while capillarity forms g_a; along an inactive axis l only
    # d_j u_l remains
    for j in range(dim):
        for l in range(j, dim):
            du[j][l] += du[l][j]
            du[l][j] = du[j][l]
    # minus delta rho g_a, capillarity in transposed weak form; each axis's
    # samples are freed before the next axis's are formed, and the
    # capillary spectrum with the generator once the last axis is done
    if reg.delta:
        cap = _capillary_gradient(rho, reg.s)
        for a in range(dim):
            body[a] -= reg.delta * rvals * next(cap)
        cap.close()
    force = [_forward(g, grid, box) for g in body]
    del body

    # stress T_jl = P(rho u_j) u_l - rho (d_j u_l + d_l u_j) + delta_jl (P + Pc)
    # + 4 kappa^2 d_j sqrt(rho) d_l sqrt(rho), one entry at a time and one
    # P(rho u_j) at a time; each force[l] still sums its entries in j's
    # order, then kappa^2 grad lap rho.  Along an inactive axis l nothing
    # varies, so only the first two parts remain
    p_tot = pressure(rvals, phys) + cold_pressure(rvals, phys)
    if phys.kappa:
        w_spec = _forward(np.sqrt(rvals), grid)
        dw = [2.0 * phys.kappa * _backward(1j * k[j] * w_spec, grid) for j in range(dim)]
        del w_spec
    for j in range(dim):
        mom = _backward(_dealiased_forward(rvals * uvals[j], grid), grid)
        for l in range(3):
            t = mom * uvals[l]
            t -= rvals * du[j][l]
            if j == l:
                t += p_tot
            if phys.kappa and l < dim:
                t += dw[j] * dw[l]
            force[l] -= 1j * k_win[j] * _forward(t, grid, box)
        del mom, t
    if phys.kappa:
        lap_r = -grid.k_squared[window] * rho.spectrum[window]
        for l in range(dim):
            force[l] += phys.kappa**2 * 1j * k_win[l] * lap_r
    return force


def momentum_residual(
    rho: ScalarField,
    velocity: VelocityCoeffs,
    B: VectorField,
    phys: PhysParams,
    reg: RegParams,
    *,
    curl_b: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Weak momentum right-hand side tested against every basis mode: the
    force :func:`_momentum_force` at the basis's box, projected, plus
    hyperviscosity, exact on the eigenbasis."""
    basis = velocity.basis
    entries = basis.project_force_spectra(_momentum_force(rho, velocity, B, phys, reg, basis.box, curl_b=curl_b))
    if reg.eta:
        # hyperviscosity is exact on the eigenbasis: -eta |k|^4 lambda
        entries -= reg.eta * basis.eigen_k2**2 * velocity.values
    return entries


# the smallest scale an update is measured against
_UPDATE_SCALE = 1e-8


def _relative_update(new: Sequence[np.ndarray], old: Sequence[np.ndarray]) -> float:
    """l2 norm of ``new - old`` over all arrays, relative to that of ``new``."""
    change = np.sqrt(sum(np.linalg.norm(a - b) ** 2 for a, b in zip(new, old)))
    scale = np.sqrt(sum(np.linalg.norm(a) ** 2 for a in new))
    return float(change / max(scale, _UPDATE_SCALE))


def _spectral_update(new: VectorField, old: VectorField) -> float:
    """``_relative_update`` of two fields' samples, read off their half
    spectra by Parseval (``_spectral_norm``, with the Hermitian weights):
    each spectral norm is the samples' over sqrt(N), and so is the floor."""
    grid = new.grid
    pairs = [(a.spectrum, b.spectrum) for a, b in zip(new.components, old.components)]
    change = np.sqrt(sum(_spectral_norm(a - b, grid) ** 2 for a, b in pairs))
    scale = np.sqrt(sum(_spectral_norm(a, grid) ** 2 for a, _ in pairs))
    return float(change / max(scale, _UPDATE_SCALE / np.sqrt(grid.num_points)))


def _midpoint(a: ScalarField, b: ScalarField) -> ScalarField:
    """Average of two levels, values and spectra both, so no transform is redone."""
    return ScalarField._adopt(a.grid, 0.5 * (a.values + b.values), 0.5 * (a.spectrum + b.spectrum))


# lambda and rho start from the cubic through x_n and the three levels before
# it, raised one order at a time up to the quintic through the five levels
# before (``_start_order``); B starts from the quadratic through the
# increments of the first three in the frame of its exact mean diffusion
# (``_magnetic_start``).  A cubic in B's increments, over a fifth level, cut
# the fastest step further but took more iterations at low density, and so
# did giving B lambda's order
_START_ORDER = 3
_MAX_START_ORDER = 5

# lambda_n and its backward differences nabla^p lambda_n, p = _START_ORDER ..
# _MAX_START_ORDER, as weights on the levels, most recent first: the first
# row picks lambda_n, row 1 + p - _START_ORDER holds (-1)^j C(p, j)
_DIFFERENCES = np.array(
    [[1.0] + [0.0] * _MAX_START_ORDER]
    + [[(-1) ** j * comb(p, j) for j in range(_MAX_START_ORDER + 1)] for p in range(_START_ORDER, _MAX_START_ORDER + 1)]
)


def _extrapolate(levels: Sequence[np.ndarray]) -> np.ndarray:
    """The value one step after ``levels[0]`` on the polynomial through
    ``levels``, most recent first and one step apart: for order ``p =
    len(levels) - 1`` the weights are ``(-1)^j C(p+1, j+1)``, that is ``1``,
    then ``2, -1``, ``3, -3, 1``, ``4, -6, 4, -1`` and so on up to the
    quintic's ``6, -15, 20, -15, 6, -1``."""
    p = len(levels) - 1
    out = comb(p + 1, 1) * levels[0]
    for j in range(1, p + 1):
        out += (-1) ** j * comb(p + 1, j + 1) * levels[j]
    return out


def _start_order(levels: Sequence[np.ndarray], tol: float) -> int:
    """The order of the polynomial a step starts lambda and rho from, given
    at most ``_MAX_START_ORDER + 1`` of lambda's ``levels``, most recent
    first and one step apart: the cubic, or the polynomial through all of
    them if there are fewer than five, raised one order at a time while the
    next backward difference ``nabla^(p+1) lambda_n``, the leading term the
    order-``p`` start leaves out, exceeds ``tol`` times ``|lambda_n|``
    (floored at ``_UPDATE_SCALE``, as the update is measured) and is still
    smaller than ``nabla^p lambda_n``.  Differences that stop falling are
    roundoff, which a higher order only amplifies.  One product of the
    levels gives every norm the rule reads."""
    p = min(_START_ORDER, len(levels) - 1)
    if len(levels) > _START_ORDER + 1:
        d = _DIFFERENCES[: len(levels) - _START_ORDER + 1, : len(levels)] @ levels
        # |lambda_n|^2, then |nabla^(_START_ORDER + i) lambda_n|^2 at i
        norm_sq, *diff_sq = np.linalg.vecdot(d, d).tolist()
        floor = tol**2 * max(norm_sq, _UPDATE_SCALE**2)
        while p < len(levels) - 1 and floor < diff_sq[p + 1 - _START_ORDER] < diff_sq[p - _START_ORDER]:
            p += 1
    return p


def _magnetic_start(levels: Sequence[State], phys: PhysParams, dt: float) -> VectorField:
    """B's starting guess ``E b_n + q`` from ``levels``, ``x_n`` first and
    each one step before the last.  ``E = exp(-nu_bar dt |k|^2)`` is the
    factor the magnetic sweep integrates exactly, with ``nu_bar`` the
    reference diffusivity of rho_n, and ``q`` extrapolates the increments
    ``b_(n-j) - E b_(n-j-1)``: quadratic through four levels, lower through
    fewer, zero from ``x_n`` alone.  A polynomial in B itself cannot follow
    the stiff exponential decay; in this frame only the smooth forcing is
    extrapolated.  It holds B as spectra only and makes no transform."""
    grid = levels[0].rho.grid
    nu_bar = _reference_diffusivity(magnetic_diffusivity(levels[0].rho.values, phys))
    decay = _heat_factor(grid, nu_bar, dt)
    comps = []
    for axis in range(3):
        spec = [s.magnetic.components[axis].spectrum for s in levels]
        start = decay * spec[0]
        if len(spec) > 1:
            start += _extrapolate([a - decay * b for a, b in zip(spec, spec[1:])])
        comps.append(ScalarField._adopt(grid, None, start))
    return VectorField(grid, comps)


def _div_norm(b: VectorField) -> float:
    """L2 norm of div B from its spectra (Parseval), with no transform."""
    grid = b.grid
    div = _divergence_spectrum([c.spectrum for c in b.components], grid.kvec[: grid.dim])
    return float(np.sqrt(grid.volume)) * _spectral_norm(div, grid)


def _lorentz_entries(basis: GalerkinBasis, b: VectorField, curl_b: list[np.ndarray]) -> np.ndarray:
    """The Lorentz force ``(curl B) x B`` tested against every basis mode:
    the part of :func:`momentum_residual` that a magnetic-only iteration
    redoes, one box forward per component."""
    return basis.project_force_spectra([_forward(g, b.grid, basis.box) for g in _cross(curl_b, b.component_values())])


def _picard_divergence(head: str, updates: Sequence[tuple[float, float, float]], reg: RegParams) -> PicardDivergence:
    """The :class:`PicardDivergence` of a step whose record is ``updates``:
    ``head``, then the last update, the tolerance and the block that moved
    most in the last iteration."""
    last = updates[-1]
    return PicardDivergence(
        f"{head}last update {max(last):.3e}, picard_tol {reg.picard_tol:g}), "
        f"largest in the {_BLOCKS[int(np.argmax(last))]}; halve dt"
    )


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
    the largest relative update of the three is below ``picard_tol``.  The
    shift ``1/2 h (eta |k|^4 + rho_bar (|k|^2 + k_c^2))`` is the implicit
    half of the hyperviscous term and of the viscous stress at the mean
    density ``rho_bar = mass / volume`` (``GalerkinBasis.viscous_k2``).  It
    sits on both sides, so at the fixed point it cancels and the step
    satisfies ``M[rho_new] lambda_new - M[rho_old] lambda_old = h N(mid)``.

    ``history``, the levels before ``state``, most recent first and each one
    step of ``dt`` earlier, serves only as a starting guess.  lambda and rho
    start from the polynomial through ``state`` and up to
    ``_MAX_START_ORDER`` of those levels, of the order ``_start_order``
    reads off lambda's levels: the cubic through four, raised up to the
    quintic through six while lambda's next backward difference exceeds
    ``picard_tol`` and still falls, and the polynomial through all of them
    when there are four or fewer, ``x_n`` itself without any.  B starts
    from ``E b_n`` plus the extrapolation of its increments in the frame of
    its exact mean diffusion (``_magnetic_start``), which reads up to the
    first ``_START_ORDER`` of the levels.

    B is held as spectra throughout: the step reads only the spectra of
    ``state``'s and the levels' B, its start and each sweep's new level
    hold no samples, and so does the B it returns.  Each iteration forms
    the samples of the magnetic midpoint and of its curl from the levels'
    averaged spectra (``_magnetic_midpoint``), and B's update is measured
    on the spectra by Parseval (``_spectral_update``), the same quantity as
    on the samples.

    Each iteration appends its relative updates ``(lambda, rho, B)`` to one
    record, ``StepInfo.updates``, which the stopping rule, the switch and
    both divergence rules read.  Once an iteration's velocity and density
    updates are both at most ``picard_tol``, the loop keeps that
    iteration's density sweep, midpoints, magnetic diffusion split,
    velocity system and momentum force less its Lorentz part, ``n_rest``:
    the iterations are magnetic-only exactly while ``n_rest`` is held.
    They sweep the magnetic field, redo the Lorentz force and solve for the
    velocity alone, recording a zero density update, until a velocity
    update exceeds ``picard_tol`` again.  The corridor check reads
    sup |div u| off the converged midpoint coefficients, and
    ``StepInfo.div_b_norm`` comes from B's spectra.  Raises
    :class:`PicardDivergence`, naming the block of the last iteration's
    largest update, when the iteration stops contracting, the last two
    ratios of consecutive largest updates since the last return to full
    sweeps being at least 1, or when ``picard_max_iters`` iterations do not
    converge (halve dt and retry), and :class:`MaximumPrincipleViolation`
    when the converged density leaves the corridor."""
    basis = state.basis
    h = reg.dt if dt is None else dt
    lam_old = state.velocity.values
    rho_old = state.rho
    b_old = state.magnetic

    rhs_base = basis.apply_blocks(basis.gram_blocks(rho_old), lam_old)
    # the implicit half of the hyperviscous midpoint -eta |k|^4 lambda_mid,
    # unconditionally stable for arbitrarily stiff eta |k|^4, and of the
    # viscous stress at the mean density, -rho_bar (|k|^2 + k_c^2) lambda_mid,
    # which mass conservation keeps the same at every level
    rho_bar = state.mass / rho_old.grid.volume
    shift = 0.5 * h * (reg.eta * basis.eigen_k2**2 + rho_bar * basis.viscous_k2)

    levels = [state, *history[:_MAX_START_ORDER]]
    lams = [s.velocity.values for s in levels]
    order = _start_order(lams, reg.picard_tol)
    lam_k = _extrapolate(lams[: order + 1])
    # samples only: the first iteration always sweeps the density, and the
    # sweep reads no more of its guess
    rho_new = ScalarField._adopt(rho_old.grid, _extrapolate([s.rho.values for s in levels[: order + 1]]))
    b_new = _magnetic_start(levels[: _START_ORDER + 1], phys, h)
    b_mid = _magnetic_midpoint(b_old, b_new)
    updates: list[tuple[float, float, float]] = []
    full_sweeps = 0
    # the force less its Lorentz part, held exactly while B alone is swept
    n_rest = None
    # the divergence rule reads the record from iteration ``since``, the first
    # full sweep after the last return from magnetic-only iterations: a ratio
    # across the return compares two maps
    since = 0

    for it in range(reg.picard_max_iters):
        # each update is measured as it is made, so no earlier iterate is held
        if n_rest is not None:
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
            diffusion = _magnetic_diffusion(rho_mid, phys, h)
        b_next = solve_magnetic_step(
            b_old, u_mid, rho_mid, h, phys, density_floor=reg.density_floor, mid=b_mid, diffusion=diffusion
        )
        b_upd = _spectral_update(b_next, b_new)
        b_new = b_next
        # the residual and the next iteration's sweep share this midpoint
        b_mid = _magnetic_midpoint(b_old, b_new)
        if n_rest is not None:
            n_mid = n_rest + _lorentz_entries(basis, *b_mid)
        else:
            n_mid = momentum_residual(rho_mid, vel_mid, b_mid[0], phys, reg, curl_b=b_mid[1])
            mass = MassOperator(basis, rho_new, shift)

        lam_next = mass.solve(rhs_base + h * n_mid + shift * lam_k)
        lam_upd = _relative_update([lam_next], [lam_k])
        lam_k = lam_next
        updates.append((lam_upd, rho_upd, b_upd))
        upd = max(updates[-1])
        if upd <= reg.picard_tol:
            break
        # two ratios in the window need three of its iterations
        if len(updates) - since > 2 and upd > 1e4 * np.finfo(float).eps:
            last = _contraction_ratios(updates[since:])[-2:]
            if len(last) == 2 and last[0] >= 1.0 and last[1] >= 1.0:
                raise _picard_divergence(f"fixed-point updates stopped contracting (ratio {last[1]:.3f}, ", updates, reg)
        if n_rest is not None and lam_upd > reg.picard_tol:
            since, n_rest = it + 1, None
        elif n_rest is None and max(lam_upd, rho_upd) <= reg.picard_tol:
            # only B is still moving: keep the density sweep, the midpoints,
            # the diffusion split, the velocity system and the force less its
            # Lorentz part
            n_rest = n_mid - _lorentz_entries(basis, *b_mid)
    else:
        raise _picard_divergence(f"no fixed-point convergence in {reg.picard_max_iters} iterations (", updates, reg)

    sup_div_u = float(np.max(np.abs(basis.divergence_samples(0.5 * (lam_old + lam_k)))))
    margin = corridor_margin(rho_old, rho_new, sup_div_u, h)
    if margin > _CORRIDOR_SLACK:
        raise MaximumPrincipleViolation(
            f"density left the maximum-principle corridor by {margin:.3e} relative; reduce dt"
        )
    new_state = State(state.time + h, rho_new, VelocityCoeffs(basis, lam_k), b_new)
    return new_state, StepInfo(updates, full_sweeps, margin, _div_norm(b_new))


@dataclass
class Trajectory:
    """The held forms of one run's sampled states (``_held``: B as spectra
    only, no cached velocity) plus running totals of its steps' counts; a
    caller that wants every step's :class:`StepInfo`, or a step's whole
    state, takes it from ``run_simulation(on_step=...)``."""

    states: list[State]
    sample_every: int
    phys: PhysParams
    reg: RegParams
    picard_iters: int = 0
    full_sweeps: int = 0
    max_contraction_ratio: float = 0.0

    @property
    def times(self) -> list[float]:
        """The sample times, each state's own."""
        return [s.time for s in self.states]

    @property
    def sampled_dt(self) -> float:
        return self.reg.dt * self.sample_every

    @property
    def final_state(self) -> State:
        return self.states[-1]

    def mean_counts(self) -> tuple[float, float]:
        """Mean Picard iterations and full sweeps per step."""
        steps = max((len(self.states) - 1) * self.sample_every, 1)
        return self.picard_iters / steps, self.full_sweeps / steps


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
    """The largest L2 norm of div B a run accepts: 1e-12 max(||B||, 1), with
    ||B|| from B's spectra (Parseval), so no transform derives B's samples."""
    grid = b.grid
    norm = np.sqrt(grid.volume * sum(_spectral_norm(c.spectrum, grid) ** 2 for c in b.components))
    return 1e-12 * max(float(norm), 1.0)


def _held(state: State) -> State:
    """``state`` as a trajectory holds it: bare lambda, rho as the step left
    it, samples and spectrum, and B as spectra only, the one form a step
    holds B in, whatever a reader of the whole state derived on it.  rho
    keeps its spectrum, which is the density sweep's own and differs at
    roundoff from a transform of its samples."""
    grid = state.rho.grid
    return State(
        state.time,
        state.rho,
        VelocityCoeffs(state.basis, state.velocity.values),
        VectorField(grid, [ScalarField._adopt(grid, None, c.spectrum) for c in state.magnetic.components]),
    )


def _start_level(state: State) -> State:
    """``state`` as a later step's start reads it, as one of the levels in
    ``history``: its held form (``_held``) less rho's spectrum, so lambda,
    rho's samples and B's spectra.  ``run_simulation`` drops B
    (``magnetic=None``) once the level is past the first ``_START_ORDER``,
    which are all ``_magnetic_start`` reads."""
    return replace(_held(state), rho=ScalarField._adopt(state.rho.grid, state.rho.values))


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
    ``t_end`` the last, each held as ``_held`` keeps it.
    ``on_step(step, state, info)`` sees the initial state (step 0, no info)
    and each whole state that passed the step's checks.  Deterministic for
    a fixed configuration."""
    nsteps = step_count(initial.time, t_end, reg.dt, sample_every)
    mass0 = initial.mass
    state = initial
    traj = Trajectory([_held(state)], sample_every, phys, reg)
    if on_step is not None:
        # the first step reads rho's spectrum: derive it on the state now, so
        # that on_step's reader shares it; a step reads B's spectra only, so
        # a reader that wants B's samples derives them into its own record
        initial.rho.spectrum
        on_step(0, state, None)

    # the levels before ``state`` that a start reads, at most five, so
    # memory stays bounded in run length, each as ``_start_level`` keeps it;
    # B's spectra only on the first ``_START_ORDER``, the levels
    # ``_magnetic_start`` reads, and dropped as a level moves past them
    history: list[State] = []
    for step in range(1, nsteps + 1):
        new, info = advance_step(state, phys, reg, history=history)
        history = [_start_level(state), *history][:_MAX_START_ORDER]
        if len(history) > _START_ORDER:
            history[_START_ORDER] = replace(history[_START_ORDER], magnetic=None)
        state = new
        traj.picard_iters += info.picard_iters
        traj.full_sweeps += info.full_sweeps
        traj.max_contraction_ratio = max([traj.max_contraction_ratio, *info.contraction_ratios])

        drift = abs(state.mass - mass0) / max(abs(mass0), 1e-300)
        if drift > 1e-10:
            raise QMHDError(f"mass conservation broke: relative drift {drift:.3e}")
        if info.div_b_norm > _div_b_bound(state.magnetic):
            raise QMHDError(f"magnetic field stopped being solenoidal: {info.div_b_norm:.3e}")

        if step % sample_every == 0:
            traj.states.append(_held(state))
        if on_step is not None:
            on_step(step, state, info)

    return traj


def cfl_report(state: State, phys: PhysParams, reg: RegParams) -> dict[str, float]:
    """Advisory stability numbers for the configured step (no adaptivity)."""
    grid = state.rho.grid
    dx = min(grid.spacing)
    # samples freed on return, not cached on the state
    umax = max(float(np.max(np.abs(c))) for c in state.velocity.reconstruct().component_values())
    kmax2 = grid.k_squared_max
    kb = float(np.sqrt(np.max(state.basis.eigen_k2))) if state.basis.n else 0.0
    nu = magnetic_diffusivity(state.rho.values, phys)
    nu_bar = _reference_diffusivity(nu)
    rho_bar = float(state.rho.values.mean())
    sound = float(
        np.sqrt(phys.gamma * rho_bar ** (phys.gamma - 1.0) + cold_pressure_derivative(rho_bar, phys))
    )
    return {
        "advective": umax * reg.dt / dx,
        "density_diffusion_exact": reg.epsilon * kmax2 * reg.dt,
        "magnetic_mean_exact": nu_bar * kmax2 * reg.dt,
        "magnetic_fluctuation": float(np.max(np.abs(nu - nu_bar))) * kmax2 * reg.dt,
        "hyperviscous_midpoint": reg.eta * kb**4 * reg.dt,
        "acoustic": sound * kb * reg.dt,
        "capillary_wave": float(np.sqrt(reg.delta * rho_bar)) * kb ** (2 * reg.s + 2) * reg.dt,
        "quantum_wave": phys.kappa * kb**2 * reg.dt,
    }
