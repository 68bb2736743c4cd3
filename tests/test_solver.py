from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qmhd import (
    DensityFloorViolation,
    GalerkinBasis,
    MaximumPrincipleViolation,
    PhysParams,
    PicardDivergence,
    QMHDError,
    RegParams,
    ResistivityParams,
    TorusGrid,
    VelocityCoeffs,
    State,
    advance_step,
    initial_state,
    run_simulation,
)
from qmhd.basis import BasisMode, MassOperator
from qmhd.constitutive import magnetic_diffusivity
from qmhd.experiments import benchmark_state
from qmhd.fields import (
    ScalarField,
    VectorField,
    curl,
    dealiased_product,
    divergence,
    l2_norm,
    project_divergence_free,
    spectral_resample,
)
from qmhd.solver import (
    _density_factors,
    _div_b_bound,
    _div_norm,
    _extrapolate,
    _heat_factor,
    _heat_factors,
    _magnetic_midpoint,
    _magnetic_start,
    _momentum_force,
    _start_order,
    cfl_report,
    momentum_residual,
    solve_density_step,
    solve_magnetic_step,
)

from conftest import (
    band_limited_scalar,
    band_limited_vector,
    count_transforms,
    left_live,
    mode_profile,
    run_with_infos,
    transform_counts,
    transient_peak,
)


# --------------------------------------------------------------------------
# density solve


def test_density_heat_decay_exact(grid1d):
    x = grid1d.mesh[0]
    rho = ScalarField(grid1d, 2.0 + np.cos(x))
    u = VectorField.zero(grid1d)
    eps, dt = 0.1, 0.01
    for _ in range(100):
        new = solve_density_step(rho, u, eps, dt)
        ratio = np.fft.fft(new.values)[1] / np.fft.fft(rho.values)[1]
        assert abs(ratio - np.exp(-eps * dt)) <= 1e-10
        rho = new


def test_density_constant_unchanged(grid1d):
    rho = ScalarField(grid1d, np.full(grid1d.shape, 3.0))
    new = solve_density_step(rho, VectorField.zero(grid1d), 0.2, 0.05)
    assert np.max(np.abs(new.values - 3.0)) <= 1e-14


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"s": 0}, "capillarity order s must be a positive integer"),
        ({"s": 1.5}, "capillarity order s must be a positive integer"),
        ({"dt": 0.0}, "dt must be positive"),
        ({"picard_tol": 0.0}, "invalid fixed-point controls"),
        ({"picard_max_iters": 0}, "invalid fixed-point controls"),
        ({"density_floor": 0.0}, "density floor must be positive"),
    ],
    ids=["s_zero", "s_fractional", "dt", "picard_tol", "picard_max_iters", "density_floor"],
)
def test_reg_params_reject_bad_input(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RegParams(**kwargs)


def test_density_mass_conserved_per_step(grid1d, rng):
    x = grid1d.mesh[0]
    rho = ScalarField(grid1d, 1.5 + 0.4 * np.cos(x))
    u = band_limited_vector(grid1d, rng, max_mode=2, amplitude=0.3)
    new = solve_density_step(rho, u, 0.05, 1e-3)
    assert abs(new.values.mean() - rho.values.mean()) <= 1e-13 * rho.values.mean()


def test_density_advection_against_rk4_oracle():
    # steady single-mode velocity, no diffusion; oracle = classic RK4 on a
    # 4x finer grid with dt/100, restricted back spectrally
    n = 32
    grid = TorusGrid((n,))
    fine = TorusGrid((4 * n,))
    x, xf = grid.mesh[0], fine.mesh[0]
    rho0_c = 1.5 + 0.3 * np.cos(x)
    rho0_f = 1.5 + 0.3 * np.cos(xf)
    uc = VectorField.from_arrays(grid, [0.2 * np.sin(x), np.zeros(grid.shape), np.zeros(grid.shape)])
    uf_vals = 0.2 * np.sin(xf)

    dt, steps = 1e-3, 50
    rho = ScalarField(grid, rho0_c)
    for _ in range(steps):
        # the step is the fixed point of the density sweep
        g = rho
        for _ in range(30):
            new = solve_density_step(rho, uc, 0.0, dt, guess=g)
            done = np.max(np.abs(new.values - g.values)) <= 1e-14 * np.max(new.values)
            g = new
            if done:
                break
        else:
            pytest.fail("density sweep did not reach its fixed point")
        rho = g

    kf = np.fft.fftfreq(4 * n, 1.0 / (4 * n))

    def rhs(vals):
        flux = vals * uf_vals
        return -np.fft.ifft(1j * kf * np.fft.fft(flux)).real

    vals = rho0_f.copy()
    h = dt / 100.0
    for _ in range(steps * 100):
        k1 = rhs(vals)
        k2 = rhs(vals + 0.5 * h * k1)
        k3 = rhs(vals + 0.5 * h * k2)
        k4 = rhs(vals + h * k3)
        vals = vals + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    oracle = spectral_resample(ScalarField(fine, vals), grid)
    err = np.max(np.abs(rho.values - oracle.values))
    assert err <= 5e-8  # second-order step at dt=1e-3 over t=0.05


def test_density_floor_violation(grid1d):
    x = grid1d.mesh[0]
    rho = ScalarField(grid1d, 1.0 + 0.999999 * np.cos(x))
    u = VectorField.zero(grid1d)
    with pytest.raises(DensityFloorViolation):
        solve_density_step(rho, u, 0.0, 1e-3, density_floor=1e-3)


def test_density_corridor_violation(grid1d):
    # strongly compressive velocity with a huge step leaves the corridor
    x = grid1d.mesh[0]
    rho = ScalarField(grid1d, 1.0 + 0.5 * np.cos(x))
    u = VectorField.from_arrays(
        grid1d, [4.0 * np.sin(x), np.zeros(grid1d.shape), np.zeros(grid1d.shape)]
    )
    with pytest.raises((MaximumPrincipleViolation, PicardDivergence, DensityFloorViolation)):
        for _ in range(10):
            rho = solve_density_step(rho, u, 0.0, 0.3)


# --------------------------------------------------------------------------
# magnetic solve


def test_magnetic_eigenmode_decay_exact(grid1d):
    x = grid1d.mesh[0]
    phys = PhysParams()
    rho = ScalarField(grid1d, np.full(grid1d.shape, 2.0))
    nu = float(magnetic_diffusivity(2.0, phys))
    b = VectorField.from_arrays(grid1d, [np.zeros(grid1d.shape), np.zeros(grid1d.shape), np.sin(x)])
    u = VectorField.zero(grid1d)
    dt = 0.01
    for _ in range(100):
        new = solve_magnetic_step(b, u, rho, dt, phys)
        ratio = np.fft.fft(new.components[2].values)[1] / np.fft.fft(b.components[2].values)[1]
        assert abs(ratio - np.exp(-nu * dt)) <= 1e-10
        b = new


def test_magnetic_zero_stays_zero(grid1d):
    phys = PhysParams()
    rho = ScalarField(grid1d, np.full(grid1d.shape, 1.0))
    b = VectorField.zero(grid1d)
    u = VectorField.zero(grid1d)
    new = solve_magnetic_step(b, u, rho, 0.01, phys)
    assert all(l2_norm(c) == 0.0 for c in new.components)


def test_magnetic_determinism_and_gronwall(grid1d, rng):
    phys = PhysParams()
    x = grid1d.mesh[0]
    rho = ScalarField(grid1d, 1.5 + 0.2 * np.cos(x))
    u = band_limited_vector(grid1d, rng, max_mode=2, amplitude=0.5)
    b0 = project_divergence_free(band_limited_vector(grid1d, rng, max_mode=2, amplitude=0.3))
    dt, steps = 1e-3, 50

    def march(b):
        out = [b]
        for _ in range(steps):
            out.append(solve_magnetic_step(out[-1], u, rho, dt, phys))
        return out

    run1 = march(b0)
    run2 = march(b0)
    for a, b in zip(run1, run2):
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca.values, cb.values)

    # perturbed data stays inside a Gronwall envelope with a rate measured
    # from the advection intensity
    pert = VectorField(
        grid1d,
        [ScalarField(grid1d, c.values + 1e-10 * np.sin(x)) for c in b0.components],
    )
    pert = project_divergence_free(pert)
    run3 = march(pert)
    d0 = np.sqrt(sum(l2_norm(a - b) ** 2 for a, b in zip(run3[0].components, run1[0].components)))
    umax = max(np.max(np.abs(c.values)) for c in u.components)
    growth = 20.0 * (1.0 + umax**2)
    for k in (10, 25, 50):
        dk = np.sqrt(sum(l2_norm(a - b) ** 2 for a, b in zip(run3[k].components, run1[k].components)))
        assert dk <= d0 * np.exp(growth * k * dt)


def test_magnetic_result_divergence_free(grid1d, rng):
    phys = PhysParams()
    x = grid1d.mesh[0]
    rho = ScalarField(grid1d, 1.2 + 0.1 * np.cos(x))
    u = band_limited_vector(grid1d, rng, max_mode=2, amplitude=0.4)
    b0 = project_divergence_free(band_limited_vector(grid1d, rng, max_mode=3, amplitude=0.5))
    new = solve_magnetic_step(b0, u, rho, 1e-3, phys)
    scale = max(np.sqrt(sum(l2_norm(c) ** 2 for c in new.components)), 1e-300)
    assert l2_norm(divergence(new)) <= 1e-12 * scale


# --------------------------------------------------------------------------
# momentum residual


def _default_setup(n_modes=9, nx=64):
    grid = TorusGrid((nx,))
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    return grid, basis


def test_momentum_residual_constant_state_vanishes():
    grid, basis = _default_setup()
    phys = PhysParams(kappa=0.3)
    reg = RegParams(epsilon=0.1, eta=0.1, delta=0.1, s=1, dt=1e-3)
    rho = ScalarField(grid, np.full(grid.shape, 2.0))
    vel = VelocityCoeffs(basis, np.zeros(basis.n))
    b = VectorField.from_arrays(
        grid, [np.full(grid.shape, 0.4), np.zeros(grid.shape), np.zeros(grid.shape)]
    )
    entries = momentum_residual(rho, vel, b, phys, reg)
    assert np.max(np.abs(entries)) <= 1e-12


def test_momentum_residual_lorentz_closed_form():
    # B = sin(x) e_y gives (curl B) x B = -sin(x)cos(x) e_x; its projection
    # onto the normalized sin(2x) e_x mode is -sqrt(pi)/2 in 1D
    grid, _ = _default_setup()
    basis = GalerkinBasis(grid, [BasisMode((2, 0, 0), "sin", 0)])
    phys = PhysParams()
    reg = RegParams(dt=1e-3)
    x = grid.mesh[0]
    rho = ScalarField(grid, np.ones(grid.shape))
    vel = VelocityCoeffs(basis, np.zeros(1))
    b = VectorField.from_arrays(grid, [np.zeros(grid.shape), np.sin(x), np.zeros(grid.shape)])
    entries = momentum_residual(rho, vel, b, phys, reg)
    assert entries[0] == pytest.approx(-np.sqrt(np.pi) / 2.0, rel=1e-12)


def test_momentum_residual_matches_fine_grid_quadrature(rng):
    # convection + pressure + viscosity only, band-limited state, oracle =
    # direct quadrature of the weak integrals on a 4x grid
    grid, basis = _default_setup(n_modes=9, nx=32)
    fine = TorusGrid((128,))
    phys = PhysParams(gamma=5.0 / 3.0, kappa=0.0)
    reg = RegParams(epsilon=0.0, eta=0.0, delta=0.0, dt=1e-3)
    x = grid.mesh[0]
    rho = ScalarField(grid, 1.4 + 0.2 * np.cos(x))
    lam = 0.1 * rng.standard_normal(basis.n)
    vel = VelocityCoeffs(basis, lam)
    b = VectorField.zero(grid)
    entries = momentum_residual(rho, vel, b, phys, reg)

    from qmhd.constitutive import cold_pressure, pressure

    rho_f = spectral_resample(rho, fine)
    u_f = VectorField(fine, [spectral_resample(c, fine) for c in vel.field.components])
    xf = fine.mesh[0]
    for i, mode in enumerate(basis.modes):
        kvec = mode.wavevector
        prof = (
            np.full(fine.shape, 1.0 / np.sqrt(fine.volume))
            if all(v == 0 for v in kvec)
            else np.sqrt(2.0 / fine.volume)
            * (np.cos(kvec[0] * xf) if mode.trig == "cos" else np.sin(kvec[0] * xf))
        )
        dprof = (
            np.zeros(fine.shape)
            if all(v == 0 for v in kvec)
            else np.sqrt(2.0 / fine.volume)
            * kvec[0]
            * (-np.sin(kvec[0] * xf) if mode.trig == "cos" else np.cos(kvec[0] * xf))
        )
        c = mode.component
        rv = rho_f.values
        uv = [comp.values for comp in u_f.components]
        # convection: rho u_x u_c d_x(prof)
        conv = (rv * uv[0] * uv[c] * dprof).mean() * fine.volume
        # pressure work only for the x component
        ptot = pressure(rv, phys) + cold_pressure(rv, phys)
        pres = (ptot * dprof).mean() * fine.volume if c == 0 else 0.0
        # viscosity: -2 rho D(u)_{x c} d_x prof
        du = [np.fft.ifft(1j * np.fft.fftfreq(128, 1 / 128) * np.fft.fft(uv[l])).real for l in range(3)]
        d_xc = 0.5 * (du[c] + (du[0] if c == 0 else 0.0))
        visc = -2.0 * (rv * d_xc * dprof).mean() * fine.volume
        oracle = conv + pres + visc
        assert entries[i] == pytest.approx(oracle, rel=2e-11, abs=2e-11)


def _full_spectrum(grid, values):
    """c2c coefficients of ``f = sum c_k exp(ik.x)`` and the matching
    wavenumbers, Nyquist included."""
    k = np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n) for n in grid.shape], indexing="ij")
    return np.fft.fftn(values) / grid.num_points, k


@pytest.mark.parametrize("shape,n_modes", [((16, 16), 60), ((8, 8, 8), 81)])
@pytest.mark.parametrize("s", [1, 2])
def test_momentum_residual_capillarity_matches_per_mode_loop(shape, n_modes, s, rng):
    # oracle: the transposed weak form mode by mode,
    # - delta < lap^s div P(rho e_i), lap^(s+1) rho >, on full c2c spectra
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    # white noise on top of a smooth density: content at and beyond the 2/3
    # edge, where the mask P acts
    edge = min(n // 3 for n in shape)
    smooth = band_limited_scalar(grid, rng, max_mode=edge).values
    rho = ScalarField(grid, 1.5 + 0.3 * smooth + 0.05 * rng.uniform(-1.0, 1.0, shape))
    vel = VelocityCoeffs(basis, np.zeros(basis.n))
    b = VectorField.zero(grid)
    phys = PhysParams(kappa=0.0)
    # a large delta makes capillarity dwarf the pressure entries that the
    # difference of two residuals removes
    delta = 1.0
    reg = RegParams(delta=delta, s=s)
    cap = momentum_residual(rho, vel, b, phys, reg) - momentum_residual(
        rho, vel, b, phys, RegParams(delta=0.0, s=s)
    )

    rho_hat, k = _full_spectrum(grid, rho.values)
    k2 = sum(ka**2 for ka in k)
    keep = np.all([np.abs(ka) <= n // 3 for ka, n in zip(k, shape)], axis=0)
    target = np.conj((-k2) ** (s + 1) * rho_hat)
    ref = np.zeros(basis.n)
    for i, mode in enumerate(basis.modes):
        a = mode.component
        if a >= grid.dim:
            continue
        prod, _ = _full_spectrum(grid, rho.values * mode_profile(grid, mode))
        div = 1j * k[a] * np.where(keep, prod, 0.0)
        ref[i] = -delta * grid.volume * float(np.sum((-k2) ** s * div * target).real)
    assert np.max(np.abs(ref)) > 0
    assert np.max(np.abs(cap - ref)) <= 1e-13 * np.max(np.abs(ref))


def _ready(field):
    """Compute a field's samples and spectra now, so no transform of the
    inputs lands in a counted call."""
    for c in getattr(field, "components", [field]):
        c.values, c.spectrum
    return field


def _curl_inverses(dim):
    """Inverse transforms of curl B's samples: one per component with an
    active-axis term, all three but the first in 1D."""
    return 2 if dim == 1 else 3


def _residual_counts(dim, curl_given=False):
    """Transforms of one residual call with kappa, epsilon and delta on.
    Full inverses: 3 for curl B, 2 in 1D, where its first component is zero
    by construction (none when the caller passes its samples), d for grad
    rho, d for capillarity, d for the dealiased momentum and d for grad
    sqrt(rho); full forwards: d for the momentum and 1 for sqrt(rho).  On
    the basis's box: 3d inverses for the velocity gradient, and the 3
    body-force and 3d stress forwards.  7 + 11d in all, 17 in 1D."""
    return transform_counts(
        backward_full=(0 if curl_given else _curl_inverses(dim)) + 4 * dim,
        forward_full=1 + dim,
        backward_box=3 * dim,
        forward_box=3 + 3 * dim,
    )


def test_momentum_residual_transform_count_independent_of_mode_count(monkeypatch, rng):
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, dt=1e-3)
    counts = count_transforms(monkeypatch)
    for shape, n in [((64,), 9), ((32, 32), 9), ((32, 32), 60), ((16, 16, 16), 27)]:
        grid = TorusGrid(shape)
        basis = GalerkinBasis.lowest_modes(grid, n)
        rho = _ready(ScalarField(grid, 1.5 + 0.3 * band_limited_scalar(grid, rng, max_mode=4).values))
        b = _ready(VectorField(grid, [0.2 * c for c in band_limited_vector(grid, rng, max_mode=4).components]))
        vel = VelocityCoeffs(basis, 0.1 * rng.standard_normal(n))
        _ready(vel.field)
        counts.clear()
        momentum_residual(rho, vel, b, phys, reg)
        assert counts == _residual_counts(grid.dim), (shape, n)
        assert counts.total() == 4 + _curl_inverses(grid.dim) + 11 * grid.dim


def test_magnetic_step_one_forward_per_component(monkeypatch, rng):
    # given the midpoint's samples and those of its curl, the sweep's own
    # transforms are the 3 dealiased forwards of u x B_mid - nu' curl B_mid
    grid = TorusGrid((16, 16, 16))
    phys = PhysParams(resistivity=ResistivityParams(d0=1.0, threshold=2.0))
    rho = _ready(ScalarField(grid, 1.5 + 0.3 * band_limited_scalar(grid, rng, max_mode=4).values))
    b = _ready(band_limited_vector(grid, rng, max_mode=4))
    guess = _ready(band_limited_vector(grid, rng, max_mode=4))
    u = _ready(band_limited_vector(grid, rng, max_mode=4))
    mid = _magnetic_midpoint(b, guess)
    counts = count_transforms(monkeypatch)
    solve_magnetic_step(b, u, rho, 1e-3, phys, mid=mid)
    assert counts == transform_counts(forward_full=3)


def _per_term_residual(rho, velocity, B, phys, reg):
    """The momentum residual with one forward transform per term
    (convection, pressure, viscosity, diffusion correction, quantum stress,
    capillarity, Lorentz force), summed in spectral space."""
    from qmhd.constitutive import cold_pressure, pressure
    from qmhd.fields import _backward, _dealiased_forward, _forward

    grid, basis = rho.grid, velocity.basis
    uvals = velocity.field.component_values()
    u_spec = [c.spectrum for c in velocity.field.components]
    rvals, k, dim = rho.values, grid.kvec, grid.dim
    force = [np.zeros(grid.spectral_shape, dtype=np.complex128) for _ in range(3)]
    mom = [_backward(_dealiased_forward(rvals * uvals[j], grid), grid) for j in range(dim)]
    for l in range(3):
        for j in range(dim):
            force[l] -= 1j * k[j] * _dealiased_forward(mom[j] * uvals[l], grid)
    p_spec = _dealiased_forward(pressure(rvals, phys) + cold_pressure(rvals, phys), grid)
    for l in range(dim):
        force[l] -= 1j * k[l] * p_spec
    du = [[_backward(1j * k[j] * u_spec[l], grid) for l in range(3)] for j in range(dim)]
    for l in range(3):
        for j in range(dim):
            d_jl = 0.5 * (du[j][l] + (du[l][j] if l < dim else 0.0))
            force[l] += 2j * k[j] * _dealiased_forward(rvals * d_jl, grid)
    dr = [_backward(1j * k[j] * rho.spectrum, grid) for j in range(dim)]
    for l in range(3):
        corr = sum(dr[j] * du[j][l] for j in range(dim))
        force[l] -= reg.epsilon * _dealiased_forward(corr, grid)
    w_spec = _forward(np.sqrt(rvals), grid)
    dw = [_backward(1j * k[j] * w_spec, grid) for j in range(dim)]
    kap2 = phys.kappa**2
    for l in range(dim):
        force[l] += kap2 * 1j * k[l] * (-grid.k_squared * rho.spectrum)
        for j in range(dim):
            force[l] -= 4.0 * kap2 * 1j * k[j] * _dealiased_forward(dw[j] * dw[l], grid)
    cap_spec = np.where(grid.dealias_mask, -grid.k_squared ** (2 * reg.s + 1) * rho.spectrum, 0.0)
    for a in range(dim):
        force[a] -= reg.delta * _forward(rvals * _backward(-1j * k[a] * cap_spec, grid), grid)
    b_spec = [c.spectrum for c in B.components]
    cb = [
        _backward(1j * (k[1] * b_spec[2] - k[2] * b_spec[1]), grid),
        _backward(1j * (k[2] * b_spec[0] - k[0] * b_spec[2]), grid),
        _backward(1j * (k[0] * b_spec[1] - k[1] * b_spec[0]), grid),
    ]
    bv = B.component_values()
    force[0] += _dealiased_forward(cb[1] * bv[2] - cb[2] * bv[1], grid)
    force[1] += _dealiased_forward(cb[2] * bv[0] - cb[0] * bv[2], grid)
    force[2] += _dealiased_forward(cb[0] * bv[1] - cb[1] * bv[0], grid)
    force = [f[basis.box_index] for f in force]
    return basis.project_force_spectra(force) - reg.eta * basis.eigen_k2**2 * velocity.values


@pytest.mark.parametrize("shape, n_modes", [((64,), 9), ((32, 32), 60), ((16, 16, 16), 81)])
def test_momentum_residual_matches_per_term_transforms(shape, n_modes, rng):
    # summing the force on the grid before transforming is exact up to
    # roundoff, since every basis mode lies inside the 2/3 mask; the state
    # carries white-noise content up to the mask edge
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    edge = min(n // 3 for n in shape)
    rho = ScalarField(grid, 1.5 + 0.3 * band_limited_scalar(grid, rng, max_mode=edge).values)
    b = VectorField(grid, [0.3 * c for c in band_limited_vector(grid, rng, max_mode=edge).components])
    vel = VelocityCoeffs(basis, 0.3 * rng.standard_normal(n_modes))
    phys = PhysParams(kappa=0.3)
    reg = RegParams(epsilon=0.05, eta=0.01, delta=1e-7, s=1)
    entries = momentum_residual(rho, vel, b, phys, reg)
    ref = _per_term_residual(rho, vel, b, phys, reg)
    assert np.max(np.abs(entries - ref)) <= 1e-13 * np.max(np.abs(ref))


def _parent_order_force(rho, velocity, B, phys, reg, box):
    """The momentum force summed in its earlier order, kappa, epsilon and
    delta on: the strain symmetrized after the capillary loop and every
    P(rho u_j) formed before the stress loop, which runs l outer, j inner."""
    from qmhd.constitutive import cold_pressure, pressure
    from qmhd.fields import _backward, _box_index, _cross, _curl_spectra, _dealiased_forward, _forward, _gradient_samples

    grid, basis = rho.grid, velocity.basis
    uvals = velocity.field.component_values()
    rvals, k, dim = rho.values, grid.kvec, grid.dim
    window = (slice(None),) if box is None else _box_index(box)
    k_win = [kj[window] for kj in k[:dim]]
    du = _gradient_samples(velocity.spectra, basis.box_kvec, grid, basis.box)
    curl_b = [np.zeros(grid.shape) if c is None else _backward(c, grid)
              for c in _curl_spectra([c.spectrum for c in B.components], grid)]
    body = _cross(curl_b, B.component_values())
    for j in range(dim):
        dr = reg.epsilon * _backward(1j * k[j] * rho.spectrum, grid)
        for l in range(3):
            body[l] -= dr * du[j][l]
    cap_spec = np.where(grid.dealias_mask, (-1.0) ** (2 * reg.s + 1) * grid.k_squared ** (2 * reg.s + 1) * rho.spectrum, 0.0)
    for a in range(dim):
        body[a] -= reg.delta * rvals * _backward(-1j * k[a] * cap_spec, grid)
    force = [_forward(g, grid, box) for g in body]
    for j in range(dim):
        for l in range(j, dim):
            du[j][l] += du[l][j]
            du[l][j] = du[j][l]
    mom = [_backward(_dealiased_forward(rvals * uvals[j], grid), grid) for j in range(dim)]
    p_tot = pressure(rvals, phys) + cold_pressure(rvals, phys)
    w_spec = _forward(np.sqrt(rvals), grid)
    dw = [2.0 * phys.kappa * _backward(1j * k[j] * w_spec, grid) for j in range(dim)]
    lap_r = -grid.k_squared[window] * rho.spectrum[window]
    for l in range(3):
        for j in range(dim):
            t = mom[j] * uvals[l]
            t -= rvals * du[j][l]
            if j == l:
                t += p_tot
            if l < dim:
                t += dw[j] * dw[l]
            force[l] -= 1j * k_win[j] * _forward(t, grid, box)
        if l < dim:
            force[l] += phys.kappa**2 * 1j * k_win[l] * lap_r
    return force


@pytest.mark.parametrize("shape, n_modes", [((64,), 9), ((32, 32), 60), ((16, 16, 16), 81)])
def test_reordered_momentum_force_is_bitwise_the_earlier_order(shape, n_modes, rng):
    # symmetrizing the strain before capillarity and taking one P(rho u_j)
    # at a time free arrays without moving a sum: each body-force and
    # force[l] sum keeps its order, so the force is bit for bit the same,
    # at the basis's box and at the full half spectrum
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    edge = min(n // 3 for n in shape)
    rho = ScalarField(grid, 1.5 + 0.3 * band_limited_scalar(grid, rng, max_mode=edge).values)
    b = VectorField(grid, [0.3 * c for c in band_limited_vector(grid, rng, max_mode=edge).components])
    vel = VelocityCoeffs(basis, 0.3 * rng.standard_normal(n_modes))
    phys = PhysParams(kappa=0.3)
    reg = RegParams(epsilon=0.05, eta=0.01, delta=1e-7, s=1)
    for box in (basis.box, None):
        new = _momentum_force(rho, vel, b, phys, reg, box)
        for a, ref in zip(new, _parent_order_force(rho, vel, b, phys, reg, box)):
            assert np.array_equal(a, ref)


@pytest.mark.parametrize("shape, n_modes", [((128,), 9), ((64, 64), 120), ((32, 32, 32), 27)])
def test_full_window_force_read_at_the_box_is_the_box_force(shape, n_modes):
    # every branch of the force runs; the box kernel keeps the full
    # transform's entries bit for bit, and so does the residual built on it
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4)
    phys = PhysParams(kappa=0.1)
    state = benchmark_state("random_smooth", grid, basis, reg)
    args = (state.rho, state.velocity, state.magnetic, phys, reg)
    full = [f[basis.box_index] for f in _momentum_force(*args, None)]
    for a, b in zip(full, _momentum_force(*args, basis.box)):
        assert np.array_equal(a, b)
    hyper = reg.eta * basis.eigen_k2**2 * state.velocity.values
    assert np.array_equal(momentum_residual(*args), basis.project_force_spectra(full) - hyper)


def _mean_momentum(state):
    return np.array([np.mean(state.rho.values * c) for c in state.u.component_values()])


@pytest.mark.parametrize("shape, n_modes", [((128,), 9), ((32, 32), 60), ((16, 16, 16), 81)])
def test_momentum_is_conserved_per_step(shape, n_modes):
    # with epsilon = delta = 0 every force term is a divergence, and
    # hyperviscosity is zero on the constant modes, so each step keeps
    # mean(rho u) to roundoff; the diffusion correction and capillarity,
    # which are not divergences, move it by 1e-9 and more per step
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    drift = {}
    for eps, delta in ((0.0, 0.0), (1e-2, 1e-4)):
        reg = RegParams(epsilon=eps, eta=1e-3, delta=delta, dt=1e-3)
        means = []
        state = benchmark_state("random_smooth", grid, basis, reg)
        run_simulation(state, PhysParams(kappa=0.1), reg, 20e-3, on_step=lambda step, s, info: means.append(_mean_momentum(s)))
        assert len(means) == 21
        drift[eps] = np.max(np.abs(np.diff(means, axis=0)))
    assert drift[0.0] <= 1e-16
    assert drift[1e-2] >= 1e-10


# --------------------------------------------------------------------------
# coupled stepping


def _benchmark_state(grid, basis, reg, amp=0.3):
    x = grid.mesh[0]
    z = np.zeros(grid.shape)
    rho = ScalarField(grid, 1.5 + amp * np.cos(x))
    u = VectorField.from_arrays(grid, [0.15 * np.sin(x), 0.1 * np.cos(x), z])
    b = VectorField.from_arrays(grid, [z, z, 0.2 * np.sin(x)])
    return initial_state(rho, u, b, basis, reg)


def test_constant_state_is_fixed_point():
    grid, basis = _default_setup()
    phys = PhysParams(kappa=0.2)
    reg = RegParams(epsilon=0.05, eta=0.01, delta=0.01, dt=1e-2)
    rho = ScalarField(grid, np.full(grid.shape, 1.7))
    b = VectorField.from_arrays(
        grid, [np.full(grid.shape, 0.3), np.full(grid.shape, -0.1), np.zeros(grid.shape)]
    )
    state = initial_state(rho, VectorField.zero(grid), b, basis, reg)
    new, info = advance_step(state, phys, reg)
    assert np.max(np.abs(new.rho.values - 1.7)) <= 1e-13
    assert np.max(np.abs(new.velocity.values)) <= 1e-13
    for c_new, c_old in zip(new.magnetic.components, state.magnetic.components):
        assert np.max(np.abs(c_new.values - c_old.values)) <= 1e-13
    assert info.picard_iters <= 3


def test_advance_step_time_reversal():
    # the converged midpoint map is its own inverse under dt -> -dt; the
    # recovery error sits at solver tolerance, far below the dt^3 bound
    grid, basis = _default_setup()
    phys = PhysParams(kappa=0.0)
    reg = RegParams(epsilon=0.0, eta=0.0, delta=0.0, dt=2e-3, picard_tol=1e-13)
    state = _benchmark_state(grid, basis, reg, amp=0.2)
    fwd, _ = advance_step(state, phys, reg)
    back, _ = advance_step(fwd, phys, reg, dt=-reg.dt)
    err = np.max(np.abs(back.rho.values - state.rho.values))
    assert err <= reg.dt**3
    assert np.max(np.abs(back.velocity.values - state.velocity.values)) <= reg.dt**3


def test_picard_divergence_on_absurd_step():
    grid, basis = _default_setup()
    phys = PhysParams()
    reg = RegParams(epsilon=0.0, eta=0.0, delta=0.0, dt=5.0, picard_max_iters=30)
    state = _benchmark_state(grid, basis, reg)
    with pytest.raises((PicardDivergence, MaximumPrincipleViolation, DensityFloorViolation)):
        advance_step(state, phys, reg)


def test_corridor_violation_on_a_density_step():
    # a density jump at rest: the exact spectral heat factor overshoots the
    # jump (Gibbs), so the converged density leaves the corridor by about
    # 1.2e-2 relative
    grid, basis = _default_setup()
    x = grid.mesh[0]
    reg = RegParams(epsilon=0.05, eta=0.0, delta=0.0, dt=1e-2)
    rho = ScalarField(grid, np.where(np.abs(x - np.pi) < 1.0, 2.0, 1.0))
    state = initial_state(rho, VectorField.zero(grid), VectorField.zero(grid), basis, reg)
    with pytest.raises(MaximumPrincipleViolation) as err:
        advance_step(state, PhysParams(kappa=0.0), reg)
    margin = float(str(err.value).split("corridor by ")[1].split()[0])
    assert 1e-2 <= margin <= 1.5e-2


@pytest.mark.parametrize("shape, n_modes", [((64,), 9), ((32, 32), 9), ((16, 16, 16), 27)])
def test_advance_step_returns_the_sweeps_fixed_point(shape, n_modes):
    # the loop stops on the joint relative update, so one more density sweep
    # and one more magnetic sweep at the returned midpoint move nothing
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    # rho stays below the threshold, so the resistivity varies in space; its
    # size makes the magnetic sweep the slowest of the three to converge
    phys = PhysParams(kappa=0.3, resistivity=ResistivityParams(d0=10.0, threshold=2.0))
    reg = RegParams(epsilon=0.02, eta=0.01, delta=1e-4, dt=1e-3)
    state = benchmark_state("random_smooth", grid, basis, reg, seed=0)
    new, _ = advance_step(state, phys, reg)

    u_mid = VelocityCoeffs(basis, 0.5 * (state.velocity.values + new.velocity.values)).field
    rho = solve_density_step(state.rho, u_mid, reg.epsilon, reg.dt, guess=new.rho)
    rho_mid = ScalarField(grid, 0.5 * (state.rho.values + new.rho.values))
    b_mid = _magnetic_midpoint(state.magnetic, new.magnetic)
    b = solve_magnetic_step(state.magnetic, u_mid, rho_mid, reg.dt, phys, mid=b_mid)

    def norm(arrays):
        return np.sqrt(sum(np.sum(a**2) for a in arrays))

    assert norm([rho.values - new.rho.values]) <= 10 * reg.picard_tol * norm([new.rho.values])
    b_new = new.magnetic.component_values()
    moved = [a - c for a, c in zip(b.component_values(), b_new)]
    assert norm(moved) <= 10 * reg.picard_tol * norm(b_new)


def test_low_density_step_converges_where_inner_loops_stalled():
    # rho = 1 + 0.6 cos x reaches 0.4, where nu_b = rho^-2 is 6.25 against a
    # mean near 2; at dt = 1e-3 an inner magnetic loop capped at 24
    # iterations stalled, while the one per-step loop converges
    grid, basis = _default_setup(nx=128)
    x = grid.mesh[0]
    z = np.zeros(grid.shape)
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, dt=1e-3)
    state = initial_state(
        ScalarField(grid, 1.0 + 0.6 * np.cos(x)),
        VectorField.from_arrays(grid, [0.3 * np.sin(x), 0.2 * np.cos(x), z]),
        VectorField.from_arrays(grid, [z, 0.5 * np.cos(x), 0.4 * np.sin(x)]),
        basis,
        reg,
    )
    traj, infos = run_with_infos(state, phys, reg, 20 * reg.dt)
    assert len(infos) == 20
    mass0 = traj.states[0].mass
    assert abs(traj.final_state.mass - mass0) <= 1e-10 * mass0
    assert all(i.div_b_norm <= 1e-12 for i in infos)
    assert all(i.corridor_margin <= 1e-8 for i in infos)


# the near-vacuum frontier (ROADMAP item 1's probe): one cell per density
# amplitude a, rho_min = 1 - a, and step dt.  Every cell that fails today
# raises PicardDivergence and is a strict xfail, so a change that moves the
# frontier drops the marks of the cells it turns into passes.  a = 0.7 at
# dt = 1e-3 and 5e-4 stops at the 50-iteration cap while still contracting;
# a >= 0.8 stops on the ratio rule, with the update largest in B
NEAR_VACUUM_FAILS = pytest.mark.xfail(
    strict=True, raises=PicardDivergence, reason="the magnetic sweep stops contracting at low density"
)
PROBE_CELLS = [
    pytest.param(a, dt, marks=NEAR_VACUUM_FAILS) if a >= 0.8 or (a == 0.7 and dt > 2.5e-4) else (a, dt)
    for a in (0.6, 0.7, 0.8, 0.9, 0.95)
    for dt in (1e-3, 5e-4, 2.5e-4)
]


@pytest.mark.parametrize("a, dt", PROBE_CELLS)
def test_low_density_probe_runs_forty_steps(a, dt):
    grid, basis = _default_setup(nx=128)
    x = grid.mesh[0]
    z = np.zeros(grid.shape)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, dt=dt)
    state = initial_state(
        ScalarField(grid, 1.0 + a * np.cos(x)),
        VectorField.from_arrays(grid, [0.3 * np.sin(x), 0.2 * np.cos(x), z]),
        VectorField.from_arrays(grid, [z, 0.5 * np.cos(x), 0.4 * np.sin(x)]),
        basis,
        reg,
    )
    traj = run_simulation(state, PhysParams(kappa=0.1), reg, 40 * dt)
    assert traj.final_state.time == pytest.approx(40 * dt)


def test_run_memory_does_not_grow_with_its_step_count():
    # a run keeps running totals of its steps' counts: sampled only at its
    # ends, a run of 400 steps holds no more than one of 100
    import gc
    import tracemalloc

    grid, basis = _default_setup(n_modes=3, nx=16)
    phys, reg = PhysParams(), RegParams(dt=1e-3)
    state = _benchmark_state(grid, basis, reg)

    def held(nsteps):
        tracemalloc.start()
        try:
            traj = run_simulation(state, phys, reg, nsteps * reg.dt, sample_every=nsteps)
            assert len(traj.states) == 2
            # freed objects that CPython's free lists still hold are not held by the run
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    run_simulation(state, phys, reg, 100 * reg.dt, sample_every=100)  # warms the caches
    assert held(400) - held(100) <= 4096


def _stepped_from_the_line(state, phys, reg, nsteps):
    """``nsteps`` steps by hand, each started from ``2 x_n - x_(n-1)``: the
    history cut to the one level before."""
    infos, before = [], []
    for _ in range(nsteps):
        new, info = advance_step(state, phys, reg, history=before)
        before, state = [state], new
        infos.append(info)
    return state, infos


def test_low_density_start_takes_no_more_iterations_than_the_line():
    # the probe of the stiff low-density regime, 40 steps: a run takes no
    # more iterations than starting each step from the line through the
    # level before, and fewer full sweeps
    grid, basis = _default_setup(nx=128)
    x = grid.mesh[0]
    z = np.zeros(grid.shape)
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, dt=1e-3)
    state = initial_state(
        ScalarField(grid, 1.0 + 0.6 * np.cos(x)),
        VectorField.from_arrays(grid, [0.3 * np.sin(x), 0.2 * np.cos(x), z]),
        VectorField.from_arrays(grid, [z, 0.5 * np.cos(x), 0.4 * np.sin(x)]),
        basis,
        reg,
    )
    traj = run_simulation(state, phys, reg, 40 * reg.dt)
    _, line = _stepped_from_the_line(state, phys, reg, 40)
    assert traj.picard_iters <= sum(i.picard_iters for i in line)
    assert traj.full_sweeps < sum(i.full_sweeps for i in line)


def test_a_force_free_decay_is_started_at_its_fixed_point():
    # B = 0.3 (0, cos 3x, sin 3x) has curl B = -3 B, so at rest and at a
    # uniform density above the nu_b threshold it only decays, by exactly the
    # factor the magnetic sweep integrates: B's start in the frame of that
    # decay is the step's fixed point, and every step takes one iteration
    grid, basis = _default_setup()
    x = grid.mesh[0]
    z = np.zeros(grid.shape)
    phys, reg = _benchmark_physics()
    b0 = [z, 0.3 * np.cos(3 * x), 0.3 * np.sin(3 * x)]
    state = initial_state(
        ScalarField(grid, np.full(grid.shape, 1.5)),
        VectorField.from_arrays(grid, [z, z, z]),
        VectorField.from_arrays(grid, b0),
        basis,
        reg,
    )
    traj, infos = run_with_infos(state, phys, reg, 8 * reg.dt)
    assert [i.picard_iters for i in infos] == [1] * 8
    assert max(i.update_norms[0] for i in infos) <= 1e-11
    decay = np.exp(-float(magnetic_diffusivity(1.5, phys)) * 9 * traj.final_state.time)
    b = traj.final_state.magnetic.component_values()
    assert max(np.max(np.abs(c - decay * c0)) for c, c0 in zip(b, b0)) <= 1e-14


def test_a_kappa_rung_takes_at_most_140_iterations():
    # the first rung of the benchmark's kappa ladder: 1D 128, 9 modes,
    # random_smooth, 50 steps; started in the frame of its exact diffusion, a
    # steady step needs one full sweep and one magnetic-only sweep
    grid, basis = _default_setup(nx=128)
    _, reg = _benchmark_physics()
    state = benchmark_state("random_smooth", grid, basis, reg, seed=0)
    traj = run_simulation(state, PhysParams(kappa=0.2), reg, 50 * reg.dt)
    assert traj.picard_iters <= 140


def test_div_norm_is_the_l2_norm_of_the_divergence(rng):
    # StepInfo.div_b_norm reads div B off B's spectra by Parseval
    for shape in ((64,), (32, 32), (16, 16, 16)):
        v = band_limited_vector(TorusGrid(shape), rng)
        ref = l2_norm(divergence(v))
        assert abs(_div_norm(v) - ref) <= 1e-13 * ref


def test_run_simulation_zero_steps():
    grid, basis = _default_setup()
    phys, reg = PhysParams(), RegParams(dt=1e-3)
    state = _benchmark_state(grid, basis, reg)
    # the one sample is the initial state's held form: its time, lambda,
    # rho and B's spectra
    traj = run_simulation(state, phys, reg, 0.0)
    final = traj.final_state
    assert len(traj.states) == 1 and final.time == state.time
    assert np.array_equal(final.velocity.values, state.velocity.values)
    assert final.rho is state.rho
    assert all(h._spectrum is c._spectrum for h, c in zip(final.magnetic.components, state.magnetic.components))


def test_run_simulation_invariants_and_determinism():
    grid, basis = _default_setup()
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=0.02, eta=1e-3, delta=1e-3, dt=1e-3, picard_tol=1e-12)

    def one_run():
        return run_with_infos(_benchmark_state(grid, basis, reg), phys, reg, 0.05)

    (t1, infos), (t2, _) = one_run(), one_run()
    mass0 = t1.states[0].mass
    assert abs(t1.final_state.mass - mass0) <= 1e-10 * mass0
    assert all(i.div_b_norm <= 1e-12 for i in infos)
    assert all(i.corridor_margin <= 1e-8 for i in infos)
    assert t1.max_contraction_ratio < 1.0
    for s1, s2 in zip(t1.states, t2.states):
        assert np.array_equal(s1.rho.values, s2.rho.values)
        assert np.array_equal(s1.velocity.values, s2.velocity.values)


def test_one_mass_operator_per_picard_iteration(monkeypatch):
    # each full sweep factors one velocity system, a magnetic-only iteration
    # reuses it, and only the levels before are handed from one step to the next
    grid, basis = _default_setup()
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=0.02, eta=1e-3, delta=1e-3, dt=1e-3)
    fresh = run_simulation(_benchmark_state(grid, basis, reg), phys, reg, 0.003)

    built = []
    init = MassOperator.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MassOperator, "__init__", counting)
    traj = run_simulation(_benchmark_state(grid, basis, reg), phys, reg, 0.003)
    assert len(traj.states) == 1 + 3
    assert len(built) == traj.full_sweeps
    # stepping states built afresh, each with the levels before, gives the
    # same run, bit for bit
    state, history = traj.states[0], []
    for s in fresh.states[1:]:
        afresh = State(state.time, state.rho, state.velocity, state.magnetic)
        state, _ = advance_step(afresh, phys, reg, history=history)
        history = [afresh, *history]
        assert np.array_equal(state.rho.values, s.rho.values)
        assert np.array_equal(state.velocity.values, s.velocity.values)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(state.magnetic.components, s.magnetic.components))


def _benchmark_physics():
    return PhysParams(kappa=0.1), RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, dt=1e-3)


def _relative_distance(a: State, b: State) -> float:
    """Largest relative l2 distance of lambda, rho and B between two states."""
    pairs = [([a.velocity.values], [b.velocity.values]), ([a.rho.values], [b.rho.values]),
             (a.magnetic.component_values(), b.magnetic.component_values())]
    return max(
        np.sqrt(sum(np.sum((x - y) ** 2) for x, y in zip(xs, ys))) / np.sqrt(sum(np.sum(y**2) for y in ys))
        for xs, ys in pairs
    )


@pytest.mark.parametrize("shape, n_modes", [((64,), 9), ((32, 32), 60), ((16, 16, 16), 27)])
def test_extrapolated_start_reaches_the_step_of_a_fresh_start(shape, n_modes):
    # the levels before are a starting guess only: a run, which starts each
    # step from their extrapolation, ends where stepping from x_n ends, to the
    # fixed-point tolerance
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    phys, reg = _benchmark_physics()
    state = benchmark_state("density_bump", grid, basis, reg, seed=0)
    traj = run_simulation(state, phys, reg, 5 * reg.dt)
    for _ in range(5):
        state, _ = advance_step(state, phys, reg)
    assert _relative_distance(traj.final_state, state) <= 1e-9


def test_higher_order_start_moves_no_fixed_point_and_saves_full_sweeps():
    # a run starts each step from the polynomial through up to five levels
    # before; it ends where starting from the line through the level before
    # ends, to the fixed-point tolerance, after fewer full sweeps
    grid = TorusGrid((32, 32))
    basis = GalerkinBasis.lowest_modes(grid, 60)
    phys, reg = _benchmark_physics()
    state = benchmark_state("random_smooth", grid, basis, reg, seed=0)
    traj = run_simulation(state, phys, reg, 12 * reg.dt)
    line, line_infos = _stepped_from_the_line(state, phys, reg, 12)
    assert _relative_distance(traj.final_state, line) <= 1e-9
    assert traj.full_sweeps < sum(i.full_sweeps for i in line_infos)
    # the second step sees one level before, so a two-step run is the line's
    two = run_simulation(state, phys, reg, 2 * reg.dt).final_state
    line, _ = _stepped_from_the_line(state, phys, reg, 2)
    assert np.array_equal(two.rho.values, line.rho.values)
    assert np.array_equal(two.velocity.values, line.velocity.values)
    assert all(np.array_equal(a, b) for a, b in zip(two.magnetic.component_values(), line.magnetic.component_values()))


def _polynomial_levels(degree, rng, h=0.05, n=9):
    """Samples at t = 0, h, ..., 6h of a degree-``degree`` polynomial in time
    with random vector coefficients, most recent first."""
    coef = rng.standard_normal((degree + 1, n))
    return [sum(c * (t * h) ** k for k, c in enumerate(coef)) for t in range(6, -1, -1)]


def test_the_start_order_rises_while_the_differences_fall_above_picard_tol(rng):
    tol = 1e-10
    # the six levels before the last sample of a quintic: nabla^4 and nabla^5
    # lie far above tol |lambda_n| and fall, so the start is the quintic, which
    # reproduces the last sample to roundoff
    nxt, *levels = _polynomial_levels(5, rng)
    assert _start_order(levels, tol) == 5
    assert np.max(np.abs(_extrapolate(levels) - nxt)) <= 1e-13 * np.max(np.abs(nxt))
    # five levels allow the quartic at most
    assert _start_order(levels[:5], tol) == 4
    # a quartic's nabla^5 is roundoff, below tol |lambda_n|: the quartic
    nxt, *levels = _polynomial_levels(4, rng)
    assert _start_order(levels, tol) == 4
    assert np.max(np.abs(_extrapolate(levels[:5]) - nxt)) <= 1e-13 * np.max(np.abs(nxt))
    # levels that differ by roundoff, or by noise whose differences grow with
    # their order, keep the cubic
    base = rng.standard_normal(9)
    for noise in (1e-16, 1e-6):
        levels = [base + noise * rng.standard_normal(9) for _ in range(6)]
        assert _start_order(levels, tol) == 3


def test_a_steady_step_takes_one_full_sweep():
    # 2D 32^2, 60 modes: from the fifth step on the levels before hold
    # nabla^4 lambda_n above picard_tol, so the start rises past the cubic,
    # whose first velocity update of about 3e-9 would cost a second full sweep
    grid = TorusGrid((32, 32))
    basis = GalerkinBasis.lowest_modes(grid, 60)
    phys, reg = _benchmark_physics()
    state = benchmark_state("random_smooth", grid, basis, reg, seed=0)
    _, infos = run_with_infos(state, phys, reg, 12 * reg.dt)
    assert [i.full_sweeps for i in infos[4:]] == [1] * 8


@pytest.mark.parametrize("held", [0, 1, 2, 3])
def test_a_start_from_at_most_three_levels_before_is_the_polynomial_through_all(monkeypatch, held):
    # with three levels before or fewer, lambda and rho start from the
    # polynomial through all of them and x_n, weights 1; 2, -1; 3, -3, 1;
    # 4, -6, 4, -1, summed in that order
    import qmhd.solver as solver

    grid = TorusGrid((32, 32))
    basis = GalerkinBasis.lowest_modes(grid, 60)
    phys, reg = _benchmark_physics()
    states = [benchmark_state("random_smooth", grid, basis, reg, seed=0)]
    for _ in range(held):
        states.append(advance_step(states[-1], phys, reg, history=states[-2::-1])[0])
    state, history = states[-1], states[-2::-1]

    def polynomial(levels):
        weights = {1: [1], 2: [2, -1], 3: [3, -3, 1], 4: [4, -6, 4, -1]}[len(levels)]
        out = weights[0] * levels[0]
        for w, level in zip(weights[1:], levels[1:]):
            out += w * level
        return out

    seen = {}
    density_step, coeffs = solver.solve_density_step, solver.VelocityCoeffs

    def density(*args, guess, **kwargs):
        seen.setdefault("rho_spectrum", guess._spectrum)
        seen.setdefault("rho", guess.values)
        return density_step(*args, guess=guess, **kwargs)

    def velocity(basis, values):
        seen.setdefault("lam_mid", values)
        return coeffs(basis, values)

    monkeypatch.setattr(solver, "solve_density_step", density)
    monkeypatch.setattr(solver, "VelocityCoeffs", velocity)
    advance_step(state, phys, reg, history=history)
    levels = [state, *history]
    lam_start = polynomial([s.velocity.values for s in levels])
    assert np.array_equal(seen["lam_mid"], 0.5 * (state.velocity.values + lam_start))
    assert np.array_equal(seen["rho"], polynomial([s.rho.values for s in levels]))
    # the density sweep reads only the guess's samples, so the start forms no spectrum
    assert seen["rho_spectrum"] is None


def test_magnetic_only_iterations_redo_the_sweep_and_the_lorentz_force_alone(monkeypatch):
    import qmhd.solver as solver

    grid = TorusGrid((16, 16, 16))
    basis = GalerkinBasis.lowest_modes(grid, 27)
    phys, reg = _benchmark_physics()
    state = benchmark_state("density_bump", grid, basis, reg, seed=0)
    counts = count_transforms(monkeypatch)
    # each event: its name and the transforms made before it
    events = []

    def at_entry(name, fn):
        def traced(*args, **kwargs):
            events.append((name, counts.copy()))
            return fn(*args, **kwargs)

        return traced

    for name in ("solve_magnetic_step", "momentum_residual"):
        monkeypatch.setattr(solver, name, at_entry(name, getattr(solver, name)))
    lorentz = solver._lorentz_entries

    def lorentz_at_exit(*args):
        out = lorentz(*args)
        events.append(("lorentz", counts.copy()))
        return out

    monkeypatch.setattr(solver, "_lorentz_entries", lorentz_at_exit)
    built = []
    init = MassOperator.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MassOperator, "__init__", counting)
    traj = run_simulation(state, phys, reg, 3 * reg.dt)

    full = traj.full_sweeps
    assert full < traj.picard_iters
    assert len(built) == full
    assert [name for name, _ in events].count("momentum_residual") == full
    # a magnetic-only iteration runs from its sweep to its Lorentz force with
    # nothing between: 3 full forwards in the sweep, 3 full inverses for B
    # and 3 for the curl of the midpoint field, 3 box forwards for the force
    windows = [
        after - before
        for (name, before), (next_name, after) in zip(events, events[1:])
        if name == "solve_magnetic_step" and next_name == "lorentz"
    ]
    assert windows == [transform_counts(backward_full=6, forward_full=3, forward_box=3)] * (
        traj.picard_iters - full
    )


def test_a_velocity_update_after_the_freeze_resumes_full_sweeps(monkeypatch):
    # no state was found whose Lorentz force moves lambda by more than
    # picard_tol once density and velocity have converged (their updates
    # contract with B's), so the velocity update of the first magnetic-only
    # iteration is reported as 10 picard_tol instead: the loop then sweeps
    # the density, the force and the velocity system afresh, and still
    # returns the step's fixed point
    import qmhd.solver as solver

    grid = TorusGrid((16, 16, 16))
    basis = GalerkinBasis.lowest_modes(grid, 27)
    phys, reg = _benchmark_physics()
    state = benchmark_state("density_bump", grid, basis, reg, seed=0)
    plain, plain_info = advance_step(state, phys, reg)
    assert plain_info.full_sweeps < plain_info.picard_iters

    calls = []
    density, lorentz, update = solver.solve_density_step, solver._lorentz_entries, solver._relative_update

    def traced_density(*args, **kwargs):
        calls.append("density")
        return density(*args, **kwargs)

    def traced_lorentz(*args):
        calls.append("lorentz")
        return lorentz(*args)

    def raised_update(new, old):
        calls.append("update")
        out = update(new, old)
        # the freeze forms the first Lorentz force, and a magnetic-only
        # iteration measures its velocity update right after its own
        if calls.count("lorentz") == 2 and calls[-2] == "lorentz":
            return max(out, 10 * reg.picard_tol)
        return out

    monkeypatch.setattr(solver, "solve_density_step", traced_density)
    monkeypatch.setattr(solver, "_lorentz_entries", traced_lorentz)
    monkeypatch.setattr(solver, "_relative_update", raised_update)
    new, info = advance_step(state, phys, reg)
    second = [i for i, c in enumerate(calls) if c == "lorentz"][1]
    assert calls[second:].index("density") == 2
    assert info.full_sweeps > plain_info.full_sweeps
    assert _relative_distance(new, plain) <= 1e-9


def test_a_return_to_full_sweeps_is_not_read_as_divergence(monkeypatch):
    # a kept force shifted by half the Lorentz entries' norm makes the first
    # magnetic-only iteration jump (ratio > 1), and the full sweep that
    # undoes the jump moves lambda by about as much again (ratio ~ 1): the
    # two ratios compare different maps, and the step still converges to its
    # fixed point.  The freeze comes while B still moves by about 4e-7, so
    # the shift must move lambda by more than that to make a jump
    import qmhd.solver as solver

    grid = TorusGrid((16, 16, 16))
    basis = GalerkinBasis.lowest_modes(grid, 27)
    phys, reg = _benchmark_physics()
    state = benchmark_state("density_bump", grid, basis, reg, seed=0)
    plain, _ = advance_step(state, phys, reg)
    lorentz = solver._lorentz_entries
    calls = []

    def shifted_at_the_freeze(*args):
        out = lorentz(*args)
        calls.append(1)
        return out - 0.5 * np.linalg.norm(out) if len(calls) == 1 else out

    monkeypatch.setattr(solver, "_lorentz_entries", shifted_at_the_freeze)
    new, info = advance_step(state, phys, reg)
    assert max(info.contraction_ratios) > 1.0
    assert info.full_sweeps < info.picard_iters
    assert _relative_distance(new, plain) <= 1e-12


def test_picard_divergence_names_the_last_update_and_the_tolerance():
    grid, basis = _default_setup()
    phys, reg = _benchmark_physics()
    reg = RegParams(epsilon=reg.epsilon, eta=reg.eta, delta=reg.delta, dt=reg.dt, picard_max_iters=2)
    with pytest.raises(PicardDivergence, match=r"in 2 iterations \(last update \S+, picard_tol 1e-10\)") as failure:
        advance_step(_benchmark_state(grid, basis, reg), phys, reg)
    assert str(failure.value).endswith("), largest in the magnetic field; halve dt")


def test_a_step_reads_the_gram_matrix_only_as_blocks(monkeypatch):
    # the old-level product M[rho_old] lambda_old is formed block by block
    grid, basis = _default_setup()
    phys, reg = _benchmark_physics()
    state = _benchmark_state(grid, basis, reg)
    expected = basis.gram(state.rho) @ state.velocity.values

    def refused(self, rho):
        raise AssertionError("the n x n Gram matrix was assembled inside a step")

    monkeypatch.setattr(GalerkinBasis, "gram", refused)
    blocks = basis.apply_blocks(basis.gram_blocks(state.rho), state.velocity.values)
    assert np.linalg.norm(blocks - expected) <= 1e-14 * np.linalg.norm(expected)
    run_simulation(state, phys, reg, 2 * reg.dt)


@pytest.mark.parametrize("eta", [0.0, 0.01])
def test_step_satisfies_unshifted_velocity_equation(eta):
    # the hyperviscous shift and the mean-density viscous shift sit on both
    # sides of the velocity system, so the converged step solves
    # M[rho_new] lam_new - M[rho_old] lam_old = h N(mid)
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=0.02, eta=eta, delta=1e-4, dt=1e-3, picard_tol=1e-10)
    for shape, n in [((64,), 9), ((32, 32), 60), ((16, 16, 16), 27)]:
        grid = TorusGrid(shape)
        basis = GalerkinBasis.lowest_modes(grid, n)
        old = benchmark_state("random_smooth", grid, basis, reg)
        new, _ = advance_step(old, phys, reg)

        def mid(a, b):
            return ScalarField(grid, 0.5 * (a.values + b.values))

        b_mid = VectorField(grid, [mid(a, b) for a, b in zip(old.magnetic.components, new.magnetic.components)])
        vel_mid = VelocityCoeffs(basis, 0.5 * (old.velocity.values + new.velocity.values))
        n_mid = momentum_residual(mid(old.rho, new.rho), vel_mid, b_mid, phys, reg)
        lhs = basis.gram(new.rho) @ new.velocity.values
        defect = lhs - basis.gram(old.rho) @ old.velocity.values - reg.dt * n_mid
        assert np.linalg.norm(defect) <= reg.picard_tol * np.linalg.norm(lhs), shape


@pytest.mark.parametrize("shape, n_modes", [((32,), 9), ((16, 16), 40), ((8, 8, 8), 81)])
def test_the_velocity_shift_is_the_viscous_diagonal_at_the_mean_density(shape, n_modes):
    # at a constant density rho_bar, with no field and no regularization, the
    # odd part of the residual in one mode's coefficient drops convection, and
    # the density has no pressure gradient: what is left is the viscous
    # stress, -rho_bar (|k|^2 + k_c^2) on the diagonal, the implicit part of
    # the step's velocity system
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    rho_bar, t = 1.7, 0.5
    rho = ScalarField(grid, np.full(grid.shape, rho_bar))
    phys, reg = PhysParams(kappa=0.0), RegParams()
    diagonal = np.empty(basis.n)
    for i in range(basis.n):
        coeffs = np.zeros(basis.n)
        coeffs[i] = t
        plus, minus = (
            momentum_residual(rho, VelocityCoeffs(basis, sign * coeffs), VectorField.zero(grid), phys, reg)[i]
            for sign in (1.0, -1.0)
        )
        diagonal[i] = (plus - minus) / (2.0 * t)
    expected = -rho_bar * basis.viscous_k2
    assert np.max(np.abs(diagonal - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_a_3d_step_takes_three_full_sweeps():
    # 16^3, 27 modes: with the mean-density viscous stress implicit, lambda
    # converges with rho, and each of the first two steps takes 3 full sweeps
    # (5 and 4 with the hyperviscous shift alone), in 6 and 5 iterations
    grid = TorusGrid((16, 16, 16))
    basis = GalerkinBasis.lowest_modes(grid, 27)
    phys, reg = _benchmark_physics()
    state = benchmark_state("density_bump", grid, basis, reg, seed=0)
    _, infos = run_with_infos(state, phys, reg, 2 * reg.dt)
    assert [(i.picard_iters, i.full_sweeps) for i in infos] == [(6, 3), (5, 3)]


def test_the_step_record_shows_b_alone_moving_in_magnetic_only_iterations():
    # the setup of the test above: after the switch the density sweep is kept,
    # so its update is exactly 0, the velocity stays converged and B moves
    grid = TorusGrid((16, 16, 16))
    basis = GalerkinBasis.lowest_modes(grid, 27)
    phys, reg = _benchmark_physics()
    _, info = advance_step(benchmark_state("density_bump", grid, basis, reg, seed=0), phys, reg)
    magnetic_only = info.updates[info.full_sweeps:]
    assert magnetic_only
    lam_upd, rho_upd, _ = info.updates[info.full_sweeps - 1]
    assert max(lam_upd, rho_upd) <= reg.picard_tol
    for lam_upd, rho_upd, b_upd in magnetic_only:
        assert rho_upd == 0.0
        assert lam_upd <= reg.picard_tol and b_upd > 0.0
    norms = [max(u) for u in info.updates]
    assert info.update_norms == norms
    assert info.contraction_ratios == [b / a for a, b in zip(norms, norms[1:])]


def test_a_run_keeps_the_velocity_as_samples_and_box_blocks():
    # the velocity's one Fourier form is its box blocks: no reconstructed
    # component of a level holds a spectrum, and the blocks are the box of
    # the transform of the samples
    from qmhd.fields import _forward

    grid = TorusGrid((16, 16, 16))
    basis = GalerkinBasis.lowest_modes(grid, 27)
    phys, reg = _benchmark_physics()
    state = benchmark_state("density_bump", grid, basis, reg, seed=0)
    history = []
    for _ in range(2):
        new, _ = advance_step(state, phys, reg, history=history)
        history = [state, *history]
        state = new
    for level in (state, *history):
        assert all(c._spectrum is None for c in level.u.components)
        block = np.stack([_forward(c.values, grid, basis.box) for c in level.u.components])
        assert np.max(np.abs(level.velocity.spectra - block)) <= 1e-13 * np.max(np.abs(block))


def test_history_keeps_b_only_on_the_levels_a_start_reads(monkeypatch):
    # B's start reads the first three levels before the current one, lambda
    # and rho's up to five: after six steps three of the five levels hold B,
    # and the run is bitwise the one whose levels are whole states
    import qmhd.solver as solver

    grid = TorusGrid((16, 16, 16))
    basis = GalerkinBasis.lowest_modes(grid, 27)
    phys, reg = _benchmark_physics()
    start = benchmark_state("density_bump", grid, basis, reg, seed=0)
    state, history = start, []
    for _ in range(6):
        new, _ = advance_step(state, phys, reg, history=history)
        history = [state, *history][:5]
        state = new

    advance, with_b = solver.advance_step, []

    def recorded(state, phys, reg, *, history):
        with_b.append([level.magnetic is not None for level in history])
        return advance(state, phys, reg, history=history)

    monkeypatch.setattr(solver, "advance_step", recorded)
    final = run_simulation(start, phys, reg, 6 * reg.dt, sample_every=6).final_state
    assert with_b == [[True] * min(i, 3) + [False] * max(i - 3, 0) for i in range(6)]
    assert np.array_equal(final.velocity.values, state.velocity.values)
    assert np.array_equal(final.rho.values, state.rho.values)
    for a, b in zip(final.magnetic.components, state.magnetic.components):
        assert np.array_equal(a.spectrum, b.spectrum)


# the working set of the second step of a 16^3, 27-mode density_bump run at
# the benchmark physics, in grid arrays (tracemalloc's peak above what was
# live at the call): 44.3 when each iteration held the magnetic midpoint's
# spectra, the sweep's source and curl spectra until its projection, and the
# force its capillary spectrum and last diffusion-correction term through
# the body force and its sqrt(rho) spectrum through the stress loop; 39.6
# when each is freed after its last reader; 34.5 when the step holds B as
# spectra (the new level held samples too), the force symmetrizes the
# strain before capillarity and frees each diffusion-correction term and
# P(rho u_j) before the next is formed
STEP_ARRAYS = 35.5


def test_a_3d_step_holds_only_what_its_next_reader_needs():
    grid = TorusGrid((16, 16, 16))
    basis = GalerkinBasis.lowest_modes(grid, 27)
    phys, reg = _benchmark_physics()
    state = benchmark_state("density_bump", grid, basis, reg, seed=0)
    first, _ = advance_step(state, phys, reg)
    (_, info), peak = transient_peak(advance_step, first, phys, reg, history=[state])
    assert info.picard_iters > info.full_sweeps
    assert peak <= STEP_ARRAYS * grid.num_points * 8


def _sampled_16_cubed():
    """A 16^3, 27-mode density_bump start at the benchmark physics."""
    grid = TorusGrid((16, 16, 16))
    phys, reg = _benchmark_physics()
    return benchmark_state("density_bump", grid, GalerkinBasis.lowest_modes(grid, 27), reg, seed=0), phys, reg


def test_a_step_holds_b_as_spectra_and_its_start_makes_no_transform(monkeypatch):
    # a step reads only its levels' spectra of B, starts B as spectra and
    # returns B as spectra only, the form a held state keeps
    state, phys, reg = _sampled_16_cubed()
    first, _ = advance_step(state, phys, reg)
    new, _ = advance_step(first, phys, reg, history=[state])
    for s in (state, first, new):
        assert all(c._values is None and c._spectrum is not None for c in s.magnetic.components)
    counts = count_transforms(monkeypatch)
    start = _magnetic_start([new, first, state], phys, reg.dt)
    assert counts.total() == 0
    assert all(c._values is None for c in start.components)


def test_a_sampled_state_holds_b_as_spectra_and_no_velocity_samples():
    # a run samples each state in its held form: B as spectra only, whose
    # samples are the inverse transforms a reader derives, and a velocity
    # with no cached samples
    state, phys, reg = _sampled_16_cubed()
    traj = run_simulation(state, phys, reg, 3 * reg.dt)
    assert len(traj.states) == 4
    for s in traj.states:
        assert all(c._values is None and c._spectrum is not None for c in s.magnetic.components)
        assert "field" not in s.velocity.__dict__


# the bytes a run sampled at every step leaves live, per sampled state, in
# grid arrays, on the 16^3 start above over six steps: a held sample keeps
# rho's samples (1) and spectrum (1.125 at 16^3) and B's spectra (3.375),
# 5.5 arrays, less on the initial sample, whose samples predate the run;
# 4.77 measured, and 7.35 when each sample was the step's whole state,
# B's samples included
HELD_ARRAYS = 6


def test_a_run_holds_only_the_held_form_of_each_sample():
    state, phys, reg = _sampled_16_cubed()
    run_simulation(state, phys, reg, 2 * reg.dt)  # warms the caches
    traj, held = left_live(run_simulation, state, phys, reg, 6 * reg.dt)
    assert len(traj.states) == 7
    assert held <= HELD_ARRAYS * len(traj.states) * state.rho.grid.num_points * 8


def test_residual_inside_a_step_reuses_the_level_spectra(monkeypatch):
    # the midpoint density and magnetic field average both levels' spectra,
    # and the step hands the residual the curl of the midpoint field, so every
    # residual call of a step, one per full sweep, costs the transforms of
    # test_momentum_residual_transform_count_independent_of_mode_count less
    # the inverses for curl B; each iteration makes those once, shared with
    # the next magnetic sweep, whose own transforms are its forwards of the
    # right-hand-side components the curl reads: y and z in 1D, all three
    # in 2D and 3D
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, dt=1e-3)
    counts = count_transforms(monkeypatch)
    per_call = {momentum_residual: [], solve_magnetic_step: []}

    def counting(fn):
        def counted(*args, **kwargs):
            before = counts.copy()
            out = fn(*args, **kwargs)
            per_call[fn].append(counts - before)
            return out

        return counted

    for fn in per_call:
        monkeypatch.setattr(f"qmhd.solver.{fn.__name__}", counting(fn))
    for shape, n in [((64,), 9), ((32, 32), 60), ((16, 16, 16), 27)]:
        grid = TorusGrid(shape)
        basis = GalerkinBasis.lowest_modes(grid, n)
        for calls in per_call.values():
            calls.clear()
        _, info = advance_step(benchmark_state("random_smooth", grid, basis, reg), phys, reg)
        residual = _residual_counts(grid.dim, curl_given=True)
        assert per_call[momentum_residual] == [residual] * info.full_sweeps, shape
        sweep = transform_counts(forward_full=2 if grid.dim == 1 else 3)
        assert per_call[solve_magnetic_step] == [sweep] * info.picard_iters, shape


@pytest.mark.parametrize("shape", [(32,), (16, 8), (8, 8, 8)])
def test_heat_factors_are_bitwise_the_exponentials(shape):
    # the magnetic start reads only the full-step factor, which it forms alone
    grid = TorusGrid(shape)
    k2 = grid.k_squared
    for coef, dt in [(0.02, 1e-3), (1e-3, 2.5e-4), (0.7, 0.01)]:
        full, half = _heat_factors(grid, coef, dt)
        assert full.tobytes() == np.exp(-coef * dt * k2).tobytes()
        assert half.tobytes() == np.exp(-0.5 * coef * dt * k2).tobytes()
        assert _heat_factor(grid, coef, dt).tobytes() == full.tobytes()


def test_factor_cache_bounded_over_run():
    # the magnetic mean diffusivity changes on every Picard iteration; only
    # the constant density factors may be cached
    grid, basis = _default_setup()
    # rho stays below the threshold, so nu_b(rho) and its mean vary
    phys = PhysParams(kappa=0.1, resistivity=ResistivityParams(threshold=2.0))
    reg = RegParams(epsilon=0.02, eta=1e-3, dt=1e-3)
    _density_factors.cache_clear()
    traj = run_simulation(_benchmark_state(grid, basis, reg), phys, reg, 0.01)
    assert len(traj.states) == 1 + 10
    info = _density_factors.cache_info()
    assert info.currsize == 1 and info.misses == 1


def test_run_simulation_requires_integer_steps():
    grid, basis = _default_setup()
    phys, reg = PhysParams(), RegParams(dt=1e-3)
    state = _benchmark_state(grid, basis, reg)
    with pytest.raises(ValueError):
        run_simulation(state, phys, reg, 0.0015)


def test_run_simulation_samples_end_at_t_end():
    # a cadence that does not divide the step count would leave the last
    # sample short of t_end, so it is refused
    grid, basis = _default_setup()
    phys, reg = PhysParams(), RegParams(dt=1e-3)
    state = _benchmark_state(grid, basis, reg)
    for every in (0, 4):
        with pytest.raises(ValueError, match=f"sampling cadence {every}$"):
            run_simulation(state, phys, reg, 0.006, sample_every=every)
    seen = []
    traj = run_simulation(state, phys, reg, 0.006, sample_every=3, on_step=lambda *call: seen.append(call))
    # the hook sees the initial state and every step's state, sampled or not
    assert [step for step, _, _ in seen] == list(range(7))
    assert seen[0][2] is None
    # the trajectory's totals are those of the infos the hook sees
    infos = [info for _, _, info in seen[1:]]
    assert (traj.picard_iters, traj.full_sweeps) == (sum(i.picard_iters for i in infos), sum(i.full_sweeps for i in infos))
    assert traj.max_contraction_ratio == max(r for i in infos for r in i.contraction_ratios)
    # each sample is the held form of the state the hook saw: the same time,
    # lambda's values, rho's arrays and B's spectrum objects, with no B
    # samples and no cached velocity
    assert len(traj.states) == 3
    for held, (_, live, _) in zip(traj.states, [seen[k] for k in (0, 3, 6)]):
        assert held.time == live.time
        assert np.array_equal(held.velocity.values, live.velocity.values)
        assert held.rho._values is live.rho._values and held.rho._spectrum is live.rho._spectrum
        assert all(h._spectrum is l._spectrum for h, l in zip(held.magnetic.components, live.magnetic.components))
        assert all(h._values is None for h in held.magnetic.components)
        assert "field" not in held.velocity.__dict__
    assert traj.final_state.time == pytest.approx(0.006)


def test_mean_counts_average_every_step_sampled_or_not():
    # qmhd run and qmhd sweep print these means: the Picard iterations and
    # full sweeps of every step's StepInfo over the step count, not over
    # the samples
    grid, basis = _default_setup()
    phys, reg = _benchmark_physics()
    state = benchmark_state("density_bump", grid, basis, reg)
    traj, infos = run_with_infos(state, phys, reg, 0.006, sample_every=3)
    assert len(infos) == 6 and len(traj.states) == 3
    iters, sweeps = traj.mean_counts()
    assert iters == sum(i.picard_iters for i in infos) / 6
    assert sweeps == sum(i.full_sweeps for i in infos) / 6
    # the run has magnetic-only iterations, so the two means differ
    assert iters > sweeps


def test_cfl_report_and_every_magnetic_sweep_share_one_reference_diffusivity(monkeypatch):
    # B's start splits nu_b(rho_n) once, each full sweep splits nu_b(rho_mid)
    # once, and the magnetic-only sweeps that follow it reuse that split
    import qmhd.solver as solver

    grid, basis = _default_setup(nx=128)
    x = grid.mesh[0]
    z = np.zeros(grid.shape)
    # rho crosses the threshold, so nu_b(rho) varies about its mean
    phys, reg = _benchmark_physics()
    state = initial_state(
        ScalarField(grid, 1.0 + 0.3 * np.cos(x)),
        VectorField.from_arrays(grid, [0.3 * np.sin(x), 0.2 * np.cos(x), z]),
        VectorField.from_arrays(grid, [z, 0.5 * np.cos(x), 0.4 * np.sin(x)]),
        basis,
        reg,
    )
    reference, sweep = solver._reference_diffusivity, solver.solve_magnetic_step
    calls = {"reference": 0, "sweep": 0}

    def counted_reference(*args):
        calls["reference"] += 1
        return reference(*args)

    def counted_sweep(*args, **kwargs):
        calls["sweep"] += 1
        return sweep(*args, **kwargs)

    monkeypatch.setattr(solver, "_reference_diffusivity", counted_reference)
    monkeypatch.setattr(solver, "solve_magnetic_step", counted_sweep)
    report = cfl_report(state, phys, reg)
    assert calls == {"reference": 1, "sweep": 0}
    _, info = advance_step(state, phys, reg)
    assert info.full_sweeps < info.picard_iters
    assert calls == {"reference": 1 + 1 + info.full_sweeps, "sweep": info.picard_iters}

    nu = magnetic_diffusivity(state.rho.values, phys)
    nu_bar = reference(nu)
    assert nu_bar == float(nu.mean())
    kmax2 = grid.k_squared_max
    assert report["magnetic_mean_exact"] == nu_bar * kmax2 * reg.dt
    assert report["magnetic_fluctuation"] == float(np.max(np.abs(nu - nu_bar))) * kmax2 * reg.dt


def test_constant_state_diagnostics_constant_over_run():
    grid, basis = _default_setup()
    phys = PhysParams(kappa=0.2)
    reg = RegParams(epsilon=0.05, eta=0.01, delta=0.01, dt=1e-2)
    rho = ScalarField(grid, np.full(grid.shape, 1.3))
    b = VectorField.from_arrays(
        grid, [np.zeros(grid.shape), np.full(grid.shape, 0.25), np.zeros(grid.shape)]
    )
    state = initial_state(rho, VectorField.zero(grid), b, basis, reg)
    traj = run_simulation(state, phys, reg, 1.0)
    assert len(traj.states) == 101
    for s in traj.states:
        assert np.max(np.abs(s.rho.values - 1.3)) <= 1e-12
        assert np.max(np.abs(s.velocity.values)) <= 1e-12


# --------------------------------------------------------------------------
# independent time-integration oracle for the full coupled system


def semi_discrete_rhs(y, basis, phys, reg):
    """Continuous-in-time limit of the scheme's spatial discretization."""
    grid = basis.grid
    npts = grid.num_points
    n = basis.n
    lam = y[:n]
    rho_vals = y[n : n + npts].reshape(grid.shape)
    b_vals = y[n + npts :].reshape((3,) + grid.shape)

    rho = ScalarField(grid, rho_vals)
    vel = VelocityCoeffs(basis, lam)
    u = vel.field
    b = VectorField.from_arrays(grid, list(b_vals))

    drho = -divergence(
        VectorField(grid, [dealiased_product(rho, c) for c in u.components])
    ).values
    if reg.epsilon:
        lap = -grid.k_squared * rho.spectrum
        drho = drho + reg.epsilon * ScalarField.from_spectrum(grid, lap).values

    cb = curl(b)
    nu = magnetic_diffusivity(rho.values, phys)
    emf = [
        u.component_values()[1] * b_vals[2] - u.component_values()[2] * b_vals[1],
        u.component_values()[2] * b_vals[0] - u.component_values()[0] * b_vals[2],
        u.component_values()[0] * b_vals[1] - u.component_values()[1] * b_vals[0],
    ]
    from qmhd.fields import dealias

    emf_f = VectorField(grid, [dealias(ScalarField(grid, e)) for e in emf])
    res_f = VectorField(
        grid, [dealias(ScalarField(grid, nu * c.values)) for c in cb.components]
    )
    db = curl(emf_f) - curl(res_f)

    n_entries = momentum_residual(rho, vel, b, phys, reg)
    mdot = basis.gram(ScalarField(grid, drho))
    dlam = np.linalg.solve(basis.gram(rho), n_entries - mdot @ lam)

    return np.concatenate([dlam, drho.ravel(), np.concatenate([c.values.ravel() for c in db.components])])


def test_scheme_matches_ode_oracle_small_system():
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 6)
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=0.02, eta=0.0, delta=0.0, dt=5e-4, picard_tol=1e-13)
    state = _benchmark_state(grid, basis, reg, amp=0.2)
    t_end = 0.05
    traj = run_simulation(state, phys, reg, t_end)

    y0 = np.concatenate(
        [
            state.velocity.values,
            state.rho.values.ravel(),
            np.concatenate([c.values.ravel() for c in state.magnetic.components]),
        ]
    )
    sol = solve_ivp(
        lambda t, y: semi_discrete_rhs(y, basis, phys, reg),
        (0.0, t_end),
        y0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
        t_eval=[t_end],
    )
    lam_oracle = sol.y[: basis.n, -1]
    err = np.max(np.abs(traj.final_state.velocity.values - lam_oracle))
    assert err <= 5e-9  # second order at dt=5e-4 over t=0.05


def test_cfl_report_keys():
    grid, basis = _default_setup()
    phys, reg = PhysParams(kappa=0.1), RegParams(epsilon=0.01, eta=1e-3, delta=1e-3, dt=1e-3)
    state = _benchmark_state(grid, basis, reg)
    rep = cfl_report(state, phys, reg)
    assert set(rep) == {
        "advective",
        "density_diffusion_exact",
        "magnetic_mean_exact",
        "magnetic_fluctuation",
        "hyperviscous_midpoint",
        "acoustic",
        "capillary_wave",
        "quantum_wave",
    }
    assert all(np.isfinite(v) and v >= 0 for v in rep.values())


# --------------------------------------------------------------------------
# safety stops


def _stop_run(monkeypatch, spoil):
    """Run two steps with each step's result passed through ``spoil``."""
    import qmhd.solver as solver

    grid, basis = _default_setup(n_modes=5, nx=32)
    phys, reg = PhysParams(kappa=0.1), RegParams(epsilon=0.01, dt=1e-3)
    advance = solver.advance_step

    def spoiled(*args, **kwargs):
        return spoil(*advance(*args, **kwargs))

    monkeypatch.setattr(solver, "advance_step", spoiled)
    return run_simulation(_benchmark_state(grid, basis, reg), phys, reg, 2e-3)


def test_run_stops_when_mass_conservation_breaks(monkeypatch):
    def leak(state, info):
        grid = state.rho.grid
        return replace(state, rho=ScalarField(grid, state.rho.values * (1.0 + 1e-8))), info

    with pytest.raises(QMHDError, match=r"^mass conservation broke: relative drift 1\.000e-08$"):
        _stop_run(monkeypatch, leak)


def test_run_stops_when_the_magnetic_field_stops_being_solenoidal(monkeypatch):
    def diverge(state, info):
        return state, replace(info, div_b_norm=2.0 * _div_b_bound(state.magnetic))

    with pytest.raises(QMHDError, match="^magnetic field stopped being solenoidal: "):
        _stop_run(monkeypatch, diverge)


def test_momentum_and_magnetic_solves_refuse_a_density_below_the_floor():
    grid, basis = _default_setup(n_modes=5, nx=32)
    rho = ScalarField(grid, 1.0 + 0.999999 * np.cos(grid.mesh[0]))  # min 1e-6
    velocity, b = VelocityCoeffs(basis, np.zeros(basis.n)), VectorField.zero(grid)
    reg = RegParams(density_floor=1e-3)
    with pytest.raises(DensityFloorViolation, match="^momentum residual: density below the floor$"):
        momentum_residual(rho, velocity, b, PhysParams(), reg)
    with pytest.raises(DensityFloorViolation, match="^magnetic solve: density below the floor$"):
        solve_magnetic_step(b, velocity.field, rho, 1e-3, PhysParams(), density_floor=1e-3)
