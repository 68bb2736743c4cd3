import ast
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from qmhd import (
    DensityFloorViolation,
    GalerkinBasis,
    NonuniformSampling,
    PhysParams,
    RegParams,
    TorusGrid,
    initial_state,
    run_simulation,
)
from qmhd.basis import BasisMode
from qmhd.constitutive import (
    cold_enthalpy_derivative,
    cold_pressure,
    enthalpy_derivative,
    magnetic_diffusivity,
    pressure,
)
from qmhd.diagnostics import (
    DerivedFields,
    DiagnosticsWriter,
    MONITOR_KEYS,
    bd_entropy_report,
    bd_entropy_residual,
    bohm_identity_check,
    compute_dissipation,
    compute_energy,
    default_vector_battery,
    energy_identity_residual,
    norm_monitor,
    weak_form_residual,
)
from qmhd.diagnostics import _VECTOR_TESTS, _test_records
from qmhd.fields import (
    ScalarField,
    VectorField,
    cross,
    curl,
    dealias,
    derivative,
    divergence,
    gradient,
    inner_product,
    l2_norm,
    laplacian,
    power_laplacian,
    project_divergence_free,
    spectral_resample,
)
from qmhd.experiments import (
    SweepSpec,
    _measure,
    benchmark_state,
    capillarity_term_weak_integral,
    quantum_term_weak_integral,
    trajectory_distance,
)
from qmhd.solver import State, Trajectory, VelocityCoeffs

from conftest import band_limited_vector, count_transforms, transform_counts, transient_peak


def smooth_state_fields(grid, rng, rho_amp=0.25):
    """Smooth positive fields with content below the grid quarter."""
    x = grid.mesh[0]
    rho = ScalarField(grid, 1.5 + rho_amp * np.cos(x) + (0.1 * np.sin(grid.mesh[1]) if grid.dim > 1 else 0.0))
    u = band_limited_vector(grid, rng, max_mode=2, amplitude=0.3)
    b = project_divergence_free(band_limited_vector(grid, rng, max_mode=2, amplitude=0.3))
    return rho, u, b


def record(rho, u, b, reg):
    """The shared-field record of bare fields, for the reports' ``fields``."""
    return DerivedFields(rho, u, b, reg.density_floor)


def pde_rhs(rho, u, b, phys, reg):
    """Plain spectral right-hand side of the regularized system (no
    dealiasing): the oracle direction for the instantaneous identities."""
    grid = rho.grid
    rvals, uvals = rho.values, u.component_values()
    bvals = b.component_values()

    mom = [rvals * uvals[l] for l in range(3)]
    drho = reg.epsilon * laplacian(rho).values - divergence(VectorField.from_arrays(grid, mom)).values

    du = [[None] * 3 for _ in range(grid.dim)]
    for j in range(grid.dim):
        for l in range(3):
            du[j][l] = derivative(u.components[l], j).values

    force = [np.zeros(grid.shape) for _ in range(3)]
    # convection
    for l in range(3):
        conv = VectorField.from_arrays(grid, [mom[j] * uvals[l] if j < grid.dim else np.zeros(grid.shape) for j in range(3)])
        force[l] -= divergence(conv).values
    # pressure
    ptot = ScalarField(grid, pressure(rvals, phys) + cold_pressure(rvals, phys))
    gp = gradient(ptot)
    for l in range(grid.dim):
        force[l] -= gp.components[l].values
    # viscosity 2 div(rho D(u))
    for l in range(3):
        rows = []
        for j in range(3):
            if j < grid.dim:
                d_jl = 0.5 * (du[j][l] + (du[l][j] if l < grid.dim else 0.0))
                rows.append(rvals * d_jl)
            else:
                rows.append(np.zeros(grid.shape))
        force[l] += 2.0 * divergence(VectorField.from_arrays(grid, rows)).values
    # hyperviscosity
    for l in range(3):
        force[l] -= reg.eta * power_laplacian(u.components[l], 2).values
    # diffusion correction
    gr = gradient(rho)
    for l in range(3):
        acc = np.zeros(grid.shape)
        for j in range(grid.dim):
            acc += gr.components[j].values * du[j][l]
        force[l] -= reg.epsilon * acc
    # capillarity + rho grad lap^(2s+1) rho
    cap = gradient(power_laplacian(rho, 2 * reg.s + 1))
    for l in range(grid.dim):
        force[l] += reg.delta * rvals * cap.components[l].values
    # quantum force (primary form)
    if phys.kappa:
        w = ScalarField(grid, np.sqrt(rvals))
        quot = ScalarField(grid, laplacian(w).values / w.values)
        gq = gradient(quot)
        for l in range(grid.dim):
            force[l] += 2.0 * phys.kappa**2 * rvals * gq.components[l].values
    # Lorentz
    lor = cross(curl(b), b)
    for l in range(3):
        force[l] += lor.components[l].values

    dvel = [(force[l] - uvals[l] * drho) / rvals for l in range(3)]

    emf = cross(u, b)
    nu = magnetic_diffusivity(rvals, phys)
    resist = VectorField.from_arrays(grid, [nu * c.values for c in curl(b).components])
    db = curl(emf) - curl(resist)
    return drho, dvel, [c.values for c in db.components]


def test_energy_identity_instantaneous():
    grid = TorusGrid((96,))
    rng = np.random.default_rng(5)
    phys = PhysParams(gamma=1.6, gamma_minus=4.0, kappa=0.7, c1=0.8, c2=0.8)
    reg = RegParams(epsilon=0.07, eta=0.03, delta=0.02, s=1, dt=1e-3)
    rho, u, b = smooth_state_fields(grid, rng)
    drho, dvel, db = pde_rhs(rho, u, b, phys, reg)

    h = 1e-5

    def energy_at(sign):
        r = ScalarField(grid, rho.values + sign * h * drho)
        uu = VectorField.from_arrays(
            grid, [u.component_values()[l] + sign * h * dvel[l] for l in range(3)]
        )
        bb = VectorField.from_arrays(
            grid, [b.component_values()[l] + sign * h * db[l] for l in range(3)]
        )
        return compute_energy(None, phys, reg, record(r, uu, bb, reg)).total

    dedt = (energy_at(+1) - energy_at(-1)) / (2 * h)
    diss = compute_dissipation(None, phys, reg, record(rho, u, b, reg)).total
    assert diss > 0
    assert abs(dedt + diss) <= 2e-5 * diss


def test_bd_entropy_identity_instantaneous():
    for shape in ((96,), (48, 48)):
        grid = TorusGrid(shape)
        rng = np.random.default_rng(11)
        phys = PhysParams(gamma=1.6, gamma_minus=4.0, kappa=0.7, c1=0.8, c2=0.8)
        reg = RegParams(epsilon=0.07, eta=0.03, delta=0.02, s=1, dt=1e-3)
        rho, u, b = smooth_state_fields(grid, rng)
        drho, dvel, db = pde_rhs(rho, u, b, phys, reg)

        h = 1e-5

        def bd_at(sign):
            r = ScalarField(grid, rho.values + sign * h * drho)
            uu = VectorField.from_arrays(
                grid, [u.component_values()[l] + sign * h * dvel[l] for l in range(3)]
            )
            bb = VectorField.from_arrays(
                grid, [b.component_values()[l] + sign * h * db[l] for l in range(3)]
            )
            return bd_entropy_report(None, phys, reg, record(r, uu, bb, reg)).bd_energy

        dedt = (bd_at(+1) - bd_at(-1)) / (2 * h)
        rep = bd_entropy_report(None, phys, reg, record(rho, u, b, reg))
        resid = dedt + rep.lhs_total - rep.rhs_total
        assert abs(resid) <= 2e-5 * max(abs(rep.lhs_total), abs(rep.rhs_total))


def test_bd_spot_identity():
    grid = TorusGrid((96,))
    rng = np.random.default_rng(3)
    phys = PhysParams(kappa=0.2)
    reg = RegParams(epsilon=0.07, dt=1e-3)
    rho, u, b = smooth_state_fields(grid, rng)
    rep = bd_entropy_report(None, phys, reg, record(rho, u, b, reg))
    assert rep.rhs_density_laplacian == pytest.approx(rep.spot_density_laplacian, rel=1e-10)


@pytest.mark.parametrize("shape", [(128,), (32, 32), (8, 8, 8)])
def test_bd_report_reuses_energy_and_dissipation(shape):
    grid = TorusGrid(shape)
    rng = np.random.default_rng(4)
    phys = PhysParams(kappa=0.4)
    reg = RegParams(epsilon=0.03, eta=0.01, delta=0.01, s=1, dt=1e-3)
    rho, u, b = smooth_state_fields(grid, rng)
    rep = bd_entropy_report(None, phys, reg, record(rho, u, b, reg))
    d = compute_dissipation(None, phys, reg, record(rho, u, b, reg))
    assert rep.lhs_hyper == d.hyper
    assert rep.lhs_magnetic == d.magnetic_diss
    assert rep.lhs_capillary_eps == d.capillary_diss
    assert rep.lhs_quantum_hessian_eps == d.quantum_diss
    assert rep.lhs_pressure_gradient_eps == d.pressure_diss
    # bd_energy is the energy functional at u + grad(2 log rho)
    shift = gradient(ScalarField(grid, 2.0 * np.log(rho.values)))
    shifted = VectorField.from_arrays(
        grid, [a.values + s.values for a, s in zip(u.components, shift.components)]
    )
    assert rep.bd_energy == compute_energy(None, phys, reg, record(rho, shifted, b, reg)).total


def test_bd_nonnegative_dissipation_entries():
    grid = TorusGrid((64,))
    rng = np.random.default_rng(9)
    phys = PhysParams(kappa=0.4)
    reg = RegParams(epsilon=0.03, eta=0.01, delta=0.01, dt=1e-3)
    rho, u, b = smooth_state_fields(grid, rng)
    rep = bd_entropy_report(None, phys, reg, record(rho, u, b, reg))
    assert rep.lhs_antisymmetric >= 0
    assert rep.lhs_pressure_gradient >= 0
    assert rep.lhs_quantum_hessian >= 0
    assert rep.lhs_magnetic >= 0


def test_pressure_work_chain_identity(rng):
    # grad(P+Pc).u pairs with -(H'+Hc') div(rho u) exactly
    grid = TorusGrid((96,))
    phys = PhysParams(gamma=1.7, gamma_minus=4.0)
    rho, u, _ = smooth_state_fields(grid, rng, rho_amp=0.2)
    rvals = rho.values
    ptot = ScalarField(grid, pressure(rvals, phys) + cold_pressure(rvals, phys))
    lhs = sum(
        inner_product(gradient(ptot).components[l], u.components[l]) for l in range(grid.dim)
    )
    hprime = ScalarField(
        grid, enthalpy_derivative(rvals, phys) + cold_enthalpy_derivative(rvals, phys)
    )
    flux = VectorField.from_arrays(grid, [rvals * c.values for c in u.components])
    rhs = -inner_product(hprime, divergence(flux))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_lorentz_induction_transfer_identity(rng):
    grid = TorusGrid((64,))
    u = band_limited_vector(grid, rng, max_mode=3, amplitude=0.5)
    b = band_limited_vector(grid, rng, max_mode=3, amplitude=0.5)
    lhs = sum(
        inner_product(cross(curl(b), b).components[l], u.components[l]) for l in range(3)
    )
    rhs = -sum(
        inner_product(curl(cross(u, b)).components[l], b.components[l]) for l in range(3)
    )
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_reports_refuse_a_density_below_the_floor():
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 5)
    state = benchmark_state("density_bump", grid, basis, RegParams())  # min rho 0.5
    compute_energy(state, PhysParams(), RegParams(density_floor=0.5))
    with pytest.raises(DensityFloorViolation, match="^diagnostics: density below the floor$"):
        compute_energy(state, PhysParams(), RegParams(density_floor=0.6))


# --------------------------------------------------------------------------
# trajectory residual series


def _mini_benchmark(grid, basis, reg):
    x = grid.mesh[0]
    z = np.zeros(grid.shape)
    rho = ScalarField(grid, 1.5 + 0.3 * np.cos(x))
    u = VectorField.from_arrays(grid, [0.15 * np.sin(x), 0.1 * np.cos(x), z])
    b = VectorField.from_arrays(grid, [z, z, 0.2 * np.sin(x)])
    return initial_state(rho, u, b, basis, reg)


def test_energy_residual_constant_state_zero():
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 6)
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=0.02, dt=1e-2)
    rho = ScalarField(grid, np.full(grid.shape, 1.4))
    state = initial_state(rho, VectorField.zero(grid), VectorField.zero(grid), basis, reg)
    traj = run_simulation(state, phys, reg, 0.1)
    series = energy_identity_residual(traj)
    assert np.max(np.abs(series.raw)) <= 1e-12


def test_energy_residual_pure_heat_matches_exact_decay():
    # density-only dynamics: constant-mode basis leaves the velocity frozen
    # at zero and the identity reduces to the diffusion chains
    grid = TorusGrid((64,))
    basis = GalerkinBasis(grid, [BasisMode((0, 0, 0), "cos", c) for c in range(3)])
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=0.05, delta=1e-3, s=1, dt=1e-3, picard_tol=1e-13)
    x = grid.mesh[0]
    rho = ScalarField(grid, 1.5 + 0.3 * np.cos(x))
    state = initial_state(rho, VectorField.zero(grid), VectorField.zero(grid), basis, reg)
    traj = run_simulation(state, phys, reg, 0.05)
    assert np.max(np.abs(traj.final_state.velocity.values)) <= 1e-13
    series = energy_identity_residual(traj)
    assert np.max(np.abs(series.raw)) <= 1e-8


def test_residual_second_order_in_dt():
    # the basis must cover the force spectrum: the BD identity tests the
    # momentum balance against grad(log rho), outside the velocity span, so
    # its floor is set by the Galerkin truncation, not dt
    grid = TorusGrid((64,))
    basis = GalerkinBasis.lowest_modes(grid, 39)
    phys = PhysParams(kappa=0.1)
    rms_e, rms_bd = [], []
    for dt in (4e-3, 2e-3):
        reg = RegParams(epsilon=0.05, eta=5e-3, delta=5e-3, s=1, dt=dt, picard_tol=1e-12)
        traj = run_simulation(_mini_benchmark(grid, basis, reg), phys, reg, 0.12)
        e = energy_identity_residual(traj)
        bd, _ = bd_entropy_residual(traj)
        rms_e.append(float(np.sqrt(np.mean(e.raw**2))))
        rms_bd.append(float(np.sqrt(np.mean(bd.raw**2))))
    assert rms_e[0] / rms_e[1] >= 3.0
    assert rms_bd[0] / rms_bd[1] >= 3.0


def test_nonuniform_sampling_rejected():
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 3)
    phys, reg = PhysParams(), RegParams(dt=1e-3)
    state = _mini_benchmark(grid, basis, reg)
    states = [replace(state, time=t) for t in (0.0, 1e-3, 3e-3)]
    traj = Trajectory(states, 1, phys, reg)
    with pytest.raises(NonuniformSampling):
        energy_identity_residual(traj)
    short = Trajectory(states[:2], 1, phys, reg)
    with pytest.raises(NonuniformSampling):
        energy_identity_residual(short)


# --------------------------------------------------------------------------
# quantum force identity


def test_bohm_identity_check_cases():
    # the pointwise force against the scheme's quantum stress at the full
    # window; zero kappa is exactly zero
    def rho(n):
        grid = TorusGrid((n,))
        return ScalarField(grid, 2.0 + np.cos(grid.mesh[0]))

    assert bohm_identity_check(rho(64), 0.0) == 0.0
    rough, finer = bohm_identity_check(rho(32), 1.0), bohm_identity_check(rho(64), 1.0)
    # spectral decay until the roundoff floor of the third derivatives
    assert finer <= rough / 10.0
    assert finer <= 1e-8


# --------------------------------------------------------------------------
# weak-form residuals


def test_weak_form_constant_state_zero():
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 3)
    phys = PhysParams()
    reg = RegParams(dt=1e-2)
    rho = ScalarField(grid, np.full(grid.shape, 1.2))
    b = VectorField.from_arrays(
        grid, [np.zeros(grid.shape), np.full(grid.shape, 0.3), np.zeros(grid.shape)]
    )
    state = initial_state(rho, VectorField.zero(grid), b, basis, reg)
    traj = run_simulation(state, phys, reg, 0.1)
    res = weak_form_residual(traj)
    for eq in ("continuity", "momentum", "magnetic"):
        for val in res[eq].values():
            assert abs(val) <= 1e-10


def test_weak_form_continuity_conservative():
    # with the density diffusion off the midpoint quadrature telescopes the
    # continuity residual to solver tolerance
    grid = TorusGrid((64,))
    basis = GalerkinBasis.lowest_modes(grid, 9)
    phys = PhysParams()
    reg = RegParams(epsilon=0.0, dt=1e-3, picard_tol=1e-13)
    traj = run_simulation(_mini_benchmark(grid, basis, reg), phys, reg, 0.05)
    res = weak_form_residual(traj)
    for val in res["continuity"].values():
        assert abs(val) <= 1e-9


def test_weak_form_residuals_shrink_under_refinement():
    phys = PhysParams(kappa=0.1)
    out = []
    for nx, dt in ((32, 4e-3), (64, 2e-3)):
        grid = TorusGrid((nx,))
        basis = GalerkinBasis.lowest_modes(grid, 9)
        reg = RegParams(epsilon=0.0, dt=dt, picard_tol=1e-12)
        traj = run_simulation(_mini_benchmark(grid, basis, reg), phys, reg, 0.08)
        res = weak_form_residual(traj)
        out.append(max(abs(v) for v in res["momentum"].values()))
    assert out[1] <= out[0] / 2.0


def test_weak_form_transforms_per_test_function_not_per_interval(monkeypatch):
    # four vector test functions cost three more than one, whatever the
    # number of intervals: midpoint fields are derived once per interval
    grid = TorusGrid((32, 32))
    basis = GalerkinBasis.lowest_modes(grid, 9)
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=0.01, dt=1e-3)
    traj = run_simulation(_mini_benchmark(grid, basis, reg), phys, reg, 8e-3)
    short = Trajectory(traj.states[:5], 1, phys, reg)
    counts = count_transforms(monkeypatch)
    # a pass caches nothing on the states, so a second one costs exactly
    # the transforms of the first
    weak_form_residual(traj)
    first = counts.copy()
    weak_form_residual(traj)
    assert counts - first == first

    def count(t, n_vector):
        table = dict(list(_VECTOR_TESTS.items())[:n_vector])
        monkeypatch.setattr("qmhd.diagnostics._VECTOR_TESTS", table)
        before = counts.total()
        weak_form_residual(t)
        return counts.total() - before

    extra = [count(t, 4) - count(t, 1) for t in (short, traj)]
    assert extra[0] > 0
    assert extra[0] == extra[1]


def _bare(state):
    """``state`` with rho as samples only, B as spectra only and no cached
    velocity, so that a reader must derive rho's spectrum and the samples
    of B and u."""
    grid = state.rho.grid
    return State(
        state.time,
        ScalarField._adopt(grid, state.rho.values),
        VelocityCoeffs(state.basis, state.velocity.values),
        VectorField(grid, [ScalarField._adopt(grid, None, c.spectrum) for c in state.magnetic.components]),
    )


def _cached_forms(state):
    """The grid-sized forms ``state`` holds: the samples and spectrum of rho
    and of each B component, and the velocity's cached samples, each None
    when absent."""
    fields = (state.rho, *state.magnetic.components)
    return [a for f in fields for a in (f._values, f._spectrum)] + [state.velocity.__dict__.get("field")]


_PASSES = {
    "energy": lambda traj, other: energy_identity_residual(traj),
    "bd": lambda traj, other: bd_entropy_residual(traj),
    "weak": lambda traj, other: weak_form_residual(traj),
    "distance": lambda traj, other: trajectory_distance(traj, other),
    "quantum": lambda traj, other: quantum_term_weak_integral(traj, traj.phys.kappa),
    "capillarity": lambda traj, other: capillarity_term_weak_integral(traj, traj.reg.delta, traj.reg.s),
    # the limit rung is measured on the trajectory itself, with the
    # capillarity weak integral, which reads rho's spectrum
    "measure": lambda traj, other: _measure(
        SweepSpec("delta", (4e-4, 2e-4, traj.reg.delta), dim=2, points=16), traj, traj.reg.delta
    ),
}


@pytest.mark.parametrize("name", sorted(_PASSES))
def test_a_pass_over_a_trajectory_caches_nothing_on_its_states(name):
    # every form a pass derives, B's and u's samples and rho's spectrum,
    # lives in its own records and is freed with them
    grid = TorusGrid((16, 16))
    basis = GalerkinBasis.lowest_modes(grid, 9)
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, s=1, dt=1e-3)
    run = run_simulation(benchmark_state("random_smooth", grid, basis, reg), phys, reg, 3e-3)
    traj, other = (Trajectory([_bare(s) for s in run.states], 1, phys, reg) for _ in range(2))
    before = [_cached_forms(s) for s in traj.states + other.states]
    _PASSES[name](traj, other)
    after = [_cached_forms(s) for s in traj.states + other.states]
    assert all(a is b for x, y in zip(before, after) for a, b in zip(x, y, strict=True))


def _references(tree: ast.AST, name: str) -> list[str]:
    """The enclosing definition, dotted, of each reference to ``name`` in
    ``tree``: a name, an attribute or an import of it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            if name in (getattr(child, "id", None), getattr(child, "attr", None)) or (
                isinstance(child, ast.alias) and child.name == name
            ):
                found.append(scope)
            visit(child, inner)

    visit(tree, "")
    return found


def test_derived_fields_is_the_one_reader_of_a_state():
    # a reader wraps a state's fields in fields of its own in one place,
    # DerivedFields.of, and only the solver makes a held state
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "qmhd"
    shared, held = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        shared |= {f"{path.stem}:{scope}" for scope in _references(tree, "_shared")}
        if path.name != "solver.py":
            held |= {f"{path.stem}:{scope}" for scope in _references(tree, "_held")}
    assert shared == {"diagnostics:DerivedFields.of"}
    assert held == set()


@pytest.mark.parametrize("shape", [(16,), (16, 16), (8, 8, 8)])
def test_vector_test_records_hold_the_nonzero_derivatives_only(shape):
    # a record, built from the table, holds the derivatives of phi e_c that
    # the three-component operators give on the reference battery, each
    # array nonzero somewhere, and None where they give zero everywhere
    grid = TorusGrid(shape)
    dim = grid.dim
    _, records = _test_records(grid)
    assert list(records) == list(default_vector_battery(grid))
    for name, field in default_vector_battery(grid).items():
        d = records[name]
        # c is the field's one nonzero component
        assert [bool(np.any(f.values)) for f in field.components] == [l == d.c for l in range(3)], name
        assert np.array_equal(d.phi.values, field.components[d.c].values)
        div = divergence(field)
        pairs = [
            *zip(d.grad, [derivative(field.components[d.c], j).values for j in range(dim)]),
            (d.div, div.values),
            (d.lap, laplacian(field.components[d.c]).values),
            *zip(d.grad_div or [None] * dim, gradient(div).component_values()[:dim]),
            *zip(d.curl, curl(field).component_values()),
        ]
        for got, expected in pairs:
            if got is None:
                assert not np.any(expected), name
            else:
                assert np.any(got), name
                assert np.array_equal(got, expected), name


def test_test_records_transform_only_their_nonzero_derivatives(monkeypatch):
    # each scalar test is forwarded once (4, or 3 without cos y in 1D) and
    # its nonzero first derivatives inverted once: d_x of cos x and sin x,
    # and d_y of cos y, none for const.  The vector tests' curls read those;
    # each adds lap phi, and e0_sin_x also d_x d_x phi
    counts = count_transforms(monkeypatch)
    for shape, backward, forward in (((64, 64), 8, 4), ((16, 16, 16), 8, 4), ((64,), 6, 3)):
        counts.clear()
        _test_records(TorusGrid(shape))
        assert counts == transform_counts(backward_full=backward, forward_full=forward), shape


# --------------------------------------------------------------------------
# monitors and CSV


def test_norm_monitor_constant_closed_forms():
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 3)
    phys = PhysParams(gamma=2.0, gamma_minus=4.0)
    reg = RegParams(dt=1e-3)
    rho_bar = 2.0
    rho = ScalarField(grid, np.full(grid.shape, rho_bar))
    b = VectorField.from_arrays(
        grid, [np.zeros(grid.shape), np.zeros(grid.shape), np.full(grid.shape, 0.5)]
    )
    state = initial_state(rho, VectorField.zero(grid), b, basis, reg)
    mon = norm_monitor(state, phys, reg)
    vol = grid.volume
    assert mon["rho_Lgamma"] == pytest.approx(rho_bar * vol ** (1 / 2.0), rel=1e-12)
    assert mon["inv_rho_Lgamma_minus"] == pytest.approx((1 / rho_bar) * vol ** (1 / 4.0), rel=1e-12)
    assert mon["grad_sqrt_rho_L2"] == pytest.approx(0.0, abs=1e-12)
    assert mon["B_L2"] == pytest.approx(0.5 * np.sqrt(vol), rel=1e-12)
    assert mon["inv_rho_Linf"] == pytest.approx(0.5, rel=1e-14)
    assert mon["sqrt_rho_H2"] == pytest.approx(np.sqrt(rho_bar * vol), rel=1e-12)


def test_norm_monitor_against_fine_quadrature(rng):
    grid = TorusGrid((64,))
    fine = TorusGrid((256,))
    basis = GalerkinBasis.lowest_modes(grid, 6)
    phys = PhysParams(gamma=5.0 / 3.0, gamma_minus=4.0)
    reg = RegParams(dt=1e-3)
    x = grid.mesh[0]
    rho = ScalarField(grid, 2.0 + np.cos(x))
    state = initial_state(rho, VectorField.zero(grid), VectorField.zero(grid), basis, reg)
    mon = norm_monitor(state, phys, reg)

    rho_f = spectral_resample(rho, fine).values
    lg = (np.mean(rho_f**phys.gamma) * fine.volume) ** (1 / phys.gamma)
    assert mon["rho_Lgamma"] == pytest.approx(lg, rel=1e-10)
    w_f = np.sqrt(rho_f)
    kf = np.fft.fftfreq(256, 1.0 / 256)
    gw = np.fft.ifft(1j * kf * np.fft.fft(w_f)).real
    assert mon["grad_sqrt_rho_L2"] == pytest.approx(
        np.sqrt(np.mean(gw**2) * fine.volume), rel=1e-9
    )


def test_monitor_entries_never_increase_under_dealiasing(rng):
    grid = TorusGrid((64,))
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    assert l2_norm(dealias(f)) <= l2_norm(f) + 1e-14


def test_diagnostics_writer_roundtrip(tmp_path):
    import csv

    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 6)
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=0.01, dt=1e-3)
    state = _mini_benchmark(grid, basis, reg)
    traj = run_simulation(state, phys, reg, 0.01)
    path = tmp_path / "diag.csv"
    with DiagnosticsWriter(path, phys, reg) as writer:
        for s in traj.states:
            writer.write_row(s)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header[0] == "time"
    assert header[-1] == "schema_version"
    assert len(data) == len(traj.states)
    e0 = compute_energy(traj.states[0], phys, reg)
    assert float(data[0][header.index("kinetic")]) == pytest.approx(e0.kinetic, rel=1e-14)
    assert all(row[-1] == "1" for row in data)
    for key in MONITOR_KEYS:
        assert key in header


def test_rows_reach_the_file_as_they_are_written(tmp_path):
    # a run that fails later keeps every row written before the failure
    grid = TorusGrid((32,))
    reg = RegParams(epsilon=0.01, dt=1e-3)
    state = _mini_benchmark(grid, GalerkinBasis.lowest_modes(grid, 6), reg)
    path = tmp_path / "diag.csv"
    with DiagnosticsWriter(path, PhysParams(kappa=0.1), reg) as writer:
        writer.write_row(state)
        assert len(path.read_text().splitlines()) == 2


# (grid shape, velocity modes) -> transforms of one CSV row: the monitor,
# energy and dissipation reports share the velocity samples, sqrt(rho) and
# the velocity gradient, whose 3 + 3d inverses, and the 3 of lap u, run on
# the basis's box; in 1D the first component of curl B is zero by
# construction and takes no inverse
ROW_TRANSFORMS = {
    ((128,), 9): transform_counts(backward_full=6, forward_full=4, backward_box=9),
    ((64, 64), 120): transform_counts(backward_full=12, forward_full=4, backward_box=12),
    ((32, 32, 32), 27): transform_counts(backward_full=18, forward_full=4, backward_box=15),
}


def _row_state(shape, n_modes, reg):
    """A seed-0 random_smooth state with the spectrum of rho and the samples
    of B already derived and no velocity samples, as after a solver step
    and its run's checks."""
    grid = TorusGrid(shape)
    state = benchmark_state("random_smooth", grid, GalerkinBasis.lowest_modes(grid, n_modes), reg)
    state.rho.spectrum
    state.magnetic.component_values()
    return state


@pytest.mark.parametrize("shape, n_modes", sorted(ROW_TRANSFORMS))
def test_row_derives_each_shared_field_once(tmp_path, monkeypatch, shape, n_modes):
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, s=1, dt=1e-3)
    state = _row_state(shape, n_modes, reg)
    counts = count_transforms(monkeypatch)
    with DiagnosticsWriter(tmp_path / "diag.csv", phys, reg) as writer:
        writer.write_row(state)
    assert counts == ROW_TRANSFORMS[(shape, n_modes)]


def test_a_runs_first_row_and_step_derive_the_initial_forms_once(tmp_path, monkeypatch):
    # a run's first row and its first step both read the initial state's
    # rho spectrum and B samples: run_simulation derives them on the state
    # before on_step's row, so the row costs what it costs on a state
    # holding them, and the step derives neither again (a row that derived
    # both into its own record left the step to derive them again)
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, s=1, dt=1e-3)
    grid = TorusGrid((128,))
    counts = count_transforms(monkeypatch)

    def first_step(row: bool):
        state = benchmark_state("random_smooth", grid, GalerkinBasis.lowest_modes(grid, 9), reg)
        counts.clear()
        with DiagnosticsWriter(tmp_path / "diag.csv", phys, reg) as writer:

            def on_step(step, s, info):
                if row and step == 0:
                    writer.write_row(s)

            run_simulation(state, phys, reg, reg.dt, on_step=on_step)
        return counts.copy()

    assert first_step(row=True) - first_step(row=False) == ROW_TRANSFORMS[((128,), 9)]


# the working set of one CSV row of a 16^3, 27-mode density_bump state after
# two steps at the benchmark physics, in grid arrays (tracemalloc's peak
# above what was live at the call): 34.5 when the row cached the velocity
# samples on the state and held the whole velocity gradient, 24.4 when its
# record holds them and keeps only |D u|^2, 23.0 on that whole state when
# the dissipation forms the Hessian of log rho before grad rho, curl B and
# lap u; 26.1 on the run's held final sample, whose B samples the row
# derives into its record (27.5 without that reorder)
ROW_ARRAYS = 29


def test_a_row_holds_only_what_its_next_reader_needs(tmp_path):
    from qmhd.solver import run_simulation

    grid = TorusGrid((16, 16, 16))
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, s=1, dt=1e-3)
    state = benchmark_state("density_bump", grid, GalerkinBasis.lowest_modes(grid, 27), reg)
    state = run_simulation(state, phys, reg, 2 * reg.dt, sample_every=2).final_state
    with DiagnosticsWriter(tmp_path / "diag.csv", phys, reg) as writer:
        _, peak = transient_peak(writer.write_row, state)
    assert peak <= ROW_ARRAYS * grid.num_points * 8
    assert state.velocity.__dict__.get("field") is None


@pytest.mark.parametrize("shape, n_modes", [((128,), 9), ((32, 32), 60), ((16, 16, 16), 27)])
def test_box_block_reports_equal_the_half_spectrum_reports(shape, n_modes):
    # DerivedFields.of differentiates the velocity's box blocks; a record of
    # the bare fields differentiates their half spectra
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, s=1, dt=1e-3)
    grid = TorusGrid(shape)
    state = benchmark_state("random_smooth", grid, GalerkinBasis.lowest_modes(grid, n_modes), reg)

    def entries(f):
        return [
            *compute_energy(None, phys, reg, f).as_dict().values(),
            *compute_dissipation(None, phys, reg, f).as_dict().values(),
            *norm_monitor(None, phys, reg, f).values(),
            *bd_entropy_report(None, phys, reg, f).as_dict().values(),
        ]

    assert DerivedFields.of(state, reg).velocity is state.velocity
    boxed = entries(DerivedFields.of(state, reg))
    bare = entries(DerivedFields(state.rho, state.u, state.magnetic, reg.density_floor))
    assert len(boxed) == 7 + 7 + len(MONITOR_KEYS) + 17
    for a, b in zip(boxed, bare):
        assert abs(a - b) <= 1e-12 * abs(b)


def test_row_div_b_is_the_norm_the_run_checks(tmp_path):
    # a step's row reports, bitwise, the div B norm of its StepInfo
    import csv

    grid = TorusGrid((16, 16))
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, s=1, dt=1e-3)
    state = benchmark_state("random_smooth", grid, GalerkinBasis.lowest_modes(grid, 24), reg)
    infos = []
    with DiagnosticsWriter(tmp_path / "diag.csv", phys, reg) as writer:

        def row(step, s, info):
            writer.write_row(s, info)
            infos.append(info)

        run_simulation(state, phys, reg, 3 * reg.dt, on_step=row)
    with open(tmp_path / "diag.csv") as fh:
        div_b = [float(r["div_b"]) for r in csv.DictReader(fh)]
    assert len(div_b) == 4
    assert div_b[1:] == [info.div_b_norm for info in infos[1:]]


@pytest.mark.parametrize("shape", [(128,), (32, 32), (16, 16, 16)])
def test_row_entries_equal_standalone_reports(tmp_path, shape):
    import csv

    phys = PhysParams(kappa=0.3)
    reg = RegParams(epsilon=0.02, eta=0.01, delta=1e-4, s=1, dt=1e-3)
    grid = TorusGrid(shape)
    state = benchmark_state("random_smooth", grid, GalerkinBasis.lowest_modes(grid, 9), reg)
    with DiagnosticsWriter(tmp_path / "diag.csv", phys, reg) as writer:
        writer.write_row(state)
    with open(tmp_path / "diag.csv") as fh:
        row = next(csv.DictReader(fh))
    energy = compute_energy(state, phys, reg).as_dict()
    dissipation = compute_dissipation(state, phys, reg).as_dict()
    expected = {("energy_total" if k == "total" else k): v for k, v in energy.items()}
    expected.update(
        {("dissipation_total" if k == "total" else k): v for k, v in dissipation.items()}
    )
    expected.update(norm_monitor(state, phys, reg))
    assert len(expected) == 6 + 1 + 6 + 1 + len(MONITOR_KEYS)
    assert {k: float(row[k]) for k in expected} == expected
