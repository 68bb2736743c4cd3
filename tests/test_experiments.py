from dataclasses import replace

import numpy as np
import pytest

import qmhd.experiments
from qmhd import GalerkinBasis, PhysParams, RegParams, TorusGrid
from qmhd.errors import QMHDError
from qmhd.experiments import (
    BENCHMARK_NAMES,
    SweepSpec,
    benchmark_fields,
    benchmark_state,
    capillarity_term_weak_integral,
    compare_states,
    content_hash,
    quantum_term_weak_integral,
    run_sweep,
    sweep_rows,
    trajectory_distance,
)
from qmhd.diagnostics import DerivedFields, default_vector_battery, envelope
from qmhd.fields import (
    ScalarField,
    VectorField,
    _laplacian_power,
    dealias,
    derivative,
    divergence,
    inner_product,
    l2_norm,
)
from qmhd.solver import VelocityCoeffs, initial_state, run_simulation

from conftest import count_transforms, transform_counts


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("shape", [(32,), (16, 16)])
def test_benchmarks_valid(name, shape):
    grid = TorusGrid(shape)
    rho, u, b = benchmark_fields(name, grid, seed=3)
    assert rho.values.min() > 0.1
    scale = max(np.sqrt(sum(l2_norm(c) ** 2 for c in b.components)), 1e-300)
    assert l2_norm(divergence(b)) <= 1e-12 * max(scale, 1.0)


def test_benchmarks_deterministic():
    grid = TorusGrid((32,))
    a1, b1, c1 = benchmark_fields("random_smooth", grid, seed=7)
    a2, b2, c2 = benchmark_fields("random_smooth", grid, seed=7)
    assert np.array_equal(a1.values, a2.values)
    assert np.array_equal(b1.components[0].values, b2.components[0].values)
    a3, _, _ = benchmark_fields("random_smooth", grid, seed=8)
    assert not np.array_equal(a1.values, a3.values)


def test_unknown_benchmark_rejected():
    with pytest.raises(ValueError):
        benchmark_fields("nope", TorusGrid((32,)))


def test_compare_states_self_is_zero():
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 6)
    reg = RegParams(dt=1e-3)
    s = benchmark_state("density_bump", grid, basis, reg)
    f = DerivedFields.of(s, reg)
    d = compare_states(f, f)
    assert all(v == 0.0 for v in d.as_dict().values())


def test_compare_states_single_mode_perturbation():
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 6)
    reg = RegParams(dt=1e-3)
    s = benchmark_state("density_bump", grid, basis, reg)
    lam = s.velocity.values.copy()
    lam[4] += 1e-3
    from qmhd.solver import State

    s2 = State(s.time, s.rho, VelocityCoeffs(basis, lam), s.magnetic)
    d = compare_states(DerivedFields.of(s, reg), DerivedFields.of(s2, reg))
    # orthonormal mode: velocity distance equals the coefficient change
    assert d.velocity == pytest.approx(1e-3, rel=1e-10)
    assert d.rho == 0.0


def test_compare_states_against_quadrature(rng):
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 6)
    reg = RegParams(dt=1e-3)
    a = benchmark_state("random_smooth", grid, basis, reg, seed=1)
    b = benchmark_state("random_smooth", grid, basis, reg, seed=2)
    d = compare_states(DerivedFields.of(a, reg), DerivedFields.of(b, reg))
    direct = np.sqrt(
        ((np.sqrt(a.rho.values) - np.sqrt(b.rho.values)) ** 2).mean() * grid.volume
    )
    assert d.sqrt_rho == pytest.approx(direct, rel=1e-12)


def test_compare_states_across_grids():
    coarse = TorusGrid((32,))
    fine = TorusGrid((64,))
    reg = RegParams(dt=1e-3)
    a = benchmark_state("density_bump", coarse, GalerkinBasis.lowest_modes(coarse, 6), reg)
    b = benchmark_state("density_bump", fine, GalerkinBasis.lowest_modes(fine, 6), reg)
    d = compare_states(DerivedFields.of(a, reg), DerivedFields.of(b, reg))
    # same analytic data on both grids: spectral injection makes them match
    assert d.rho <= 1e-10
    assert d.magnetic <= 1e-10


def test_trajectory_distance_requires_shared_times():
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 6)
    phys, reg = PhysParams(), RegParams(dt=1e-3)
    s = benchmark_state("density_bump", grid, basis, reg)
    t1 = run_simulation(s, phys, reg, 0.01)
    t2 = run_simulation(s, phys, reg, 0.02)
    with pytest.raises(QMHDError):
        trajectory_distance(t1, t2)


def test_quantum_and_capillarity_integral_trivial_cases():
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 6)
    phys, reg = PhysParams(), RegParams(dt=1e-3)
    rho = ScalarField(grid, np.full(grid.shape, 1.5))
    state = initial_state(rho, VectorField.zero(grid), VectorField.zero(grid), basis, reg)
    traj = run_simulation(state, phys, reg, 0.01)
    assert quantum_term_weak_integral(traj, 0.0)["value"] == 0.0
    assert quantum_term_weak_integral(traj, 0.3)["value"] == pytest.approx(0.0, abs=1e-12)
    assert capillarity_term_weak_integral(traj, 0.0, 1)["value"] == 0.0
    assert capillarity_term_weak_integral(traj, 0.1, 1)["value"] == pytest.approx(0.0, abs=1e-12)


def _capillarity_integral_reference(traj, delta, s_order):
    """The integral by its own discretization: -delta times the trapezoid sum
    of g(t) sum_l < lap^(2s+1) rho, d_l P(rho phi_l) >, P the 2/3 mask."""
    grid = traj.states[0].rho.grid
    battery = list(default_vector_battery(grid).values())
    lap_power = _laplacian_power(grid, 2 * s_order + 1)
    weights = np.full(len(traj.states), traj.sampled_dt)
    weights[[0, -1]] *= 0.5
    acc = [0.0] * len(battery)
    for wt, st in zip(weights, traj.states):
        hi_field = ScalarField._adopt(grid, None, lap_power * st.rho.spectrum)
        g = envelope(st.time, traj.times[-1])
        for t, phi in enumerate(battery):
            inner = 0.0
            for l in range(grid.dim):
                prod = dealias(ScalarField._adopt(grid, st.rho.values * phi.components[l].values))
                inner += inner_product(hi_field, derivative(prod, l))
            acc[t] += wt * g * inner
    return sum(-delta * a for a in acc)


@pytest.mark.parametrize("shape,n_modes", [((128,), 9), ((32, 32), 27)])
def test_capillarity_integral_matches_its_own_discretization(shape, n_modes):
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    reg = RegParams(epsilon=0.02, eta=0.01, delta=1e-4, s=1, dt=1e-3)
    state = benchmark_state("random_smooth", grid, basis, reg, seed=0)
    traj = run_simulation(state, PhysParams(kappa=0.3), reg, 4e-3)
    for s_order in (1, 2):
        got = capillarity_term_weak_integral(traj, reg.delta, s_order)["value"]
        ref = _capillarity_integral_reference(traj, reg.delta, s_order)
        assert ref != 0.0
        assert abs(got - ref) <= 1e-12 * abs(ref), (s_order, got, ref)


@pytest.mark.parametrize("values", [(6, 6, 9), (12, 9, 6)], ids=["repeated", "decreasing"])
def test_mode_count_ladder_rejected(values):
    with pytest.raises(ValueError, match="mode-count ladders must be strictly increasing"):
        SweepSpec("n", values, "density_bump", 1, 32, 0.01)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("kappa", (0.1, 0.05), "density_bump", 1, 32, 0.01)
    with pytest.raises(ValueError):
        SweepSpec("kappa", (0.05, 0.1, 0.2), "density_bump", 1, 32, 0.01)
    with pytest.raises(ValueError):
        SweepSpec("volume", (0.2, 0.1, 0.05), "density_bump", 1, 32, 0.01)
    with pytest.raises(ValueError, match="mode counts must be at least 1"):
        SweepSpec("n", (0, 3, 9), "density_bump", 1, 32, 0.01)
    with pytest.raises(ValueError, match="a ladder needs t_end > 0"):
        SweepSpec("kappa", (0.2, 0.1, 0.0), "density_bump", 1, 32, 0.0)
    spec = SweepSpec("delta", (0.1, 0.05, 0.025), "density_bump", 1, 32, 0.01,
                     reg=RegParams(epsilon=0.3, eta=0.2))
    phys, reg, n = spec.rung_params(0.05)
    # a delta rung sets eta = epsilon = delta^2 over the given values
    assert (reg.delta, reg.eta, reg.epsilon) == (0.05, 0.05**2, 0.05**2)


def test_single_rung_reference_distance_is_zero(monkeypatch):
    # the limit rung is the reference itself: its distances are zeros that
    # compare no state with itself (a record carries its state's own
    # velocity, so two records of one state share it)
    compared = []

    def recorded(a, b):
        compared.append(a.velocity is b.velocity)
        return compare_states(a, b)

    monkeypatch.setattr(qmhd.experiments, "compare_states", recorded)
    spec = SweepSpec(
        "kappa",
        (0.2, 0.1, 0.05),
        "density_bump",
        dim=1,
        points=32,
        t_end=0.01,
        reg=RegParams(dt=1e-3, picard_tol=1e-11),
        n_modes=6,
    )
    rows = sweep_rows(run_sweep(spec))
    assert len(rows) == 3 and "dist_sqrt_rho_u" in rows[0]
    assert all(v == 0.0 for k, v in rows[-1].items() if k.startswith("dist_"))
    assert compared and not any(compared)
    # monotone distances down a kappa ladder on this smooth short benchmark
    d = [r["dist_sqrt_rho_u"] for r in rows[:-1]]
    assert d[0] > d[1] > 0
    # a row holds Python floats only, so that the CSV writes their repr
    assert all(type(v) is float for row in rows for v in row.values())


def test_a_rung_is_measured_in_one_walk_over_its_samples(monkeypatch):
    # each of the rung's five samples, and the limit rung's sample at its
    # time, is read through one record, which the monitors, the energies,
    # the distances and the quantum pairing share: 51 full and 45 box
    # inverse transforms and 18 forwards, the simulation excluded (66, 60
    # and 23 when the monitors, the distances and the weak integral each
    # walked the samples through a reader of their own)
    spec = SweepSpec(
        "kappa",
        (0.2, 0.1, 0.0),
        "density_bump",
        dim=1,
        points=32,
        t_end=0.004,
        reg=RegParams(dt=1e-3, picard_tol=1e-11),
        n_modes=6,
    )
    reference, rung = (qmhd.experiments._simulate(spec, v) for v in (0.0, 0.1))
    assert len(rung.states) == 5
    monkeypatch.setattr(qmhd.experiments, "_simulate", lambda spec, value: rung)
    counts = count_transforms(monkeypatch)
    qmhd.experiments._measure(spec, reference, 0.1)
    assert counts == transform_counts(backward_full=51, forward_full=18, backward_box=45)


def test_n_sweep_tail_energy_monotone():
    spec = SweepSpec(
        "n",
        (3, 6, 9, 15),
        "single_mode",
        dim=1,
        points=32,
        t_end=0.02,
        reg=RegParams(dt=1e-3, picard_tol=1e-11),
    )
    result = run_sweep(spec)
    tails = [r["tail_energy"] for r in result.rows]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))
    assert tails[-1] == 0.0


def test_sweep_deterministic(tmp_path):
    spec = SweepSpec(
        "kappa",
        (0.1, 0.05, 0.0),
        "random_smooth",
        dim=1,
        points=32,
        t_end=0.005,
        reg=RegParams(dt=1e-3, picard_tol=1e-11),
        n_modes=6,
        seed=42,
    )
    assert run_sweep(spec).rows == run_sweep(spec).rows


@pytest.mark.parametrize("parameter, values", [("epsilon", (0.02, 0.01, 0.0)), ("eta", (0.002, 0.001, 0.0))])
def test_epsilon_and_eta_ladders(parameter, values):
    base = RegParams(epsilon=0.01, eta=0.001, delta=1e-4, dt=1e-3, picard_tol=1e-11)
    spec = SweepSpec(parameter, values, "random_smooth", dim=1, points=32, t_end=0.003, reg=base, n_modes=6)
    # a rung sets the swept field alone
    for v in values:
        phys, reg, n = spec.rung_params(v)
        assert (phys, n) == (spec.phys, spec.n_modes)
        assert reg == replace(base, **{parameter: v})
    rows = run_sweep(spec).rows
    assert [r["value"] for r in rows] == list(values)
    assert all(v == 0.0 for k, v in rows[-1].items() if k.startswith("dist_"))
    assert all(r["dist_rho"] > 0.0 for r in rows[:-1])
    # neither ladder has a vanishing term to pair with the test fields
    assert not any(k.startswith("weak_") for r in rows for k in r)


def test_delta_sweep_higher_capillarity_order():
    # the delta ladder also runs at s=4 (ninth-order capillarity); low-mode
    # velocity space keeps the dispersive stiffness harmless
    spec = SweepSpec(
        "delta",
        (4e-4, 2e-4, 1e-4),
        "density_bump",
        dim=1,
        points=32,
        t_end=0.01,
        reg=RegParams(dt=1e-3, s=4, picard_tol=1e-11),
        n_modes=3,
    )
    result = run_sweep(spec)
    caps = [r["capillary_energy_max"] for r in result.rows]
    assert all(a > b > 0 for a, b in zip(caps, caps[1:]))
    scaled = [r["weak_scaled"] for r in result.rows]
    assert all(np.isfinite(v) for v in scaled)


def test_sweep_parallel_matches_serial():
    spec = SweepSpec(
        "kappa",
        (0.1, 0.05, 0.0),
        "density_bump",
        dim=1,
        points=32,
        t_end=0.004,
        reg=RegParams(dt=1e-3, picard_tol=1e-11),
        n_modes=6,
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert serial.rows == parallel.rows
    assert serial.counts == parallel.counts


def test_a_parallel_sweep_sends_each_rung_only_its_value(monkeypatch):
    # the limit rung's trajectory goes to each worker once, with the spec;
    # a task carries the rung's value and pickles to under 1 KiB
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    sizes = []
    submit = ProcessPoolExecutor.submit

    def recording(self, fn, /, *args, **kwargs):
        sizes.append(len(pickle.dumps((fn, args, kwargs))))
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
    spec = SweepSpec(
        "kappa",
        (0.1, 0.05, 0.0),
        "density_bump",
        dim=1,
        points=32,
        t_end=0.004,
        reg=RegParams(dt=1e-3, picard_tol=1e-11),
        n_modes=6,
    )
    result = run_sweep(spec, workers=2)
    assert len(sizes) == 3 and max(sizes) < 1024
    assert result.rows[-1]["dist_rho"] == 0.0


def test_a_sweep_holds_at_most_two_trajectories(monkeypatch):
    # the limit rung runs first, and each other rung is measured against it
    # as it finishes and then let go
    import gc
    import weakref

    import qmhd.experiments

    runs, alive = [], []
    run = qmhd.experiments.run_simulation

    def tracked(*args, **kwargs):
        traj = run(*args, **kwargs)
        runs.append(weakref.ref(traj))
        gc.collect()
        alive.append(sum(ref() is not None for ref in runs))
        return traj

    monkeypatch.setattr(qmhd.experiments, "run_simulation", tracked)
    spec = SweepSpec(
        "kappa",
        (0.1, 0.05, 0.02, 0.0),
        "density_bump",
        dim=1,
        points=32,
        t_end=0.004,
        reg=RegParams(dt=1e-3, picard_tol=1e-11),
        n_modes=6,
    )
    run_sweep(spec)
    assert len(alive) == 4 and max(alive) == 2


def test_content_hash_stable(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc123")
    assert content_hash(p) == content_hash(p)
    q = tmp_path / "y.bin"
    q.write_bytes(b"abc124")
    assert content_hash(p) != content_hash(q)


@pytest.mark.parametrize("shape", [(32,), (16, 16), (8, 8, 8)])
def test_random_smooth_matches_full_layout_reference(shape):
    # the seeded data are the real part of an independent random complex
    # number at every +-k; build that reference with a full c2c spectrum
    grid = TorusGrid(shape)
    rng = np.random.default_rng(5)

    def reference():
        spec = np.zeros(shape, dtype=np.complex128)
        for axis_k in np.ndindex(*([5] * grid.dim)):
            k = tuple(kk - 2 for kk in axis_k)
            if any(k):
                spec[tuple(k[a] % shape[a] for a in range(grid.dim))] = rng.normal() + 1j * rng.normal()
        vals = np.fft.ifftn(spec * grid.num_points).real
        return vals / np.max(np.abs(vals))

    rho_ref = 1.0 + 0.25 * reference()
    u_ref = [0.1 * reference() for _ in range(3)]
    rho, u, _ = benchmark_fields("random_smooth", grid, seed=5)
    assert np.max(np.abs(rho.values - rho_ref)) <= 1e-14
    for c, ref in zip(u.components, u_ref):
        assert np.max(np.abs(c.values - ref)) <= 1e-14
