"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with ``pytest tests/test_acceptance.py -v -s``).

Desk scale: 1D at 128 points, 2D at 64^2, one 3D 32^3 smoke run.
"""

import csv
import os

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qmhd import (
    GalerkinBasis,
    PhysParams,
    RegParams,
    TorusGrid,
    initial_state,
    run_simulation,
)
from qmhd.basis import BasisMode
from qmhd.cli import main
from qmhd.constitutive import (
    cold_enthalpy,
    cold_pressure,
    enthalpy,
    magnetic_diffusivity,
    pressure,
)
from qmhd.diagnostics import (
    bd_entropy_residual,
    bohm_identity_check,
    compute_dissipation,
    energy_identity_residual,
)
from qmhd.experiments import benchmark_state
from qmhd.fields import ScalarField, VectorField
from qmhd.solver import solve_density_step, solve_magnetic_step

from conftest import run_with_infos
from test_solver import semi_discrete_rhs


def _report(num, ok: bool, detail: str):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------------------
# 1. constitutive identities


def test_criterion_1_constitutive_identities():
    phys = PhysParams(gamma=5.0 / 3.0, gamma_minus=4.0, c1=1.0, c2=1.0)
    rho = np.geomspace(1e-3, 1e3, 61).astype(np.longdouble)
    h = np.longdouble(1e-6) * rho
    hi, lo = rho + h, rho - h

    def residual(f, p):
        df = (f(hi, phys) - f(lo, phys)) / (hi - lo)
        res = rho * df - f(rho, phys) - p(rho, phys)
        scale = np.maximum.reduce(
            [np.abs(rho * df), np.abs(f(rho, phys)), np.abs(p(rho, phys)), np.ones_like(rho)]
        )
        return float(np.max(np.abs(res) / scale))

    r1 = residual(enthalpy, pressure)
    r2 = residual(cold_enthalpy, cold_pressure)
    _report(1, r1 <= 1e-10 and r2 <= 1e-10, f"enthalpy residual {r1:.2e}, cold residual {r2:.2e}")


# --------------------------------------------------------------------------
# 2. quantum force identity under refinement


def test_criterion_2_bohm_identity_refinement():
    dists = {}
    for n in (32, 64, 128):
        grid = TorusGrid((n,))
        rho = ScalarField(grid, 2.0 + np.cos(grid.mesh[0]))
        dists[n] = bohm_identity_check(rho, kappa=1.0)
    spectral = dists[64] <= dists[32] / 50.0
    floor = dists[128] <= 1e-8 and dists[128] <= max(10.0 * dists[64], 1e-9)
    _report(
        2,
        spectral and floor,
        f"discrepancy {dists[32]:.2e} -> {dists[64]:.2e} -> {dists[128]:.2e}",
    )


# --------------------------------------------------------------------------
# 3. exact-solution regression for both linear solves


def test_criterion_3_exact_decay_regression():
    grid = TorusGrid((64,))
    x = grid.mesh[0]
    eps, dt = 0.1, 0.01
    rho = ScalarField(grid, 2.0 + np.cos(x))
    still = VectorField.zero(grid)
    worst_rho = 0.0
    for _ in range(100):
        new = solve_density_step(rho, still, eps, dt)
        ratio = np.fft.fft(new.values)[1] / np.fft.fft(rho.values)[1]
        worst_rho = max(worst_rho, abs(ratio - np.exp(-eps * dt)))
        rho = new

    phys = PhysParams()
    rho_bar = ScalarField(grid, np.full(grid.shape, 2.0))
    nu = float(magnetic_diffusivity(2.0, phys))
    b = VectorField.from_arrays(grid, [np.zeros(grid.shape), np.zeros(grid.shape), np.sin(x)])
    worst_b = 0.0
    for _ in range(100):
        new = solve_magnetic_step(b, still, rho_bar, dt, phys)
        ratio = np.fft.fft(new.components[2].values)[1] / np.fft.fft(b.components[2].values)[1]
        worst_b = max(worst_b, abs(ratio - np.exp(-nu * dt)))
        b = new

    _report(3, worst_rho <= 1e-10 and worst_b <= 1e-10, f"density dev {worst_rho:.2e}, magnetic dev {worst_b:.2e}")


# --------------------------------------------------------------------------
# 4. conservation suite, 2D, 1000 steps


def test_criterion_4_conservation_suite_2d():
    grid = TorusGrid((64, 64))
    basis = GalerkinBasis.lowest_modes(grid, 15)
    phys = PhysParams(kappa=0.05)
    reg = RegParams(epsilon=0.01, dt=1e-3, picard_tol=1e-11)
    state = benchmark_state("density_bump", grid, basis, reg)
    traj, infos = run_with_infos(state, phys, reg, 1.0, sample_every=100)
    drift = abs(traj.final_state.mass - state.mass) / state.mass
    div_b = max(i.div_b_norm for i in infos)
    corridor = max(i.corridor_margin for i in infos)
    _report(
        4,
        drift <= 1e-10 and div_b <= 1e-12 and corridor <= 1e-8,
        f"1000 steps: mass drift {drift:.2e}, max div B {div_b:.2e}, corridor excess {corridor:.2e}",
    )


# --------------------------------------------------------------------------
# 5 + 6. identity residuals shrink at second order in dt


@pytest.fixture(scope="module")
def residual_study():
    grid = TorusGrid((128,))
    basis = GalerkinBasis.lowest_modes(grid, 39)
    phys = PhysParams(kappa=0.1)
    x = grid.mesh[0]
    z = np.zeros(grid.shape)
    out = []
    for dt in (2e-3, 1e-3, 5e-4):
        reg = RegParams(epsilon=0.05, eta=5e-3, delta=5e-3, s=1, dt=dt, picard_tol=1e-12)
        rho = ScalarField(grid, 1.5 + 0.3 * np.cos(x))
        u = VectorField.from_arrays(grid, [0.15 * np.sin(x), 0.1 * np.cos(x), z])
        b = VectorField.from_arrays(grid, [z, z, 0.2 * np.sin(x)])
        state = initial_state(rho, u, b, basis, reg)
        out.append(run_simulation(state, phys, reg, 0.2))
    return out


def test_criterion_5_energy_identity_residual(residual_study):
    rms = []
    nonneg = True
    for traj in residual_study:
        series = energy_identity_residual(traj)
        rms.append(float(np.sqrt(np.mean(series.raw**2))))
        for s in traj.states:
            d = compute_dissipation(s, traj.phys, traj.reg)
            nonneg &= all(v >= 0.0 for v in d.as_dict().values())
    r1, r2 = rms[0] / rms[1], rms[1] / rms[2]
    _report(
        5,
        r1 >= 3.5 and r2 >= 3.5 and nonneg,
        f"energy residual rms {rms[0]:.2e} -> {rms[1]:.2e} -> {rms[2]:.2e} "
        f"(ratios {r1:.2f}, {r2:.2f}); dissipation terms nonnegative: {nonneg}",
    )


def test_criterion_6_bd_entropy_residual(residual_study):
    rms, spot_worst = [], 0.0
    for traj in residual_study:
        series, reports = bd_entropy_residual(traj)
        rms.append(float(np.sqrt(np.mean(series.raw**2))))
        for rep in reports:
            scale = max(abs(rep.spot_density_laplacian), 1e-300)
            spot_worst = max(
                spot_worst, abs(rep.rhs_density_laplacian - rep.spot_density_laplacian) / scale
            )
    r1, r2 = rms[0] / rms[1], rms[1] / rms[2]
    _report(
        6,
        r1 >= 3.5 and r2 >= 3.5 and spot_worst <= 1e-10,
        f"entropy residual rms {rms[0]:.2e} -> {rms[1]:.2e} -> {rms[2]:.2e} "
        f"(ratios {r1:.2f}, {r2:.2f}); spot identity dev {spot_worst:.2e}",
    )


# --------------------------------------------------------------------------
# 7. fixed-point construction against an independent time integrator


def test_criterion_7_single_mode_oracle():
    grid = TorusGrid((32,))
    basis = GalerkinBasis(grid, [BasisMode((1, 0, 0), "sin", 0)])
    phys = PhysParams(kappa=0.1)
    reg = RegParams(epsilon=0.02, dt=5e-4, picard_tol=1e-13)
    x = grid.mesh[0]
    z = np.zeros(grid.shape)
    rho = ScalarField(grid, 1.5 + 0.3 * np.cos(x))
    u0 = VectorField.from_arrays(grid, [0.2 * np.sin(x), z, z])
    b0 = VectorField.from_arrays(grid, [z, z, 0.2 * np.sin(x)])
    state = initial_state(rho, u0, b0, basis, reg)
    traj = run_simulation(state, phys, reg, 1.0, sample_every=200)

    y0 = np.concatenate(
        [
            state.velocity.values,
            state.rho.values.ravel(),
            np.concatenate([c.values.ravel() for c in state.magnetic.components]),
        ]
    )
    sol = solve_ivp(
        lambda t, y: semi_discrete_rhs(y, basis, phys, reg),
        (0.0, 1.0),
        y0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
        t_eval=traj.times,
    )
    err = float(np.max(np.abs([s.velocity.values[0] for s in traj.states] - sol.y[0])))
    worst_ratio = traj.max_contraction_ratio
    _report(
        7,
        err <= 1e-6 and worst_ratio < 1.0,
        f"max |lambda - oracle| {err:.2e} over t in [0,1]; "
        f"worst contraction ratio {worst_ratio:.3f}",
    )


# --------------------------------------------------------------------------
# 8. vanishing Planck constant


LADDERS = os.path.join(os.path.dirname(__file__), os.pardir, "ladders")


def _ladder_rows(name, tmp_path, monkeypatch):
    """Run ``ladders/<name>.sweep`` with ``qmhd sweep`` from ``tmp_path`` and
    read back its ``sweep_results.csv``: one row of floats per rung, in
    ladder order."""
    manifest = os.path.abspath(os.path.join(LADDERS, f"{name}.sweep"))
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", manifest]) == 0
    with open(tmp_path / "runs" / name / "sweep_results.csv", newline="") as fh:
        return [{k: float(v) for k, v in row.items() if v} for row in csv.DictReader(fh)]


@pytest.fixture(scope="module")
def planck_ladder(tmp_path_factory):
    """``ladders/planck_limit.sweep`` run once: its CSV rows and the fitted
    orders of its ``sweep_manifest.txt``."""
    out = tmp_path_factory.mktemp("planck")
    with pytest.MonkeyPatch.context() as mp:
        rows = _ladder_rows("planck_limit", out, mp)
    with open(out / "runs" / "planck_limit" / "sweep_manifest.txt") as fh:
        orders = {
            key: float(value)
            for key, value in (line.split(" = ") for line in fh if line.startswith("order_"))
        }
    return rows, orders


def test_criterion_8_planck_limit(planck_ladder):
    rows, _ = planck_ladder
    d_su = [r["dist_sqrt_rho_u"] for r in rows[:-1]]
    d_b = [r["dist_magnetic"] for r in rows[:-1]]
    monotone = all(a > b > 0 for a, b in zip(d_su, d_su[1:])) and all(
        a > b > 0 for a, b in zip(d_b, d_b[1:])
    )
    ratios = [r["weak_per_kappa_sq"] for r in rows[:-1]]
    bounded = max(np.abs(ratios)) <= 5.0 * max(min(np.abs(ratios)), 1e-12)
    quantum_vanishes = all(
        a > b for a, b in zip(
            [r["quantum_energy_max"] for r in rows[:-1]],
            [r["quantum_energy_max"] for r in rows[1:-1]],
        )
    )
    _report(
        8,
        monotone and bounded and quantum_vanishes,
        f"distances sqrt_rho_u {['%.3e' % v for v in d_su]}, B {['%.3e' % v for v in d_b]}; "
        f"weak integral / kappa^2 in [{min(ratios):.4f}, {max(ratios):.4f}]",
    )


def test_planck_ladder_orders_are_the_kappa_squared_scaling(planck_ladder):
    # the distances to the kappa = 0 rung scale as kappa^2 in every field
    _, orders = planck_ladder
    assert len(orders) == 6
    assert all(abs(v - 2.0) <= 0.05 for v in orders.values()), orders


# --------------------------------------------------------------------------
# 9. vanishing regularization (eta and epsilon slaved to delta)


def test_criterion_9_regularization_limit(tmp_path, monkeypatch):
    rows = _ladder_rows("regularization_limit_s1", tmp_path, monkeypatch)
    caps = [r["capillary_energy_max"] for r in rows]
    cap_monotone = all(a > b > 0 for a, b in zip(caps, caps[1:]))
    watched = (
        "grad_sqrt_rho_L2",
        "sqrt_rho_u_L2",
        "sqrt_rho_Du_L2",
        "B_L2",
        "grad_B_L2",
    )
    spread = {
        key: max(r[f"max_{key}"] for r in rows)
        / max(min(r[f"max_{key}"] for r in rows), 1e-300)
        for key in watched
    }
    within = all(v <= 2.0 for v in spread.values())
    min_rho = [r["min_rho"] for r in rows]
    _report(
        9,
        cap_monotone and within,
        f"capillary energy {['%.3e' % v for v in caps]} monotone; monitor spread "
        f"{max(spread.values()):.3f}x (<= 2x); min density per rung {['%.4f' % v for v in min_rho]}",
    )


# --------------------------------------------------------------------------
# 10. bitwise determinism of output files


def test_criterion_10_determinism(tmp_path):
    # literally identical config text, executed twice from different working
    # directories; every emitted file must agree byte for byte
    cfg_text = """
[grid]
points = 64
modes = 9
[physics]
kappa = 0.05
[regularization]
epsilon = 0.01
delta = 0.001
dt = 0.001
t_end = 0.02
picard_tol = 1e-11
[initial]
benchmark = random_smooth
[output]
directory = out
snapshot_every = 10
[determinism]
seed = 9
"""
    outs = []
    cwd = os.getcwd()
    try:
        for tag in ("a", "b"):
            workdir = tmp_path / tag
            workdir.mkdir()
            (workdir / "run.cfg").write_text(cfg_text)
            os.chdir(workdir)
            assert main(["run", "run.cfg"]) == 0
            outs.append(workdir / "out")
    finally:
        os.chdir(cwd)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)
    _report(10, identical, f"{len(names)} output files bitwise identical across reruns")


# --------------------------------------------------------------------------
# 3D smoke run (desk-scale sanity beyond the numbered criteria)


def test_smoke_3d():
    grid = TorusGrid((32, 32, 32))
    basis = GalerkinBasis.lowest_modes(grid, 9)
    phys = PhysParams(kappa=0.05)
    reg = RegParams(epsilon=0.01, dt=2e-3, picard_tol=1e-10)
    state = benchmark_state("single_mode", grid, basis, reg)
    traj, infos = run_with_infos(state, phys, reg, 0.01)
    drift = abs(traj.final_state.mass - state.mass) / state.mass
    div_b = max(i.div_b_norm for i in infos)
    ok = drift <= 1e-10 and div_b <= 1e-12 and traj.max_contraction_ratio < 1.0
    print(f"\n3d smoke: {'PASS' if ok else 'FAIL'} - mass drift {drift:.2e}, div B {div_b:.2e}")
    assert ok
