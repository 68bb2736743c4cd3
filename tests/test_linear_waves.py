"""Linear waves against a closed-form oracle that shares no code with the
solver.

A small perturbation of a uniform state evolves by the PDE's linearization,
whose solution for one Fourier mode is the exponential of a small matrix.
Each case runs the solver at halving time steps and requires the error
against that exact solution to fall at second order, and to sit well below
the error against an oracle with one coefficient doubled, so a wrong factor
in the scheme cannot hide inside the time-discretization error.  The
circularly polarized Alfvén wave runs at amplitude 1: it solves the full
nonlinear system exactly, and its coefficients obey a small linear system
of the same kind.
"""

import numpy as np
import pytest

from qmhd import GalerkinBasis, PhysParams, PicardDivergence, RegParams, TorusGrid, run_simulation
from qmhd.basis import BasisMode
from qmhd.constitutive import ResistivityParams, cold_pressure_derivative
from qmhd.fields import ScalarField, VectorField
from qmhd.solver import initial_state


def _exact(matrix: np.ndarray, y0: np.ndarray, t: float) -> np.ndarray:
    """exp(t matrix) y0 by the eigendecomposition of ``matrix``."""
    lam, vec = np.linalg.eig(matrix)
    return (vec @ (np.exp(lam * t) * np.linalg.solve(vec, y0.astype(complex)))).real


# At A = 1e-6 the velocity coefficients of the s = 2 case decay to about
# 1e-8 by the last steps, and a Picard velocity update, measured relative to
# the coefficients, then stalls at roundoff between 1e-11 and 1e-10: a step
# at dt = 4e-3 stops with PicardDivergence at picard_tol 1e-11.  It stays a
# strict xfail until a stalled update is told from a diverging one; at
# picard_tol 1e-10 it meets the bounds below.  The oblique case, whose
# coefficients decay to about 1e-7, stalled the same way while every step
# started from the cubic; started up to the quintic (solver._start_order), its
# steps converge at picard_tol 1e-11.
ROUNDOFF_STALL = pytest.mark.xfail(
    strict=True, raises=PicardDivergence, reason="the velocity update stalls at roundoff above picard_tol"
)


@pytest.mark.parametrize("s, doubled", [(1, "kappa"), pytest.param(2, "delta", marks=ROUNDOFF_STALL)])
def test_magnetosonic_wave_matches_linear_oracle(s, doubled):
    # (rho', u_x, B_z') = (r cos kx, v sin kx, b cos kx) about (rho0, 0, B0 e_z):
    #   r' = -eps k^2 r - rho0 k v
    #   rho0 v' = k (c^2 + kappa^2 k^2 + delta rho0 k^(4s+2)) r - (2 rho0 k^2 + eta k^4) v + B0 k b
    #   b' = -B0 k v - nu_b(rho0) k^2 b
    # with c^2 = P'(rho0) + Pc'(rho0); nu_b is constant d0 above the threshold 1.
    # The control doubles kappa^2 at s = 1 and delta at s = 2, where the
    # capillary term dominates the restoring force
    k, rho0, b0, amp, t_end = 2, 1.5, 0.5, 1e-6, 1.0
    kappa, delta, eps, eta, d0 = 0.3, 1e-3, 0.02, 1e-3, 0.05
    phys = PhysParams(kappa=kappa, resistivity=ResistivityParams(d0=d0))
    grid = TorusGrid((32,))
    basis = GalerkinBasis(grid, [BasisMode((k, 0, 0), "sin", 0)])
    x = grid.mesh[0]
    zero = np.zeros(grid.shape)

    def run(dt: float) -> np.ndarray:
        reg = RegParams(epsilon=eps, eta=eta, delta=delta, s=s, dt=dt, picard_tol=1e-11)
        rho = ScalarField(grid, rho0 + amp * np.cos(k * x))
        u = VectorField.from_arrays(grid, [amp * np.sin(k * x), zero, zero])
        b = VectorField.from_arrays(grid, [zero, zero, b0 + amp * np.cos(k * x)])
        final = run_simulation(initial_state(rho, u, b, basis, reg), phys, reg, t_end).final_state
        # r cos kx + v sin kx has the coefficient (r - i v) / 2 at k
        return np.array([
            2.0 * final.rho.spectrum[k].real,
            -2.0 * final.u.components[0].spectrum[k].imag,
            2.0 * final.magnetic.components[2].spectrum[k].real,
        ])

    def oracle(kappa_sq: float, delta: float) -> np.ndarray:
        c_sq = phys.gamma * rho0 ** (phys.gamma - 1.0) + float(cold_pressure_derivative(rho0, phys))
        matrix = np.array([
            [-eps * k**2, -rho0 * k, 0.0],
            [k * (c_sq + kappa_sq * k**2 + delta * rho0 * k ** (4 * s + 2)) / rho0,
             -(2.0 * rho0 * k**2 + eta * k**4) / rho0, b0 * k / rho0],
            [0.0, -b0 * k, -d0 * k**2],
        ])
        return _exact(matrix, np.array([amp, amp, amp]), t_end)

    exact = oracle(kappa**2, delta)
    finals = [run(dt) for dt in (8e-3, 4e-3, 2e-3, 1e-3)]
    errors = [np.linalg.norm(y - exact) / np.linalg.norm(exact) for y in finals]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(r >= 3.7 for r in ratios), (errors, ratios)
    control = oracle(2.0 * kappa**2, delta) if doubled == "kappa" else oracle(kappa**2, 2.0 * delta)
    control_error = np.linalg.norm(finals[-1] - control) / np.linalg.norm(control)
    assert errors[-1] < 1e-3 * control_error, (errors[-1], control_error)


def test_shear_alfven_wave_matches_linear_oracle():
    # (u_y, B_y) = (v sin kx, b cos kx) about (rho0, 0, B0 e_x), B0 along k:
    #   rho0 v' = -(rho0 k^2 + eta k^4) v - B0 k b
    #   b' = B0 k v - nu_b(rho0) k^2 b
    # the shear viscosity rho0 k^2 is half the longitudinal one, magnetic
    # tension and field-line stretching couple v and b, and rho stays uniform
    k, rho0, b0, amp, t_end = 2, 1.5, 0.5, 1e-6, 1.0
    kappa, delta, eps, eta, d0 = 0.3, 1e-3, 0.02, 1e-3, 0.05
    phys = PhysParams(kappa=kappa, resistivity=ResistivityParams(d0=d0))
    grid = TorusGrid((32,))
    basis = GalerkinBasis(grid, [BasisMode((k, 0, 0), "sin", 1)])
    x = grid.mesh[0]
    zero = np.zeros(grid.shape)

    def run(dt: float) -> np.ndarray:
        reg = RegParams(epsilon=eps, eta=eta, delta=delta, dt=dt, picard_tol=1e-11)
        rho = ScalarField(grid, np.full(grid.shape, rho0))
        u = VectorField.from_arrays(grid, [zero, amp * np.sin(k * x), zero])
        b = VectorField.from_arrays(grid, [np.full(grid.shape, b0), amp * np.cos(k * x), zero])
        final = run_simulation(initial_state(rho, u, b, basis, reg), phys, reg, t_end).final_state
        # v sin kx has the coefficient -i v / 2 at k, b cos kx the coefficient b / 2
        return np.array([
            -2.0 * final.u.components[1].spectrum[k].imag,
            2.0 * final.magnetic.components[1].spectrum[k].real,
        ])

    def oracle(shear: float) -> np.ndarray:
        matrix = np.array([
            [-(shear + eta * k**4) / rho0, -b0 * k / rho0],
            [b0 * k, -d0 * k**2],
        ])
        return _exact(matrix, np.array([amp, amp]), t_end)

    exact = oracle(rho0 * k**2)
    finals = [run(dt) for dt in (8e-3, 4e-3, 2e-3, 1e-3)]
    errors = [np.linalg.norm(y - exact) / np.linalg.norm(exact) for y in finals]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(r >= 3.7 for r in ratios), (errors, ratios)
    # the longitudinal viscosity in place of the shear one
    control = oracle(2.0 * rho0 * k**2)
    control_error = np.linalg.norm(finals[-1] - control) / np.linalg.norm(control)
    assert errors[-1] < 1e-3 * control_error, (errors[-1], control_error)


def test_oblique_2d_wave_matches_linear_oracle():
    # (rho', u, B_z') = (r cos k.x, v sin k.x, b cos k.x) about (rho0, 0, B0 e_z),
    # k = (2, 1) and v = (v_x, v_y) in the plane:
    #   r' = -eps |k|^2 r - rho0 k.v
    #   rho0 v' = k (c^2 + kappa^2 |k|^2 + delta rho0 |k|^(4s+2)) r
    #             - rho0 (|k|^2 v + k (k.v)) - eta |k|^4 v + B0 b k
    #   b' = -B0 k.v - nu_b(rho0) |k|^2 b
    # the viscous stress splits into lap u and grad div u, which act on v
    # across and along k; the control doubles the grad-div part
    kv, rho0, b0, amp, t_end = np.array([2.0, 1.0]), 1.5, 0.5, 1e-6, 1.0
    kappa, delta, s, eps, eta, d0 = 0.3, 1e-3, 1, 0.02, 1e-3, 0.05
    k2 = float(kv @ kv)
    phys = PhysParams(kappa=kappa, resistivity=ResistivityParams(d0=d0))
    grid = TorusGrid((32, 32))
    basis = GalerkinBasis(grid, [BasisMode((2, 1, 0), "sin", 0), BasisMode((2, 1, 0), "sin", 1)])
    phase = 2 * grid.mesh[0] + grid.mesh[1]
    zero = np.zeros(grid.shape)

    def run(dt: float) -> np.ndarray:
        reg = RegParams(epsilon=eps, eta=eta, delta=delta, s=s, dt=dt, picard_tol=1e-11)
        rho = ScalarField(grid, rho0 + amp * np.cos(phase))
        u = VectorField.from_arrays(grid, [amp * np.sin(phase), amp * np.sin(phase), zero])
        b = VectorField.from_arrays(grid, [zero, zero, b0 + amp * np.cos(phase)])
        final = run_simulation(initial_state(rho, u, b, basis, reg), phys, reg, t_end).final_state
        # r cos k.x + v sin k.x has the coefficient (r - i v) / 2 at k, which
        # the half spectrum stores at [2, 1]
        return np.array([
            2.0 * final.rho.spectrum[2, 1].real,
            -2.0 * final.u.components[0].spectrum[2, 1].imag,
            -2.0 * final.u.components[1].spectrum[2, 1].imag,
            2.0 * final.magnetic.components[2].spectrum[2, 1].real,
        ])

    def oracle(grad_div: float) -> np.ndarray:
        c_sq = phys.gamma * rho0 ** (phys.gamma - 1.0) + float(cold_pressure_derivative(rho0, phys))
        restoring = c_sq + kappa**2 * k2 + delta * rho0 * k2 ** (2 * s + 1)
        viscous = (rho0 * k2 + eta * k2**2) * np.eye(2) + grad_div * rho0 * np.outer(kv, kv)
        matrix = np.zeros((4, 4))
        matrix[0, 0], matrix[0, 1:3] = -eps * k2, -rho0 * kv
        matrix[1:3, 0], matrix[1:3, 1:3], matrix[1:3, 3] = kv * restoring / rho0, -viscous / rho0, b0 * kv / rho0
        matrix[3, 1:3], matrix[3, 3] = -b0 * kv, -d0 * k2
        return _exact(matrix, np.full(4, amp), t_end)

    exact = oracle(1.0)
    finals = [run(dt) for dt in (8e-3, 4e-3, 2e-3, 1e-3)]
    errors = [np.linalg.norm(y - exact) / np.linalg.norm(exact) for y in finals]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(r >= 3.7 for r in ratios), (errors, ratios)
    control = oracle(2.0)
    control_error = np.linalg.norm(finals[-1] - control) / np.linalg.norm(control)
    assert errors[-1] < 1e-3 * control_error, (errors[-1], control_error)


def test_circularly_polarized_alfven_wave_matches_exact_solution():
    # (u_y, u_z) = A (cos x, sin x) and (B_y, B_z) = A (cos x, sin x) about
    # rho = 1 and B0 = e_x, at amplitude A = 1: |B|^2 is constant and u.grad u
    # vanishes, so rho stays 1 and the wave is an exact nonlinear solution.
    # Each Fourier coefficient of (u_y, B_y) and of (u_z, B_z) obeys
    #   u' = i k B0 b - (rho k^2 + eta k^4) u,   b' = i k B0 u - nu_b(1) k^2 b
    # with k = 1; the Lorentz force, the induction's cross products and the
    # dealiased products all act at O(1) amplitude
    k, b0, t_end = 1, 1.0, 0.2
    eta, nu_b = 1e-3, 1.0  # nu_b(1) = d0 at the default resistivity
    phys = PhysParams(kappa=0.1)
    grid = TorusGrid((64,))
    basis = GalerkinBasis.lowest_modes(grid, 9)
    x = grid.mesh[0]
    zero = np.zeros(grid.shape)

    def run(dt: float):
        reg = RegParams(epsilon=1e-2, eta=eta, delta=1e-4, dt=dt, picard_tol=1e-12)
        rho = ScalarField(grid, np.ones(grid.shape))
        u = VectorField.from_arrays(grid, [zero, np.cos(x), np.sin(x)])
        b = VectorField.from_arrays(grid, [np.full(grid.shape, b0), np.cos(x), np.sin(x)])
        return run_simulation(initial_state(rho, u, b, basis, reg), phys, reg, t_end).final_state

    def coefficients(state) -> np.ndarray:
        # (u_y, B_y, u_z, B_z) at wavenumber k
        u, b = state.u.components, state.magnetic.components
        return np.array([u[1].spectrum[k], b[1].spectrum[k], u[2].spectrum[k], b[2].spectrum[k]])

    def oracle(lorentz: float) -> np.ndarray:
        matrix = np.array([[-(k**2 + eta * k**4), lorentz * 1j * k * b0], [1j * k * b0, -nu_b * k**2]])
        lam, vec = np.linalg.eig(matrix)
        # cos x has the coefficient 1/2 at k, sin x the coefficient -i/2
        pairs = [np.array([0.5, 0.5]), np.array([-0.5j, -0.5j])]
        return np.concatenate([vec @ (np.exp(lam * t_end) * np.linalg.solve(vec, y0)) for y0 in pairs])

    def rms(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sqrt(np.mean(np.abs(a - b) ** 2)))

    exact = oracle(1.0)
    finals = [run(dt) for dt in (4e-3, 2e-3, 1e-3, 5e-4)]
    errors = [rms(coefficients(f), exact) for f in finals]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(r >= 3.7 for r in ratios), (errors, ratios)
    # the Lorentz force doubled
    control_error = rms(coefficients(finals[-1]), oracle(2.0))
    assert errors[-1] < 1e-3 * control_error, (errors[-1], control_error)
    for f in finals:
        assert np.max(np.abs(f.rho.values - 1.0)) <= 1e-13
        assert np.max(np.abs(f.u.components[0].values)) <= 1e-15
        # div B = d_x B_x: B_x keeps its mean and nothing else
        assert np.max(np.abs(f.magnetic.components[0].spectrum[1:])) <= 1e-15
