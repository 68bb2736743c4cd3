"""Linear waves against a closed-form oracle that shares no code with the
solver.

A small perturbation of a uniform state evolves by the PDE's linearization,
whose solution for one Fourier mode is the exponential of a small matrix.
Each case runs the solver at halving time steps and requires the error
against that exact solution to fall at second order, and to sit well below
the error against an oracle with one coefficient doubled, so a wrong factor
in the scheme cannot hide inside the time-discretization error.
"""

import numpy as np

from qmhd import GalerkinBasis, PhysParams, RegParams, TorusGrid, run_simulation
from qmhd.basis import BasisMode
from qmhd.constitutive import ResistivityParams, cold_pressure_derivative
from qmhd.fields import ScalarField, VectorField
from qmhd.solver import initial_state


def _exact(matrix: np.ndarray, y0: np.ndarray, t: float) -> np.ndarray:
    """exp(t matrix) y0 by the eigendecomposition of ``matrix``."""
    lam, vec = np.linalg.eig(matrix)
    return (vec @ (np.exp(lam * t) * np.linalg.solve(vec, y0.astype(complex)))).real


def test_magnetosonic_wave_matches_linear_oracle():
    # (rho', u_x, B_z') = (r cos kx, v sin kx, b cos kx) about (rho0, 0, B0 e_z):
    #   r' = -eps k^2 r - rho0 k v
    #   rho0 v' = k (c^2 + kappa^2 k^2 + delta rho0 k^(4s+2)) r - (2 rho0 k^2 + eta k^4) v + B0 k b
    #   b' = -B0 k v - nu_b(rho0) k^2 b
    # with c^2 = P'(rho0) + Pc'(rho0); nu_b is constant d0 above the threshold 1
    k, rho0, b0, amp, t_end = 2, 1.5, 0.5, 1e-6, 1.0
    kappa, delta, s, eps, eta, d0 = 0.3, 1e-3, 1, 0.02, 1e-3, 0.05
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

    def oracle(kappa_sq: float) -> np.ndarray:
        c_sq = phys.gamma * rho0 ** (phys.gamma - 1.0) + float(cold_pressure_derivative(rho0, phys))
        matrix = np.array([
            [-eps * k**2, -rho0 * k, 0.0],
            [k * (c_sq + kappa_sq * k**2 + delta * rho0 * k ** (4 * s + 2)) / rho0,
             -(2.0 * rho0 * k**2 + eta * k**4) / rho0, b0 * k / rho0],
            [0.0, -b0 * k, -d0 * k**2],
        ])
        return _exact(matrix, np.array([amp, amp, amp]), t_end)

    exact = oracle(kappa**2)
    finals = [run(dt) for dt in (8e-3, 4e-3, 2e-3, 1e-3)]
    errors = [np.linalg.norm(y - exact) / np.linalg.norm(exact) for y in finals]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(r >= 3.7 for r in ratios), (errors, ratios)
    control = oracle(2.0 * kappa**2)
    control_error = np.linalg.norm(finals[-1] - control) / np.linalg.norm(control)
    assert errors[-1] < 1e-3 * control_error, (errors[-1], control_error)
