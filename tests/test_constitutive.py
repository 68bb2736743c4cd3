import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qmhd import DensityFloorViolation, NonpositiveDensity, PhysParams, ResistivityParams, TorusGrid
from qmhd.constitutive import (
    bohm_force_primary,
    cold_enthalpy,
    cold_enthalpy_derivative,
    cold_enthalpy_second,
    cold_pressure,
    cold_pressure_derivative,
    enthalpy,
    enthalpy_derivative,
    magnetic_diffusivity,
    pressure,
)
from qmhd.diagnostics import bohm_identity_check
from qmhd.fields import ScalarField, l2_norm

RHO_GRID = np.geomspace(1e-3, 1e3, 61)


def central(f, rho, params):
    h = 1e-6 * rho
    return (f(rho + h, params) - f(rho - h, params)) / (2 * h)


def test_pressure_examples():
    assert pressure(3.0, PhysParams(gamma=2.0)) == pytest.approx(9.0)
    assert pressure(1.0, PhysParams(gamma=1.4)) == pytest.approx(1.0)


def test_pressure_field_pointwise():
    grid = TorusGrid((32,))
    x = grid.mesh[0]
    params = PhysParams(gamma=5.0 / 3.0)
    rho = ScalarField(grid, 2.0 + np.cos(x))
    expected = (2.0 + np.cos(x)) ** (5.0 / 3.0)
    assert np.max(np.abs(pressure(rho.values, params) - expected)) <= 1e-14


def test_pressure_rejects_nonpositive():
    with pytest.raises(NonpositiveDensity):
        pressure(0.0, PhysParams())
    with pytest.raises(NonpositiveDensity):
        pressure(np.array([1.0, -0.5]), PhysParams())


def test_cold_pressure_derivative_examples():
    params = PhysParams(gamma=2.0, gamma_minus=4.0, c1=1.0, c2=1.0)
    # both branches agree at the knot
    assert cold_pressure_derivative(1.0, params) == pytest.approx(1.0)
    assert cold_pressure_derivative(0.5, params) == pytest.approx(32.0)
    assert cold_pressure_derivative(2.0, params) == pytest.approx(2.0)


def test_enthalpy_identity_example():
    params = PhysParams(gamma=2.0)
    # rho H' - H = P at rho = 3
    assert 3.0 * enthalpy_derivative(3.0, params) - enthalpy(3.0, params) == pytest.approx(
        pressure(3.0, params)
    )


def test_cold_enthalpy_normalization():
    params = PhysParams(gamma_minus=4.0)
    assert cold_enthalpy(1.0, params) == pytest.approx(0.0, abs=1e-14)
    assert cold_enthalpy_derivative(1.0, params) == pytest.approx(0.0, abs=1e-14)


def identity_residual(f_val, f_press, rho, params):
    """Centered-difference residual of rho f' - f - P, scaled by the largest term."""
    h = rho.dtype.type(1e-6) * rho
    hi, lo = rho + h, rho - h
    df = (f_val(hi, params) - f_val(lo, params)) / (hi - lo)
    res = rho * df - f_val(rho, params) - f_press(rho, params)
    scale = np.maximum.reduce(
        [np.abs(rho * df), np.abs(f_val(rho, params)), np.abs(f_press(rho, params)), np.ones_like(rho)]
    )
    return float(np.max(np.abs(res) / scale))


def test_enthalpy_identities_on_log_grid():
    params = PhysParams(gamma=5.0 / 3.0, gamma_minus=4.0)
    # extended precision isolates the identity from np.power ulp noise
    grid = RHO_GRID.astype(np.longdouble)
    assert identity_residual(enthalpy, pressure, grid, params) <= 1e-10
    assert identity_residual(cold_enthalpy, cold_pressure, grid, params) <= 1e-10
    # at working precision the same check sits at the cancellation floor
    assert identity_residual(enthalpy, pressure, RHO_GRID, params) <= 3e-10
    assert identity_residual(cold_enthalpy, cold_pressure, RHO_GRID, params) <= 3e-10


def test_cold_pressure_against_quadrature_of_derivative():
    # independent oracle: integrate Pc' from the knot, where Pc(1) = 0
    params = PhysParams(gamma=5.0 / 3.0, gamma_minus=4.0, c1=1.0, c2=1.0)
    for rho in (0.25, 0.5, 2.0, 4.0):
        oracle, err = quad(lambda t: cold_pressure_derivative(t, params), 1.0, rho, epsabs=1e-13, epsrel=1e-13)
        direct = rho * cold_enthalpy_derivative(rho, params) - cold_enthalpy(rho, params)
        assert direct == pytest.approx(oracle, rel=1e-10, abs=1e-10)
        assert direct == pytest.approx(cold_pressure(rho, params), rel=1e-13)


def test_enthalpies_convex():
    params = PhysParams(gamma=5.0 / 3.0, gamma_minus=4.0)
    for f in (enthalpy, cold_enthalpy):
        h = 1e-4 * RHO_GRID
        second = (f(RHO_GRID + h, params) - 2 * f(RHO_GRID, params) + f(RHO_GRID - h, params)) / h**2
        assert np.all(second >= -1e-8 * np.maximum(np.abs(f(RHO_GRID, params)), 1.0))


def test_cold_enthalpy_blows_up_toward_vacuum():
    params = PhysParams(gamma_minus=4.0)
    rhos = np.geomspace(1e-4, 0.9, 30)
    vals = cold_enthalpy(rhos, params)
    assert np.all(np.diff(vals) < 0)  # decreasing in rho below 1
    assert vals[0] > 1e12


def test_cold_enthalpy_second_is_derivative_ratio():
    params = PhysParams(gamma=1.8, gamma_minus=5.0)
    rhos = np.array([0.3, 0.9, 1.5, 7.0])
    assert np.allclose(
        cold_enthalpy_second(rhos, params), cold_pressure_derivative(rhos, params) / rhos
    )


def test_magnetic_diffusivity_branches():
    params = PhysParams(resistivity=ResistivityParams(d0=1.0, a=2.0, threshold=1.0))
    # continuity at the threshold
    assert magnetic_diffusivity(1.0 - 1e-12, params) == pytest.approx(
        magnetic_diffusivity(1.0, params), rel=1e-9
    )
    assert magnetic_diffusivity(0.5, params) == pytest.approx(4.0)
    assert magnetic_diffusivity(7.0, params) == pytest.approx(1.0)


def test_magnetic_diffusivity_lower_bound():
    params = PhysParams(resistivity=ResistivityParams(d0=2.0, a=2.0, threshold=0.7))
    r = params.resistivity
    floor = min(r.d2, r.d0 * r.threshold ** (-r.a))
    rhos = np.geomspace(1e-4, 1e4, 200)
    assert np.all(magnetic_diffusivity(rhos, params) >= floor - 1e-14)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=0.999),
    st.floats(min_value=1e-3, max_value=0.999),
)
def test_magnetic_diffusivity_monotone_below_threshold(a, b):
    params = PhysParams()
    lo, hi = min(a, b), max(a, b)
    assert magnetic_diffusivity(lo, params) >= magnetic_diffusivity(hi, params) - 1e-12


def test_resistivity_validation():
    with pytest.raises(ValueError):
        ResistivityParams(a=1.0)
    with pytest.raises(ValueError):
        ResistivityParams(a=3.0)


def test_phys_validation():
    with pytest.raises(ValueError):
        PhysParams(gamma=1.0)
    with pytest.raises(ValueError):
        PhysParams(kappa=-0.1)
    with pytest.raises(ValueError):
        PhysParams(c1=0.0)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: ResistivityParams(d0=0.0), ValueError, "d0 must be positive"),
        (lambda: ResistivityParams(threshold=0.0), ValueError, "threshold must be positive"),
        (lambda: PhysParams(gamma_minus=0.5), ValueError, "gamma_minus must be at least 1"),
        (
            lambda: bohm_force_primary(ScalarField(TorusGrid((16,)), np.zeros(16)), 1.0),
            NonpositiveDensity,
            "density must be strictly positive",
        ),
    ],
    ids=["resistivity_d0", "resistivity_threshold", "gamma_minus", "bohm_nonpositive"],
)
def test_constitutive_inputs_rejected(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_bohm_constant_density_is_zero():
    # the pointwise force, and the scheme's quantum force through its
    # distance from it
    grid = TorusGrid((32,))
    rho = ScalarField(grid, np.full(grid.shape, 2.0))
    f = bohm_force_primary(rho, 1.0)
    assert all(l2_norm(c) <= 1e-10 for c in f.components)
    assert bohm_identity_check(rho, 1.0) <= 1e-10


def test_bohm_zero_kappa_is_zero():
    grid = TorusGrid((32,))
    x = grid.mesh[0]
    rho = ScalarField(grid, 2.0 + np.cos(x))
    f = bohm_force_primary(rho, 0.0)
    assert all(l2_norm(c) == 0.0 for c in f.components)


def _bumps(shape):
    """2 + 0.5 cos x + 0.3 sin y (+ 0.2 cos z) on the grid of ``shape``."""
    grid = TorusGrid(shape)
    bumps = zip((0.5, 0.3, 0.2), (np.cos, np.sin, np.cos), grid.mesh)
    return ScalarField(grid, 2.0 + sum(a * f(x) for a, f, x in bumps))


def test_bohm_forms_converge_spectrally():
    # the pointwise force against the scheme's quantum stress, 16 -> 32
    # points per axis; criterion 2 refines 2 + cos x from 32 to 128 points
    for dim in (1, 2, 3):
        coarse, fine = (bohm_identity_check(_bumps((n,) * dim), 1.0) for n in (16, 32))
        assert fine <= coarse / 1e4, dim
        assert fine <= 1e-9, dim


def test_bohm_floor_violation():
    grid = TorusGrid((32,))
    rho = ScalarField(grid, np.full(grid.shape, 1e-9))
    with pytest.raises(DensityFloorViolation):
        bohm_force_primary(rho, 1.0)
