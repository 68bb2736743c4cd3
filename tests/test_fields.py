import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmhd.fields
from qmhd import SpectralTailWarning, TorusGrid
from qmhd.basis import GalerkinBasis
from qmhd.fields import (
    ScalarField,
    VectorField,
    _backward,
    _box_index,
    _curl_operands,
    _curl_spectra,
    _forward,
    cross,
    curl,
    dealias,
    dealiased_product,
    derivative,
    divergence,
    gradient,
    inner_product,
    integrate,
    l2_norm,
    laplacian,
    power_laplacian,
    project_divergence_free,
    sobolev_seminorm,
    spectral_resample,
)

from conftest import band_limited_scalar, band_limited_vector, count_transforms, transform_counts


def full_layout_spectrum(f):
    """Complex-to-complex coefficients of a field, c_k for every k."""
    return np.fft.fftn(f.values) / f.grid.num_points


def full_layout_values(spec):
    """Real part of sum c_k exp(ik.x) for a full c2c spectrum."""
    return np.fft.ifftn(spec * spec.size).real


def full_layout_k(grid, axis):
    """Wavenumbers of one axis in c2c transform order, Nyquist positive."""
    n = grid.shape[axis]
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = n // 2
    shp = [1] * grid.dim
    shp[axis] = n
    return k.reshape(shp)


@pytest.mark.parametrize("shape", [(8,), (16,), (64,), (128,), (16, 16), (32, 32), (8, 8, 8), (16, 16, 16)])
def test_roundtrip_matrix(shape):
    rng = np.random.default_rng(7)
    grid = TorusGrid(shape)
    f = ScalarField(grid, rng.standard_normal(shape))
    back = ScalarField.from_spectrum(grid, f.spectrum)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid((4,))
    with pytest.raises(ValueError):
        TorusGrid((9,))
    with pytest.raises(ValueError):
        TorusGrid((8, 8, 8, 8))


def test_wavenumbers_symmetric_set():
    grid = TorusGrid((16,))
    k = np.sort(grid.axis_wavenumbers[0])
    assert k[0] == -7 and k[-1] == 8
    assert len(np.unique(k)) == 16


def test_field_rejects_nonfinite():
    grid = TorusGrid((8,))
    vals = np.zeros(grid.shape)
    vals[0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid, vals)


def _nan_spectrum(grid):
    spec = np.zeros(grid.spectral_shape, dtype=complex)
    spec[1] = np.nan
    return spec


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda g: ScalarField(g, np.zeros(5)), "values shape"),
        (lambda g: ScalarField.from_spectrum(g, _nan_spectrum(g)), "spectral coefficients must be finite"),
        (lambda g: VectorField(g, [ScalarField(g, np.zeros(g.shape))] * 2), "exactly 3 components"),
        (
            lambda g: VectorField(g, [ScalarField(g, np.zeros(g.shape))] * 2 + [ScalarField(TorusGrid((16,)), np.zeros(16))]),
            "all components must share one grid",
        ),
        (lambda g: spectral_resample(ScalarField(g, np.zeros(g.shape)), TorusGrid((8, 8))), "cannot change the dimension"),
    ],
    ids=["scalar_shape", "spectrum_nonfinite", "vector_components", "vector_grids", "resample_dimension"],
)
def test_field_inputs_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make(TorusGrid((8,)))


def test_gradient_sine(grid1d):
    x = grid1d.mesh[0]
    g = gradient(ScalarField(grid1d, np.sin(x)))
    assert np.max(np.abs(g.components[0].values - np.cos(x))) <= 1e-12
    assert l2_norm(g.components[1]) == 0.0


def test_gradient_constant(grid1d):
    g = gradient(ScalarField(grid1d, np.full(grid1d.shape, 5.0)))
    assert all(l2_norm(c) <= 1e-13 for c in g.components)


def test_gradient_2d_analytic():
    grid = TorusGrid((64, 64))
    x, y = grid.mesh
    f = ScalarField(grid, np.sin(3 * x) * np.cos(2 * y))
    g = gradient(f)
    assert np.max(np.abs(g.components[0].values - 3 * np.cos(3 * x) * np.cos(2 * y))) <= 1e-12
    assert np.max(np.abs(g.components[1].values + 2 * np.sin(3 * x) * np.sin(2 * y))) <= 1e-12


def test_laplacian_eigenmode(grid1d):
    x = grid1d.mesh[0]
    out = laplacian(ScalarField(grid1d, np.sin(2 * x)))
    assert np.max(np.abs(out.values + 4 * np.sin(2 * x))) <= 1e-12


def test_power_laplacian_eigenmode(grid1d):
    x = grid1d.mesh[0]
    out = power_laplacian(ScalarField(grid1d, np.sin(x)), 3)
    # sixth-order multiplier amplifies sample roundoff by (N/2)^6
    tol = (grid1d.shape[0] / 2) ** 6 * 2e-16
    assert np.max(np.abs(out.values + np.sin(x))) <= tol
    with pytest.raises(ValueError):
        power_laplacian(ScalarField(grid1d, np.sin(x)), 0)


def test_laplacian_power_sign_as_scalar(rng):
    # (-1)^e * |k|^(2e), the form the code uses, against pow on the negated array
    grid = TorusGrid((12, 10, 8))
    f = band_limited_scalar(grid, rng, max_mode=2)
    for e in range(1, 10):
        ref = (-grid.k_squared) ** e
        scale = np.max(np.abs(ref))
        assert np.max(np.abs((-1.0) ** e * grid.k_squared**e - ref)) <= 1e-15 * scale
        got = power_laplacian(f, e).spectrum
        want = ref * f.spectrum
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_divergence_of_curl_vanishes(grid2d, rng):
    v = band_limited_vector(grid2d, rng)
    assert l2_norm(divergence(curl(v))) <= 1e-11 * max(l2_norm(v.components[0]), 1.0)


def test_curl_of_gradient_vanishes(grid2d, rng):
    f = band_limited_scalar(grid2d, rng)
    c = curl(gradient(f))
    assert all(l2_norm(comp) <= 1e-11 for comp in c.components)


def test_div_grad_equals_laplacian(grid2d, rng):
    f = band_limited_scalar(grid2d, rng)
    a = divergence(gradient(f))
    b = laplacian(f)
    assert np.max(np.abs(a.spectrum - b.spectrum)) <= 1e-12


def test_curl_25d_convention(grid1d):
    x = grid1d.mesh[0]
    zero = np.zeros(grid1d.shape)
    v = VectorField.from_arrays(grid1d, [zero, np.sin(x), np.cos(x)])
    c = curl(v)
    assert np.max(np.abs(c.components[1].values - np.sin(x))) <= 1e-12
    assert np.max(np.abs(c.components[2].values - np.cos(x))) <= 1e-12


def test_dealias_band_limited_unchanged():
    grid = TorusGrid((64,))
    x = grid.mesh[0]
    f = ScalarField(grid, np.sin(16 * x))  # N/4 < N/3
    assert np.max(np.abs(dealias(f).values - f.values)) <= 1e-13


def test_dealias_kills_nyquist():
    grid = TorusGrid((32,))
    x = grid.mesh[0]
    f = ScalarField(grid, np.cos(16 * x))
    assert l2_norm(dealias(f)) <= 1e-13


def test_dealiased_product_matches_fine_grid_oracle():
    # inputs resolved inside the 2/3 ball; oracle = exact product on a 2N
    # grid, truncated back to the coarse ball
    n = 64
    grid = TorusGrid((n,))
    fine = TorusGrid((2 * n,))
    kcut = n // 3
    x = grid.mesh[0]
    xf = fine.mesh[0]
    a, b = np.sin(kcut * x), np.cos((kcut - 1) * x)
    coarse = dealiased_product(ScalarField(grid, a), ScalarField(grid, b))
    exact = ScalarField(fine, np.sin(kcut * xf) * np.cos((kcut - 1) * xf))
    restricted = dealias(spectral_resample(exact, grid))
    assert np.max(np.abs(coarse.values - restricted.values)) <= 1e-12


def test_projection_annihilates_gradients(grid2d, rng):
    f = band_limited_scalar(grid2d, rng)
    p = project_divergence_free(gradient(f))
    assert all(l2_norm(c) <= 1e-11 for c in p.components)


def test_projection_properties(grid2d, rng):
    v = band_limited_vector(grid2d, rng)
    p = project_divergence_free(v)
    norm = np.sqrt(sum(l2_norm(c) ** 2 for c in p.components))
    assert l2_norm(divergence(p)) <= 1e-12 * max(norm, 1.0)
    # idempotence
    pp = project_divergence_free(p)
    assert all(
        np.max(np.abs(a.values - b.values)) <= 1e-12 for a, b in zip(p.components, pp.components)
    )
    # the removed part is curl-free
    diff = v - p
    c = curl(diff)
    assert all(l2_norm(comp) <= 1e-10 for comp in c.components)


def test_projection_keeps_solenoidal(grid2d, rng):
    v = project_divergence_free(band_limited_vector(grid2d, rng))
    again = project_divergence_free(v)
    assert all(
        np.max(np.abs(a.values - b.values)) <= 1e-13 for a, b in zip(v.components, again.components)
    )


def test_integrate_constant():
    for shape in [(16,), (16, 16), (8, 8, 8)]:
        grid = TorusGrid(shape)
        assert integrate(ScalarField(grid, np.ones(shape))) == pytest.approx(
            (2 * np.pi) ** grid.dim, rel=1e-14
        )


def test_inner_product_sine():
    for shape in [(32,), (16, 16)]:
        grid = TorusGrid(shape)
        f = ScalarField(grid, np.sin(grid.mesh[0]))
        expected = np.pi * (2 * np.pi) ** (grid.dim - 1)
        assert inner_product(f, f) == pytest.approx(expected, rel=1e-13)


def test_parseval(grid2d, rng):
    f = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
    direct = inner_product(f, f)
    spectral = grid2d.volume * np.sum(grid2d.hermitian_weights * np.abs(f.spectrum) ** 2)
    assert direct == pytest.approx(spectral, rel=1e-12)


def test_integrate_translation_invariant(grid2d, rng):
    f = ScalarField(grid2d, rng.standard_normal(grid2d.shape))
    shifted = ScalarField(grid2d, np.roll(f.values, (3, 5), axis=(0, 1)))
    assert integrate(shifted) == pytest.approx(integrate(f), rel=1e-12, abs=1e-12)


def test_sobolev_seminorm_matches_direct(grid1d):
    x = grid1d.mesh[0]
    f = ScalarField(grid1d, np.sin(3 * x))
    # |grad f|_L2 = 3 |f|_L2
    assert sobolev_seminorm(f, 1) == pytest.approx(3 * l2_norm(f), rel=1e-13)


def test_spectral_tail_warning():
    grid = TorusGrid((32,))
    x = grid.mesh[0]
    f = ScalarField(grid, np.sin(14 * x))  # beyond the 2/3 ball
    with pytest.warns(SpectralTailWarning):
        laplacian(f)


def test_cross_matches_numpy(grid1d, rng):
    a = band_limited_vector(grid1d, rng)
    b = band_limited_vector(grid1d, rng)
    c = cross(a, b)
    stacked = np.cross(
        np.stack(a.component_values(), axis=-1), np.stack(b.component_values(), axis=-1)
    )
    for i in range(3):
        assert np.max(np.abs(c.components[i].values - stacked[..., i])) <= 1e-13


def test_spectral_resample_roundtrip(grid1d, rng):
    f = band_limited_scalar(grid1d, rng, max_mode=5)
    fine = TorusGrid((128,))
    up = spectral_resample(f, fine)
    back = spectral_resample(up, grid1d)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12
    assert integrate(up) == pytest.approx(integrate(f), rel=1e-12, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10))
def test_dealias_idempotent_property(seed):
    rng = np.random.default_rng(seed)
    grid = TorusGrid((16, 16))
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    once = dealias(f)
    twice = dealias(once)
    assert np.max(np.abs(once.spectrum - twice.spectrum)) <= 1e-15


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10))
def test_derivative_of_constant_axis_property(seed):
    rng = np.random.default_rng(seed)
    grid = TorusGrid((16,))
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    # inactive axes differentiate to zero
    assert l2_norm(derivative(f, 1)) == 0.0
    assert l2_norm(derivative(f, 2)) == 0.0


@pytest.mark.parametrize("shape", [(16,), (16, 16), (8, 8, 8), (8, 12, 10)])
def test_odd_derivatives_drop_nyquist_on_every_axis(shape):
    # white noise carries Nyquist content on every axis; the reference is the
    # c2c derivative taken to real values, which drops it
    grid = TorusGrid(shape)
    f = ScalarField(grid, np.random.default_rng(3).standard_normal(shape))
    spec = full_layout_spectrum(f)
    refs = [full_layout_values(1j * full_layout_k(grid, axis) * spec) for axis in range(grid.dim)]
    scale = np.max(np.abs(refs))
    for axis in range(grid.dim):
        assert np.max(np.abs(derivative(f, axis).values - refs[axis])) <= 1e-12 * scale
    zero = ScalarField(grid, np.zeros(shape))
    v = VectorField(grid, [f, zero, zero] if grid.dim == 1 else [f, f * f, zero])
    div_ref = refs[0]
    if grid.dim > 1:
        div_ref = div_ref + full_layout_values(
            1j * full_layout_k(grid, 1) * full_layout_spectrum(f * f)
        )
    with pytest.warns(SpectralTailWarning):
        div = divergence(v)
    assert np.max(np.abs(div.values - div_ref)) <= 1e-12 * np.max(np.abs(div_ref))


@pytest.mark.parametrize(
    "coarse,fine",
    [
        ((16,), (32,)),
        ((16, 16), (32, 32)),
        ((16, 16), (32, 24)),
        ((8, 8, 8), (16, 16, 16)),
        ((8, 8, 8), (16, 12, 10)),
    ],
)
def test_spectral_resample_keeps_coarse_nyquist(coarse, fine):
    # white noise has content on every coarse Nyquist plane.  As with the c2c
    # zero-padding and truncation, coarse -> fine -> coarse returns the coarse
    # field unchanged, and the refined field interpolates the coarse samples
    cgrid, fgrid = TorusGrid(coarse), TorusGrid(fine)
    f = ScalarField(cgrid, np.random.default_rng(11).standard_normal(coarse))
    up = spectral_resample(f, fgrid)
    back = spectral_resample(up, cgrid)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12
    assert integrate(back) == pytest.approx(integrate(f), rel=1e-12, abs=1e-12)
    if all(nf % nc == 0 for nf, nc in zip(fine, coarse)):
        nodes = tuple(slice(None, None, nf // nc) for nf, nc in zip(fine, coarse))
        assert np.max(np.abs(up.values[nodes] - f.values)) <= 1e-12


@pytest.mark.parametrize("shape", [(16,), (16, 12), (8, 10, 12)])
def test_spectral_resample_onto_its_own_grid_is_the_identity(shape):
    # white noise has content on every Nyquist plane, which a resample onto
    # an equal grid must neither split nor fold
    grid = TorusGrid(shape)
    f = ScalarField(grid, np.random.default_rng(5).standard_normal(shape))
    same = spectral_resample(f, TorusGrid(shape))
    assert np.array_equal(same.spectrum, f.spectrum)


def test_from_spectrum_rejects_full_layout():
    grid = TorusGrid((16, 16))
    with pytest.raises(ValueError):
        ScalarField.from_spectrum(grid, np.zeros(grid.shape, dtype=np.complex128))


@pytest.mark.parametrize("shape", [(32,), (16, 16), (8, 8, 8)])
def test_band_limited_fixture_matches_full_layout_reference(shape):
    grid = TorusGrid(shape)
    got = band_limited_scalar(grid, np.random.default_rng(9), max_mode=3)
    rng = np.random.default_rng(9)
    spec = np.zeros(shape, dtype=np.complex128)
    for idx in np.ndindex(*([7] * grid.dim)):
        k = tuple(i - 3 for i in idx)
        if any(k):
            spec[tuple(k[a] % shape[a] for a in range(grid.dim))] = rng.normal() + 1j * rng.normal()
    ref = full_layout_values(spec)
    assert np.max(np.abs(got.values - ref / np.max(np.abs(ref)))) <= 1e-14


def test_fields_is_the_only_transform_home():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "qmhd"
    pattern = re.compile(r"\b(np|numpy|scipy)\.fft\b|from\s+(numpy|scipy)\s+import\s+fft\b|_pocketfft")
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name != "fields.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []
    # fields binds numpy.fft's four pocketfft kernels once and calls no wrapper
    text = (src / "fields.py").read_text()
    assert re.findall(r"np\.fft\.(\w+)\(", text) == []
    assert re.findall(r"^from numpy\.fft import (\w+)$", text, re.MULTILINE) == ["_pocketfft_umath"]
    kernels = np.fft._pocketfft_umath
    bound = {name: getattr(qmhd.fields, name) for name in ("_rfft", "_fft", "_ifft", "_irfft")}
    assert bound == {
        "_rfft": kernels.rfft_n_even,
        "_fft": kernels.fft,
        "_ifft": kernels.ifft,
        "_irfft": kernels.irfft,
    }


@pytest.mark.parametrize("shape, n_modes", [((128,), 9), ((64, 32), 20), ((16, 12, 8), 27)])
def test_transforms_run_without_the_numpy_fft_wrappers(shape, n_modes, monkeypatch):
    # the kernels call pocketfft directly: with numpy.fft's wrappers raising,
    # full and box transforms still give numpy's rfftn/irfftn bytes
    grid = TorusGrid(shape)
    rng = np.random.default_rng(17)
    box = GalerkinBasis.lowest_modes(grid, n_modes).box
    values = rng.standard_normal(shape)
    coeffs = np.fft.rfftn(values, norm="forward")
    boxed = np.zeros(grid.spectral_shape, dtype=np.complex128)
    boxed[_box_index(box)] = coeffs[_box_index(box)]
    axes = tuple(range(grid.dim))
    expected = {
        "forward": coeffs.tobytes(),
        "forward box": coeffs[_box_index(box)].tobytes(),
        "backward": np.fft.irfftn(coeffs, s=shape, axes=axes, norm="forward").tobytes(),
        "backward box": np.fft.irfftn(boxed, s=shape, axes=axes, norm="forward").tobytes(),
    }

    def wrapper_called(*args, **kwargs):
        raise AssertionError("a numpy.fft wrapper was called")

    for module in (np.fft, np.fft._pocketfft):
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(module, name, wrapper_called)
    with pytest.raises(AssertionError, match="wrapper"):
        np.fft.rfftn(values)
    got = {
        "forward": _forward(values, grid).tobytes(),
        "forward box": _forward(values, grid, box).tobytes(),
        "backward": _backward(coeffs, grid).tobytes(),
        "backward box": _backward(coeffs[_box_index(box)], grid, box).tobytes(),
    }
    assert got == expected


@pytest.mark.parametrize("shape", [(128,), (64, 32), (16, 12, 8)])
def test_transforms_are_bitwise_numpy_rfftn(shape):
    # the axis-by-axis kernel runs numpy's n-d passes in their order
    grid = TorusGrid(shape)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(shape)
    assert _forward(values, grid).tobytes() == np.fft.rfftn(values, norm="forward").tobytes()
    coeffs = rng.standard_normal(grid.spectral_shape) + 1j * rng.standard_normal(grid.spectral_shape)
    coeffs.setflags(write=False)
    expected = np.fft.irfftn(coeffs, s=shape, axes=tuple(range(grid.dim)), norm="forward")
    assert _backward(coeffs, grid).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(32,), (16, 16), (8, 8, 8)])
def test_active_axis_kernels_equal_the_three_axis_formulas(shape):
    # the kernels sum over the active axes only; the inactive terms the
    # three-axis formulas add are zero, so the two agree up to the sign of zero
    grid = TorusGrid(shape)
    v = band_limited_vector(grid, np.random.default_rng(5), max_mode=2)
    s = [c.spectrum for c in v.components]
    k = grid.kvec
    three_axis = [
        1j * (k[1] * s[2] - k[2] * s[1]),
        1j * (k[2] * s[0] - k[0] * s[2]),
        1j * (k[0] * s[1] - k[1] * s[0]),
    ]
    # the curl reads only its operands, and a component without an
    # active-axis term is None
    operands = [c if l in _curl_operands(grid.dim) else None for l, c in enumerate(s)]
    for got, want in zip(_curl_spectra(operands, grid), three_axis):
        if got is None:
            assert not np.any(want)
        else:
            assert np.array_equal(got, want)
    assert sum(c is None for c in _curl_spectra(s, grid)) == (1 if grid.dim == 1 else 0)
    for comp, want in zip(curl(v).components, three_axis):
        assert np.array_equal(comp.spectrum, want)
        assert np.array_equal(comp.values, _backward(want, grid))
    kv = (k[0] * s[0] + k[1] * s[1] + k[2] * s[2]) / grid.leray_k_squared
    for comp, c, ka in zip(project_divergence_free(v).components, s, k):
        assert np.array_equal(comp.spectrum, c - ka * kv)


def test_a_1d_curl_transforms_only_its_operands(monkeypatch):
    # in 1D the first component meets only inactive derivatives, so the curl
    # of sample-only data forward-transforms the other two
    grid = TorusGrid((32,))
    x = grid.mesh[0]
    v = VectorField.from_arrays(grid, [np.cos(x), np.sin(x), np.cos(2 * x)])
    counts = count_transforms(monkeypatch)
    for comp in curl(v).components:
        comp.values
    assert counts == transform_counts(forward_full=2, backward_full=2)


def test_operator_formulas_have_one_home():
    # the index pattern of curls and cross products and the powers of |k|^2
    # are written in fields' kernels only; every other module calls them
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "qmhd"
    pattern = re.compile(r"\w+\[1\]\s*\*\s*\w+\[2\]\s*-\s*\w+\[2\]\s*\*\s*\w+\[1\]|k_squared\s*\*\*")
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name != "fields.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []
    assert pattern.search((src / "fields.py").read_text())


@pytest.mark.parametrize("shape, n_modes", [((64,), 21), ((32, 32), 60), ((16, 16, 16), 81)])
@pytest.mark.parametrize("nyquist", [False, True], ids=["basis_box", "with_nyquist"])
def test_box_transforms_are_bitwise_the_full_transforms(shape, n_modes, nyquist):
    # the box of a Galerkin basis, or that box grown by every axis's Nyquist
    # row and column; the inverse reads the box block of a spectrum that is
    # zero outside it
    grid = TorusGrid(shape)
    rng = np.random.default_rng(3)
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    box = basis.box
    values = rng.standard_normal(shape)
    if nyquist:
        *rows, _ = box
        box = (*[np.union1d(r, [n // 2]) for r, n in zip(rows, shape)], grid.spectral_shape[-1])
        # a real field's spectrum cut to the box keeps its conjugate mirrors
        spec = np.zeros(grid.spectral_shape, dtype=np.complex128)
        spec[_box_index(box)] = _forward(values, grid)[_box_index(box)]
    else:
        # the velocity's spectrum holds the +-k pairs of the modes, both
        # members on the last axis's k = 0 plane
        spec = np.zeros(grid.spectral_shape, dtype=np.complex128)
        spec[_box_index(box)] = basis.box_spectra(rng.standard_normal(n_modes))[0]
    outside = np.ones(grid.spectral_shape, dtype=bool)
    outside[_box_index(box)] = False
    assert np.any(spec) and not np.any(spec[outside])
    assert np.array_equal(_backward(spec[_box_index(box)], grid, box), _backward(spec, grid))
    assert np.array_equal(_forward(values, grid, box), _forward(values, grid)[_box_index(box)])
