import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from qmhd import GalerkinBasis, MassOperator, SingularMass, TorusGrid, VelocityCoeffs
from qmhd.basis import BasisMode, _scalar_mode_keys, enumerate_modes, max_mode_count
from qmhd.fields import ScalarField, _forward, divergence, inner_product, laplacian

from conftest import band_limited_vector, mode_profile


@pytest.fixture
def basis(grid1d):
    return GalerkinBasis.lowest_modes(grid1d, 15)


def test_mode_ordering_deterministic_and_prefix(grid1d):
    m21 = enumerate_modes(grid1d, 21)
    m9 = enumerate_modes(grid1d, 9)
    assert m21[:9] == m9
    k2 = [m.k_squared for m in m21]
    assert k2 == sorted(k2)


def test_mode_count_limit():
    grid = TorusGrid((8,))
    with pytest.raises(ValueError):
        enumerate_modes(grid, 10_000)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda b: enumerate_modes(b.grid, 0), "need at least one mode"),
        (lambda b: VelocityCoeffs(b, np.zeros(b.n + 1)), "expected 15 coefficients"),
        (lambda b: VelocityCoeffs(b, np.full(b.n, np.nan)), "velocity coefficients must be finite"),
    ],
    ids=["no_mode", "coefficient_count", "coefficients_nonfinite"],
)
def test_basis_inputs_rejected(basis, make, message):
    with pytest.raises(ValueError, match=message):
        make(basis)


@pytest.mark.parametrize("shape, n1, n2", [((32, 32), 140, 160), ((16, 16, 16), 300, 400)])
def test_mode_counts_are_prefix_nested(shape, n1, n2):
    # each count takes the lowest |k|^2 of the whole dealias box, so a
    # smaller count is a prefix of a larger one
    grid = TorusGrid(shape)
    every = enumerate_modes(grid, max_mode_count(shape))
    assert [m.k_squared for m in every] == sorted(m.k_squared for m in every)
    assert enumerate_modes(grid, n1) == enumerate_modes(grid, n2)[:n1] == every[:n1]


@pytest.mark.parametrize("shape", [(8,), (64,), (8, 12), (16, 16), (8, 8, 8), (8, 10, 14)])
def test_max_mode_count_is_the_enumerated_count(shape):
    grid = TorusGrid(shape)
    count = max_mode_count(shape)
    edge = min(n // 3 for n in shape)
    # each half-space wavevector in the |k|_inf <= edge box gives a cos and a
    # sin mode (k = 0 only a cos) in each of the three components
    assert count == 3 * sum(1 if not any(k) else 2 for k in _scalar_mode_keys(grid, edge))
    modes = enumerate_modes(grid, count)
    assert len(modes) == count == len(set(modes))
    assert all(abs(k) <= n // 3 for m in modes for k, n in zip(m.wavevector, shape))
    with pytest.raises(ValueError, match=f"mode count \\({count}\\)"):
        enumerate_modes(grid, count + 1)


def test_modes_orthonormal(basis, grid1d):
    one = ScalarField(grid1d, np.ones(grid1d.shape))
    gram = basis.gram(one)
    assert np.max(np.abs(gram - np.eye(basis.n))) <= 1e-12


def test_modes_orthonormal_2d():
    grid = TorusGrid((16, 16))
    basis = GalerkinBasis.lowest_modes(grid, 24)
    gram = basis.gram(ScalarField(grid, np.ones(grid.shape)))
    assert np.max(np.abs(gram - np.eye(basis.n))) <= 1e-12


def test_modes_are_laplacian_eigenfunctions(basis, grid1d):
    for i, mode in enumerate(basis.modes):
        prof = ScalarField(grid1d, mode_profile(grid1d, mode))
        lap = laplacian(prof)
        assert np.max(np.abs(lap.values + mode.k_squared * prof.values)) <= 1e-10


def test_project_matches_quadrature(basis, grid1d, rng):
    v = band_limited_vector(grid1d, rng, max_mode=3)
    coeffs = basis.project(v)
    for i, mode in enumerate(basis.modes):
        direct = float(
            (v.components[mode.component].values * mode_profile(grid1d, mode)).mean() * grid1d.volume
        )
        assert coeffs[i] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_reconstruct_project_roundtrip(basis, rng):
    lam = rng.standard_normal(basis.n)
    v = basis.reconstruct(lam)
    assert np.max(np.abs(basis.project(v) - lam)) <= 1e-12


def test_velocity_coeffs_reconstruction_in_span(basis, rng):
    lam = rng.standard_normal(basis.n)
    vc = VelocityCoeffs(basis, lam)
    # field energy equals coefficient energy by orthonormality
    energy = sum(inner_product(c, c) for c in vc.field.components)
    assert energy == pytest.approx(float(np.sum(lam**2)), rel=1e-12)


def test_mass_operator_identity_for_unit_density(basis, grid1d, rng):
    op = MassOperator(basis, ScalarField(grid1d, np.ones(grid1d.shape)))
    lam = rng.standard_normal(basis.n)
    assert np.max(np.abs(basis.apply_blocks(op.blocks, lam) - lam)) <= 1e-12


def test_mass_operator_solve_apply_roundtrip(basis, grid1d, rng):
    x = grid1d.mesh[0]
    rho = ScalarField(grid1d, 1.5 + 0.4 * np.cos(x))
    op = MassOperator(basis, rho)
    lam = rng.standard_normal(basis.n)
    back = op.solve(basis.apply_blocks(op.blocks, lam))
    assert np.max(np.abs(back - lam)) <= 1e-12 * max(np.max(np.abs(lam)), 1.0)


def test_mass_operator_shift_sits_on_the_diagonal(basis, grid1d, rng):
    x = grid1d.mesh[0]
    rho = ScalarField(grid1d, 1.5 + 0.4 * np.cos(x))
    shift = rng.uniform(0.0, 2.0, basis.n)
    op = MassOperator(basis, rho, shift)
    assert np.array_equal(basis.unblock(op.blocks), basis.gram(rho) + np.diag(shift))
    assert np.array_equal(basis.unblock(MassOperator(basis, rho).blocks), basis.gram(rho))
    lam = rng.standard_normal(basis.n)
    back = op.solve(basis.apply_blocks(op.blocks, lam))
    assert np.max(np.abs(back - lam)) <= 1e-12 * max(np.max(np.abs(lam)), 1.0)


def test_mass_operator_norm_bound(basis, grid1d, rng):
    x = grid1d.mesh[0]
    rho = ScalarField(grid1d, 2.0 + np.cos(3 * x))
    op = MassOperator(basis, rho)
    l1 = float(np.abs(rho.values).mean() * grid1d.volume)
    # |e_i| <= sqrt(2/vol) pointwise gives |G| <= 2 n |rho|_L1 / vol
    bound = 2.0 * basis.n * l1 / grid1d.volume
    assert np.linalg.norm(basis.unblock(op.blocks), 2) <= bound


def test_mass_operator_inverse_lipschitz(basis, grid1d, rng):
    # the inverse map is Lipschitz in the density for densities bounded below
    x = grid1d.mesh[0]
    worst = 0.0
    for _ in range(5):
        a = 1.5 + 0.3 * np.cos(x + rng.uniform(0, 2 * np.pi))
        b = 1.5 + 0.3 * np.cos(2 * x + rng.uniform(0, 2 * np.pi))
        ra, rb = ScalarField(grid1d, a), ScalarField(grid1d, b)
        inv_a = np.linalg.inv(basis.unblock(MassOperator(basis, ra).blocks))
        inv_b = np.linalg.inv(basis.unblock(MassOperator(basis, rb).blocks))
        dist = float(np.sqrt(((a - b) ** 2).mean() * grid1d.volume))
        worst = max(worst, np.linalg.norm(inv_a - inv_b, 2) / dist)
    # empirical constant for rho >= 1.2 on this basis; fails loudly if the
    # assembly loses the Lipschitz property
    assert worst <= 5.0


def test_mass_operator_rejects_indefinite(basis, grid1d):
    rho = ScalarField(grid1d, np.full(grid1d.shape, -1.0))
    with pytest.raises(SingularMass):
        MassOperator(basis, rho)


@pytest.mark.parametrize("shape,n", [((64,), 10), ((32, 32), 200)])
def test_block_solve_matches_dense_solve(shape, n, rng):
    # n not a multiple of 3: the component blocks differ in size and the
    # shorter ones are padded with the identity
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n)
    sizes = np.bincount(basis.components, minlength=3)
    assert len(set(sizes)) > 1
    mesh = grid.mesh
    rho = ScalarField(grid, 1.3 + 0.4 * np.cos(mesh[0]) * np.sin(mesh[-1] + 0.7))
    shift = 0.05 * basis.eigen_k2**2
    op = MassOperator(basis, rho, shift)
    m = sizes.max()
    assert op.blocks.shape == (3, m, m)
    for comp, size in enumerate(sizes):
        assert np.array_equal(op.blocks[comp, size:, size:], np.eye(m - size))
        assert not np.any(op.blocks[comp, :size, size:]) and not np.any(op.blocks[comp, size:, :size])
    matrix = basis.unblock(op.blocks)
    assert np.array_equal(matrix, basis.gram(rho) + np.diag(shift))
    b = rng.standard_normal(n)
    x = op.solve(b)
    dense = np.linalg.solve(matrix, b)
    assert np.linalg.norm(x - dense) <= 1e-13 * np.linalg.norm(dense)
    residual = np.linalg.norm(matrix @ x - b)
    assert residual <= 10 * n * np.finfo(float).eps * np.linalg.norm(matrix, 2) * np.linalg.norm(x)
    # the product, too, runs one block at a time
    dense = matrix @ b
    assert np.linalg.norm(basis.apply_blocks(op.blocks, b) - dense) <= 1e-14 * np.linalg.norm(dense)


def test_singular_mass_when_one_component_block_is_indefinite(grid1d):
    # component 0 holds only the constant mode, whose block is the mean
    # density 0.3 > 0; component 1 holds enough modes to resolve the region
    # where the density is negative
    modes = [BasisMode((0, 0, 0), "cos", 0)] + [BasisMode((0, 0, 0), "cos", 1)] + [
        BasisMode((k, 0, 0), trig, 1) for k in range(1, 8) for trig in ("cos", "sin")
    ]
    basis = GalerkinBasis(grid1d, modes)
    rho = ScalarField(grid1d, 0.3 + np.cos(grid1d.mesh[0]))
    gram = basis.gram(rho)
    first, second = (np.flatnonzero(basis.components == comp) for comp in (0, 1))
    assert np.linalg.eigvalsh(gram[np.ix_(first, first)]).min() > 0
    assert np.linalg.eigvalsh(gram[np.ix_(second, second)]).min() < 0
    with pytest.raises(SingularMass):
        MassOperator(basis, rho)


def test_mass_operator_rejects_non_finite_entries(basis, grid1d):
    rho = ScalarField(grid1d, 1.5 + 0.4 * np.cos(grid1d.mesh[0]))
    bad = rho.spectrum.copy()
    bad[1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        MassOperator(basis, ScalarField._adopt(grid1d, None, bad))
    shift = np.zeros(basis.n)
    shift[4] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        MassOperator(basis, rho, shift)


def test_custom_mode_selection(grid1d):
    # a single compressive sine mode
    basis = GalerkinBasis(grid1d, [BasisMode((1, 0, 0), "sin", 0)])
    assert basis.n == 1
    x = grid1d.mesh[0]
    expected = np.sqrt(2.0 / grid1d.volume) * np.sin(x)
    assert np.max(np.abs(mode_profile(grid1d, basis.modes[0]) - expected)) <= 1e-14
    # the basis holds the same function: its reconstruction and projection
    assert np.max(np.abs(basis.reconstruct(np.ones(1)).components[0].values - expected)) <= 1e-14
    assert basis.project(basis.reconstruct(np.ones(1))) == pytest.approx([1.0], rel=1e-14)


@pytest.mark.parametrize("shape,n", [((16, 16), 40), ((8, 8, 8), 60)])
def test_project_reconstruct_identity_with_mirrored_modes(shape, n, rng):
    # modes whose last wavevector component is negative are read from the
    # conjugate of the stored mirror entry of the half spectrum
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n)
    assert any(m.wavevector[grid.dim - 1] < 0 for m in basis.modes)
    lam = rng.standard_normal(basis.n)
    assert np.max(np.abs(basis.project(basis.reconstruct(lam)) - lam)) <= 1e-12


# --------------------------------------------------------------------------
# the Fourier-form basis against explicit cos/sin profiles on the grid

FULL_BASES = [(64,), (16, 16), (24, 16), (8, 8, 8)]


def _dealiased_values(grid, values):
    """2/3-rule truncation through a full complex spectrum."""
    spec = np.fft.fftn(values)
    for a, n in enumerate(grid.shape):
        keep = np.abs(np.fft.fftfreq(n, 1.0 / n)) <= n // 3
        spec = spec * keep.reshape([-1 if b == a else 1 for b in range(grid.dim)])
    return np.fft.ifftn(spec).real


@pytest.mark.parametrize("shape", FULL_BASES)
def test_gram_matches_grid_quadrature(shape, rng):
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, max_mode_count(grid.shape))
    # half-space representatives: negative last components exist from 2D on
    assert grid.dim == 1 or any(m.wavevector[grid.dim - 1] < 0 for m in basis.modes)
    # white noise: the dealiased density reaches the 2/3 edge on every axis,
    # so k_i + k_j of the edge modes wraps around mod N
    rho = ScalarField(grid, 2.0 + rng.uniform(-1.0, 1.0, shape))
    weight = _dealiased_values(grid, rho.values) * (grid.volume / grid.num_points)
    profiles = np.array([mode_profile(grid, m).ravel() for m in basis.modes])
    same = basis.components[:, None] == basis.components[None, :]
    ref = np.where(same, (profiles * weight.ravel()) @ profiles.T, 0.0)
    gram = basis.gram(rho)
    assert np.max(np.abs(gram - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", FULL_BASES)
def test_reconstruct_matches_profile_sum(shape, rng):
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, max_mode_count(grid.shape))
    lam = rng.standard_normal(basis.n)
    v = basis.reconstruct(lam)
    for comp, field in enumerate(v.components):
        ref = sum(lam[i] * mode_profile(grid, m) for i, m in enumerate(basis.modes) if m.component == comp)
        assert np.max(np.abs(field.values - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the field holds samples only; the velocity's Fourier form, its box
        # blocks, is the box of the transform of those samples
        assert field._spectrum is None
        fwd = _forward(field.values, grid)
        spec = basis.box_spectra(lam)[comp]
        assert np.max(np.abs(spec - fwd[basis.box_index])) <= 1e-13 * np.max(np.abs(fwd))


@pytest.mark.parametrize("shape, n", [((64,), 9), ((32, 32), 60), ((16, 16, 16), 27), ((16, 16), 1)])
def test_divergence_samples_are_the_divergence_of_the_reconstruction(shape, n, rng):
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n)
    lam = rng.standard_normal(basis.n)
    ref = divergence(basis.reconstruct(lam)).values
    got = basis.divergence_samples(lam)
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


def test_reconstruct_component_without_modes_is_zero():
    grid = TorusGrid((16, 16))
    basis = GalerkinBasis(grid, [BasisMode((1, -2, 0), "sin", 1)])
    v = basis.reconstruct(np.array([0.5]))
    ref = 0.5 * mode_profile(grid, basis.modes[0])
    assert np.max(np.abs(v.components[1].values - ref)) <= 1e-15
    for comp in (0, 2):
        assert not np.any(v.components[comp].values)
        assert not np.any(v.components[comp].spectrum)


def test_basis_is_the_only_factorization_home():
    # no module imports scipy, and only basis.py factors or solves a matrix
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "qmhd"
    scipy_import = re.compile(r"^\s*(import|from)\s+scipy\b")
    factorization = re.compile(
        r"\b(np|numpy)\.linalg\.(cholesky|solve|inv|pinv|lstsq|qr|svd|eig|eigh|eigvals|eigvalsh|det|slogdet)\b"
        r"|from\s+numpy\.linalg\s+import|from\s+numpy\s+import\s+linalg\b"
    )
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if scipy_import.search(line) or (path.name != "basis.py" and factorization.search(line))
    ]
    assert offenders == []


def test_no_scipy_on_the_import_path():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, qmhd, qmhd.cli, qmhd.experiments, qmhd.diagnostics\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
