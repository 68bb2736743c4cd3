"""Finite-dimensional velocity space: real trigonometric vector modes,
orthonormal in L2 and diagonal for the Laplacian.

Mode ordering is deterministic: ascending |k|^2, then lexicographic
wavevector (half-space representative, first nonzero entry positive),
cosine before sine, then Cartesian component.  ``lowest_modes(grid, n1)``
is always a prefix of ``lowest_modes(grid, n2)`` for n1 <= n2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import SingularMass
from .fields import ScalarField, VectorField, dealias
from .grid import TorusGrid


@dataclass(frozen=True)
class BasisMode:
    wavevector: tuple[int, int, int]
    trig: str  # "cos" or "sin"
    component: int

    @property
    def k_squared(self) -> int:
        return sum(k * k for k in self.wavevector)


def _scalar_mode_keys(grid: TorusGrid, max_abs_k: int):
    """Half-space wavevector representatives up to |k|_inf <= max_abs_k."""
    ranges = [range(-max_abs_k, max_abs_k + 1)] * grid.dim + [range(1)] * (3 - grid.dim)
    keys = []
    for k in product(*ranges):
        if all(v == 0 for v in k):
            keys.append(k)
            continue
        first = next(v for v in k if v != 0)
        if first > 0:
            keys.append(k)
    keys.sort(key=lambda k: (sum(v * v for v in k), k))
    return keys


def enumerate_modes(grid: TorusGrid, n: int) -> list[BasisMode]:
    """The n lowest-|k| vector modes in the canonical order."""
    if n < 1:
        raise ValueError("need at least one mode")
    limit = min(g // 3 for g in grid.shape)
    for max_k in range(1, limit + 2):
        kk = min(max_k, limit)
        modes = []
        for key in _scalar_mode_keys(grid, kk):
            trigs = ("cos",) if all(v == 0 for v in key) else ("cos", "sin")
            for trig in trigs:
                for comp in range(3):
                    modes.append(BasisMode(key, trig, comp))
        if len(modes) >= n:
            return modes[:n]
        if kk == limit:
            raise ValueError(
                f"n={n} exceeds the dealias-resolved mode count ({len(modes)}) on this grid"
            )
    raise AssertionError("unreachable")


class GalerkinBasis:
    """Orthonormal trigonometric vector modes spanning the velocity space."""

    def __init__(self, grid: TorusGrid, modes: list[BasisMode]):
        self.grid = grid
        self.modes = list(modes)
        self.n = len(self.modes)
        vol = grid.volume
        mesh = grid.mesh
        profiles = np.empty((self.n,) + grid.shape)
        for i, m in enumerate(self.modes):
            phase = np.zeros(grid.shape)
            for axis in range(grid.dim):
                if m.wavevector[axis]:
                    phase = phase + m.wavevector[axis] * mesh[axis]
            if all(v == 0 for v in m.wavevector):
                profiles[i] = 1.0 / np.sqrt(vol)
            elif m.trig == "cos":
                profiles[i] = np.sqrt(2.0 / vol) * np.cos(phase)
            else:
                profiles[i] = np.sqrt(2.0 / vol) * np.sin(phase)
        profiles.setflags(write=False)
        self.profiles = profiles
        self.components = np.array([m.component for m in self.modes])
        self.eigen_k2 = np.array([float(m.k_squared) for m in self.modes])

    @classmethod
    def lowest_modes(cls, grid: TorusGrid, n: int) -> "GalerkinBasis":
        return cls(grid, enumerate_modes(grid, n))

    @cached_property
    def _flat_profiles(self) -> np.ndarray:
        return self.profiles.reshape(self.n, -1)

    def reconstruct(self, coeffs: np.ndarray) -> VectorField:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients, got {coeffs.shape}")
        arrays = []
        for comp in range(3):
            sel = self.components == comp
            if not np.any(sel):
                arrays.append(np.zeros(self.grid.shape))
                continue
            arrays.append(
                np.einsum("m,mx->x", coeffs[sel], self._flat_profiles[sel]).reshape(self.grid.shape)
            )
        return VectorField.from_arrays(self.grid, arrays)

    @cached_property
    def _readout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per mode: flat index of its wavevector in the half spectrum and the
        weights that turn that coefficient into the mode's L2 coefficient.

        A mode whose last active wavevector component is negative is read
        from the stored mirror entry -k, whose coefficient is the conjugate.
        """
        grid = self.grid
        vol = grid.volume
        index = np.empty(self.n, dtype=np.intp)
        re_w = np.zeros(self.n)
        im_w = np.zeros(self.n)
        for i, m in enumerate(self.modes):
            k = m.wavevector[: grid.dim]
            mirrored = k[-1] < 0
            if mirrored:
                k = tuple(-v for v in k)
            index[i] = np.ravel_multi_index(
                tuple(v % n for v, n in zip(k, grid.shape)), grid.spectral_shape
            )
            if all(v == 0 for v in k):
                re_w[i] = np.sqrt(vol)
            elif m.trig == "cos":
                re_w[i] = np.sqrt(2.0 * vol)
            else:
                im_w[i] = np.sqrt(2.0 * vol) if mirrored else -np.sqrt(2.0 * vol)
        return index, re_w, im_w

    def project(self, v: VectorField) -> np.ndarray:
        """L2 projection coefficients, read off the Fourier spectra."""
        return self.project_force_spectra([c.spectrum for c in v.components])

    def project_force_spectra(self, spectra: list[np.ndarray]) -> np.ndarray:
        """Same as :meth:`project` but straight from half-spectrum component
        spectra."""
        index, re_w, im_w = self._readout
        c = np.empty(self.n, dtype=np.complex128)
        for comp in range(3):
            sel = self.components == comp
            if np.any(sel):
                c[sel] = spectra[comp].reshape(-1)[index[sel]]
        return re_w * c.real + im_w * c.imag

    def gram(self, rho: ScalarField) -> np.ndarray:
        """Density-weighted Gram matrix, assembled pseudo-spectrally."""
        rho_d = dealias(rho)
        weight = rho_d.values.ravel() * (self.grid.volume / self.grid.num_points)
        g = np.zeros((self.n, self.n))
        for comp in range(3):
            sel = np.flatnonzero(self.components == comp)
            if sel.size == 0:
                continue
            block = self._flat_profiles[sel]
            g[np.ix_(sel, sel)] = (block * weight) @ block.T
        return 0.5 * (g + g.T)


@dataclass(frozen=True)
class VelocityCoeffs:
    """Coefficients of the velocity expansion in a :class:`GalerkinBasis`."""

    basis: GalerkinBasis
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).copy()
        if vals.shape != (self.basis.n,):
            raise ValueError(f"expected {self.basis.n} coefficients")
        if not np.all(np.isfinite(vals)):
            raise ValueError("velocity coefficients must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def field(self) -> VectorField:
        return self.basis.reconstruct(self.values)


class MassOperator:
    """Density-weighted Gram operator on the velocity space."""

    def __init__(self, basis: GalerkinBasis, rho: ScalarField):
        self.basis = basis
        self.matrix = basis.gram(rho)
        try:
            self._factor = cho_factor(self.matrix, lower=True)
        except LinAlgError as exc:
            raise SingularMass(
                "density-weighted Gram matrix is not positive definite; "
                "the density floor was breached"
            ) from exc

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(coeffs, dtype=np.float64)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        x = cho_solve(self._factor, rhs)
        # one step of iterative refinement keeps the residual at roundoff
        x += cho_solve(self._factor, rhs - self.matrix @ x)
        return x


def mass_operator_apply(basis: GalerkinBasis, rho: ScalarField, coeffs: np.ndarray) -> np.ndarray:
    """Dual coefficients <M[rho] v, e_i> of a velocity in the basis."""
    return MassOperator(basis, rho).apply(coeffs)


def mass_operator_solve(basis: GalerkinBasis, rho: ScalarField, rhs: np.ndarray) -> np.ndarray:
    """Velocity coefficients from dual coefficients through M[rho]."""
    return MassOperator(basis, rho).solve(rhs)
