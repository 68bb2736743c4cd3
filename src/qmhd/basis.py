"""Finite-dimensional velocity space: real trigonometric vector modes,
orthonormal in L2 and diagonal for the Laplacian.

The space is held in Fourier form, each mode a +-k pair
``a exp(ik.x) + conj(a) exp(-ik.x)`` in one Cartesian component.  Projection
gathers mode entries of the half spectra; ``reconstruct`` scatters
``coeff * a`` and ``coeff * conj(a)`` as ``ScalarField.from_modes`` does, then
transforms once per component; the Gram matrix gathers the dealiased density
spectrum at ``-(k_i +- k_j)`` reduced mod N, which is the grid quadrature
exactly, aliasing included.  Capillarity in the momentum residual is a
projection as well (:func:`qmhd.solver.momentum_residual`).

:class:`MassOperator` is the one place the velocity system is factored:
the Gram matrix plus an optional nonnegative diagonal shift, which the time
step uses for the implicit half of the hyperviscous midpoint.

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
from .fields import ScalarField, VectorField, _backward, _half_index, _pair_terms, _scatter, dealias
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
    keys = [k for k in product(*ranges) if not any(k) or next(v for v in k if v) > 0]
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


def _gather_table(grid: TorusGrid, k: np.ndarray, weight: np.ndarray):
    """Table that reads ``Re(weight * c_full[k])`` as ``re_w * c[index].real + im_w * c[index].imag``."""
    index, mirrored = _half_index(grid, k)
    return index, weight.real, np.where(mirrored, weight.imag, -weight.imag)


class GalerkinBasis:
    """Orthonormal trigonometric vector modes spanning the velocity space,
    held as +-k Fourier pairs (wavevectors and complex amplitudes)."""

    def __init__(self, grid: TorusGrid, modes: list[BasisMode]):
        self.grid = grid
        self.modes = list(modes)
        self.n = len(self.modes)
        self.components = np.array([m.component for m in self.modes])
        self._blocks = [np.flatnonzero(self.components == comp) for comp in range(3)]
        self.eigen_k2 = np.array([float(m.k_squared) for m in self.modes])
        self.wavevectors = np.array([m.wavevector[: grid.dim] for m in self.modes], dtype=np.intp).reshape(-1, grid.dim)
        # 1/sqrt(vol), sqrt(2/vol) cos and sqrt(2/vol) sin as pair amplitudes
        self.amplitudes = amp = np.full(self.n, 1.0 / np.sqrt(2.0 * grid.volume), dtype=np.complex128)
        amp[[m.trig == "sin" for m in self.modes]] *= -1j
        amp[[not any(m.wavevector) for m in self.modes]] = 0.5 / np.sqrt(grid.volume)

    @classmethod
    def lowest_modes(cls, grid: TorusGrid, n: int) -> "GalerkinBasis":
        return cls(grid, enumerate_modes(grid, n))

    def reconstruct(self, coeffs: np.ndarray) -> VectorField:
        """The velocity field: each component's half spectrum is scattered
        from the mode pairs and transformed once."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients, got {coeffs.shape}")
        grid = self.grid
        comps = []
        for sel, row, index, amp in self._scatter_tables:
            spec = _scatter(grid, index, coeffs[sel][row] * amp)
            vals = _backward(spec, grid) if sel.size else np.zeros(grid.shape)
            comps.append(ScalarField._adopt(grid, vals, spec))
        return VectorField(grid, comps)

    @cached_property
    def _scatter_tables(self) -> list[tuple[np.ndarray, ...]]:
        """Per component: its modes and the stored terms of their pairs (row,
        flat half-spectrum index, ``a`` or ``conj(a)``)."""
        return [(sel, *_pair_terms(self.grid, self.wavevectors[sel], self.amplitudes[sel])) for sel in self._blocks]

    @cached_property
    def _readout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather table of the L2 coefficients ``<f, e_i> = 2 vol Re(conj(a_i) c_{k_i})``."""
        return _gather_table(self.grid, self.wavevectors, 2.0 * self.grid.volume * np.conj(self.amplitudes))

    def project(self, v: VectorField) -> np.ndarray:
        """L2 projection coefficients, read off the Fourier spectra."""
        return self.project_force_spectra([c.spectrum for c in v.components])

    def project_force_spectra(self, spectra: list[np.ndarray]) -> np.ndarray:
        """Same as :meth:`project` but straight from half-spectrum component
        spectra."""
        index, re_w, im_w = self._readout
        c = np.empty(self.n, dtype=np.complex128)
        for comp, sel in enumerate(self._blocks):
            c[sel] = spectra[comp].reshape(-1)[index[sel]]
        return re_w * c.real + im_w * c.imag

    @cached_property
    def _gram_tables(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per component block, gather tables of ``rho_hat(-(k_i + k_j))`` and
        ``rho_hat(-(k_i - k_j))`` stacked on a leading axis of length 2."""
        vol = self.grid.volume
        out = []
        for sel in self._blocks:
            k, a = self.wavevectors[sel], self.amplitudes[sel]
            ks = np.stack([-(k[:, None] + k[None, :]), k[None, :] - k[:, None]])
            w = 2.0 * vol * np.stack([a[:, None] * a[None, :], a[:, None] * np.conj(a)[None, :]])
            out.append(_gather_table(self.grid, ks, w))
        return out

    def gram(self, rho: ScalarField) -> np.ndarray:
        """Density-weighted Gram matrix ``<dealias(rho) e_i, e_j>``, for two modes of one component
        ``2 vol Re[a_i a_j rho_hat(-(k_i+k_j)) + a_i conj(a_j) rho_hat(-(k_i-k_j))]``."""
        spec = dealias(rho).spectrum.reshape(-1)
        g = np.zeros((self.n, self.n))
        for sel, (index, re_w, im_w) in zip(self._blocks, self._gram_tables):
            c = spec[index]
            g[np.ix_(sel, sel)] = np.sum(re_w * c.real + im_w * c.imag, axis=0)
        # the k_last = 0 plane of the spectrum is Hermitian only to roundoff
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
    """The velocity system ``M[rho] + diag(shift)``, factored once: the
    density-weighted Gram matrix plus a nonnegative diagonal (the implicit
    half of the hyperviscous midpoint, zero by default)."""

    def __init__(self, basis: GalerkinBasis, rho: ScalarField, shift: np.ndarray | float = 0.0):
        self.basis = basis
        self.matrix = basis.gram(rho)
        self.matrix[np.diag_indices(basis.n)] += shift
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
