"""Finite-dimensional velocity space: real trigonometric vector modes,
orthonormal in L2 and diagonal for the Laplacian.

The space is held in Fourier form, each mode a +-k pair
``a exp(ik.x) + conj(a) exp(-ik.x)`` in one Cartesian component.  The
stored terms of all pairs lie in one block of the half spectrum, the basis's
``box``, and every transform of a velocity quantity is a box transform
(:mod:`qmhd.fields`).  A velocity's one Fourier form is its three box blocks,
stacked: ``box_spectra`` scatters ``coeff * a`` and ``coeff * conj(a)`` into
them through one table, as ``ScalarField.from_modes`` does into a half
spectrum, and ``VelocityCoeffs.spectra`` caches them.  ``reconstruct``
box-inverts each component's block into samples and keeps no spectrum; the
velocity's derivatives are the blocks differentiated at ``box_kvec``.
Projection gathers mode entries of the box block of each component, through
one readout table; the Gram matrix gathers the
dealiased density spectrum at ``-(k_i +- k_j)`` reduced mod N, which is the
grid quadrature exactly, aliasing included.  Capillarity in the momentum
residual is a projection as well (:func:`qmhd.solver.momentum_residual`).

Modes of different Cartesian components are L2-orthogonal under any
weight, so the Gram matrix is block diagonal, one block per component;
``gram_blocks`` assembles the three blocks as one ``(3, m, m)`` stack, and
``apply_blocks`` multiplies by it; the time step reads the Gram matrix only
as blocks, and the n x n ``gram`` serves ``qmhd check`` and the tests.
:class:`MassOperator` is the one place the velocity system is factored: the
Gram blocks plus an optional nonnegative diagonal shift, which the time step
uses for the implicit half of the hyperviscous midpoint and of the viscous
stress at the mean density (``eigen_k2`` and ``viscous_k2``), each block an
SPD system solved with ``numpy.linalg``.

Mode ordering is deterministic: ascending |k|^2, then lexicographic
wavevector (half-space representative, first nonzero entry positive),
cosine before sine, then Cartesian component, over the whole dealias box
|k|_inf <= min(N // 3).  ``lowest_modes(grid, n1)`` is always a prefix of
``lowest_modes(grid, n2)`` for n1 <= n2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularMass
from .fields import ScalarField, VectorField, _backward, _box_index, _box_shape, _divergence_spectrum, _half_index
from .fields import _pair_terms, _scatter, dealias
from .grid import TorusGrid


@dataclass(frozen=True)
class BasisMode:
    wavevector: tuple[int, int, int]
    trig: str  # "cos" or "sin"
    component: int

    @property
    def k_squared(self) -> int:
        return sum(k * k for k in self.wavevector)


def _scalar_mode_keys(grid: TorusGrid, max_abs_k: int) -> np.ndarray:
    """Half-space wavevector representatives up to |k|_inf <= max_abs_k, as
    rows of three integers, in the canonical order."""
    span = np.arange(-max_abs_k, max_abs_k + 1)
    keys = np.zeros((span.size**grid.dim, 3), dtype=np.intp)
    keys[:, : grid.dim] = np.stack(np.meshgrid(*[span] * grid.dim, indexing="ij"), axis=-1).reshape(-1, grid.dim)
    # the first nonzero entry is positive; only k = 0 has none
    lead = keys[np.arange(len(keys)), np.argmax(keys != 0, axis=1)]
    keys = keys[lead >= 0]
    return keys[np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0], np.sum(keys**2, axis=1)))]


def max_mode_count(shape: tuple[int, ...]) -> int:
    """Number of dealias-resolved vector modes on a grid of this shape, every
    mode with |k|_inf <= L = min(N_a // 3): ``3 (2L + 1)^dim``, counted
    without enumerating them."""
    edge = min(n // 3 for n in shape)
    return 3 * (2 * edge + 1) ** len(shape)


def enumerate_modes(grid: TorusGrid, n: int) -> list[BasisMode]:
    """The n lowest-|k| vector modes in the canonical order: the first n of
    the whole dealias box, so every count is a prefix of a larger one."""
    if n < 1:
        raise ValueError("need at least one mode")
    count = max_mode_count(grid.shape)
    if n > count:
        raise ValueError(f"n={n} exceeds the dealias-resolved mode count ({count}) on this grid")
    modes = []
    for key in _scalar_mode_keys(grid, min(g // 3 for g in grid.shape)):
        key = tuple(int(v) for v in key)
        for trig in ("cos", "sin") if any(key) else ("cos",):
            for comp in range(3):
                modes.append(BasisMode(key, trig, comp))
                if len(modes) == n:
                    return modes
    raise AssertionError("unreachable")


def _gather_table(grid: TorusGrid, k: np.ndarray, weight: np.ndarray, box=None):
    """Table that reads ``Re(weight * c_full[k])`` as ``re_w * c[index].real + im_w * c[index].imag``,
    ``c`` the flat half spectrum or, given a box, the flat box block."""
    index, mirrored = _half_index(grid, k, box)
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
        # -div(2 D(e_i)) tested against e_i: |k|^2 from the Laplacian and k_c^2
        # from grad div along the mode's own component c (0 for c >= dim)
        self.viscous_k2 = self.eigen_k2 + np.array([float(m.wavevector[m.component]) ** 2 for m in self.modes])
        self.wavevectors = np.array([m.wavevector[: grid.dim] for m in self.modes], dtype=np.intp).reshape(-1, grid.dim)
        # 1/sqrt(vol), sqrt(2/vol) cos and sqrt(2/vol) sin as pair amplitudes
        self.amplitudes = amp = np.full(self.n, 1.0 / np.sqrt(2.0 * grid.volume), dtype=np.complex128)
        amp[[m.trig == "sin" for m in self.modes]] *= -1j
        amp[[not any(m.wavevector) for m in self.modes]] = 0.5 / np.sqrt(grid.volume)

    @classmethod
    def lowest_modes(cls, grid: TorusGrid, n: int) -> "GalerkinBasis":
        return cls(grid, enumerate_modes(grid, n))

    def reconstruct(self, coeffs: np.ndarray, spectra: np.ndarray | None = None) -> VectorField:
        """The velocity field of ``coeffs``: one box inverse transform of each
        component's block of :meth:`box_spectra`, which a caller that holds
        them passes as ``spectra``, and none for a component without modes.
        The field holds samples only."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients, got {coeffs.shape}")
        grid = self.grid
        comps = zip(self.box_spectra(coeffs) if spectra is None else spectra, self._blocks)
        vals = [_backward(spec, grid, self.box) if sel.size else np.zeros(grid.shape) for spec, sel in comps]
        return VectorField(grid, [ScalarField._adopt(grid, v) for v in vals])

    def box_spectra(self, coeffs: np.ndarray) -> np.ndarray:
        """The velocity of ``coeffs`` in Fourier form: the box blocks of its
        three component spectra, stacked ``(3, *block shape)``."""
        mode, index, amp = self._box_table
        return _scatter(index, coeffs[mode] * amp, (3, *_box_shape(self.box)))

    @cached_property
    def _box_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored terms of every mode pair: mode, flat index in the
        stacked box blocks and ``a`` or ``conj(a)``."""
        mode, index, amp = _pair_terms(self.grid, self.wavevectors, self.amplitudes, self.box)
        return mode, self.components[mode] * np.prod(_box_shape(self.box)) + index, amp

    def divergence_samples(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid samples of div u for the velocity of ``coeffs``: its blocks
        differentiated at :attr:`box_kvec`, one box inverse transform."""
        return _backward(_divergence_spectrum(self.box_spectra(coeffs), self.box_kvec), self.grid, self.box)

    @cached_property
    def box(self) -> tuple:
        """The block of the half spectrum that holds every stored term of
        the mode pairs: the rows of each leading axis (sorted) and the number
        of last-axis columns.  Velocity transforms run on it
        (:func:`qmhd.fields._forward`, :func:`qmhd.fields._backward`)."""
        shape = self.grid.spectral_shape
        at = np.unravel_index(_pair_terms(self.grid, self.wavevectors, self.amplitudes)[1], shape)
        rows = [np.flatnonzero(np.bincount(at[a], minlength=shape[a])) for a in range(self.grid.dim - 1)]
        return (*rows, int(at[-1].max()) + 1)

    @cached_property
    def box_index(self) -> tuple[np.ndarray, ...]:
        """Index that reads the box block out of a half spectrum."""
        return _box_index(self.box)

    @cached_property
    def box_kvec(self) -> list[np.ndarray]:
        """The derivative wavenumbers ``grid.kvec`` of the active axes on the box block."""
        return [k[self.box_index] for k in self.grid.kvec[: self.grid.dim]]

    @cached_property
    def _readout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather table of the L2 coefficients ``<f, e_i> = 2 vol Re(conj(a_i) c_{k_i})``
        from the stacked box blocks."""
        weight = 2.0 * self.grid.volume * np.conj(self.amplitudes)
        index, re_w, im_w = _gather_table(self.grid, self.wavevectors, weight, self.box)
        return self.components * np.prod(_box_shape(self.box)) + index, re_w, im_w

    def project(self, v: VectorField) -> np.ndarray:
        """L2 projection coefficients, read off the box block of the Fourier
        spectra."""
        return self.project_force_spectra([c.spectrum[self.box_index] for c in v.components])

    def project_force_spectra(self, spectra: list[np.ndarray]) -> np.ndarray:
        """Same as :meth:`project` but straight from the box blocks of the
        component spectra (:func:`qmhd.fields._forward` with ``box``)."""
        index, re_w, im_w = self._readout
        c = np.ravel(spectra)[index]
        return re_w * c.real + im_w * c.imag

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Each mode's component block and its row in that block."""
        row = np.empty(self.n, dtype=np.intp)
        for sel in self._blocks:
            row[sel] = np.arange(sel.size)
        return self.components, row

    @cached_property
    def _gram_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Gather table of ``rho_hat(-(k_i + k_j))`` and ``rho_hat(-(k_i - k_j))``
        for every pair of one block, shape ``(2, 3, m, m)``, and the padded
        diagonal (block, row) of blocks with fewer than m modes.  Padding
        entries gather index 0 with zero weight."""
        m = max(sel.size for sel in self._blocks)
        index = np.zeros((2, 3, m, m), dtype=np.intp)
        re_w, im_w = np.zeros((2, 2, 3, m, m))
        for comp, sel in enumerate(self._blocks):
            k, a = self.wavevectors[sel], self.amplitudes[sel]
            ks = np.stack([-(k[:, None] + k[None, :]), k[None, :] - k[:, None]])
            w = 2.0 * self.grid.volume * np.stack([a[:, None] * a[None, :], a[:, None] * np.conj(a)[None, :]])
            block = (slice(None), comp, slice(sel.size), slice(sel.size))
            index[block], re_w[block], im_w[block] = _gather_table(self.grid, ks, w)
        pad = np.nonzero(np.arange(m) >= np.array([sel.size for sel in self._blocks])[:, None])
        return index, re_w, im_w, pad

    def gram_blocks(self, rho: ScalarField) -> np.ndarray:
        """The component blocks of :meth:`gram` as one ``(3, m, m)`` stack,
        blocks with fewer than m modes padded with the identity."""
        index, re_w, im_w, (pad_comp, pad_row) = self._gram_table
        c = dealias(rho).spectrum.reshape(-1)[index]
        g = re_w * c.real + im_w * c.imag
        g = g[0] + g[1]
        # the k_last = 0 plane of the spectrum is Hermitian only to roundoff
        g = 0.5 * (g + g.transpose(0, 2, 1))
        g[pad_comp, pad_row, pad_row] = 1.0
        return g

    def apply_blocks(self, blocks: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """``unblock(blocks) @ coeffs``, one ``(m, m)`` product per component block."""
        comp, row = self._slots
        x = np.zeros(blocks.shape[:2])
        x[comp, row] = coeffs
        return (blocks @ x[..., None])[comp, row, 0]

    def unblock(self, blocks: np.ndarray) -> np.ndarray:
        """The n x n matrix of a ``(3, m, m)`` block stack, zero between components."""
        g = np.zeros((self.n, self.n))
        for comp, sel in enumerate(self._blocks):
            g[np.ix_(sel, sel)] = blocks[comp, : sel.size, : sel.size]
        return g

    def gram(self, rho: ScalarField) -> np.ndarray:
        """Density-weighted Gram matrix ``<dealias(rho) e_i, e_j>``, for two modes of one component
        ``2 vol Re[a_i a_j rho_hat(-(k_i+k_j)) + a_i conj(a_j) rho_hat(-(k_i-k_j))]``."""
        return self.unblock(self.gram_blocks(rho))


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
    def spectra(self) -> np.ndarray:
        """The velocity's box blocks (:meth:`GalerkinBasis.box_spectra`)."""
        return self.basis.box_spectra(self.values)

    def reconstruct(self) -> VectorField:
        """The velocity's samples: its cached :attr:`spectra`, box-inverted.
        Not cached, so a caller that reads them once frees them with the
        field."""
        return self.basis.reconstruct(self.values, self.spectra)

    @cached_property
    def field(self) -> VectorField:
        """:meth:`reconstruct`, cached: the solver's midpoint velocity, which
        every sweep of an iteration reads."""
        return self.reconstruct()


class MassOperator:
    """The velocity system ``M[rho] + diag(shift)``: the density-weighted
    Gram matrix plus a nonnegative diagonal (the implicit half of the
    hyperviscous midpoint and of the mean-density viscous stress, zero by
    default).  It is held as its component blocks
    (:meth:`GalerkinBasis.gram_blocks`), one SPD system each, checked once
    by a stacked Cholesky (a non-finite entry is a ValueError, an
    indefinite block :class:`SingularMass`) and solved by stacked
    ``numpy.linalg.solve``; :meth:`GalerkinBasis.apply_blocks` and
    :meth:`GalerkinBasis.unblock` read ``blocks`` as a product and as the
    n x n matrix."""

    def __init__(self, basis: GalerkinBasis, rho: ScalarField, shift: np.ndarray | float = 0.0):
        self.basis = basis
        self.blocks = blocks = basis.gram_blocks(rho)
        comp, row = basis._slots
        blocks[comp, row, row] += shift
        if not np.all(np.isfinite(blocks)):
            raise ValueError("velocity system has non-finite entries")
        try:
            np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError as exc:
            raise SingularMass(
                "density-weighted Gram matrix is not positive definite; "
                "the density floor was breached"
            ) from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        comp, row = self.basis._slots
        b = np.zeros(self.blocks.shape[:2])
        b[comp, row] = rhs
        b = b[..., None]
        x = np.linalg.solve(self.blocks, b)
        # one step of iterative refinement keeps the residual at roundoff
        x += np.linalg.solve(self.blocks, b - self.blocks @ x)
        return x[comp, row, 0]
