"""Scalar and vector fields on a periodic grid, plus spectral operators.

Fields are immutable; every operator returns a new field.  Real-space samples
and spectral coefficients are kept in sync lazily so chains of spectral
operators do not transform back and forth.  Vector fields always carry three
components (2.5D convention): for dim < 3 the components still exist but only
vary along the active axes, so curls and cross products keep their usual
meaning.

Spectral conventions
--------------------
* Normalization: ``f(x) = sum_k c_k exp(i k.x)``, so ``c_0`` is the mean of
  ``f``.  This module owns the only transform pair, ``_forward`` (real samples
  to coefficients) and ``_backward`` (coefficients to real samples); nothing
  else in the package transforms.  Both are one axis-by-axis kernel: the
  passes of ``numpy.fft.rfftn``/``irfftn`` in their order, the leading-axis
  passes in place, so the results are bitwise theirs.  Each pass calls the
  pocketfft kernel that ``numpy.fft`` dispatches to, bound once at import,
  with the scale factor and output array ``numpy.fft`` would pass, so no
  pass pays ``numpy.fft``'s Python wrapper.
* Layout: real fields have Hermitian spectra, ``c_{-k} = conj(c_k)``, so only
  the ``numpy.fft.rfftn`` half is stored: leading axes hold all wavenumbers in
  transform order, the last axis holds 0..N/2.  Shapes are
  ``TorusGrid.spectral_shape``.
* Box form: a velocity in the Galerkin span is nonzero only on a small block
  of the half spectrum, its box: a set of rows on each leading axis and the
  first columns of the last axis (``GalerkinBasis.box``).  Given a box, the
  same kernel skips each line outside it: ``_forward`` returns only the box
  block, and ``_backward`` takes exactly that block, the spectrum being zero
  outside it.  A skipped line is all zero or never read, so the kept
  entries are bitwise those of the full transform.  The velocity's one Fourier form is
  its three box blocks (``GalerkinBasis.box_spectra``); its fields hold
  samples only.
* Weights: a sum over the full spectrum is a sum over the half with
  ``TorusGrid.hermitian_weights``: 1 on the last axis's k=0 and Nyquist
  planes, whose mirror images are stored in the same plane, 2 elsewhere.
  Norms, quadrature, tail checks and convergence tests use these weights.
* Nyquist rule: the Nyquist wavenumber N/2 of any axis has no sign, so an odd
  derivative along that axis cannot keep the field real there.  ``grid.kvec``
  is zero at every axis's Nyquist entry; gradients, divergences, curls and
  the divergence-free projection drop that content, while even operators
  (Laplacian powers, heat factors, Sobolev weights) keep ``(N/2)^2``.
* Kernels: each operator formula has one home, which the public operators,
  the solver and the diagnostics all call: ``_curl_spectra``,
  ``_divergence_spectrum``, ``_cross``, ``_laplacian_power`` and
  ``_gradient_samples``.
* Active axes: curls and the divergence-free projection sum over the active
  axes only, so a curl component with no active-axis term (the first in 1D)
  is zero by construction and is neither formed nor transformed.
"""

from __future__ import annotations

import warnings
from typing import Iterable

import numpy as np
from numpy.fft import _pocketfft_umath

from .errors import SpectralTailWarning
from .grid import TorusGrid

# numpy.fft's own pocketfft kernels, which its wrappers dispatch to: even
# lengths and float64 samples only, as TorusGrid admits
_rfft = _pocketfft_umath.rfft_n_even
_fft = _pocketfft_umath.fft
_ifft = _pocketfft_umath.ifft
_irfft = _pocketfft_umath.irfft
# each kernel's axes argument for a pass along axis a: (a,) in, () for the
# scale factor, (a,) out
_AXES = tuple([(a,), (), (a,)] for a in range(3))


def _forward(values: np.ndarray, grid: TorusGrid, box: tuple | None = None) -> np.ndarray:
    """Real samples to half-spectrum coefficients, or to the box block of
    them when a box ``(rows of each leading axis, ..., number of last-axis
    columns)`` is given: ``rfft`` along the last axis, then ``fft`` along
    each leading axis in reverse order, in place, as ``numpy.fft.rfftn``
    runs them.  A box keeps its columns after the first pass and its rows
    after each later one."""
    last = grid.dim - 1
    spec = np.empty(values.shape[:last] + (grid.spectral_shape[last],), dtype=np.complex128)
    _rfft(values, 1 / grid.shape[last], axes=_AXES[last], out=spec)
    if box is not None:
        # a copy of the kept columns, so the full last-axis pass is freed at once
        spec = spec[..., : box[-1]].copy()
    for axis in range(last - 1, -1, -1):
        _fft(spec, 1 / grid.shape[axis], axes=_AXES[axis], out=spec)
        if box is not None:
            spec = spec.take(box[axis], axis=axis)
    return spec


def _backward(coeffs: np.ndarray, grid: TorusGrid, box: tuple | None = None) -> np.ndarray:
    """Half-spectrum coefficients to real samples; with a box, ``coeffs`` is
    the box block, as ``_forward`` with that box returns it, of a spectrum
    that is zero outside the box.  ``ifft`` along the leading axes in order,
    in place, then one ``irfft``, as ``numpy.fft.irfftn`` runs them."""
    last = grid.dim - 1
    spec = coeffs
    if box is None and last:
        # the one copy, which the leading-axis passes overwrite
        spec = np.array(coeffs, dtype=np.complex128, order="C")
    for axis in range(last):
        if box is not None:
            # this axis's rows outside the box are zero: put the box rows in place
            lines = np.zeros(spec.shape[:axis] + (grid.shape[axis],) + spec.shape[axis + 1 :], dtype=np.complex128)
            lines[(slice(None),) * axis + (box[axis],)] = spec
            spec = lines
        _ifft(spec, 1.0, axes=_AXES[axis], out=spec)
    values = np.empty(spec.shape[:last] + (grid.shape[last],))
    return _irfft(spec, 1.0, axes=_AXES[last], out=values)


def _box_index(box: tuple) -> tuple[np.ndarray, ...]:
    """Index that reads the box block out of a half spectrum."""
    *rows, ncols = box
    return np.ix_(*rows, np.arange(ncols))


def _box_shape(box: tuple) -> tuple[int, ...]:
    """Shape of the box block."""
    return tuple(len(r) for r in box[:-1]) + (box[-1],)


def _dealiased_forward(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Coefficients of real samples with the top third (2/3 rule) zeroed."""
    spec = _forward(values, grid)
    spec[grid.tail_mask] = 0.0
    return spec


def _spectral_norm(spec: np.ndarray, grid: TorusGrid) -> float:
    """l2 norm of the full Hermitian spectrum whose half is ``spec``."""
    total = np.vdot(spec, spec).real
    edges = np.vdot(spec[..., 0], spec[..., 0]).real + np.vdot(spec[..., -1], spec[..., -1]).real
    return float(np.sqrt(2.0 * total - edges))


def _half_index(grid: TorusGrid, k: np.ndarray, box: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Flat half-spectrum index of each full-spectrum wavevector (last axis of
    ``k``, reduced mod N), or its flat index in the box block when a box is
    given, and whether it is stored as its conjugate mirror -k."""
    n = np.array(grid.shape)
    p = k % n
    mirrored = p[..., -1] > n[-1] // 2
    p = np.moveaxis(np.where(mirrored[..., None], -p % n, p), -1, 0)
    if box is None:
        return np.ravel_multi_index(tuple(p), grid.spectral_shape), mirrored
    at = tuple(np.searchsorted(r, p[a]) for a, r in enumerate(box[:-1])) + (p[-1],)
    return np.ravel_multi_index(at, _box_shape(box)), mirrored


def _pair_terms(
    grid: TorusGrid, k: np.ndarray, c: np.ndarray, box: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stored terms (row, flat index, value) of ``sum c exp(ik.x) + conj(c) exp(-ik.x)``
    over rows of k, indexed in the half spectrum or, given a box, in the box block."""
    index, mirrored = _half_index(grid, np.stack([k, -k], axis=1).reshape(-1, grid.dim), box)
    keep = np.flatnonzero(~mirrored)
    return keep // 2, index[keep], np.stack([c, np.conj(c)], axis=1).reshape(-1)[keep]


def _scatter(index: np.ndarray, terms: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Array of ``shape`` holding the sum of the complex ``terms`` at each flat index."""
    size = int(np.prod(shape))
    spec = np.bincount(index, terms.real, size) + 1j * np.bincount(index, terms.imag, size)
    return spec.reshape(shape)


class ScalarField:
    """Real scalar samples on a :class:`TorusGrid` with a spectral view."""

    __slots__ = ("grid", "_values", "_spectrum")

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self._values = values
        self._spectrum = None

    @classmethod
    def from_spectrum(cls, grid: TorusGrid, coeffs: np.ndarray) -> "ScalarField":
        """Field from half-spectrum coefficients (shape ``grid.spectral_shape``)."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != grid.spectral_shape:
            raise ValueError(
                f"spectrum shape {coeffs.shape} != half-spectrum shape {grid.spectral_shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("spectral coefficients must be finite")
        self = cls.__new__(cls)
        self.grid = grid
        self._values = None
        self._spectrum = coeffs.copy()
        self._spectrum.setflags(write=False)
        return self

    @classmethod
    def from_modes(cls, grid: TorusGrid, modes: Iterable[tuple[tuple[int, ...], complex]]) -> "ScalarField":
        """The real field ``Re sum c exp(i k.x)`` over ``(k, c)`` pairs.

        The pairs need not be Hermitian: each one contributes ``c/2`` at k and
        ``conj(c)/2`` at -k, whichever of the two the half spectrum stores.
        Repeated wavevectors add up.
        """
        pairs = list(modes)
        k = np.array([tuple(k)[: grid.dim] for k, _ in pairs], dtype=np.intp).reshape(-1, grid.dim)
        _, index, terms = _pair_terms(grid, k, 0.5 * np.array([c for _, c in pairs], dtype=np.complex128))
        return cls.from_spectrum(grid, _scatter(index, terms, grid.spectral_shape))

    @classmethod
    def _adopt(cls, grid: TorusGrid, values: np.ndarray | None, spectrum: np.ndarray | None = None) -> "ScalarField":
        # internal fast path: takes ownership, skips validation
        self = cls.__new__(cls)
        self.grid = grid
        if values is not None:
            values.setflags(write=False)
        if spectrum is not None:
            spectrum.setflags(write=False)
        self._values = values
        self._spectrum = spectrum
        return self

    def _shared(self) -> "ScalarField":
        """A field of the caller's own over this field's arrays: a form the
        caller derives from it is cached on the new field, not on this one."""
        return ScalarField._adopt(self.grid, self._values, self._spectrum)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            vals = _backward(self._spectrum, self.grid)
            vals.setflags(write=False)
            self._values = vals
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            spec = _forward(self._values, self.grid)
            spec.setflags(write=False)
            self._spectrum = spec
        return self._spectrum

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField._adopt(self.grid, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField._adopt(self.grid, self.values * other.values)
        return ScalarField._adopt(self.grid, self.values * other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"ScalarField(shape={self.grid.shape})"


class VectorField:
    """Three :class:`ScalarField` components on a shared grid."""

    __slots__ = ("grid", "components")

    def __init__(self, grid: TorusGrid, components: Iterable[ScalarField]):
        components = tuple(components)
        if len(components) != 3:
            raise ValueError("vector fields carry exactly 3 components")
        for c in components:
            if c.grid is not grid and c.grid != grid:
                raise ValueError("all components must share one grid")
        self.grid = grid
        self.components = components

    @classmethod
    def from_arrays(cls, grid: TorusGrid, arrays: Iterable[np.ndarray]) -> "VectorField":
        return cls(grid, [ScalarField(grid, a) for a in arrays])

    @classmethod
    def zero(cls, grid: TorusGrid) -> "VectorField":
        z = np.zeros(grid.shape)
        return cls.from_arrays(grid, [z, z, z])

    def component_values(self) -> list[np.ndarray]:
        return [c.values for c in self.components]

    def __sub__(self, other):
        return VectorField(self.grid, [a - b for a, b in zip(self.components, other.components)])

    def __repr__(self):
        return f"VectorField(shape={self.grid.shape})"


# --------------------------------------------------------------------------
# differential operators (exact on the retained modes)


def _tail_check(spec: np.ndarray, grid: TorusGrid, op: str, reference: float) -> None:
    """Warn when the top third of the spectrum carries >1% of the result.

    ``reference`` is the largest magnitude the operator could have produced
    from its input; results at the roundoff floor relative to it (e.g. the
    divergence of a solenoidal field) are noise, not unresolved content.
    """
    power = grid.hermitian_weights * np.abs(spec) ** 2
    total = np.sum(power)
    if total == 0.0 or total <= (1e-13 * reference) ** 2:
        return
    tail = np.sum(power[grid.tail_mask])
    if tail > 0.01 * total:
        warnings.warn(
            f"{op}: top third of the spectrum holds {100 * tail / total:.1f}% of the L2 mass",
            SpectralTailWarning,
            stacklevel=3,
        )


def _curl_operands(dim: int) -> tuple[int, ...]:
    """The components whose spectra an active-axis curl reads: all three,
    but for the first in 1D, which only inactive derivatives meet."""
    return (1, 2) if dim == 1 else (0, 1, 2)


def _curl_spectra(s, grid: TorusGrid) -> list[np.ndarray | None]:
    """The three curl spectra of a vector field with component spectra
    ``s``, each the sum of its active-axis terms ``+-i k_j s_l``, so that a
    component with none, the first in 1D, is zero by construction and comes
    back as None.  Only the entries ``_curl_operands`` names are read."""
    k, dim = grid.kvec, grid.dim
    out = []
    for i in range(3):
        # curl_i = i (k_j s_l - k_l s_j), (i, j, l) cyclic
        j, l = (i + 1) % 3, (i + 2) % 3
        if j < dim and l < dim:
            out.append(1j * (k[j] * s[l] - k[l] * s[j]))
        elif j < dim:
            out.append(1j * (k[j] * s[l]))
        elif l < dim:
            out.append(-1j * (k[l] * s[j]))
        else:
            out.append(None)
    return out


def _divergence_spectrum(s, k) -> np.ndarray:
    """The divergence spectrum of a vector field with component spectra
    ``s``, given the wavenumbers ``k`` of their entries along each active axis."""
    acc = 1j * k[0] * s[0]
    for axis in range(1, len(k)):
        acc += 1j * k[axis] * s[axis]
    return acc


def _cross(a, b) -> list[np.ndarray]:
    """Pointwise cross product of two three-component sample lists."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _laplacian_power(grid: TorusGrid, p: int) -> np.ndarray:
    """The spectral factor (-|k|^2)^p of lap^p; the sign goes in as a scalar,
    since numpy's pow on negative bases is slow."""
    return (-1.0) ** p * grid.k_squared**p


def _gradient_samples(spectra, k, grid: TorusGrid, box: tuple | None = None) -> list[list[np.ndarray]]:
    """Samples of d_j v_l (active j rows, components l as columns) of the
    vector field with component spectra ``spectra``, given the wavenumbers
    ``k`` of their entries: half spectra at ``grid.kvec``, or box blocks at
    the box's wavenumbers, inverted by box transforms."""
    return [[_backward(1j * k[j] * s, grid, box) for s in spectra] for j in range(grid.dim)]


def derivative(f: ScalarField, axis: int) -> ScalarField:
    """Spectral partial derivative along ``axis`` (zero for inactive axes)."""
    grid = f.grid
    if axis >= grid.dim:
        return ScalarField._adopt(grid, np.zeros(grid.shape))
    return ScalarField._adopt(grid, None, 1j * grid.kvec[axis] * f.spectrum)


def gradient(f: ScalarField) -> VectorField:
    """The three partial derivatives (zero along inactive axes)."""
    return VectorField(f.grid, [derivative(f, axis) for axis in range(3)])


def divergence(v: VectorField) -> ScalarField:
    """The divergence, which reads only the components along active axes."""
    grid = v.grid
    s = [c.spectrum for c in v.components[: grid.dim]]
    acc = _divergence_spectrum(s, grid.kvec[: grid.dim])
    ref = np.sqrt(grid.k_squared_max) * max(_spectral_norm(sp, grid) for sp in s)
    _tail_check(acc, grid, "divergence", ref)
    return ScalarField._adopt(grid, None, acc)


def curl(v: VectorField) -> VectorField:
    """The curl, which transforms only the components ``_curl_operands``
    names."""
    grid = v.grid
    operands = _curl_operands(grid.dim)
    s = [c.spectrum if l in operands else None for l, c in enumerate(v.components)]
    out = _curl_spectra(s, grid)
    ref = np.sqrt(grid.k_squared_max) * max(_spectral_norm(s[l], grid) for l in operands)
    comps = []
    for c in out:
        if c is None:
            comps.append(ScalarField._adopt(grid, np.zeros(grid.shape), np.zeros(grid.spectral_shape, dtype=np.complex128)))
        else:
            _tail_check(c, grid, "curl", ref)
            comps.append(ScalarField._adopt(grid, None, np.ascontiguousarray(c)))
    return VectorField(grid, comps)


def laplacian(f: ScalarField) -> ScalarField:
    grid = f.grid
    spec = -grid.k_squared * f.spectrum
    ref = grid.k_squared_max * _spectral_norm(f.spectrum, grid)
    _tail_check(spec, grid, "laplacian", ref)
    return ScalarField._adopt(grid, None, spec)


def power_laplacian(f: ScalarField, exponent: int) -> ScalarField:
    """Apply the ``exponent``-th power of the Laplacian spectrally."""
    if exponent < 1 or int(exponent) != exponent:
        raise ValueError("exponent must be a positive integer")
    grid = f.grid
    exponent = int(exponent)
    spec = _laplacian_power(grid, exponent) * f.spectrum
    ref = grid.k_squared_max**exponent * _spectral_norm(f.spectrum, grid)
    _tail_check(spec, grid, "power_laplacian", ref)
    return ScalarField._adopt(grid, None, spec)


def vector_laplacian(v: VectorField) -> VectorField:
    grid = v.grid
    return VectorField(
        grid,
        [ScalarField._adopt(grid, None, -grid.k_squared * c.spectrum) for c in v.components],
    )


def dealias(f: ScalarField) -> ScalarField:
    """Zero every coefficient with any |k_axis| > N_axis/3 (idempotent)."""
    grid = f.grid
    return ScalarField._adopt(grid, None, np.where(grid.dealias_mask, f.spectrum, 0.0))


def dealiased_product(a: ScalarField, b: ScalarField) -> ScalarField:
    """Pointwise product followed by 2/3-rule truncation."""
    grid = a.grid
    return ScalarField._adopt(grid, None, _dealiased_forward(a.values * b.values, grid))


def project_divergence_free(v: VectorField) -> VectorField:
    """Leray projection: remove the gradient part, keep the mean.  Sums over
    the active axes only; the inactive components keep their spectra."""
    grid = v.grid
    k = grid.kvec
    s = [c.spectrum for c in v.components]
    kv = k[0] * s[0]
    for axis in range(1, grid.dim):
        kv += k[axis] * s[axis]
    kv /= grid.leray_k_squared
    out = [s[axis] - k[axis] * kv if axis < grid.dim else s[axis] for axis in range(3)]
    return VectorField(grid, [ScalarField._adopt(grid, None, c) for c in out])


def cross(a: VectorField, b: VectorField) -> VectorField:
    return VectorField.from_arrays(a.grid, _cross(a.component_values(), b.component_values()))


# --------------------------------------------------------------------------
# quadrature and norms


def integrate(f: ScalarField) -> float:
    return float(f.values.mean() * f.grid.volume)


def inner_product(f, g) -> float:
    """L2 inner product; scalar-scalar or vector-vector."""
    if isinstance(f, VectorField):
        return sum(inner_product(a, b) for a, b in zip(f.components, g.components))
    return float((f.values * g.values).mean() * f.grid.volume)


def l2_norm(f) -> float:
    return float(np.sqrt(max(inner_product(f, f), 0.0)))


def sobolev_seminorm(f: ScalarField, order: int) -> float:
    """L2 norm of the full order-``order`` derivative tensor, spectrally."""
    grid = f.grid
    weight = grid.hermitian_weights * grid.k_squared**order
    return float(np.sqrt(grid.volume * np.sum(weight * np.abs(f.spectrum) ** 2)))


def lp_norm(f: ScalarField, p: float) -> float:
    grid = f.grid
    return float((np.abs(f.values) ** p).mean() * grid.volume) ** (1.0 / p)


def _resample_axis(spec: np.ndarray, axis: int, n_src: int, n_dst: int, last: bool) -> np.ndarray:
    """Zero-pad or truncate one axis of a half spectrum from n_src to n_dst
    points.  Modes strictly inside the coarser grid's Nyquist band are copied.
    A coarse Nyquist mode refined onto the finer grid splits evenly between
    +N/2 and -N/2; going the other way, +N/2 and -N/2 fold onto the coarse
    Nyquist entry.  Both keep real fields real, and coarse -> fine -> coarse
    is the identity."""
    if n_src == n_dst:
        return spec
    m = min(n_src, n_dst) // 2
    shape = list(spec.shape)
    shape[axis] = n_dst // 2 + 1 if last else n_dst
    out = np.zeros(shape, dtype=np.complex128)

    def at(index):
        return (slice(None),) * axis + (index,)

    out[at(slice(0, m))] = spec[at(slice(0, m))]
    if not last:
        out[at(slice(n_dst - m + 1, None))] = spec[at(slice(n_src - m + 1, None))]
    nyq = spec[at(m)]
    if n_dst > n_src:
        out[at(m)] = 0.5 * nyq
        if not last:
            out[at(n_dst - m)] = 0.5 * nyq
    elif last:
        # -N/2 on the last axis is the conjugate of +N/2 at mirrored leading wavenumbers
        mirror = np.conj(nyq[np.ix_(*[-np.arange(n) % n for n in nyq.shape])])
        out[at(m)] = nyq + mirror
    else:
        out[at(m)] = nyq + spec[at(n_src - m)]
    return out


def spectral_resample(f: ScalarField, grid: TorusGrid) -> ScalarField:
    """Re-express a field on another grid by zero-padding / truncating modes."""
    src = f.grid
    if src.dim != grid.dim:
        raise ValueError("resampling cannot change the dimension")
    spec = f.spectrum
    for axis in range(grid.dim):
        spec = _resample_axis(spec, axis, src.shape[axis], grid.shape[axis], axis == grid.dim - 1)
    return ScalarField.from_spectrum(grid, spec)
