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
  else in the package calls ``numpy.fft``.
* Layout: real fields have Hermitian spectra, ``c_{-k} = conj(c_k)``, so only
  the ``numpy.fft.rfftn`` half is stored: leading axes hold all wavenumbers in
  transform order, the last axis holds 0..N/2.  Shapes are
  ``TorusGrid.spectral_shape``.
* Box form: a velocity in the Galerkin span is nonzero only on a small block
  of the half spectrum, its box: a set of rows on each leading axis and the
  first columns of the last axis (``GalerkinBasis.box``).  Given a box, the
  pair runs axis by axis in the order ``rfftn``/``irfftn`` do and skips each
  line outside it: ``_forward`` returns only the box block, and
  ``_backward`` reads a full-layout spectrum that is zero outside the box.
  A skipped line is all zero or never read, so the kept entries are bitwise
  those of the full transform.
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
  the solver and the diagnostics all call: ``_curl_spectra``, ``_cross``,
  ``_laplacian_power`` and ``_gradient_samples``.
"""

from __future__ import annotations

import warnings
from typing import Iterable

import numpy as np

from .errors import SpectralTailWarning
from .grid import TorusGrid


def _forward(values: np.ndarray, grid: TorusGrid, box: tuple | None = None) -> np.ndarray:
    """Real samples to half-spectrum coefficients, or to the box block of
    them when a box ``(rows of each leading axis, ..., number of last-axis
    columns)`` is given."""
    if box is None:
        # with ``out`` numpy runs the leading-axis passes in that one array
        # instead of allocating a new one per axis (about 1/3 faster at 32^3)
        out = np.empty(grid.spectral_shape, dtype=np.complex128)
        return np.fft.rfftn(values, norm="forward", out=out)
    *rows, ncols = box
    last = grid.dim - 1
    spec = np.fft.rfft(values, axis=last, norm="forward")[..., :ncols]
    for axis in range(last - 1, -1, -1):
        spec = np.fft.fft(spec, axis=axis, norm="forward").take(rows[axis], axis=axis)
    return spec


def _backward(coeffs: np.ndarray, grid: TorusGrid, box: tuple | None = None) -> np.ndarray:
    """Half-spectrum coefficients to real samples; with a box, only the box
    entries of ``coeffs`` are read, so it must be zero outside the box."""
    if box is None:
        return np.fft.irfftn(coeffs, s=grid.shape, axes=tuple(range(grid.dim)), norm="forward")
    *rows, ncols = box
    last = grid.dim - 1
    spec = coeffs[..., :ncols]
    for axis in range(1, last):
        spec = spec.take(rows[axis], axis=axis)
    for axis in range(last):
        if axis:
            # this axis's rows outside the box are zero: put the box rows in place
            lines = np.zeros(spec.shape[:axis] + (grid.shape[axis],) + spec.shape[axis + 1 :], dtype=np.complex128)
            lines[(slice(None),) * axis + (rows[axis],)] = spec
            spec = lines
        spec = np.fft.ifft(spec, axis=axis, norm="forward")
    return np.fft.irfft(spec, n=grid.shape[last], axis=last, norm="forward")


def _box_index(box: tuple) -> tuple[np.ndarray, ...]:
    """Index that reads the box block out of a half spectrum."""
    *rows, ncols = box
    return np.ix_(*rows, np.arange(ncols))


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
    *rows, ncols = box
    at = tuple(np.searchsorted(r, p[a]) for a, r in enumerate(rows)) + (p[-1],)
    return np.ravel_multi_index(at, tuple(len(r) for r in rows) + (ncols,)), mirrored


def _pair_terms(grid: TorusGrid, k: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stored terms (row, flat index, value) of ``sum c exp(ik.x) + conj(c) exp(-ik.x)`` over rows of k."""
    index, mirrored = _half_index(grid, np.stack([k, -k], axis=1).reshape(-1, grid.dim))
    keep = np.flatnonzero(~mirrored)
    return keep // 2, index[keep], np.stack([c, np.conj(c)], axis=1).reshape(-1)[keep]


def _scatter(grid: TorusGrid, index: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Half spectrum holding the sum of the complex ``terms`` at each flat index."""
    size = int(np.prod(grid.spectral_shape))
    spec = np.bincount(index, terms.real, size) + 1j * np.bincount(index, terms.imag, size)
    return spec.reshape(grid.spectral_shape)


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
        return cls.from_spectrum(grid, _scatter(grid, index, terms))

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

    def __add__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField._adopt(self.grid, self.values + other.values)
        return ScalarField._adopt(self.grid, self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField._adopt(self.grid, self.values - other.values)
        return ScalarField._adopt(self.grid, self.values - other)

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

    def __add__(self, other):
        return VectorField(self.grid, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return VectorField(self.grid, [a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, other):
        return VectorField(self.grid, [c * other for c in self.components])

    __rmul__ = __mul__

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


def _curl_spectra(s, grid: TorusGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three curl spectra of a vector field with component spectra ``s``."""
    k = grid.kvec
    return (
        1j * (k[1] * s[2] - k[2] * s[1]),
        1j * (k[2] * s[0] - k[0] * s[2]),
        1j * (k[0] * s[1] - k[1] * s[0]),
    )


def _cross(a, b) -> list[np.ndarray]:
    """Pointwise cross product of two three-component sample lists."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _laplacian_power(grid: TorusGrid, p: int) -> np.ndarray:
    """The spectral factor (-|k|^2)^p of lap^p; the sign goes in as a scalar,
    since numpy's pow on negative bases is slow."""
    return (-1.0) ** p * grid.k_squared**p


def _gradient_samples(v: VectorField, grid: TorusGrid, box: tuple | None = None) -> list[list[np.ndarray]]:
    """Samples of d_j v_l (active j rows, components l as columns), by box
    inverses when ``box`` is given."""
    return [[_backward(1j * grid.kvec[j] * c.spectrum, grid, box) for c in v.components] for j in range(grid.dim)]


def derivative(f: ScalarField, axis: int) -> ScalarField:
    """Spectral partial derivative along ``axis`` (zero for inactive axes)."""
    grid = f.grid
    if axis >= grid.dim:
        return ScalarField._adopt(grid, np.zeros(grid.shape))
    return ScalarField._adopt(grid, None, 1j * grid.kvec[axis] * f.spectrum)


def gradient(f: ScalarField) -> VectorField:
    grid = f.grid
    spec = f.spectrum
    comps = []
    for axis in range(3):
        if axis < grid.dim:
            comps.append(ScalarField._adopt(grid, None, 1j * grid.kvec[axis] * spec))
        else:
            comps.append(ScalarField._adopt(grid, np.zeros(grid.shape)))
    return VectorField(grid, comps)


def divergence(v: VectorField) -> ScalarField:
    grid = v.grid
    acc = np.zeros(grid.spectral_shape, dtype=np.complex128)
    kmax = np.sqrt(grid.k_squared_max)
    ref = 0.0
    for axis in range(grid.dim):
        spec = v.components[axis].spectrum
        acc += 1j * grid.kvec[axis] * spec
        ref = max(ref, kmax * _spectral_norm(spec, grid))
    _tail_check(acc, grid, "divergence", ref)
    return ScalarField._adopt(grid, None, acc)


def curl(v: VectorField) -> VectorField:
    grid = v.grid
    s = [c.spectrum for c in v.components]
    out = _curl_spectra(s, grid)
    ref = np.sqrt(grid.k_squared_max) * max(_spectral_norm(sp, grid) for sp in s)
    for c in out:
        _tail_check(c, grid, "curl", ref)
    return VectorField(grid, [ScalarField._adopt(grid, None, np.ascontiguousarray(c)) for c in out])


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


def dealias(f):
    """Zero every coefficient with any |k_axis| > N_axis/3 (idempotent)."""
    if isinstance(f, VectorField):
        return VectorField(f.grid, [dealias(c) for c in f.components])
    grid = f.grid
    return ScalarField._adopt(grid, None, np.where(grid.dealias_mask, f.spectrum, 0.0))


def dealiased_product(a: ScalarField, b: ScalarField) -> ScalarField:
    """Pointwise product followed by 2/3-rule truncation."""
    grid = a.grid
    return ScalarField._adopt(grid, None, _dealiased_forward(a.values * b.values, grid))


def project_divergence_free(v: VectorField) -> VectorField:
    """Leray projection: remove the gradient part, keep the mean."""
    grid = v.grid
    k = grid.kvec
    s = [c.spectrum for c in v.components]
    kv = (k[0] * s[0] + k[1] * s[1] + k[2] * s[2]) / grid.leray_k_squared
    out = [s[axis] - k[axis] * kv for axis in range(3)]
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


def sobolev_seminorm(f, order: int) -> float:
    """L2 norm of the full order-``order`` derivative tensor, spectrally."""
    if isinstance(f, VectorField):
        return float(np.sqrt(sum(sobolev_seminorm(c, order) ** 2 for c in f.components)))
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
