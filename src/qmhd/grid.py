"""Uniform periodic grids on the d-torus with precomputed spectral bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TAU = 2.0 * np.pi


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on [0, 2*pi)^dim, dim in {1, 2, 3}.

    Wavenumbers per axis form the symmetric integer set {-N/2+1, ..., N/2}.
    Spectra live in the real-to-complex half layout ``spectral_shape`` (see
    :mod:`qmhd.fields`); every spectral array here has that shape.
    Vector quantities always carry three components; for dim < 3 fields vary
    along the first ``dim`` axes only and the trailing wavenumbers are zero.
    """

    shape: tuple[int, ...]

    def __post_init__(self):
        shape = tuple(int(n) for n in np.atleast_1d(np.asarray(self.shape, dtype=int)))
        object.__setattr__(self, "shape", shape)
        if not 1 <= len(shape) <= 3:
            raise ValueError(f"grid dimension must be 1, 2 or 3, got {len(shape)}")
        for n in shape:
            if n < 8:
                raise ValueError(f"need at least 8 points per axis, got {n}")
            if n % 2:
                raise ValueError(f"points per axis must be even, got {n}")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def num_points(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def volume(self) -> float:
        return TAU ** self.dim

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(TAU / n for n in self.shape)

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Coordinate values along each axis."""
        return tuple(np.arange(n) * (TAU / n) for n in self.shape)

    @property
    def mesh(self) -> tuple[np.ndarray, ...]:
        """Broadcast coordinate arrays, one per active axis.  Formed on each
        read and not cached: only initial data and test batteries read
        them, and a run need not hold them."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    @cached_property
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of the real-to-complex half spectrum: the last axis keeps
        only its wavenumbers 0..N/2."""
        return self.shape[:-1] + (self.shape[-1] // 2 + 1,)

    @cached_property
    def axis_wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Full wavenumber set of each axis in transform order, Nyquist positive."""
        return tuple(
            np.concatenate([np.arange(n // 2 + 1), np.arange(-n // 2 + 1, 0)]).astype(float)
            for n in self.shape
        )

    def _half_axis(self, axis: int, values: np.ndarray) -> np.ndarray:
        """Per-axis values (full length) broadcast to ``spectral_shape``."""
        if axis == self.dim - 1:
            values = values[: self.spectral_shape[-1]]
        shp = [1] * self.dim
        shp[axis] = self.spectral_shape[axis]
        return np.broadcast_to(values.reshape(shp), self.spectral_shape)

    @cached_property
    def kvec(self) -> tuple[np.ndarray, ...]:
        """Derivative wavenumbers: three arrays broadcast to ``spectral_shape``,
        zero beyond dim.  Each axis's Nyquist entry is zero, so an odd
        derivative of a real field drops its Nyquist content on every axis."""
        out = []
        for axis in range(3):
            if axis < self.dim:
                k = self.axis_wavenumbers[axis].copy()
                k[self.shape[axis] // 2] = 0.0
                out.append(self._half_axis(axis, k))
            else:
                out.append(np.broadcast_to(np.zeros(1), self.spectral_shape))
        return tuple(out)

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the half spectrum, Nyquist wavenumbers included."""
        k2 = np.zeros(self.spectral_shape)
        for axis in range(self.dim):
            k2 = k2 + self._half_axis(axis, self.axis_wavenumbers[axis]) ** 2
        return k2

    @cached_property
    def k_squared_max(self) -> float:
        return float(np.max(self.k_squared))

    @cached_property
    def leray_k_squared(self) -> np.ndarray:
        """|k|^2 over the derivative wavenumbers with its zeros set to 1: the
        denominator of the divergence-free projection."""
        k2 = sum(self.kvec[axis] ** 2 for axis in range(self.dim))
        return np.where(k2 == 0.0, 1.0, k2)

    @cached_property
    def hermitian_weights(self) -> np.ndarray:
        """How many full-spectrum modes each half-spectrum entry stands for:
        1 on the last axis's k=0 and Nyquist planes, 2 elsewhere."""
        w = np.full(self.spectral_shape[-1], 2.0)
        w[0] = w[-1] = 1.0
        return np.ascontiguousarray(self._half_axis(self.dim - 1, w))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True where a mode survives the 2/3-rule (|k_axis| <= N_axis/3)."""
        keep = np.ones(self.spectral_shape, dtype=bool)
        for axis in range(self.dim):
            keep &= self._half_axis(axis, np.abs(self.axis_wavenumbers[axis]) <= self.shape[axis] // 3)
        return keep

    @cached_property
    def tail_mask(self) -> np.ndarray:
        """True on the top third of the spectrum (complement of the 2/3 ball)."""
        return ~self.dealias_mask
