"""Closed-form constitutive laws: pressure, cold pressure, enthalpies,
density-dependent magnetic diffusivity, and the pointwise quantum (Bohm)
force.

The cold-pressure enthalpy is glued C1 at the reference density 1 and
normalized so ``Hc(1) = Hc'(1) = 0``; the pair then satisfies
``rho * Hc'(rho) - Hc(rho) = Pc(rho)`` exactly by construction, with Hc
blowing up at vacuum.  The diffusivity is the lower envelope of the admitted
band: a power law below the threshold, constant above, glued continuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DensityFloorViolation, NonpositiveDensity
from .fields import (
    ScalarField,
    VectorField,
    derivative,  # noqa: F401 -- unused; benchmarks/spans.py wraps this binding
    dealiased_product,  # noqa: F401 -- unused; benchmarks/spans.py wraps this binding
    gradient,
    laplacian,
)


def require_finite(params) -> None:
    """Raise ValueError naming the first non-finite number among a parameter
    dataclass's fields, so that NaN and inf cannot slip past the range checks
    after it."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ResistivityParams:
    """Magnetic diffusivity law nu_b(rho) = d0 rho^-a below ``threshold``,
    constant d2 = d0 * threshold^-a above it, with 2 <= a < 3.
    """

    d0: float = 1.0
    a: float = 2.0
    threshold: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if self.d0 <= 0:
            raise ValueError("resistivity constant d0 must be positive")
        if not (2.0 <= self.a < 3.0):
            raise ValueError("resistivity exponent must satisfy 2 <= a < 3")
        if self.threshold <= 0:
            raise ValueError("resistivity threshold must be positive")

    @property
    def d2(self) -> float:
        """Constant value above the threshold (continuity at the knot)."""
        return self.d0 * self.threshold ** (-self.a)


@dataclass(frozen=True)
class PhysParams:
    """Physical constants: adiabatic exponent, cold-pressure law, Planck
    constant and the resistivity band."""

    gamma: float = 5.0 / 3.0
    gamma_minus: float = 4.0
    kappa: float = 0.0
    c1: float = 1.0
    c2: float = 1.0
    resistivity: ResistivityParams = field(default_factory=ResistivityParams)

    def __post_init__(self):
        require_finite(self)
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if self.gamma_minus < 1:
            raise ValueError("gamma_minus must be at least 1")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("cold-pressure constants must be positive")


def _as_positive(rho, context: str) -> np.ndarray:
    arr = np.asarray(rho)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    if arr.size == 0 or np.min(arr) <= 0.0:
        raise NonpositiveDensity(f"{context}: density must be strictly positive")
    return arr


def pressure(rho, params: PhysParams):
    """Barotropic pressure rho^gamma."""
    return _as_positive(rho, "pressure") ** params.gamma


def cold_pressure_derivative(rho, params: PhysParams):
    """Piecewise Pc'(rho): singular branch below 1, power law above."""
    arr = _as_positive(rho, "cold_pressure_derivative")
    lo = params.c1 * arr ** (-params.gamma_minus - 1.0)
    hi = params.c2 * arr ** (params.gamma - 1.0)
    return np.where(arr <= 1.0, lo, hi)


def cold_pressure(rho, params: PhysParams):
    """Pc(rho) = rho Hc'(rho) - Hc(rho), closed form on both branches."""
    arr = _as_positive(rho, "cold_pressure")
    gm, g = params.gamma_minus, params.gamma
    lo = (params.c1 / gm) * (1.0 - arr ** (-gm))
    hi = (params.c2 / g) * (arr ** g - 1.0)
    return np.where(arr <= 1.0, lo, hi)


def enthalpy(rho, params: PhysParams):
    """H(rho) = rho^gamma / (gamma - 1); satisfies rho H' - H = P."""
    arr = _as_positive(rho, "enthalpy")
    return arr ** params.gamma / (params.gamma - 1.0)


def enthalpy_derivative(rho, params: PhysParams):
    arr = _as_positive(rho, "enthalpy_derivative")
    g = params.gamma
    return g * arr ** (g - 1.0) / (g - 1.0)


def enthalpy_second(rho, params: PhysParams):
    """H''(rho) = P'(rho)/rho."""
    arr = _as_positive(rho, "enthalpy_second")
    return params.gamma * arr ** (params.gamma - 2.0)


def cold_enthalpy(rho, params: PhysParams):
    """Hc with Hc'' = Pc'/rho, C1 at the knot, Hc(1) = Hc'(1) = 0."""
    arr = _as_positive(rho, "cold_enthalpy")
    gm, g = params.gamma_minus, params.gamma
    lo = params.c1 * (arr ** (-gm) / (gm * (gm + 1.0)) + arr / (gm + 1.0) - 1.0 / gm)
    hi = params.c2 * (arr ** g / (g * (g - 1.0)) - arr / (g - 1.0) + 1.0 / g)
    return np.where(arr <= 1.0, lo, hi)


def cold_enthalpy_derivative(rho, params: PhysParams):
    arr = _as_positive(rho, "cold_enthalpy_derivative")
    gm, g = params.gamma_minus, params.gamma
    lo = params.c1 * (-arr ** (-gm - 1.0) + 1.0) / (gm + 1.0)
    hi = params.c2 * (arr ** (g - 1.0) - 1.0) / (g - 1.0)
    return np.where(arr <= 1.0, lo, hi)


def cold_enthalpy_second(rho, params: PhysParams):
    """Hc''(rho) = Pc'(rho)/rho."""
    arr = _as_positive(rho, "cold_enthalpy_second")
    return cold_pressure_derivative(arr, params) / arr


def magnetic_diffusivity(rho, params: PhysParams):
    """nu_b(rho): d0 rho^-a below the threshold, constant d2 above."""
    arr = _as_positive(rho, "magnetic_diffusivity")
    r = params.resistivity
    return np.where(arr < r.threshold, r.d0 * arr ** (-r.a), r.d2)


def bohm_force_primary(rho: ScalarField, kappa: float) -> VectorField:
    """2 kappa^2 rho grad(lap sqrt(rho) / sqrt(rho)), evaluated pointwise:
    the independent oracle the scheme's quantum stress is checked against
    (:func:`qmhd.diagnostics.bohm_identity_check`)."""
    grid = rho.grid
    if kappa == 0.0:
        return VectorField.zero(grid)
    vals = rho.values
    if vals.min() <= 0.0:
        raise NonpositiveDensity("bohm_force_primary: density must be strictly positive")
    if vals.min() < 1e-8:
        raise DensityFloorViolation(f"bohm_force_primary: min density {vals.min():.3e} below floor 1.000e-08")
    w = ScalarField._adopt(grid, np.sqrt(vals))
    quot = ScalarField._adopt(grid, laplacian(w).values / w.values)
    g = gradient(quot)
    coef = 2.0 * kappa**2
    return VectorField.from_arrays(
        grid, [coef * rho.values * c.values for c in g.components]
    )
