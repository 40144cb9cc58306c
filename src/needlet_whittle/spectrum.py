"""Angular power spectrum models C_l = l^(-alpha0) * G(l).

A model is a strict power law ``g0 * l**-alpha0`` decorated with one of three
correction terms for G(l):

* ``NoCorrection``      -- G(l) = g0 (the exactly scale-free case),
* ``KappaCorrection``   -- G(l) = g0 * (1 + kappa / l),
* ``RationalCorrection``-- G(l) = g0 * l**(deg Q - deg P) * P(l) / Q(l),
  with P, Q strictly positive on [1, inf).

``alpha0`` is always the effective high-frequency decay exponent: for the
rational form the bare exponent is alpha0 + deg P - deg Q.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import check_alpha0, check_kappa
from .errors import DomainError, NumericalNoiseWarning

__all__ = [
    "NoCorrection",
    "KappaCorrection",
    "RationalCorrection",
    "PowerSpectrumModel",
    "RegularityReport",
    "c_l",
    "g_of_l",
    "check_regularity",
    "model_kappa",
]


@dataclass(frozen=True)
class NoCorrection:
    pass


@dataclass(frozen=True)
class KappaCorrection:
    kappa: float


@dataclass(frozen=True)
class RationalCorrection:
    p_coeffs: tuple[float, ...]  # ascending degree
    q_coeffs: tuple[float, ...]


@dataclass(frozen=True)
class PowerSpectrumModel:
    alpha0: float
    g0: float = 1.0
    correction: NoCorrection | KappaCorrection | RationalCorrection = field(
        default_factory=NoCorrection
    )

    def __post_init__(self):
        check_alpha0(self.alpha0)
        # a chained comparison: nan fails it, so only finite values pass
        if not 0 < self.g0 < np.inf:
            raise DomainError(f"g0 must be finite and positive, got {self.g0}")
        corr = self.correction
        if isinstance(corr, KappaCorrection):
            check_kappa(corr.kappa)
        elif isinstance(corr, RationalCorrection):
            from numpy.polynomial.polynomial import polyval  # only a rational model loads it

            object.__setattr__(corr, "p_coeffs", tuple(float(c) for c in corr.p_coeffs))
            object.__setattr__(corr, "q_coeffs", tuple(float(c) for c in corr.q_coeffs))
            for name, coeffs in (("P", corr.p_coeffs), ("Q", corr.q_coeffs)):
                if len(coeffs) == 0:
                    raise DomainError(f"{name} has no coefficients")
                if not np.all(np.isfinite(coeffs)):
                    raise DomainError(f"{name} has a non-finite coefficient: {coeffs}")
                if coeffs[-1] <= 0:
                    raise DomainError(f"{name} must have a positive leading coefficient")
                # strict positivity on [1, inf): leading term dominates beyond the
                # grid, so a log-spaced numeric check suffices
                grid = np.geomspace(1.0, 1e8, 512)
                if np.any(polyval(grid, coeffs) <= 0):
                    raise DomainError(f"{name} is not strictly positive on [1, inf)")


def _check_l(l):
    arr = np.asarray(l)
    if np.any(arr < 1):
        raise DomainError("l must be >= 1 (the monopole l = 0 is excluded)")
    return arr.astype(float)


def _correction_factor(model: PowerSpectrumModel, u):
    """G(l) / g0; independent of the amplitude."""
    corr = model.correction
    if isinstance(corr, NoCorrection):
        return np.ones_like(u)
    if isinstance(corr, KappaCorrection):
        return 1.0 + corr.kappa / u
    from numpy.polynomial.polynomial import polyval

    dp, dq = len(corr.p_coeffs) - 1, len(corr.q_coeffs) - 1
    return u ** (dq - dp) * polyval(u, corr.p_coeffs) / polyval(u, corr.q_coeffs)


def g_of_l(model: PowerSpectrumModel, l):
    """G(l) = C_l * l**alpha0; bounded above and below for every model."""
    u = _check_l(l)
    out = model.g0 * _correction_factor(model, u)
    return out if isinstance(l, np.ndarray) else float(out)


def c_l(model: PowerSpectrumModel, l):
    """Angular power spectrum value(s) C_l = l**-alpha0 * G(l) > 0.

    The amplitude multiplies last, so rescaling g0 rescales C_l exactly in
    floating point.
    """
    u = _check_l(l)
    out = model.g0 * (u ** (-model.alpha0) * _correction_factor(model, u))
    return out if isinstance(l, np.ndarray) else float(out)


def model_kappa(model: PowerSpectrumModel) -> float:
    """Effective 1/l correction coefficient: G(l) = G0 (1 + kappa/l + O(1/l^2))."""
    corr = model.correction
    if isinstance(corr, NoCorrection):
        return 0.0
    if isinstance(corr, KappaCorrection):
        return corr.kappa
    # rational: ratio of sub-leading to leading coefficients
    p, q = corr.p_coeffs, corr.q_coeffs
    kp = p[-2] / p[-1] if len(p) >= 2 else 0.0
    kq = q[-2] / q[-1] if len(q) >= 2 else 0.0
    return kp - kq


@dataclass
class RegularityReport:
    c0_bounds: tuple[float, float]
    derivative_ok: dict[int, bool]
    sup_scaled: dict[int, float]  # sup over the grid of |d^r G / du^r| * u^r


_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def check_regularity(model: PowerSpectrumModel, l_max: int, r_max: int) -> RegularityReport:
    """Numerically probe the smoothness bounds |d^r G/du^r| <= c_r u^-r.

    Central finite differences on a log-spaced grid in [1, l_max]; a derivative
    order passes when the scaled magnitude shows no growing trend toward high
    frequency.  Emits :class:`NumericalNoiseWarning` when rounding noise
    dominates an estimate instead of failing.
    """
    if l_max < 16:
        raise DomainError("l_max must be >= 16")
    if not 0 <= r_max <= 4:
        raise DomainError("r_max must be in [0, 4]")
    grid = np.geomspace(1.0, float(l_max), 48)
    g = np.asarray(g_of_l(model, grid))
    report = RegularityReport(
        c0_bounds=(float(g.min()), float(g.max())),
        derivative_ok={0: bool(np.isfinite(g).all())},
        sup_scaled={0: float(np.abs(g).max())},
    )
    eps = np.finfo(float).eps
    for r in range(1, r_max + 1):
        h = np.maximum(1e-4 * grid, 1e-6)
        vals = np.zeros_like(grid)
        for off, w in _STENCILS[r]:
            # probe G as a function of a real argument; the stencil may dip
            # slightly below the l >= 1 lattice bound
            u = np.maximum(grid + off * h, 0.9)
            vals += w * (model.g0 * _correction_factor(model, u))
        deriv = vals / h**r
        scaled = np.abs(deriv) * grid**r
        noise = eps * np.abs(g).max() * 8.0 / h**r * grid**r
        if np.all(scaled <= noise):  # derivative numerically zero
            report.derivative_ok[r] = True
            report.sup_scaled[r] = 0.0
            continue
        if np.median(noise / np.maximum(scaled, 1e-300)) > 0.5:
            warnings.warn(
                f"finite-difference noise dominates order-{r} estimate",
                NumericalNoiseWarning,
            )
        top = scaled[-16:].max()
        rest = scaled[:-16].max()
        report.derivative_ok[r] = bool(top <= 1.5 * rest + noise.max())
        report.sup_scaled[r] = float(scaled.max())
    return report
