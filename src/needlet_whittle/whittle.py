"""Whittle minimum-contrast estimation of (alpha, G) from needlet level statistics.

The amplitude is profiled out in closed form, leaving a one-dimensional
contrast in alpha:

    contrast(alpha) = log G-hat(alpha) + (1/sum N_j) sum_j N_j log K_j(alpha),
    G-hat(alpha)    = (1/sum N_j) sum_j lambda_hat_j / K_j(alpha).

Model-side moments K_j come from the same level basis as the data
statistics, so a noise-free spectrum is recovered exactly.  Minimization
brackets the minimum on a ``GRID_POINTS`` alpha grid, then runs a safeguarded
Newton search on the analytic score and hessian: a step that leaves the
bracket, or a hessian <= 0, falls back to bisection.

``_profile`` is the one expression of G-hat and the contrast, for model
moments K of any leading shape: the grid passes all its rows at once, and
``_derivs`` passes one and adds the score and hessian from the same K_j',
K_j'' pass, forming its five level sums in one reduction.  What follows that
reduction, in ``_profile`` too, is arithmetic on Python floats: the IEEE
operations of numpy scalars in the same order, without their call overhead.
The grid's alphas and the trace read one grid per search range
(``needlet.alpha_grid``), so the bracket and every Newton step are floats.
A fit records G-hat, score and hessian from one ``_derivs`` call at
alpha-hat.  It runs on lambda / 2^e (``_scaled``), which puts the largest
lambda in [1/2, 1) exactly: only G-hat (multiplied back by 2^e) and the
trace's contrast depend on the spectrum's scale.  Likewise ``_derivs`` forms
its level sums on K / 2^f, f the binary exponent of the largest K_j, once
|f| passes ``_K_EXP``: K_j reaches ~1e124 at mexican p 50, where k0**3 would
overflow.  The sums of lambda / K and of the score's and hessian's lambda
terms scale by 2^f and are multiplied back exactly, so they keep their bits,
and within ``_K_EXP`` scaling would move none; ``_profile`` reads the
unscaled K.  The single-point evaluators ``contrast``, ``score``, ``hessian``
and ``profile_g_hat`` run on the same scaled statistics and read them back
unscaled (``_at``), so they are finite wherever a fit is.  The rows-CSV form
of a fit belongs to ``harness.ReplicationRow``.

``level_range`` is the one rule that turns a band request (band, j0, jl, g)
into a level range; ``estimate`` and the Monte Carlo configs both fit through
``fit_band``, which applies it, so a request is accepted or rejected alike.
``plug_in`` fits the full band twice, on the default ``SearchSettings``.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .errors import (
    BoundaryWarning,
    ConfigError,
    DegenerateDataError,
    DomainError,
    NarrowBandError,
)
from .harmonic import EmpiricalSpectrum
from .needlet import (
    JRange,
    MexicanWindow,
    NeedletStatistics,
    NeedletWindow,
    StandardWindow,
    alpha_grid,
    check_levels,
    compute_statistics,
    narrow_band_j1,
    select_j_range,
)

__all__ = [
    "SearchSettings",
    "WhittleFit",
    "PluginResult",
    "profile_g_hat",
    "contrast",
    "contrast_two_param",
    "score",
    "hessian",
    "level_range",
    "fit_band",
    "fit_full_band",
    "fit_narrow_band",
    "plug_in",
]

GRID_POINTS = 64  # alpha grid that brackets the minimum before the Newton search
MAX_ITER = 200  # Newton/bisection iterates per fit; a few suffice (see README)
_LOG_2 = math.log(2.0)
_K_EXP = 256  # |binary exponent| of the largest K_j up to which k0**3 stays a normal float


@dataclass(frozen=True)
class SearchSettings:
    """Search range and tolerance of a fit; the config keys ``fit.*`` and the
    ``estimate`` options take their defaults from here.  The tolerance stays
    below the spacing of the ``GRID_POINTS`` grid: at or above it the search
    ends after its first step, at the middle of a grid cell, as converged."""

    alpha_min: float = 2.001
    alpha_max: float = 10.0
    tol: float = 1e-6

    def __post_init__(self):
        # chained comparisons: nan fails each, so only finite values pass
        if not -math.inf < self.alpha_min < self.alpha_max < math.inf:
            raise ConfigError(
                "search range needs finite alpha_min < alpha_max, "
                f"got [{self.alpha_min}, {self.alpha_max}]"
            )
        if not 0.0 < self.tol < math.inf:
            raise ConfigError(f"search tolerance must be finite and positive, got {self.tol}")
        spacing = (self.alpha_max - self.alpha_min) / (GRID_POINTS - 1)
        if self.tol >= spacing:
            raise ConfigError(
                f"search tolerance must be below the alpha grid's spacing {spacing:.6g}, "
                f"got {self.tol}"
            )


def _profile(stats: NeedletStatistics, k: np.ndarray, lam_k: float | np.ndarray):
    """(contrast, G-hat), one pair per leading index of model moments K (..., J),
    from K and the level sums ``lam_k`` = sum_j lambda_j / K_j: a float from a
    Newton step, with K of shape (J,), or an array from the grid."""
    n, sn = stats.basis.n, stats.basis.n_sum
    g = lam_k / sn
    if not ((g > 0).all() if isinstance(g, np.ndarray) else g > 0):
        raise DegenerateDataError("profiled amplitude is not positive")
    return np.log(g) + np.log(k) @ n / sn, g


def _derivs(stats: NeedletStatistics, alpha: float) -> tuple[float, float, float, float]:
    """Contrast, score, hessian and profiled amplitude G-hat at alpha, from one
    K_j, K_j', K_j'' evaluation; the five level sums are one reduction, and
    what follows it is arithmetic on Python floats, on K / 2^f past
    ``_K_EXP`` (module docstring)."""
    k = stats.basis.k_derivs(alpha)
    f = math.frexp(max(k[0].tolist()))[1]
    if abs(f) <= _K_EXP:  # K / 2^f would give the same bits
        f = 0
    k0, k1, k2 = np.ldexp(k, -f) if f else k
    n, sn, lam = stats.basis.n, stats.basis.n_sum, stats.lam
    terms = np.empty((5, len(n)))
    # each shared factor is formed once, by the same operation as when it was formed twice
    k0_sq, k1_sq, k2_k0 = k0**2, k1**2, k2 * k0
    np.divide(lam, k0, out=terms[0])
    terms[1] = lam * k1 / k0_sq
    terms[2] = lam * (2.0 * k1_sq - k2_k0) / k0**3
    terms[3] = n * k1 / k0
    terms[4] = n * (k2_k0 - k1_sq) / k0_sq
    lam_k, s1, s2, s3, s4 = np.add.reduce(terms, axis=1).tolist()
    # lambda / K, s1 and s2 scale as 2^f
    lam_k, s1, s2 = math.ldexp(lam_k, -f), math.ldexp(s1, -f), math.ldexp(s2, -f)
    value, phi = _profile(stats, k[0], lam_k)
    dphi = -s1 / sn
    d2phi = s2 / sn
    grad = dphi / phi + s3 / sn
    curv = (d2phi * phi - dphi * dphi) / phi**2 + s4 / sn
    return float(value), grad, curv, phi


def _scaled(stats: NeedletStatistics) -> tuple[NeedletStatistics, int]:
    """(the statistics on lambda / 2^e, e), e the binary exponent of the
    largest lambda, which the scaled statistics put in [1/2, 1) exactly."""
    top = float(stats.lam.max())  # lambda >= 0, and max propagates nan
    if not 0.0 < top < math.inf:
        raise DegenerateDataError("level statistics must be finite, with one positive")
    e = math.frexp(top)[1]
    return NeedletStatistics(basis=stats.basis, lam=np.ldexp(stats.lam, -e)), e


def _at(stats: NeedletStatistics, e: int, alpha: float) -> tuple[float, float, float, float]:
    """``_derivs`` at alpha of statistics on lambda / 2^e, as those of the
    unscaled lambda: the contrast plus e log 2, score and hessian as they
    are, and G-hat times 2^e, exactly, or ``DegenerateDataError`` past the
    float range."""
    value, grad, curv, g = _derivs(stats, alpha)
    if math.frexp(g)[1] + e > sys.float_info.max_exp:
        raise DegenerateDataError("profiled amplitude overflows")
    return value + e * _LOG_2, grad, curv, math.ldexp(g, e)


def profile_g_hat(stats: NeedletStatistics, alpha: float) -> float:
    """Closed-form amplitude profile (1/sum N_j) sum_j lambda_j / K_j(alpha)."""
    return _at(*_scaled(stats), alpha)[3]


def contrast(stats: NeedletStatistics, alpha: float) -> float:
    """Profiled Whittle contrast; the alpha-free coefficient entropy term is
    dropped, so only contrast differences are meaningful."""
    return _at(*_scaled(stats), alpha)[0]


def contrast_two_param(stats: NeedletStatistics, alpha: float, g: float) -> float:
    """Unprofiled contrast in (alpha, G); equals contrast(alpha) + 1 at the
    profile point G = profile_g_hat(alpha)."""
    if not g > 0:
        raise DomainError("g must be positive")
    n, sn = stats.basis.n, stats.basis.n_sum
    k0 = stats.basis.k(alpha)
    return float(np.sum(stats.lam / (g * k0)) + np.sum(n * np.log(g * k0))) / sn


def score(stats: NeedletStatistics, alpha: float) -> float:
    """Analytic d/dalpha of the contrast."""
    return _at(*_scaled(stats), alpha)[1]


def hessian(stats: NeedletStatistics, alpha: float) -> float:
    """Analytic d^2/dalpha^2 of the contrast."""
    return _at(*_scaled(stats), alpha)[2]


def _check_two_levels(j_range: JRange, band: str) -> None:
    """A single level does not identify alpha: G-hat absorbs it, the contrast is flat."""
    if j_range.j0 == j_range.jL:
        error = NarrowBandError if band == "narrow" else DegenerateDataError
        raise error(f"{band} band [{j_range.j0}, {j_range.jL}] is a single level")


@dataclass
class WhittleFit:
    alpha_hat: float
    g_hat: float
    j_range_used: JRange  # a narrow fit's range starts at J1
    band: str  # "full" | "narrow"
    contrast_trace: list[tuple[float, float]]
    score_at_hat: float
    hessian_at_hat: float
    converged: bool
    iterations: int
    boundary: bool  # alpha-hat at or within tol of a search end (BoundaryWarning)

    def report(self) -> str:
        lines = [
            f"band          {self.band}",
            f"levels        [{self.j_range_used.j0}, {self.j_range_used.jL}]",
            f"alpha_hat     {self.alpha_hat:.8f}",
            f"g_hat         {self.g_hat:.8g}",
            f"score         {self.score_at_hat:.3e}",
            f"hessian       {self.hessian_at_hat:.6f}",
            f"converged     {self.converged}",
            f"iterations    {self.iterations}",
        ]
        return "\n".join(lines)


def _fit(stats: NeedletStatistics, search: SearchSettings, band: str) -> WhittleFit:
    _check_two_levels(stats.j_range, band)
    stats, e = _scaled(stats)  # the fit runs on lambda / 2^e (module docstring)
    # the grid stays vectorised: one k_linspace pass, not GRID_POINTS evaluations
    _, k = stats.basis.k_linspace(search.alpha_min, search.alpha_max, GRID_POINTS)
    grid = alpha_grid(search.alpha_min, search.alpha_max, GRID_POINTS)[1]
    vals, _ = _profile(stats, k, (stats.lam / k).sum(axis=-1))
    trace: list[tuple[float, float]] = list(zip(grid, vals.tolist()))
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    x = alpha_hat = grid[i]
    converged = False
    iters = 0
    while iters < MAX_ITER:
        value, grad, curv, _ = _derivs(stats, x)
        trace.append((x, value))
        iters += 1
        # a positive score puts the minimum below x, otherwise above it
        if grad > 0:
            hi = x
        else:
            lo = x
        if curv > 0 and abs(grad / curv) <= 1e-3 * search.tol:
            alpha_hat, converged = x - grad / curv, True
            break
        if hi - lo <= search.tol:
            alpha_hat, converged = 0.5 * (lo + hi), True
            break
        x = x - grad / curv if curv > 0 else math.nan
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        alpha_hat = x
    boundary = bool(
        alpha_hat - search.alpha_min <= search.tol
        or search.alpha_max - alpha_hat <= search.tol
        or i in (0, len(grid) - 1)
    )
    if boundary:
        warnings.warn(
            f"alpha_hat={alpha_hat:.6f} is at or near the search boundary "
            f"[{search.alpha_min}, {search.alpha_max}]",
            BoundaryWarning,
        )
    _, grad, curv, g_hat = _at(stats, e, alpha_hat)
    return WhittleFit(
        alpha_hat=alpha_hat,
        g_hat=g_hat,
        j_range_used=stats.j_range,
        band=band,
        contrast_trace=trace,
        score_at_hat=grad,
        hessian_at_hat=curv,
        converged=converged,
        iterations=iters,
        boundary=boundary,
    )


def fit_full_band(
    spec: EmpiricalSpectrum,
    window: NeedletWindow,
    j_range: JRange | None = None,
    search: SearchSettings | None = None,
) -> WhittleFit:
    """Estimate (alpha, G) from all levels [J0, JL]."""
    if j_range is None:
        j_range = select_j_range(spec.l_max, window)
    return _fit(compute_statistics(spec, window, j_range), search or SearchSettings(), "full")


def level_range(
    window: NeedletWindow,
    l_max: int,
    band: str,
    j0: int | None = None,
    jl: int | None = None,
    g: float | None = None,
) -> JRange:
    """The level range of a band request at band limit ``l_max``.

    * full: [j0, jl] when both are given, ``select_j_range`` when neither is;
      a lone j0 or jl, or any g, raises ``ConfigError``.
    * narrow: [J1, jl] with B^J1 = B^jl (1 - g), J1 rounded half up; jl
      defaults to the top of ``select_j_range``, and g is a fraction in (0, 1)
      or None for g = jl^-3.  A j0 raises ``ConfigError``, a band
      under one multipole ``NarrowBandError``.

    Either range needs two levels or more (``NarrowBandError`` on the narrow
    band, ``DegenerateDataError`` on the full band) and must pass
    ``needlet.check_levels`` at ``l_max``.
    """
    if band == "full":
        if g is not None:
            raise ConfigError("g applies to the narrow band only")
        if (j0 is None) != (jl is None):
            raise ConfigError("a full-band level range needs both j0 and jl")
        j_range = select_j_range(l_max, window) if j0 is None else JRange(j0=j0, jL=jl)
    elif band == "narrow":
        if j0 is not None:
            raise ConfigError("j0 applies to the full band; a narrow band starts at J1")
        if jl is None:
            jl = select_j_range(l_max, window).jL
        if g is None:
            g = float(jl) ** -3  # degenerate below jl ~ 10 at B = 2
        if not 0.0 < g < 1.0:
            raise DomainError(f"band fraction g must be in (0, 1), got {g}")
        j_range = JRange(j0=narrow_band_j1(jl, g, window.B), jL=jl)
    else:
        raise ConfigError(f"band must be full or narrow, got {band!r}")
    _check_two_levels(j_range, band)
    check_levels(window, j_range, l_max)
    if band == "narrow" and window.B**j_range.jL - window.B**j_range.j0 < 1.0:
        raise NarrowBandError("band is narrower than one multipole")
    return j_range


def fit_narrow_band(
    spec: EmpiricalSpectrum,
    window: NeedletWindow,
    j_l: int | None = None,
    g: float | None = None,
    search: SearchSettings | None = None,
) -> WhittleFit:
    """Estimate (alpha, G) from the top slice [J1, j_l] of ``level_range``."""
    j_range = level_range(window, spec.l_max, "narrow", jl=j_l, g=g)
    return _fit(compute_statistics(spec, window, j_range), search or SearchSettings(), "narrow")


def fit_band(
    spec: EmpiricalSpectrum,
    window: NeedletWindow,
    band: str,
    j0: int | None,
    jl: int | None,
    g: float | None,
    search: SearchSettings | None,
) -> WhittleFit:
    """Fit the band request (band, j0, jl, g) of ``level_range``, resolved once:
    in ``fit_narrow_band`` for a narrow band without j0, here otherwise."""
    if band == "narrow" and j0 is None:
        return fit_narrow_band(spec, window, j_l=jl, g=g, search=search)
    j_range = level_range(window, spec.l_max, band, j0, jl, g)
    return fit_full_band(spec, window, j_range=j_range, search=search)


@dataclass
class PluginResult:
    alpha_standard: float
    used_mexican: bool
    alpha_final: float
    p: int
    rho0_sq: float
    sigma1_sq: float

    def report(self) -> str:
        lines = [
            f"alpha_standard   {self.alpha_standard:.8f}",
            f"p                {self.p}",
            f"used_mexican     {self.used_mexican}",
            f"alpha_final      {self.alpha_final:.8f}",
            f"rho0_sq          {self.rho0_sq:.4f}",
            f"sigma1_sq        {self.sigma1_sq:.4f}",
            f"favors_mexican   {self.sigma1_sq < self.rho0_sq}",
        ]
        return "\n".join(lines)


def plug_in(spec: EmpiricalSpectrum, p: int, b_std: float, b_mex: float) -> PluginResult:
    """Two-step estimate: pilot fit with the compact window, then a mexican
    refit whenever p > alpha_pilot / 4 (lower asymptotic variance regime).
    Both are full-band fits on the default ``SearchSettings``.

    ``rho0_sq`` is the table constant at (alpha_pilot, b_std), interpolated
    inside the table; ``sigma1_sq`` is the mexican table column at alpha_pilot
    (the variance comparison the decision rule is based on).
    """
    std = StandardWindow(B=b_std)
    mex = MexicanWindow(p=p, B=b_mex)
    pilot = fit_full_band(spec, std)
    used = p > pilot.alpha_hat / 4.0
    alpha_final = pilot.alpha_hat
    if used:
        alpha_final = fit_full_band(spec, mex).alpha_hat
    return PluginResult(
        alpha_standard=pilot.alpha_hat,
        used_mexican=used,
        alpha_final=alpha_final,
        p=p,
        rho0_sq=asymptotics.table1_rho0_sq(pilot.alpha_hat, b_std, interpolate=True),
        sigma1_sq=asymptotics.sigma0_sq(p, pilot.alpha_hat),
    )
