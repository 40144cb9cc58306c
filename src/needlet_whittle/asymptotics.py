"""Closed-form asymptotic constants for the needlet Whittle estimator.

Everything here is a pure function of (p, B, alpha0).  Two families coexist:

* Reference closed forms (``tau_tildes``, ``bias_coeff_reference``): the
  classical geometric-tail approximations.  They are kept because their
  printed values are pinned elsewhere, but brute-force evaluation of the
  underlying sums shows them off by tens of percent at practical (p, B,
  alpha0); do not use them for variance work.
* Exact leading-order constants (``level_sum_constants`` and everything built
  on them: ``sigma1_sq``, ``varsigma0_sq``, ``bias_coeff``): derived from the
  full two-sided level-covariance kernel and validated against brute-force
  double sums (machine precision) and seeded Monte Carlo.

Special functions (gamma/digamma/trigamma) are implemented here so the module
stands on the standard library alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

TAIL_TOL = 1e-12  # largest dropped tail a truncated sum accepts, relative to the sum

__all__ = [
    "check_alpha0",
    "check_B",
    "check_kappa",
    "digamma",
    "trigamma",
    "gauss_moment_w",
    "i_ps",
    "sigma0_sq",
    "tau_b",
    "sum_asymptote",
    "geometric_sum",
    "v_and_z",
    "TauTildes",
    "tau_tildes",
    "LevelSumConstants",
    "level_sum_constants",
    "sigma1_sq",
    "clt_variance",
    "varsigma0_sq",
    "phi_b",
    "bias_coeff",
    "bias_coeff_reference",
    "narrowband_variance",
    "kj_ratio_limit",
    "Table1",
    "table1_constants",
    "table1_rho0_sq",
    "AsymptoticConstants",
    "constants",
]


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

# asymptotic tail coefficients: psi(x) ~ ln x - 1/2x - sum  B_2n / (2n x^2n)
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)
# psi'(x) ~ 1/x + 1/2x^2 + sum B_2n / x^(2n+1)
_PSI1_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)

_SHIFT = 9.0


def digamma(x: float) -> float:
    """psi(x) for x > 0, via upward recurrence and the asymptotic series."""
    if x <= 0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < _SHIFT:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail, power = 0.0, inv2
    for c in _PSI_TAIL:
        tail += c * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail


def trigamma(x: float) -> float:
    """psi'(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"trigamma requires x > 0, got {x}")
    acc = 0.0
    while x < _SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail, power = 0.0, inv2 / x
    for c in _PSI1_TAIL:
        tail += c * power
        power *= inv2
    return acc + 1.0 / x + 0.5 * inv2 + tail


def _gamma(x: float) -> float:
    if x <= 0:
        raise DomainError(f"gamma requires x > 0 here, got {x}")
    try:
        return math.exp(math.lgamma(x))
    except OverflowError:
        raise DomainError(f"gamma({x}) overflows a double") from None


def check_B(B: float) -> None:
    """The one rule for a needlet base: finite and above 1 (``DomainError``)."""
    if not 1 < B < math.inf:  # a chained comparison: nan fails it
        raise DomainError(f"B must be finite and exceed 1, got {B}")


def check_alpha0(alpha0: float) -> None:
    """The one rule for the decay exponent alpha0 of C_l: finite and above 2 (``DomainError``)."""
    if not 2 < alpha0 < math.inf:
        raise DomainError(f"alpha0 must be finite and exceed 2, got {alpha0}")


def check_kappa(kappa: float) -> None:
    """The one rule for kappa in G(l) = G0 (1 + kappa/l): finite and above -1 (``DomainError``)."""
    if not -1 < kappa < math.inf:
        raise DomainError(f"kappa must be finite and exceed -1, got {kappa}")


# ---------------------------------------------------------------------------
# Gaussian log-moment integrals and spectral moments
# ---------------------------------------------------------------------------


def gauss_moment_w(a: float, b: float, s: int) -> float:
    """W = int_0^inf t^(2a) exp(-b t^2) log^s(t) dt for s in {0, 1, 2}."""
    if not a > -0.5:
        raise DomainError(f"requires a > -1/2, got a={a}")
    if not b > 0:
        raise DomainError(f"requires b > 0, got b={b}")
    g = _gamma(a + 0.5)
    scale = b ** -(a + 0.5)
    if s == 0:
        return scale / 2.0 * g
    psi = digamma(a + 0.5)
    logb = math.log(b)
    if s == 1:
        return scale / 4.0 * g * (psi - logb)
    if s == 2:
        return scale / 8.0 * g * (psi * psi + trigamma(a + 0.5) - 2.0 * logb * psi + logb * logb)
    raise DomainError(f"s must be 0, 1 or 2, got {s}")


def i_ps(p: int, alpha: float, s: int = 0, c_b: float = 1.0) -> float:
    """Limit constant of B^(alpha j) k_j and its log-moment variants."""
    return 2.0 / c_b * gauss_moment_w((4 * p + 1 - alpha) / 2.0, 2.0, s)


def sigma0_sq(p: int, alpha0: float) -> float:
    """Single-level variance constant 2 Gamma(4p+1-a0) / (2^(4p-a0) Gamma^2(2p+1-a0/2)),
    formed in logs: Gamma(4p+1-a0) alone overflows a double from p 44 on, while
    the constant stays near 2 / sqrt(pi (2p - a0/2))."""
    if not 4 * p + 1 - alpha0 > 0:
        raise DomainError(f"requires 4p+1-alpha0 > 0, got p={p}, alpha0={alpha0}")
    if not 2 * p + 1 - alpha0 / 2.0 > 0:
        raise DomainError(f"requires 2p+1-alpha0/2 > 0, got p={p}, alpha0={alpha0}")
    return 2.0 * math.exp(
        math.lgamma(4 * p + 1 - alpha0)
        - 2.0 * math.lgamma(2 * p + 1 - alpha0 / 2.0)
        - (4 * p - alpha0) * math.log(2.0)
    )


def tau_b(delta_j: int, p: int, B: float, alpha0: float) -> float:
    """Cross-level covariance decay B^(dj(1-a0)) cosh(dj log B)^-(4p-a0+1)."""
    P = 4 * p + 1 - alpha0
    return B ** (delta_j * (1.0 - alpha0)) * math.cosh(delta_j * math.log(B)) ** (-P)


def sum_asymptote(
    a: float | tuple[float, float],
    n: float,
    p: int,
    B: float,
    j: int,
    delta_j: int = 0,
) -> float:
    """Leading closed form of sum_l f_p^a(l/B^j) l^n, or of the cross-level
    product sum_l f_p^a1(l/B^j) f_p^a2(l/B^(j+dj)) l^n when ``a = (a1, a2)``."""
    if isinstance(a, tuple):
        a1, a2 = a
    else:
        if delta_j != 0:
            raise DomainError("single-window form has no level offset")
        a1 = a2 = a / 2.0
    ap = (a1 + a2) * p + (n + 1.0) / 2.0
    if not ap > 0:
        raise DomainError(f"requires (a1+a2)p + (n+1)/2 > 0, got {ap}")
    tau = ((a1 * B**delta_j + a2 * B**-delta_j) / (a1 + a2)) ** (-ap) * B ** (
        delta_j * ((a1 - a2) * p + (n + 1.0) / 2.0)
    )
    return B ** ((n + 1.0) * j) * tau / (2.0 * (a1 + a2) ** ap) * _gamma(ap)


# ---------------------------------------------------------------------------
# geometric level sums
# ---------------------------------------------------------------------------


def geometric_sum(s: float, B: float, j0: int, jL: int, moment: int = 0) -> float:
    """Closed form of sum_{j=j0}^{jL} B^(s j) (log B^j)^moment."""
    if j0 > jL:
        raise DomainError(f"empty range: j0={j0} > jL={jL}")
    if not (s > 0 and B > 1):
        raise DomainError("requires s > 0 and B > 1")
    q = B**s
    lead = q / (q - 1.0)
    lb = math.log(B)
    hi, lo = q ** float(jL), q ** float(j0 - 1)
    if moment == 0:
        return lead * (hi - lo)
    kap = 1.0 / (q - 1.0)
    if moment == 1:
        return lead * lb * ((jL - kap) * hi - ((j0 - 1) - kap) * lo)
    if moment == 2:
        bump = q / (q - 1.0) ** 2
        return lead * lb * lb * (((jL - kap) ** 2 + bump) * hi - (((j0 - 1) - kap) ** 2 + bump) * lo)
    raise DomainError(f"moment must be 0, 1 or 2, got {moment}")


@dataclass(frozen=True)
class VandZ:
    V: float
    z_limit_check: float


def v_and_z(s: float, B: float, j0: int, jL: int) -> VandZ:
    """Determinant-style combination V = S0 S2 - S1^2 of the geometric sums,
    plus B^(-2 s jL) V for inspection against its large-jL limit
    log^2(B) B^(3s) / (B^s - 1)^4."""
    if j0 > jL:
        raise DomainError(f"empty range: j0={j0} > jL={jL}")
    q = B**s
    lb = math.log(B)
    V = (q * lb / (q - 1.0)) ** 2 * (
        q / (q - 1.0) ** 2 * (q ** float(jL) - q ** float(j0 - 1)) ** 2
        - q ** float(jL + j0 - 1) * (jL - j0 + 1) ** 2
    )
    return VandZ(V=V, z_limit_check=B ** (-2.0 * s * jL) * V)


# ---------------------------------------------------------------------------
# level-covariance constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TauTildes:
    tau0: float
    tau1: float
    tau2: float
    tau_tilde: float
    w_p: float


def tau_tildes(p: int, B: float, alpha0: float) -> TauTildes:
    """Geometric-tail reference forms of the level-sum constants.

    Kept for comparison and for their pinned printed values; superseded by
    :func:`level_sum_constants` for anything quantitative (brute-force sums
    show these off by O(10%) and more at practical parameters).
    """
    if not 4 * p - alpha0 > 0:
        raise DomainError(f"requires 4p - alpha0 > 0, got p={p}, alpha0={alpha0}")
    P = 4 * p + 1 - alpha0
    t0 = 2.0**P / (B ** (P + 1) - 1.0)
    t1 = 2.0**P * (B ** (P + 3) - 1.0) / (B ** (P + 1) - 1.0) ** 2
    num = (
        B**6 * B ** (P - 1) * (B ** (P - 1) + 1.0)
        + B**4 * B ** (P - 1) * (B**3 * B**P - 6.0)
        + B**2 * (B ** (P - 1) + 1.0)
        + 1.0
    )
    w_p = num / (B**2 + 1.0)
    t2 = 2.0**P * w_p / (B ** (P + 1) - 1.0) ** 3
    tt = ((B**2 + 1.0) * (t0 + t2 + t0 * t2) + 2.0 * t1 - t1 * t1) / B**2
    return TauTildes(tau0=t0, tau1=t1, tau2=t2, tau_tilde=tt, w_p=w_p)


@dataclass(frozen=True)
class LevelSumConstants:
    """Exact leading-order constants of the dressed level sums.

    ``c0``, ``c1``, ``c2`` are moments of the one-sided covariance kernel
    u(-d) = B^(-d) cosh(d log B)^-(4p+1-a0); the ``tau*`` fields enter the
    closed forms

        S0 ~ (B^2/(B^2-1)) (1 + tau0) B^(2 jL),
        S1 ~ (B^2 log B/(B^2-1)) ((1+tau0) jL - (1+tau1)/(B^2-1)) B^(2 jL),
        S2 ~ (B^2 log^2 B/(B^2-1)) ((1+tau0) jL^2 - 2(1+tau1) jL/(B^2-1)
              + (B^2+1)(1+tau2)/(B^2-1)^2) B^(2 jL),

    and ``tau_z`` is the determinant combination driving
    S0 S2 - S1^2 ~ (B^6 log^2 B/(B^2-1)^4)(1 + tau_z) B^(4 jL).
    """

    c0: float
    c1: float
    c2: float
    tau0: float
    tau1: float
    tau2: float
    tau_z: float


def level_sum_constants(p: int, B: float, alpha0: float) -> LevelSumConstants:
    check_B(B)
    if not 4 * p - alpha0 > 0:
        raise DomainError(f"requires 4p - alpha0 > 0, got p={p}, alpha0={alpha0}")
    P = 4 * p + 1 - alpha0
    lb = math.log(B)
    c0 = c1 = c2 = 0.0
    for d in range(1, 100000):
        u = B ** (-d) * math.cosh(d * lb) ** (-P)
        c0 += u
        c1 += d * u
        c2 += d * d * u
        if u < 1e-18 * c0 and d > 4:
            break
    else:  # the ratio of terms falls with d: the tail is at most u_next / (1 - ratio)
        u_next = B ** (-d - 1) * math.cosh((d + 1) * lb) ** (-P)
        ratio = u_next / u
        if not (ratio < 1.0 and u_next / (1.0 - ratio) <= TAIL_TOL * c0):
            raise DomainError(f"level sums at B={B} do not converge in {d} terms")
    t0 = 2.0 * c0
    t1 = 2.0 * c0 + (B**2 - 1.0) * c1
    t2 = 2.0 * c0 + (B**2 - 1.0) * (2.0 * c1 + (B**2 - 1.0) * c2) / (B**2 + 1.0)
    tz = ((B**2 + 1.0) * (t0 + t2 + t0 * t2) - 2.0 * t1 - t1 * t1) / B**2
    return LevelSumConstants(c0=c0, c1=c1, c2=c2, tau0=t0, tau1=t1, tau2=t2, tau_z=tz)


def sigma1_sq(p: int, B: float, alpha0: float) -> float:
    """Score-variance inflation sigma0^2 (1 + tau0): the exact counterpart of
    the sigma0^2 (1 + tau) factor in the estimator CLT."""
    return sigma0_sq(p, alpha0) * (1.0 + level_sum_constants(p, B, alpha0).tau0)


def clt_variance(score_variance: float, B: float) -> float:
    """Limiting variance of B^jL (alpha-hat - alpha0) from the score variance:
    score_variance (B^2 - 1)^3 / (B^4 log^2 B)."""
    check_B(B)
    lb = math.log(B)
    return score_variance * (B**2 - 1.0) ** 3 / (B**4 * lb * lb)


def varsigma0_sq(p: int, B: float, alpha0: float) -> float:
    """Limiting variance of B^jL (alpha-hat - alpha0), full band."""
    return clt_variance(sigma1_sq(p, B, alpha0), B)


def phi_b(B: float) -> float:
    """Narrow-band normalization log^2 B (B^2/(B^2-1)^2)(4/(B^2-1) + 2(log B - 1)/log B)."""
    check_B(B)
    lb = math.log(B)
    return lb * lb * B**2 / (B**2 - 1.0) ** 2 * (4.0 / (B**2 - 1.0) + 2.0 * (lb - 1.0) / lb)


def narrowband_variance(p: int, B: float, alpha0: float) -> float:
    """Continuum narrow-band limit sigma1_sq / phi_b.  Valid in the double
    limit (shrinking band fraction, growing level count); desk-scale integer
    bands of 2-5 levels sit far from it -- see the acceptance notes."""
    return sigma1_sq(p, B, alpha0) / phi_b(B)


def bias_coeff(p: int, B: float, alpha0: float, kappa: float) -> float:
    """Limit of B^jL E(alpha-hat - alpha0) under G(l) = G0 (1 + kappa/l).

    Equals kappa rho (B^2-1)^2 / ((B-1) B^2 log B) with
    rho = i_ps(p, alpha0+1) / i_ps(p, alpha0); positive for kappa > 0 (the
    1/l excess steepens the local slope, pushing the estimate up).  Validated
    against exact finite-level expectations and Monte Carlo.
    """
    check_B(B)
    if kappa == 0.0:
        return 0.0
    rho = i_ps(p, alpha0 + 1.0) / i_ps(p, alpha0)
    return kappa * rho * (B**2 - 1.0) ** 2 / ((B - 1.0) * B**2 * math.log(B))


def bias_coeff_reference(p: int, B: float, alpha0: float, kappa: float) -> float:
    """Reference form -kappa rho log B / (B + 1); kept for comparison only.
    Disagrees with measured bias in sign and magnitude -- use :func:`bias_coeff`."""
    rho = i_ps(p, alpha0 + 1.0) / i_ps(p, alpha0)
    return -kappa * rho * math.log(B) / (B + 1.0)


@dataclass(frozen=True)
class KjRatioLimit:
    exact: float
    power_form: float


def kj_ratio_limit(p: int, alpha: float, alpha0: float) -> KjRatioLimit:
    """Limit constant of K_j(alpha)/K_j(alpha0) B^((alpha-alpha0) j).

    ``exact`` is the gamma-function ratio 2^((a0-a)/2) G(2p+1-a/2)/G(2p+1-a0/2);
    ``power_form`` is the compact stand-in (2(2p+1))^((a0-a)/2), which agrees
    with it only asymptotically in p.  The exact form is what the estimator
    internals follow.
    """
    d = (alpha0 - alpha) / 2.0
    exact = 2.0**d * _gamma(2 * p + 1 - alpha / 2.0) / _gamma(2 * p + 1 - alpha0 / 2.0)
    return KjRatioLimit(exact=exact, power_form=(2.0 * (2 * p + 1)) ** d)


# ---------------------------------------------------------------------------
# reference variance table
# ---------------------------------------------------------------------------

_TABLE_ALPHA0 = (2.0, 3.0, 4.0)
_TABLE_B = (2.0**0.25, 2.0**0.5, 2.0)
_TABLE_P = (2, 3, 4)
_TABLE_RHO0 = (
    (5.00, 2.24, 1.16),
    (5.04, 2.53, 1.34),
    (5.10, 2.64, 1.57),
)
_TABLE_SIGMA = (
    (0.62, 0.49, 0.42),
    (0.67, 0.51, 0.43),
    (0.75, 0.55, 0.45),
)


@dataclass(frozen=True)
class Table1:
    alpha0: tuple[float, ...]
    B: tuple[float, ...]
    p: tuple[int, ...]
    rho0_sq: tuple[tuple[float, ...], ...]  # [alpha0][B], standard-needlet variance
    sigma_sq: tuple[tuple[float, ...], ...]  # [alpha0][p], mexican counterpart


def table1_constants() -> Table1:
    """The built-in 3x3 variance comparison grid, stored verbatim."""
    return Table1(
        alpha0=_TABLE_ALPHA0, B=_TABLE_B, p=_TABLE_P, rho0_sq=_TABLE_RHO0, sigma_sq=_TABLE_SIGMA
    )


def table1_rho0_sq(alpha0: float, B: float) -> float:
    """Standard-needlet variance constant rho0^2 at (alpha0, B): bilinear in
    (alpha0, log B) between the grid's nodes, which it returns verbatim, and
    clamped to the grid hull's edge beyond it."""
    xs = [math.log(b) for b in _TABLE_B]
    alpha0 = min(max(alpha0, _TABLE_ALPHA0[0]), _TABLE_ALPHA0[-1])
    x = min(max(math.log(B), xs[0]), xs[-1])
    i = max(k for k, a in enumerate(_TABLE_ALPHA0[:-1]) if alpha0 >= a)
    k = max(m for m, v in enumerate(xs[:-1]) if x >= v)
    ta = (alpha0 - _TABLE_ALPHA0[i]) / (_TABLE_ALPHA0[i + 1] - _TABLE_ALPHA0[i])
    tb = (x - xs[k]) / (xs[k + 1] - xs[k])
    r = _TABLE_RHO0
    return (
        (1 - ta) * (1 - tb) * r[i][k]
        + (1 - ta) * tb * r[i][k + 1]
        + ta * (1 - tb) * r[i + 1][k]
        + ta * tb * r[i + 1][k + 1]
    )


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticConstants:
    p: int
    B: float
    alpha0: float
    sigma0_sq: float
    tau_tilde_0: float
    tau_tilde_1: float
    tau_tilde_2: float
    tau_tilde: float
    sigma1_sq: float
    varsigma0_sq: float
    phi_B: float
    bias_coeff: float


def constants(p: int, B: float, alpha0: float, kappa: float = 0.0) -> AsymptoticConstants:
    """All estimator constants for one (p, B, alpha0) in a single bundle.

    The ``tau_tilde*`` fields are the exact level-sum constants; the centered
    score-variance assembly collapses the determinant combination to the S0
    constant, so ``tau_tilde == tau_tilde_0`` and
    sigma1_sq = sigma0_sq (1 + tau_tilde) feeds varsigma0_sq directly.
    A bad alpha0 (``check_alpha0``), kappa (``check_kappa``) or B, or a
    constant past the double range, raises ``DomainError``.
    """
    check_alpha0(alpha0)
    check_kappa(kappa)
    try:
        lsc = level_sum_constants(p, B, alpha0)
        s0 = sigma0_sq(p, alpha0)
        s1 = s0 * (1.0 + lsc.tau0)
        return AsymptoticConstants(
            p=p,
            B=B,
            alpha0=alpha0,
            sigma0_sq=s0,
            tau_tilde_0=lsc.tau0,
            tau_tilde_1=lsc.tau1,
            tau_tilde_2=lsc.tau2,
            tau_tilde=lsc.tau0,
            sigma1_sq=s1,
            varsigma0_sq=clt_variance(s1, B),
            phi_B=phi_b(B),
            bias_coeff=bias_coeff(p, B, alpha0, kappa),
        )
    except OverflowError as exc:
        raise DomainError(f"p={p}, B={B}, alpha0={alpha0} overflow a double ({exc})") from exc
