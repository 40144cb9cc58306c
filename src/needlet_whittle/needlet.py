"""Needlet window functions and level statistics.

Two window families share one interface:

* ``MexicanWindow(p=2, B=2.0)`` -- squared profile f_p^2(x) = x^(4p)
  exp(-2 x^2), supported on all frequencies; sums over l are truncated where
  terms fall below double-precision relevance (see ``cutoff_x``).
* ``StandardWindow(B=2.0)`` -- compactly supported b^2 on [1/B, B] built from
  the classical C-infinity bump profile, satisfying the partition of unity
  sum_j b^2(x / B^j) = 1 for x >= 1.

Both need a finite B > 1 (``asymptotics.check_B``).  The field defaults are
those of the config keys ``window.*`` and of the CLI window options.

On top of the windows: ``check_levels``, the one check that a level range is
usable at l_max, by each window's ``resolved`` rule for both ends of the band;
``LevelBasis``, the weights of a level range as one matrix, from which the
normalized spectral moments ``k_j``, their alpha-derivatives and the level
energy statistic ``lambda_hat`` are products; and ``select_j_range``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .asymptotics import check_B
from .errors import DomainError, ResourceLimitError, TruncationError
from .harmonic import EmpiricalSpectrum

__all__ = [
    "MexicanWindow",
    "StandardWindow",
    "NeedletWindow",
    "JRange",
    "LevelBasis",
    "check_levels",
    "NeedletStatistics",
    "window_sq",
    "k_j",
    "k_j_deriv",
    "lambda_hat",
    "select_j_range",
    "narrow_band_j1",
    "compute_statistics",
]

MEXICAN_TAIL_RATIO = 1e-16  # terms below this fraction of the peak are dropped
TAIL_TOL = 1e-12  # largest dropped tail ``k_j`` accepts, relative to its sum
BASIS_CAP = 2**25  # weights in one level range's matrix: 256 MiB of float64


@lru_cache(maxsize=None)
def _cutoff_x(p: int) -> float:
    # solve x^(4p) exp(-2x^2) = MEXICAN_TAIL_RATIO * p^(2p) exp(-2p), x > sqrt(p)
    target = math.log(MEXICAN_TAIL_RATIO) + 2 * p * math.log(p) - 2 * p
    lo, hi = math.sqrt(p), 10.0 * math.sqrt(p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 4 * p * math.log(mid) - 2 * mid * mid > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MexicanWindow:
    p: int = 2
    B: float = 2.0

    def __post_init__(self):
        if self.p < 1:
            raise DomainError(f"p must be >= 1, got {self.p}")
        check_B(self.B)

    def window(self, x):
        x = np.asarray(x, dtype=float)
        return x ** (2 * self.p) * np.exp(-(x**2))

    def window_sq(self, x):
        x = np.asarray(x, dtype=float)
        return x ** (4 * self.p) * np.exp(-2.0 * x**2)

    @property
    def cutoff_x(self) -> float:
        return _cutoff_x(self.p)

    @property
    def peak_x(self) -> float:
        # stationary point of f_p (and of f_p^2)
        return math.sqrt(self.p)

    def effective_lmax(self, j: int, l_max: int) -> int:
        return min(l_max, int(math.ceil(self.B**j * self.cutoff_x)))

    def resolved(self, j: int, l_max: int) -> bool:
        """Level j fits the band 1..l_max: cutoff above l = 1, peak at or below l_max."""
        scale = self.B**j
        return scale * self.cutoff_x > 1 and scale * self.peak_x <= l_max


# C-infinity bump profile machinery for the compact window -------------------
#
# psi(u) = int_{-1}^{u} bump / int_{-1}^{1} bump.  The bump exp(-1/(1-t^2)) is
# flat to all orders at t = -1, where Gauss-Legendre converges slowly, so the
# integral is taken in s = atanh(t): bump(t) dt = exp(-cosh^2 s) / cosh^2 s ds,
# which decays double-exponentially and is negligible below s = -_S_CUT
# (exp(-cosh^2 3) ~ 1e-44).  Only the u <= 0 half is integrated; the bump's
# symmetry gives psi(u) = 1 - psi(-u), so psi(0) = 1/2 exactly.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_S_CUT = 3.0
_CDF_CHUNK = 256  # points per block, so the (points x nodes) temporaries stay in cache


def _bump_tail(s_hi):
    """int_{-_S_CUT}^{s_hi} exp(-cosh^2 s) / cosh^2 s ds for s_hi <= 0."""
    s_hi = np.maximum(np.asarray(s_hi, dtype=float), -_S_CUT)
    half = ((s_hi + _S_CUT) / 2.0).ravel()  # map [-_S_CUT, s_hi] onto GL nodes
    out = np.empty_like(half)
    for i in range(0, len(half), _CDF_CHUNK):
        c2 = np.cosh(np.multiply.outer(half[i : i + _CDF_CHUNK], _GL_NODES + 1.0) - _S_CUT) ** 2
        out[i : i + _CDF_CHUNK] = (np.exp(-c2) / c2) @ _GL_WEIGHTS
    return (out * half).reshape(s_hi.shape)


_BUMP_NORM = 2.0 * float(_bump_tail(0.0))


def _bump_cdf(u):
    """psi(u) = int_{-1}^{u} bump / int_{-1}^{1} bump, in [0, 1]."""
    u = np.clip(np.asarray(u, dtype=float), -1.0, 1.0)
    with np.errstate(divide="ignore"):  # atanh(-1) = -inf lies below the cut
        lower = _bump_tail(np.arctanh(-np.abs(u))) / _BUMP_NORM
    return np.where(u > 0.0, 1.0 - lower, lower)


@dataclass(frozen=True)
class StandardWindow:
    B: float = 2.0

    def __post_init__(self):
        check_B(self.B)

    def _phi(self, x):
        """1 on [0, 1/B], smooth descent to 0 on [1/B, 1]."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[x <= 1.0 / self.B] = 1.0
        mid = (x > 1.0 / self.B) & (x < 1.0)
        t = 1.0 - 2.0 * self.B / (self.B - 1.0) * (x[mid] - 1.0 / self.B)
        out[mid] = _bump_cdf(t)
        return out

    def window_sq(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip(self._phi(x / self.B) - self._phi(x), 0.0, None)

    def window(self, x):
        return np.sqrt(self.window_sq(x))

    def effective_lmax(self, j: int, l_max: int) -> int:
        return min(l_max, int(math.ceil(self.B ** (j + 1))) - 1)

    def resolved(self, j: int, l_max: int) -> bool:
        """Level j's support, up to B^(j+1), reaches past l = 1 and ends by l_max."""
        return 1.0 < self.B ** (j + 1) <= l_max * (1.0 + 1e-12)

    def empty(self, j: int, l_max: int) -> bool:
        """Whether level j has no multipole of nonzero weight at l_max: at
        B < 2 a low level's support (B^(j-1), B^(j+1)) can hold no integer l.

        A multipole with l / B^j in [(B + 1) / (2B), (B + 1) / 2], where
        window_sq >= 1/2, shows the level non-empty at once.  Otherwise that
        band holds no integer, so the support, twice as wide, holds at most
        two, and the row is computed near them as ``LevelBasis`` computes it:
        phi(l/B^k) takes the same values there as on the basis's full l,
        since its bump part covers only B^(k-1) < l < B^k.
        """
        B, scale = self.B, self.B**j
        cut = self.effective_lmax(j, l_max)
        if min(math.floor(scale * (B + 1.0) / 2.0), cut) >= scale * (B + 1.0) / (2.0 * B):
            return False
        l = np.arange(max(1, math.floor(scale / B) - 1), cut + 1, dtype=float)
        return not np.any(self._phi(l / B ** (j + 1)) - self._phi(l / B**j) > 0.0)


NeedletWindow = MexicanWindow | StandardWindow


def window_sq(window: NeedletWindow, x):
    """Squared window value(s) at frequency ratio x >= 0."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise DomainError("x must be >= 0")
    out = window.window_sq(x_arr)
    return out if isinstance(x, np.ndarray) else float(out)


@dataclass(frozen=True)
class JRange:
    j0: int
    jL: int
    c_b: float = 1.0

    def __post_init__(self):
        if self.j0 > self.jL:
            raise DomainError(f"empty level range: j0={self.j0} > jL={self.jL}")
        if not self.c_b > 0:
            raise DomainError("c_b must be positive")

    def levels(self) -> list[int]:
        return list(range(self.j0, self.jL + 1))

    def n_j(self, j: int, B: float) -> float:
        return self.c_b * B ** (2.0 * j)


def check_levels(window: NeedletWindow, j_range: JRange, l_max: int) -> None:
    """The one check that a level range is usable at band limit l_max: its
    weight matrix, at most (jL - j0 + 1) x l_max, fits ``BASIS_CAP`` before
    anything is allocated (``ResourceLimitError``), and every level is
    ``window.resolved`` at l_max and, for the compact window, not ``empty``
    (``TruncationError``)."""
    size = (j_range.jL - j_range.j0 + 1) * l_max
    if size > BASIS_CAP:
        raise ResourceLimitError(
            f"levels [{j_range.j0}, {j_range.jL}] x l_max={l_max}: {size} weights > cap {BASIS_CAP}"
        )
    for j in range(j_range.j0, j_range.jL + 1):
        try:
            resolved = window.resolved(j, l_max)
        except OverflowError:  # B^j past the float range lies above any band
            resolved = False
        if not resolved:
            raise TruncationError(f"level j={j} of {window} is outside the band 1..l_max={l_max}")
        if isinstance(window, StandardWindow) and window.empty(j, l_max):
            raise TruncationError(f"level j={j} of {window} has no multipole of nonzero weight")


_GRID_CHUNK = 8  # grid rows per matrix product in LevelBasis.k_linspace


@dataclass(frozen=True, eq=False)
class LevelBasis:
    """Frequency weights of a level range at band limit l_max, as one matrix.

    Row i of ``w`` holds window_sq(l/B^j)(2l+1)/N_j at level j = j0 + i for
    l = 1..L, zero past the level's truncation point
    ``window.effective_lmax(j, l_max)``; L is the largest such point.  Level
    statistics and model moments are products with it:

        lambda_j = N_j (w c-hat)_j,    K_j(alpha) = (w l^-alpha)_j,

    so data and model share one truncation.  Building runs ``check_levels``
    first: an unresolved level or an oversized range raises before any
    allocation.
    """

    window: NeedletWindow
    j_range: JRange
    l_max: int
    w: np.ndarray = field(init=False, repr=False)  # (J, L), read-only
    log_l: np.ndarray = field(init=False, repr=False)  # (L,)
    n: np.ndarray = field(init=False, repr=False)  # (J,) N_j

    def __post_init__(self):
        check_levels(self.window, self.j_range, self.l_max)
        window, levels = self.window, self.j_range.levels()
        cut = [window.effective_lmax(j, self.l_max) for j in levels]
        B = window.B
        l = np.arange(1, max(cut) + 1, dtype=float)
        n = np.array([self.j_range.n_j(j, B) for j in levels])
        compact = isinstance(window, StandardWindow)
        # window_sq(l/B^j) = phi(l/B^(j+1)) - phi(l/B^j): adjacent levels share one phi
        lo = window._phi(l / B ** levels[0]) if compact else None
        w = np.zeros((len(levels), len(l)))
        for i, (j, le) in enumerate(zip(levels, cut)):  # one row's temporaries at a time
            if compact:
                hi = window._phi(l / B ** (j + 1))
                sq = np.clip(hi - lo, 0.0, None)[:le]
                lo = hi
            else:
                sq = window.window_sq(l[:le] / B**j)
            w[i, :le] = sq * (2.0 * l[:le] + 1.0) / n[i]
        for name, arr in (("w", w), ("log_l", np.log(l)), ("n", n)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def lam(self, values: np.ndarray) -> np.ndarray:
        """lambda-hat per level from c-hat values indexed by l (index 0 unused)."""
        return self.n * (self.w @ values[1 : self.w.shape[1] + 1])

    def k(self, alpha: float) -> np.ndarray:
        """K_j(alpha) per level."""
        return self.w @ np.exp(-alpha * self.log_l)

    def k_derivs(self, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """K_j, K_j' and K_j'' per level; term-wise derivatives insert -log l
        and log^2 l into the one power l^-alpha."""
        x = np.exp(-alpha * self.log_l)
        xl = x * self.log_l
        return self.w @ x, -(self.w @ xl), self.w @ (xl * self.log_l)

    def k_linspace(self, start: float, stop: float, num: int) -> tuple[np.ndarray, np.ndarray]:
        """K_j at ``np.linspace(start, stop, num)``: (alphas, K), K of shape (num, J).

        Successive powers come from the running product l^-(a+da) = l^-a l^-da,
        ``_GRID_CHUNK`` rows per matrix product, so the relative error grows by
        about an ulp per row (~1e-13 over 64 rows): fine for bracketing a
        minimum, not for the minimum itself.
        """
        alphas = np.linspace(start, stop, num)
        step = np.exp(-(stop - start) / max(num - 1, 1) * self.log_l)
        rows = np.empty((min(_GRID_CHUNK, num), len(step)))
        out = np.empty((num, len(self.n)))
        head = np.exp(-start * self.log_l)
        for i in range(0, num, len(rows)):
            m = min(len(rows), num - i)
            rows[0] = head
            for r in range(1, m):
                np.multiply(rows[r - 1], step, out=rows[r])
            out[i : i + m] = rows[:m] @ self.w.T
            head = rows[m - 1] * step
        return alphas, out


def _mexican_tail_check(window, j, alpha, l_max, partial, log_order):
    """Geometric bound on the dropped tail when l_max cuts inside the window."""
    if window.effective_lmax(j, l_max) < l_max:
        return  # truncated by the window's own cutoff, below relevance
    def term(l):
        t = window.window_sq(l / window.B**j) * (2 * l + 1) * l ** (-alpha)
        return t * abs(math.log(l)) ** log_order
    t1, t2 = term(l_max + 1.0), term(l_max + 2.0)
    if t1 == 0.0:
        return
    ratio = t2 / t1
    if ratio >= 1.0:
        raise TruncationError(
            f"level j={j}: terms still growing at l_max={l_max}; window peak unresolved"
        )
    bound = t1 / (1.0 - ratio)
    if bound > TAIL_TOL * abs(partial):
        raise TruncationError(
            f"level j={j}: dropped tail bound {bound:.3e} exceeds "
            f"{TAIL_TOL:.1e} of the partial sum at l_max={l_max}"
        )


def k_j(
    window: NeedletWindow,
    j: int,
    alpha: float,
    l_max: int,
    c_b: float = 1.0,
    *,
    check_tail: bool = True,
) -> float:
    """Normalized spectral moment (1/N_j) sum_l window_sq(l/B^j)(2l+1) l^-alpha.

    With ``check_tail`` the dropped tail beyond l_max must stay below
    ``TAIL_TOL`` of the sum (geometric bound past the window peak); the
    estimator disables the check and relies on truncation consistency with
    ``lambda_hat`` instead.
    """
    basis = LevelBasis(window, JRange(j0=j, jL=j, c_b=c_b), l_max)
    out = float(basis.k(alpha)[0])
    if check_tail and isinstance(window, MexicanWindow):
        _mexican_tail_check(window, j, alpha, l_max, out * basis.n[0], 0)
    return out


def k_j_deriv(
    window: NeedletWindow,
    j: int,
    alpha: float,
    l_max: int,
    order: int,
    c_b: float = 1.0,
    *,
    check_tail: bool = True,
) -> float:
    """Term-wise alpha-derivative of ``k_j``: order 1 inserts -log l, order 2 log^2 l."""
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    basis = LevelBasis(window, JRange(j0=j, jL=j, c_b=c_b), l_max)
    out = float(basis.k_derivs(alpha)[order][0])
    if check_tail and isinstance(window, MexicanWindow):
        _mexican_tail_check(window, j, alpha, l_max, out * basis.n[0], order)
    return out


def lambda_hat(spec: EmpiricalSpectrum, window: NeedletWindow, j: int) -> float:
    """Level energy statistic sum_l window_sq(l/B^j)(2l+1) c-hat_l."""
    return float(LevelBasis(window, JRange(j0=j, jL=j), spec.l_max).lam(spec.values)[0])


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def narrow_band_j1(j_l: int, g: float, B: float) -> int:
    """Bottom level J1 of the narrow band [J1, JL]: B^J1 = B^JL (1 - g),
    rounded half up to an integer level."""
    return _round_half_up(j_l + math.log1p(-g) / math.log(B))


def select_j_range(
    l_max: int,
    window: NeedletWindow,
    thresholds: tuple[float, float] | None = None,
) -> JRange:
    """Level range [J0, JL] for data banded at l_max.

    Default policy: JL is the largest ``window.resolved`` level at or below
    round(log_B(l_max / B)) (round half up), else 1.  Above j = 1 a level
    fails ``resolved`` only by lying above the band, so a bisection finds JL.
    J0 = 1 for the mexican window; for the compact one, J0 is the first level
    from which no level below JL is ``empty``.  Custom
    ``thresholds = (eps1, eps2)`` instead apply the two ratio conditions
    verbatim:

        J0 = max{j : f_p(B^-(j+1)) > eps1 f_p(B^-j)},
        JL = min{j : f_p(l_max/B^j) < eps2 f_p(l_max/B^(j-1))}.
    """
    B = window.B
    if l_max < B * B:
        raise DomainError(f"l_max={l_max} must be >= B^2={B * B}")
    if thresholds is None:
        jL, hi = 1, _round_half_up(math.log(l_max / B) / math.log(B))
        while jL < hi:  # JL lies in [jL, hi]
            mid = (jL + hi + 1) // 2
            jL, hi = (mid, hi) if window.resolved(mid, l_max) else (jL, mid - 1)
        j0 = 1
        if isinstance(window, StandardWindow):
            j0 = jL
            while j0 > 1 and not window.empty(j0 - 1, l_max):
                j0 -= 1
        return JRange(j0=j0, jL=jL)
    if not isinstance(window, MexicanWindow):
        raise DomainError("threshold-based selection requires a mexican window")
    eps1, eps2 = thresholds
    f = window.window
    j0 = None
    for j in range(64, -65, -1):
        if f(1.0 / B ** (j + 1)) > eps1 * f(1.0 / B**j):
            j0 = j
            break
    jL = None
    for j in range(-64, 65):
        if f(l_max / B**j) < eps2 * f(l_max / B ** (j - 1)):
            jL = j
            break
    if j0 is None or jL is None or j0 > jL:
        raise DomainError(f"thresholds produced an empty level range: ({j0}, {jL})")
    return JRange(j0=j0, jL=jL)


@dataclass
class NeedletStatistics:
    basis: LevelBasis
    lam: np.ndarray  # lambda-hat per level, index aligned with j_range.levels()

    @property
    def j_range(self) -> JRange:
        return self.basis.j_range

    @property
    def window(self) -> NeedletWindow:
        return self.basis.window

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("j,B_pow_j,N_j,lambda_hat\n")
            for j, lam in zip(self.j_range.levels(), self.lam):
                fh.write(
                    f"{j},{self.window.B ** j:.17g},"
                    f"{self.j_range.n_j(j, self.window.B):.17g},{lam:.17g}\n"
                )


def compute_statistics(
    spec: EmpiricalSpectrum,
    window: NeedletWindow,
    j_range: JRange,
) -> NeedletStatistics:
    """lambda-hat over a level range, with the level basis the fit reuses."""
    basis = LevelBasis(window, j_range, spec.l_max)
    return NeedletStatistics(basis=basis, lam=basis.lam(spec.values))
