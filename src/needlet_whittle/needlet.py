"""Needlet window functions and level statistics.

Two window families share one interface:

* ``MexicanWindow(p=2, B=2.0)`` -- squared profile f_p^2(x) = x^(4p)
  exp(-2 x^2), supported on all frequencies; sums over l are truncated where
  terms fall below double-precision relevance (see ``cutoff_x``).
* ``StandardWindow(B=2.0)`` -- compactly supported b^2 on [1/B, B] built from
  the classical C-infinity bump profile, satisfying the partition of unity
  sum_j b^2(x / B^j) = 1 for x >= 1.  The profile's 64-node Gauss-Legendre
  rule and its norm are formed once, at the first compact-window weight
  (``_bump_rule``), so a process that uses only the mexican window never
  builds them.

Both need a finite B > 1 (``asymptotics.check_B``).  The field defaults are
those of the config keys ``window.*`` and of the CLI window options.  Each
window states one ``support(j) -> (first, last)``, the multipoles that can
carry level j's weight whatever the band limit: (1, ceil(B^j cutoff_x)) for
the mexican window, (floor(B^(j-1)) + 1, ceil(B^(j+1)) - 1) for the compact
one.  A level's truncation point ``effective_lmax(j, l_max)`` is
min(l_max, last), and ``resolved(j, l_max)``, whether it fits the band
1..l_max, reads the same bounds: last > 1 with the peak at or below l_max
(mexican), 1 <= last <= l_max (compact).

Level j's weights window_sq(l/B^j)(2l+1)/N_j over its support depend on
(window, j, c_b) only; l_max merely truncates them.  ``_matrix`` lays the
rows of a level range, each computed over [first, its truncation point], into
a fresh zero matrix.  Up to the cap C = ``harmonic.DEFAULT_LMAX_CAP``, one
such matrix M per (window, c_b) holds every level 1..top ``resolved`` at C on
l = 1..C, row j - 1 for level j, built once, kept read-only and never
replaced.  With one table of log l on l = 1..C, a basis at l_max <= C is the
view M[j0 - 1 : jL, :L] and a slice of that table.  A request past C, a
window whose M is too large to keep (B near 1), or a range from j0 <= 0 gets
a matrix of its own; ``lambda_hat`` builds its one level's row alone.

K_j on the fit's alpha grid is a running sum over whole blocks of 64
multipoles (``_block_sums``) plus the few leftover ones.  M's running sums
at every block, for every level, are one table per (window, c_b, grid), so
any band limit and level range reads one slice of it; a basis with a matrix
of its own keeps only the running sum, not a table.  The grid
(``alpha_grid``) is kept per search range, a level range's N_j per (j_range, B).

These are the fit's arrays kept between calls, in one store ``_KEPT``,
read-only, under keys whose first item names their kind; ``sphere`` keeps
its Legendre coefficients in a ``Kept`` of its own.  The rule, under one
bound ``KEPT_BYTES`` = 4 MiB per store: the oldest entry goes first once the
bytes pass it, a put under a kept key replaces the entry, and an entry past
half of it is not kept (an M or table that large is not built).  After
warm-up, fit-sweep's 1500 fits at seed 1 keep 3.16 MB, 20 level-6 fields with
their checks nothing (and 0.86 MB of Legendre blocks), 20 canonical
replications 1.58 MB: none evicts.

On top of the windows: ``check_levels``, the one check that a level range is
usable at l_max, by each window's ``resolved`` rule for both ends of the band
1..l_max.  Either window's resolved levels form one interval, so the check reads
``resolved`` at the range ends j0 and jL and walks the levels only to name the
first that fails; the compact window's ``empty`` is read at every level.
``LevelBasis``, the weights of a level range as one matrix, from which the
normalized spectral moments K_j, their alpha-derivatives and the level energy
statistic ``lambda_hat`` are products; and ``select_j_range``.  The single-level
``k_j`` and ``k_j_deriv`` read a one-level basis and give the full sum over
``support(j)``, raising where l_max cuts it; the estimator reads its basis's
``k``/``k_derivs``, truncated where ``lambda_hat`` is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .asymptotics import check_B
from .errors import DomainError, ResourceLimitError, TruncationError
from .harmonic import DEFAULT_LMAX_CAP, EmpiricalSpectrum, write_csv

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
MEXICAN_P_MAX = 50  # x^(4p) stays finite up to x = 2 cutoff_x, past any level's support
BASIS_CAP = 2**25  # weights in one level range's matrix: 256 MiB of float64
KEPT_BYTES = 2**22  # arrays kept between calls, in ``_KEPT``


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


class _Window:
    def effective_lmax(self, j: int, l_max: int) -> int:
        return min(l_max, self.support(j)[1])


@dataclass(frozen=True)
class MexicanWindow(_Window):
    p: int = 2
    B: float = 2.0

    def __post_init__(self):
        if not 1 <= self.p <= MEXICAN_P_MAX:
            raise DomainError(f"p must be in [1, {MEXICAN_P_MAX}], got {self.p}")
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

    def support(self, j: int) -> tuple[int, int]:
        """First and last multipole of level j's weights, at any l_max."""
        return 1, int(math.ceil(self.B**j * self.cutoff_x))

    def _level_sq(self, l, j: int):
        """window_sq(l/B^j) at the multipoles l of level j's row."""
        return self.window_sq(l / self.B**j)

    def resolved(self, j: int, l_max: int) -> bool:
        """Level j fits 1..l_max: ``support(j)`` ends past l = 1, its peak at or below l_max."""
        return self.support(j)[1] > 1 and self.B**j * self.peak_x <= l_max


# C-infinity bump profile machinery for the compact window -------------------
#
# psi(u) = int_{-1}^{u} bump / int_{-1}^{1} bump.  The bump exp(-1/(1-t^2)) is
# flat to all orders at t = -1, where Gauss-Legendre converges slowly, so the
# integral is taken in s = atanh(t): bump(t) dt = exp(-cosh^2 s) / cosh^2 s ds,
# which decays double-exponentially and is negligible below s = -_S_CUT
# (exp(-cosh^2 3) ~ 1e-44).  Only the u <= 0 half is integrated; the bump's
# symmetry gives psi(u) = 1 - psi(-u), so psi(0) = 1/2 exactly.  The rule
# and psi's denominator come from ``_bump_rule``, formed on first use.

_S_CUT = 3.0
_CDF_CHUNK = 256  # points per block, so the (points x nodes) temporaries stay in cache


def _bump_tail(s_hi, nodes, weights):
    """int_{-_S_CUT}^{s_hi} exp(-cosh^2 s) / cosh^2 s ds for s_hi <= 0, by the
    Gauss-Legendre rule (nodes, weights)."""
    s_hi = np.maximum(np.asarray(s_hi, dtype=float), -_S_CUT)
    half = ((s_hi + _S_CUT) / 2.0).ravel()  # map [-_S_CUT, s_hi] onto GL nodes
    out = np.empty_like(half)
    for i in range(0, len(half), _CDF_CHUNK):
        c2 = np.cosh(np.multiply.outer(half[i : i + _CDF_CHUNK], nodes + 1.0) - _S_CUT) ** 2
        out[i : i + _CDF_CHUNK] = (np.exp(-c2) / c2) @ weights
    return (out * half).reshape(s_hi.shape)


@lru_cache(maxsize=None)
def _bump_rule() -> tuple[np.ndarray, np.ndarray, float]:
    """The 64-node Gauss-Legendre nodes and weights and the bump's whole
    integral 2 _bump_tail(0), formed at the first compact-window weight."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights, 2.0 * float(_bump_tail(0.0, nodes, weights))


def _bump_cdf(u):
    """psi(u) = int_{-1}^{u} bump / int_{-1}^{1} bump, in [0, 1]."""
    nodes, weights, norm = _bump_rule()
    u = np.clip(np.asarray(u, dtype=float), -1.0, 1.0)
    with np.errstate(divide="ignore"):  # atanh(-1) = -inf lies below the cut
        lower = _bump_tail(np.arctanh(-np.abs(u)), nodes, weights) / norm
    return np.where(u > 0.0, 1.0 - lower, lower)


@dataclass(frozen=True)
class StandardWindow(_Window):
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

    def support(self, j: int) -> tuple[int, int]:
        """First and last multipole inside level j's open support
        (B^(j-1), B^(j+1)), at any l_max; the weights outside it are 0."""
        return math.floor(self.B ** (j - 1)) + 1, int(math.ceil(self.B ** (j + 1))) - 1

    def _level_sq(self, l, j: int):
        # window_sq(l/B^j) as phi(l/B^(j+1)) - phi(l/B^j), not via x/B
        return np.clip(self._phi(l / self.B ** (j + 1)) - self._phi(l / self.B**j), 0.0, None)

    def resolved(self, j: int, l_max: int) -> bool:
        """Level j's ``support(j)`` holds a multipole l >= 1 and ends by l_max."""
        return 1 <= self.support(j)[1] <= l_max

    def empty(self, j: int, l_max: int) -> bool:
        """Whether level j has no multipole of nonzero weight at l_max: at
        B < 2 a low level's support (B^(j-1), B^(j+1)) can hold no integer l.

        A multipole with l / B^j in [(B + 1) / (2B), (B + 1) / 2], where
        window_sq >= 1/2, shows the level non-empty at once.  Otherwise that
        band holds no integer, so the support, twice as wide, holds at most
        two, and their weights, as ``_matrix`` computes them, decide.
        """
        B, scale = self.B, self.B**j
        cut = self.effective_lmax(j, l_max)
        if min(math.floor(scale * (B + 1.0) / 2.0), cut) >= scale * (B + 1.0) / (2.0 * B):
            return False
        l = np.arange(self.support(j)[0], cut + 1, dtype=float)
        return not np.any(self._level_sq(l, j) > 0.0)


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
    (``TruncationError``, naming the first level that fails).  A window's
    resolved levels form one interval, so ``resolved`` is read at j0 and jL
    only; the compact window's ``empty`` is read at every level."""
    j0, jL = j_range.j0, j_range.jL
    size = (jL - j0 + 1) * l_max
    if size > BASIS_CAP:
        raise ResourceLimitError(f"levels [{j0}, {jL}] x l_max={l_max}: {size} weights > cap {BASIS_CAP}")
    # a window's resolved levels form one interval, so the range ends decide
    # it; the walk reads resolved level by level only to name a failing one
    ends = _resolved(window, j0, l_max) and _resolved(window, jL, l_max)
    compact = isinstance(window, StandardWindow)
    if ends and not compact:
        return
    for j in range(j0, jL + 1):
        if not (ends or _resolved(window, j, l_max)):
            raise TruncationError(f"level j={j} of {window} is outside the band 1..l_max={l_max}")
        if compact and window.empty(j, l_max):
            raise TruncationError(f"level j={j} of {window} has no multipole of nonzero weight")


def _resolved(window: NeedletWindow, j: int, l_max: int) -> bool:
    try:
        return window.resolved(j, l_max)
    except OverflowError:  # B^j past the float range lies above any band
        return False


class Kept:
    """Arrays kept between calls, by key.  An entry's bytes are those of its
    numpy arrays, which ``put`` makes read-only.  The oldest entries go first
    once the bytes pass ``limit``; a put under a kept key replaces the former
    entry; an entry past half of ``limit`` is not kept (``keeps``)."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._entries: dict = {}
        self.get = self._entries.get  # None for a key not kept

    def keeps(self, nbytes: int) -> bool:
        return 2 * nbytes <= self.limit

    def put(self, key, value) -> None:
        size = _nbytes(value)
        if not self.keeps(size):
            return
        for a in _arrays(value):
            a.flags.writeable = False
        if key in self._entries:
            self.nbytes -= _nbytes(self._entries.pop(key))
        self._entries[key] = value
        self.nbytes += size
        while self.nbytes > self.limit:
            self.nbytes -= _nbytes(self._entries.pop(next(iter(self._entries))))


def _arrays(value) -> list[np.ndarray]:
    """The numpy arrays of an entry: the value itself, or those in its tuple."""
    return [a for a in (value if isinstance(value, tuple) else (value,)) if isinstance(a, np.ndarray)]


def _nbytes(value) -> int:
    return sum(a.nbytes for a in _arrays(value))


_KEPT = Kept(KEPT_BYTES)  # keys begin "weights", "table", "counts" or "grid"


def _level_counts(j_range: JRange, B: float) -> tuple[float, np.ndarray]:
    """(sum_j N_j, N_j per level of ``j_range``), kept by (j_range, B)."""
    key = ("counts", j_range, B)
    kept = _KEPT.get(key)
    if kept is None:
        n = np.array([j_range.n_j(j, B) for j in j_range.levels()])
        kept = (float(n.sum()), n)
        _KEPT.put(key, kept)
    return kept


def _matrix(window: NeedletWindow, j_range: JRange, width: int) -> np.ndarray:
    """window_sq(l/B^j)(2l+1)/N_j over l = first..``effective_lmax(j, width)``,
    ``first`` from ``window.support(j)``, as row j - j0 of a fresh zero matrix
    over l = 1..width."""
    w = np.zeros((j_range.jL - j_range.j0 + 1, width))
    for i, j in enumerate(j_range.levels()):
        first, le = window.support(j)[0], window.effective_lmax(j, width)
        l = np.arange(first, le + 1, dtype=float)
        w[i, first - 1 : le] = window._level_sq(l, j) * (2.0 * l + 1.0) / j_range.n_j(j, window.B)
    return w


_GRID_BLOCK = 64  # multipoles per block of a grid table


def alpha_grid(start: float, stop: float, num: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """``np.linspace(start, stop, num)`` and its values as floats: one kept
    grid per search range, which the fit's trace and ``k_linspace`` read."""
    key = ("grid", start, stop, num)
    grid = _KEPT.get(key)
    if grid is None:
        alphas = np.linspace(start, stop, num)
        grid = (alphas, tuple(alphas.tolist()))
        _KEPT.put(key, grid)
    return grid


def _block_sums(w: np.ndarray, log_l: np.ndarray, alphas: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Running sums over the whole blocks of ``_GRID_BLOCK`` multipoles of a
    weight matrix w: S[b] = sum_l w[:, l - 1] exp(-alphas log l) over l = 1..64b,
    shape (num, J), lands in out[b % len(out)].  So an ``out`` of blocks + 1
    entries keeps every S[b] from S[0] = 0, and one of a single entry keeps
    only the running sum; returns the last S."""
    n, blocks = len(out), w.shape[1] // _GRID_BLOCK
    out[0] = 0.0
    x, s, minus = np.empty((len(alphas), _GRID_BLOCK)), np.empty(out.shape[1:]), -alphas
    for b in range(blocks):
        l = slice(b * _GRID_BLOCK, (b + 1) * _GRID_BLOCK)
        np.exp(np.multiply.outer(minus, log_l[l], out=x), out=x)
        np.add(out[b % n], np.matmul(x, w[:, l].T, out=s), out=out[(b + 1) % n])
    return out[blocks % n]


def _grid_table(window: NeedletWindow, c_b: float, m: np.ndarray, alphas: np.ndarray) -> np.ndarray | None:
    """``_block_sums`` of the window's M (``_weights``) at every whole block,
    shape (blocks + 1, num, levels), kept by (window, c_b, grid); None for a
    grid whose table is too large to keep."""
    key = ("table", window, c_b, alphas[0], alphas[-1], len(alphas))  # the grid is a linspace
    table = _KEPT.get(key)
    shape = (m.shape[1] // _GRID_BLOCK + 1, len(alphas), len(m))
    if table is None and _KEPT.keeps(math.prod(shape) * 8):
        table = np.empty(shape)
        _block_sums(m, _LOG_L, alphas, table)
        _KEPT.put(key, table)
    return table


_LOG_L = np.log(np.arange(1, DEFAULT_LMAX_CAP + 1, dtype=float))  # log l, l = 1..cap
_LOG_L.flags.writeable = False


def _weights(window: NeedletWindow, c_b: float) -> np.ndarray | None:
    """M for (window, c_b): ``_matrix`` over every level 1..top ``resolved``
    at ``DEFAULT_LMAX_CAP`` and the multipoles 1..cap, row j - 1 for level j,
    built once and kept by (window, c_b).  None when those levels make an M
    too large to keep (B near 1)."""
    key = ("weights", window, c_b)
    m = _KEPT.get(key)
    if m is not None:
        return m
    cap = DEFAULT_LMAX_CAP
    top = 0
    while _KEPT.keeps((top + 1) * cap * 8) and window.resolved(top + 1, cap):
        top += 1
    if top == 0 or window.resolved(top + 1, cap):
        return None
    m = _matrix(window, JRange(j0=1, jL=top, c_b=c_b), cap)
    _KEPT.put(key, m)
    return m


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
    allocation; N_j and their sum come from ``_level_counts``.  Up to l_max =
    ``DEFAULT_LMAX_CAP``, ``w`` is then the view M[j0 - 1 : jL, :L] of the
    window's one weight matrix ``m`` (``_weights``) and ``log_l`` a slice of
    one log table, so a build allocates no weights.  Past that cap, or where M
    is not kept or j0 < 1, ``m`` is None and ``w`` a matrix of its own from
    the same ``_matrix``.
    """

    window: NeedletWindow
    j_range: JRange
    l_max: int
    w: np.ndarray = field(init=False, repr=False)  # (J, L), read-only
    log_l: np.ndarray = field(init=False, repr=False)  # (L,)
    n: np.ndarray = field(init=False, repr=False)  # (J,) N_j
    n_sum: float = field(init=False, repr=False)  # sum_j N_j, read by every contrast
    m: np.ndarray | None = field(init=False, repr=False)  # the kept M that w views, or None

    def __post_init__(self):
        check_levels(self.window, self.j_range, self.l_max)
        window, rng = self.window, self.j_range
        n_sum, n = _level_counts(rng, window.B)
        m = _weights(window, rng.c_b) if rng.j0 >= 1 and self.l_max <= DEFAULT_LMAX_CAP else None
        # supports end later at higher levels, so level jL's truncation is L, and
        # every level's truncation at L is its truncation at l_max
        size = window.effective_lmax(rng.jL, self.l_max)
        if m is not None:
            w, log_l = m[rng.j0 - 1 : rng.jL, :size], _LOG_L[:size]
        else:
            w, log_l = _matrix(window, rng, size), np.log(np.arange(1, size + 1, dtype=float))
        for name, arr in (("w", w), ("log_l", log_l), ("n", n)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_sum", n_sum)
        object.__setattr__(self, "m", m)

    def lam(self, values: np.ndarray) -> np.ndarray:
        """lambda-hat per level from c-hat values indexed by l (index 0 unused);
        a level past the float range is inf, which a fit rejects with a typed error."""
        with np.errstate(over="ignore"):
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
        """K_j at ``np.linspace(start, stop, num)``: (alphas, K), K of shape
        (num, J), alphas the read-only grid of ``alpha_grid``.

        K is the running sum S over the whole blocks of ``_GRID_BLOCK``
        multipoles in 1..L (``_block_sums``) plus the <= 63 leftover ones.  A
        view of M reads S from M's kept table (``_grid_table``), columns
        j0 - 1..jL - 1; a basis with a matrix of its own, or whose table is too
        large to keep, sums S over its ``w`` and keeps nothing.  Every power is
        exp(-alpha log l), as in ``k``, so only the order of the sums differs
        from ``k`` (~1e-15 relative).
        """
        alphas = alpha_grid(start, stop, num)[0]
        rng, whole = self.j_range, self.w.shape[1] // _GRID_BLOCK * _GRID_BLOCK
        table = None if self.m is None else _grid_table(self.window, rng.c_b, self.m, alphas)
        if table is None:
            head = _block_sums(self.w, self.log_l, alphas, np.empty((1, num, len(self.n))))
        else:
            head = table[whole // _GRID_BLOCK][:, rng.j0 - 1 : rng.jL]
        x = np.exp(np.multiply.outer(-alphas, self.log_l[whole:]))
        return alphas, head + x @ self.w[:, whole:].T


def k_j(window: NeedletWindow, j: int, alpha: float, l_max: int, c_b: float = 1.0) -> float:
    """Normalized spectral moment (1/N_j) sum_l window_sq(l/B^j)(2l+1) l^-alpha
    over level j's whole ``support(j)``: a level that ``check_levels`` rejects
    at l_max, or whose support ends past l_max, raises ``TruncationError``.
    The estimator reads K_j from its ``LevelBasis`` instead (``k``,
    ``k_derivs``), truncated where ``lambda_hat`` is.
    """
    return k_j_deriv(window, j, alpha, l_max, 0, c_b)


def k_j_deriv(
    window: NeedletWindow, j: int, alpha: float, l_max: int, order: int, c_b: float = 1.0
) -> float:
    """Term-wise alpha-derivative of ``k_j`` (order 0: ``k_j`` itself; order 1
    inserts -log l, order 2 log^2 l), under ``k_j``'s rule on the support."""
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    # the basis's check_levels rejects a level past the float range before support(j) overflows
    basis = LevelBasis(window, JRange(j0=j, jL=j, c_b=c_b), l_max)
    last = window.support(j)[1]
    if last > l_max:
        raise TruncationError(f"level j={j}: support ends at l={last}, past l_max={l_max}")
    return float(basis.k_derivs(alpha)[order][0])


def lambda_hat(spec: EmpiricalSpectrum, window: NeedletWindow, j: int) -> float:
    """Level energy statistic sum_l window_sq(l/B^j)(2l+1) c-hat_l, from the
    level's own row of ``_matrix``: no weight matrix M is read or kept."""
    j_range = JRange(j0=j, jL=j)
    check_levels(window, j_range, spec.l_max)
    w = _matrix(window, j_range, window.effective_lmax(j, spec.l_max))
    with np.errstate(over="ignore"):
        return float(j_range.n_j(j, window.B) * (w @ spec.values[1 : w.shape[1] + 1])[0])


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
        B, rng = self.window.B, self.j_range
        rows = ((j, float(B**j), rng.n_j(j, B), x) for j, x in zip(rng.levels(), self.lam.tolist()))
        write_csv(path, ("j", "B_pow_j", "N_j", "lambda_hat"), rows)


def compute_statistics(
    spec: EmpiricalSpectrum,
    window: NeedletWindow,
    j_range: JRange,
) -> NeedletStatistics:
    """lambda-hat over a level range, with the level basis the fit reuses."""
    basis = LevelBasis(window, j_range, spec.l_max)
    return NeedletStatistics(basis=basis, lam=basis.lam(spec.values))
