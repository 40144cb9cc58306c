"""Real-space needlet coefficients on a spherical cubature grid.

The grid is Gauss-Legendre in colatitude times equally spaced longitudes:
exact quadrature for band-limited integrands with simple product weights.
``synthesize_beta`` evaluates the needlet-filtered field at the nodes ring by
ring, as libsharp and SHTns do: one fully normalized associated Legendre
recurrence (stable in double precision to l of a few thousand; very high m
underflows gracefully to zero) is streamed degree by degree into per-ring
Fourier amplitudes, and an FFT over longitude gives the field.  The
recurrence runs on one hemisphere only, the distinct |cos theta| of the
rings, and each mirror ring takes the even-l and odd-l sums with opposite
signs.  Degrees are contracted into the amplitudes in blocks of
``_DEGREE_BLOCK``, one stacked matmul over m per block.  Each recurrence
step (``_Legendre.step``) writes its row in place into that block buffer,
laid out [l % 2, slot, m, |cos theta|] so that every row is contiguous, and
the matmul reads the buffer through a transposed view: no row is copied.
Memory is O(L N_theta), so level 7 (L = 647 at p = 2, B = 2) runs in ~11 MB.
Each degree block's recurrence coefficients are kept across fields in
``_BLOCKS``, a ``needlet.Kept`` of their own (4 MiB, oldest out first): a
level-6 field keeps 41 blocks in 860 KB, a level-7 one 81 in 3.4 MB.

Coefficients arrive as a stream of degree rows, never as a packed set: one
set is ``AlmSet.row(l)``, and the correlation diagnostic draws each block of
seeds row by row through ``harmonic.alm_rows``, so its memory is
O(S n_phi N_theta) per block of S seeds, whatever L is.  Only ``harmonic``
knows the packed layout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import check_B
from .errors import BandLimitError, DomainError, ResourceLimitError
from .harmonic import AlmSet, alm_rows, write_csv
from .needlet import KEPT_BYTES, Kept, MexicanWindow
from .spectrum import PowerSpectrumModel

__all__ = [
    "DEFAULT_POINT_CAP",
    "CORRELATION_SEED_CAP",
    "CORRELATION_POINT_CAP",
    "CORRELATION_OVERSAMPLE",
    "CubatureGrid",
    "BetaCoefficients",
    "CorrelationSummary",
    "build_grid",
    "legendre_table",
    "synthesize_beta",
    "check_correlation_seeds",
    "empirical_beta_correlation",
]

DEFAULT_POINT_CAP = 1_000_000

# seeds one ``empirical_beta_correlation`` call may draw: each keeps ~16 KB of
# coefficients and standardized copies at two 700-node grids (measured by
# tracemalloc at 64 and 192 seeds), so 2^14 seeds hold ~256 MB
CORRELATION_SEED_CAP = 2**14

# nodes per grid one ``empirical_beta_correlation`` call may sample: its
# (nodes x nodes) correlation, distance and cosine arrays peak at ~52 bytes
# per node pair on one level and ~40 on two, where the nodes of both grids
# pair up (measured by tracemalloc at 300-1200 nodes per grid on levels 5
# and 6), so 2^10 nodes per grid hold ~170 MB.  Each seed then keeps ~33 KB
# (~16 KB at 700; tracemalloc at 64 and 192 seeds), so a call at both caps
# peaks near 700 MB
CORRELATION_POINT_CAP = 2**10

# rings of a correlation's grids per ``build_grid`` default ring: the
# correlation is a field property, not a quadrature, so coarse grids do
CORRELATION_OVERSAMPLE = 0.5

# seeds synthesised together by ``empirical_beta_correlation``; bounds its
# (S, n_phi, N_theta) amplitude array at any seed count
_SEED_BLOCK = 32

# degrees whose Legendre and coefficient rows ``_NeedletField`` contracts in
# one matmul
_DEGREE_BLOCK = 8

# ring neighbours in each run of nodes a correlation samples from a grid with
# more nodes than it may take: a run's pairs fill the nearest distance bins
_NODE_RUN = 4

# rings per unit B^j; 2.0 keeps the frame identity gap well under 1e-2 for the
# gaussian-profile windows used here (measured), at N_j = 8 B^(2j) points
GRID_RING_FACTOR = 2.0


@dataclass
class CubatureGrid:
    j: int
    B: float
    ring_cos: np.ndarray  # Gauss-Legendre nodes (cos theta per ring)
    ring_weight: np.ndarray  # GL weight * (2 pi / n_phi)
    n_phi: int

    @property
    def n_theta(self) -> int:
        return len(self.ring_cos)

    @property
    def n_points(self) -> int:
        return self.n_theta * self.n_phi

    def phis(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi

    def thetas(self) -> np.ndarray:
        return np.arccos(self.ring_cos)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (theta, phi) arrays, ring-major."""
        th = np.repeat(self.thetas(), self.n_phi)
        ph = np.tile(self.phis(), self.n_theta)
        return th, ph

    def weights(self) -> np.ndarray:
        return np.repeat(self.ring_weight, self.n_phi)


def build_grid(j: int, B: float, oversample: float = 1.0) -> CubatureGrid:
    """Iso-latitude cubature grid for level j with N_j proportional to B^(2j)."""
    if j < 1:
        raise DomainError("j must be >= 1")
    check_B(B)
    try:
        rings = float(round(max(4.0, GRID_RING_FACTOR * oversample * B**j)))
    except OverflowError:  # B^j or its ring count past the float range lies past any cap
        rings = math.inf
    points = 2.0 * rings * rings  # inf past the float range
    if points > DEFAULT_POINT_CAP:
        raise ResourceLimitError(f"grid would need {points:.3g} points, cap is {DEFAULT_POINT_CAP}")
    n_theta = int(rings)
    n_phi = 2 * n_theta
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    return CubatureGrid(
        j=j,
        B=B,
        ring_cos=nodes,
        ring_weight=weights * (2.0 * math.pi / n_phi),
        n_phi=n_phi,
    )


class _Legendre:
    """The fully normalized associated Legendre recurrence at nodes x, one
    degree per ``step`` for l = 1, 2, ... in order: row l = P[l, 0..l, :] is
    written in place from rows l - 1 and l - 2, wherever the caller keeps
    them.

    Row l's entries m <= l - 2 are (a_lm x) P[l-1, m] - b_lm P[l-2, m]; each
    column-broadcast product is formed as a broadcast copy of the coefficient
    column followed by a contiguous product with a tile of x or with row
    l - 2.  Its two diagonal entries m = l - 1, l are the pair
    (sqrt(2l + 1) x, -sqrt((2l + 1) / 2l) sin theta) times P[l-1, l-1].  The
    coefficients are computed for ``_DEGREE_BLOCK`` degrees at a time
    (``_coefficients``) and depend on the block's degrees only, so they are
    kept across fields."""

    P00 = 1.0 / math.sqrt(4.0 * math.pi)  # row 0, which seeds the recurrence

    def __init__(self, l_max: int, x: np.ndarray):
        self.l_max = l_max
        self._x = np.tile(x, (max(l_max - 1, 0), 1))
        self._tmp = np.empty_like(self._x)
        self._cos_sin = np.stack((x, np.sqrt(np.clip(1.0 - x * x, 0.0, None))))
        self._first = self._stop = 1

    def step(self, l: int, row: np.ndarray, prev: np.ndarray, prev2: np.ndarray) -> None:
        """Write row l into ``row`` (l + 1, n) from ``prev`` = row l - 1 and
        ``prev2`` = row l - 2 (read only for l >= 2)."""
        if l >= self._stop:
            self._first, self._stop = l, min(l + _DEGREE_BLOCK, self.l_max + 1)
            self._a, self._b, self._diag = _coefficients(self._first, self._stop)
        i, n = l - self._first, l - 1
        if n:
            head, tmp = row[:n], self._tmp[:n]
            np.copyto(head, self._a[i, :n, None])
            head *= self._x[:n]
            head *= prev[:n]
            np.copyto(tmp, self._b[i, :n, None])
            tmp *= prev2
            head -= tmp
        pair = row[n:]
        np.multiply(self._diag[i, :, None], self._cos_sin, out=pair)
        pair *= prev[n]


_BLOCKS = Kept(KEPT_BYTES)  # (first, stop) -> (a, b, diag) of one degree block


def _coefficients(first: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a_lm, b_lm and the diagonal pair of the degrees first..stop - 1, kept
    by (first, stop) in ``_BLOCKS``."""
    kept = _BLOCKS.get((first, stop))
    if kept is not None:
        return kept
    l = np.arange(first, stop, dtype=float)[:, None]
    # a = sqrt((4l^2 - 1) / (l^2 - m^2)) and
    # b = sqrt((2l + 1)((l - 1)^2 - m^2) / ((2l - 3)(l^2 - m^2))), whose
    # numerators and denominators are exact integers in double; the
    # entries past a row's m = l - 2 are never read
    sq = np.arange(max(stop - 2, 0), dtype=float) ** 2
    d = l * l - sq
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * l * l - 1.0) / d)
        b = np.sqrt((2.0 * l + 1.0) * ((l - 1.0) ** 2 - sq) / ((2.0 * l - 3.0) * d))
    diag = np.hstack((np.sqrt(2.0 * l + 1.0), -np.sqrt((2.0 * l + 1.0) / (2.0 * l))))
    block = (a, b, diag)
    _BLOCKS.put((first, stop), block)
    return block


def legendre_table(l_max: int, cos_theta: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values, shape (l_max+1, l_max+1, n).

    Normalized so that Y_lm = P[l, m] exp(i m phi) is orthonormal on the
    sphere and sum_m |Y_lm|^2 = (2l+1)/(4 pi).  Three-term recurrence in l
    seeded on the m = l diagonal; the rows of ``_Legendre.step``, stacked.
    """
    x = np.asarray(cos_theta, dtype=float)
    P = np.zeros((l_max + 1, l_max + 1, len(x)))
    P[0, 0] = _Legendre.P00
    legendre = _Legendre(l_max, x)
    for l in range(1, l_max + 1):
        legendre.step(l, P[l, : l + 1], P[l - 1, :l], P[l - 2, : l - 1])
    return P


@dataclass
class BetaCoefficients:
    j: int
    p: int
    values: np.ndarray  # flattened, ring-major, length grid.n_points
    grid: CubatureGrid

    def sum_sq(self) -> float:
        return float(np.sum(self.values**2))

    def to_csv(self, path) -> None:
        columns = (*self.grid.points(), self.grid.weights(), self.values)
        rows = zip(range(self.grid.n_points), *(c.tolist() for c in columns))
        write_csv(path, ("k", "theta", "phi", "weight", "beta"), rows)


class _NeedletField:
    """Filtered fields sum_l f_p(l/B^j) sum_m a_lm Y_lm of ``n_sets`` coefficient
    sets at the nodes of ``grid``, fed the degree rows l = 1..l_max in order.

    The recurrence runs on the distinct |cos theta| of the rings only, since
    P_lm(-x) = (-1)^(l+m) P_lm(x) holds bit for bit in it: with E and O the
    even-l and odd-l sums of f_p a_lm P_lm(|x|), a ring at x >= 0 takes E + O
    and its mirror (-1)^m (E - O).  ``_DEGREE_BLOCK`` degrees of Legendre rows,
    each written in place by the recurrence, and of scaled coefficient rows
    are buffered, then added to the (m, ring) amplitudes as one stacked matmul
    over m, folded modulo the longitude count (m runs past n_phi / 2, and
    e^{i m phi} repeats with period n_phi on the grid)."""

    def __init__(self, grid: CubatureGrid, window: MexicanWindow, l_max: int, n_sets: int):
        self.grid = grid
        self.l_max = l_max
        u, self._ring_u = np.unique(np.abs(grid.ring_cos), return_inverse=True)
        self._fl = window.window(np.arange(1, l_max + 1) / window.B**grid.j)
        self._legendre = _Legendre(l_max, u)
        # row l sits in slot (l - 1) // 2 mod slots of its parity: rows l and
        # l - 2 never share a slot, nor do two rows of one block
        self._slots = max(2, (_DEGREE_BLOCK + 1) // 2)
        # an even period keeps (-1)^m intact through the fold
        self._period = grid.n_phi * (1 + grid.n_phi % 2)
        # [m, l % 2, slot, set]: the block's f_p a_lm, doubled for m >= 1
        # (field = Re sum_{m >= 0} amp_m e^{i m phi})
        self._coef = np.zeros((l_max + 1, 2, self._slots, n_sets), dtype=complex)
        # [l % 2, slot, m, |cos theta|]: the recurrence writes each row P_l,
        # contiguous, in place; the matmul reads it through a transposed view
        self._legs = np.zeros((2, self._slots, l_max + 1, len(u)))
        self._row(0)[0] = _Legendre.P00
        # [m mod period, l % 2, |cos theta|, (set, re/im)]: E and O
        self._amp = np.zeros((self._period, 2, len(u), 2 * n_sets))
        self._tmp = np.empty_like(self._amp)
        self._l = 0

    def _slot(self, l: int) -> int:
        return (l - 1) // 2 % self._slots

    def _row(self, l: int) -> np.ndarray:
        """The Legendre row P[l, 0..l, :] in its slot (empty for l < 0)."""
        return self._legs[l % 2, self._slot(l), : l + 1]

    def add(self, a: np.ndarray) -> None:
        """Take the (n_sets, l + 1) row a_l0..a_ll of the next degree l; the
        caller's row is left alone."""
        l = self._l = self._l + 1
        if (l - 1) % _DEGREE_BLOCK == 0:
            self._top = min(l + _DEGREE_BLOCK - 1, self.l_max)
            self._coef[: self._top + 1] = 0.0
        self._legendre.step(l, self._row(l), self._row(l - 1), self._row(l - 2))
        c = self._coef[: l + 1, l % 2, self._slot(l)]
        np.multiply(self._fl[l - 1], a.T, out=c)
        c[1:] *= 2.0
        if l == self._top:
            legs = self._legs.transpose(2, 0, 3, 1)  # [m, l % 2, |cos theta|, slot]
            coef = self._coef.view(np.float64)
            for lo in range(0, l + 1, self._period):
                hi = min(lo + self._period, l + 1)
                part = np.matmul(legs[lo:hi], coef[lo:hi], out=self._tmp[: hi - lo])
                self._amp[: hi - lo] += part

    def field(self) -> np.ndarray:
        """The fields as (n_sets, n_theta, n_phi), once every row is in; the
        buffers are released on the way, so this is called once."""
        rings = np.fft.ifft(self._spectra(), axis=0, norm="forward").real
        # ring i is side (x < 0) of the hemisphere ring |x| = u[ring_u[i]]
        side = (self.grid.ring_cos < 0).astype(int)
        return rings[:, side, self._ring_u].transpose(2, 1, 0)

    def _spectra(self) -> np.ndarray:
        """(n_phi, [x >= 0, x < 0], |cos theta|, set) longitude amplitudes."""
        amp = self._amp.view(complex)
        del self._coef, self._legs, self._tmp, self._amp, self._legendre
        even, odd = amp[:, 0], amp[:, 1]
        north = even + odd
        np.subtract(even, odd, out=odd)
        odd[1::2] *= -1.0
        even[...] = north
        n_phi = self.grid.n_phi
        return amp if self._period == n_phi else amp[:n_phi] + amp[n_phi:]


def synthesize_beta(alm: AlmSet, grid: CubatureGrid, p: int, B: float) -> BetaCoefficients:
    """Needlet coefficients beta_k = sqrt(lambda_k) * field(xi_k) at level grid.j.
    ``B`` must be the grid's own: a grid built for another B samples another
    level."""
    if B != grid.B:
        raise DomainError(f"B={B} differs from the grid's B={grid.B}")
    window = MexicanWindow(p=p, B=B)
    l_max = window.effective_lmax(grid.j, alm.l_max)
    if grid.n_theta < window.peak_x * B**grid.j:
        raise BandLimitError(
            f"grid with {grid.n_theta} rings cannot resolve the level-{grid.j} window "
            f"(peak multipole ~{window.peak_x * B ** grid.j:.0f})"
        )
    synthesis = _NeedletField(grid, window, l_max, n_sets=1)
    for l in range(1, l_max + 1):
        synthesis.add(alm.row(l)[None])
    field = synthesis.field()[0]
    beta = np.sqrt(grid.weights()) * field.ravel()
    return BetaCoefficients(j=grid.j, p=p, values=beta, grid=grid)


@dataclass
class CorrelationSummary:
    scale: float  # distance prefactor B^((j+j')/2 - log_B((j+j')/2))
    bin_edges: np.ndarray  # in log(1 + scale * d)
    max_abs: np.ndarray
    mean_abs: np.ndarray
    counts: np.ndarray
    fitted_exponent: float
    lemma_exponent: float

    def far_field_mean(self) -> float:
        """Mean |corr| over the most distant occupied bin."""
        occupied = np.nonzero(self.counts > 0)[0]
        return float(self.mean_abs[occupied[-1]])


def check_correlation_seeds(n_seeds: int) -> None:
    """The one check of a correlation's seed count: at least 2
    (``DomainError``), at most ``CORRELATION_SEED_CAP`` (``ResourceLimitError``)."""
    if n_seeds < 2:
        raise DomainError(f"a correlation needs n_seeds >= 2, got {n_seeds}")
    if n_seeds > CORRELATION_SEED_CAP:
        raise ResourceLimitError(f"n_seeds={n_seeds} exceeds cap {CORRELATION_SEED_CAP}")


def _sample_nodes(grid: CubatureGrid, max_points: int, rng: np.random.Generator) -> np.ndarray:
    """Indices into ``grid.points()`` of the nodes a correlation samples: every
    node, in random order, if the grid has at most ``max_points``; otherwise
    up to max_points // ``_NODE_RUN`` distinct runs of ``_NODE_RUN``
    consecutive nodes of one ring, so no node is taken twice."""
    if grid.n_points <= max_points:
        return rng.choice(grid.n_points, size=grid.n_points, replace=False)
    per_ring = grid.n_phi // _NODE_RUN
    n_runs = min(max_points // _NODE_RUN, grid.n_theta * per_ring)
    runs = rng.choice(grid.n_theta * per_ring, size=n_runs, replace=False)
    starts = runs // per_ring * grid.n_phi + runs % per_ring * _NODE_RUN
    return (starts[:, None] + np.arange(_NODE_RUN)).ravel()


def empirical_beta_correlation(
    model: PowerSpectrumModel,
    j: int,
    j2: int,
    p: int,
    B: float,
    n_seeds: int = 300,
    master_seed: int = 0,
    max_points: int = 700,
) -> CorrelationSummary:
    """Monte Carlo correlation of beta coefficients, binned by geodesic distance.

    The fitted exponent is the log-log slope of mean |corr| against
    (1 + scale * d) over the main-lobe bins: from the nearest, the bins of
    8 pairs or more while their mean falls and stays at or above 0.1.  It is
    nan unless there are 3 such bins and the first mean is 3 times the last.
    The decay bound predicts 4p + 2 - alpha0 for it.  Its grids have
    ``CORRELATION_OVERSAMPLE`` of ``build_grid``'s default rings, and each
    grid's nodes come from ``_sample_nodes``, shared across seeds.
    """
    if not 4 * p + 2 - model.alpha0 > 0:
        raise DomainError("requires 4p + 2 - alpha0 > 0")
    check_correlation_seeds(n_seeds)
    if max_points > CORRELATION_POINT_CAP:
        raise ResourceLimitError(f"max_points={max_points} exceeds cap {CORRELATION_POINT_CAP}")
    window = MexicanWindow(p=p, B=B)
    grids = [build_grid(level, B, CORRELATION_OVERSAMPLE) for level in dict.fromkeys((j, j2))]
    n_bins = 48
    master = master_seed & 0xFFFFFFFFFFFFFFFF

    rng = np.random.default_rng(np.random.SeedSequence((master, 0x9D)))
    picks = [_sample_nodes(g, max_points, rng) for g in grids]
    th, ph = np.concatenate([np.stack(g.points())[:, idx] for g, idx in zip(grids, picks)], axis=1)

    # replicate s draws its rows from a 64-bit seed derived from (master, s)
    seeds = [
        int(np.random.SeedSequence((master, s)).generate_state(1, np.uint64)[0])
        for s in range(n_seeds)
    ]
    betas = [np.empty((n_seeds, len(idx))) for idx in picks]
    l_maxes = [window.support(g.j)[1] for g in grids]
    for first in range(0, n_seeds, _SEED_BLOCK):
        block = seeds[first : first + _SEED_BLOCK]
        # one draw per block, up to the larger L; each grid takes its own rows
        syntheses = [
            _NeedletField(g, window, l_max, len(block)) for g, l_max in zip(grids, l_maxes)
        ]
        for l, a in enumerate(alm_rows(model, max(l_maxes), block), start=1):
            for synthesis in syntheses:
                if l <= synthesis.l_max:
                    synthesis.add(a)
        for synthesis, idx, beta in zip(syntheses, picks, betas):
            beta[first : first + len(block)] = synthesis.field().reshape(len(block), -1)[:, idx]

    z = np.concatenate([(b - b.mean(axis=0)) / b.std(axis=0) for b in betas], axis=1)
    corr = z.T @ z / n_seeds
    cosd = np.cos(th)[:, None] * np.cos(th)[None, :] + np.sin(th)[:, None] * np.sin(th)[
        None, :
    ] * np.cos(ph[:, None] - ph[None, :])
    d = np.arccos(np.clip(cosd, -1.0, 1.0))

    if j2 == j:
        iu = np.triu_indices(len(th), k=1)
        dv, cv = d[iu], np.abs(corr[iu])
    else:
        n1 = len(picks[0])
        dv = d[:n1, n1:].ravel()
        cv = np.abs(corr[:n1, n1:]).ravel()

    jbar = (j + j2) / 2.0
    scale = B ** (jbar - math.log(jbar) / math.log(B))
    x = np.log1p(scale * dv)
    edges = np.linspace(0.0, math.log1p(scale * math.pi), n_bins + 1)
    which = np.clip(np.digitize(x, edges) - 1, 0, n_bins - 1)
    counts = np.bincount(which, minlength=n_bins)
    mean_abs = np.bincount(which, weights=cv, minlength=n_bins) / np.maximum(counts, 1)
    max_abs = np.zeros(n_bins)
    np.maximum.at(max_abs, which, cv)

    # fit on the monotone main-lobe prefix only; past the first zero of the
    # needlet kernel, side lobes re-raise |corr| and would flatten the slope
    centers = 0.5 * (edges[:-1] + edges[1:])
    fit_idx: list[int] = []
    prev = None
    for b in np.nonzero(counts >= 8)[0]:
        if mean_abs[b] < 0.1 or (prev is not None and mean_abs[b] >= prev):
            break
        fit_idx.append(int(b))
        prev = mean_abs[b]
    if len(fit_idx) >= 3 and mean_abs[fit_idx[0]] >= 3.0 * mean_abs[fit_idx[-1]]:
        slope = np.polyfit(centers[fit_idx], np.log(mean_abs[fit_idx]), 1)[0]
        fitted = -float(slope)
    else:
        fitted = math.nan
    return CorrelationSummary(
        scale=scale,
        bin_edges=edges,
        max_abs=max_abs,
        mean_abs=mean_abs,
        counts=counts,
        fitted_exponent=fitted,
        lemma_exponent=4 * p + 2 - model.alpha0,
    )
