"""Real-space needlet coefficients on a spherical cubature grid.

The grid is Gauss-Legendre in colatitude times equally spaced longitudes:
exact quadrature for band-limited integrands with simple product weights.
``synthesize_beta`` evaluates the needlet-filtered field at the nodes ring by
ring, as libsharp and SHTns do: one fully normalized associated Legendre
recurrence (stable in double precision to l of a few thousand; very high m
underflows gracefully to zero) is streamed degree by degree into per-ring
Fourier amplitudes, and an FFT over longitude gives the field.  Memory is
O(L N_theta), so level 7 (L = 647 at p = 2, B = 2) runs in ~10 MB.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandLimitError, DomainError, ResourceLimitError
from .harmonic import AlmSet, _row_start, simulate_alm
from .needlet import MexicanWindow
from .spectrum import PowerSpectrumModel

__all__ = [
    "DEFAULT_POINT_CAP",
    "CubatureGrid",
    "BetaCoefficients",
    "CorrelationSummary",
    "build_grid",
    "legendre_table",
    "synthesize_beta",
    "empirical_beta_correlation",
]

DEFAULT_POINT_CAP = 1_000_000

# coefficient sets synthesised together by ``empirical_beta_correlation``;
# bounds its working memory at any seed count
_SEED_BLOCK = 32

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

    @property
    def gl_band_limit(self) -> int:
        """Largest l with |Y_lm|^2 exactly integrated by the theta rule."""
        return self.n_theta - 1

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

    def integrate(self, ring_values: np.ndarray) -> float:
        """Quadrature of point values laid out as (n_theta, n_phi)."""
        return float(np.sum(self.ring_weight[:, None] * ring_values))


def build_grid(
    j: int,
    B: float,
    oversample: float = 1.0,
    point_cap: int = DEFAULT_POINT_CAP,
) -> CubatureGrid:
    """Iso-latitude cubature grid for level j with N_j proportional to B^(2j)."""
    if j < 1:
        raise DomainError("j must be >= 1")
    if not B > 1:
        raise DomainError("B must exceed 1")
    n_theta = max(4, round(GRID_RING_FACTOR * oversample * B**j))
    n_phi = 2 * n_theta
    if n_theta * n_phi > point_cap:
        raise ResourceLimitError(
            f"grid would need {n_theta * n_phi} points, cap is {point_cap}"
        )
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    return CubatureGrid(
        j=j,
        B=B,
        ring_cos=nodes,
        ring_weight=weights * (2.0 * math.pi / n_phi),
        n_phi=n_phi,
    )


def _legendre_rows(l_max: int, x: np.ndarray):
    """Yield the rows P[l, 0..l, :] of ``legendre_table`` for l = 0..l_max.
    Only the last two rows are kept; a yielded row must not be modified, the
    next one is built from it."""
    sin_th = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    prev2 = None
    prev = np.full((1, len(x)), 1.0 / math.sqrt(4.0 * math.pi))
    yield prev
    for l in range(1, l_max + 1):
        row = np.empty((l + 1, len(x)))
        if l >= 2:
            ms = np.arange(0, l - 1, dtype=float)
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - ms * ms))
            b = np.sqrt(
                ((2.0 * l + 1.0) * (l - 1 + ms) * (l - 1 - ms)) / ((2.0 * l - 3.0) * (l * l - ms * ms))
            )
            # (a x) P[l-1] - b P[l-2], written in place into the new row
            head = row[: l - 1]
            np.multiply(a[:, None], x, out=head)
            head *= prev[: l - 1]
            head -= b[:, None] * prev2
        row[l - 1] = math.sqrt(2.0 * l + 1.0) * x * prev[l - 1]
        row[l] = -math.sqrt((2.0 * l + 1.0) / (2.0 * l)) * sin_th * prev[l - 1]
        prev2, prev = prev, row
        yield row


def legendre_table(l_max: int, cos_theta: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values, shape (l_max+1, l_max+1, n).

    Normalized so that Y_lm = P[l, m] exp(i m phi) is orthonormal on the
    sphere and sum_m |Y_lm|^2 = (2l+1)/(4 pi).  Three-term recurrence in l
    seeded on the m = l diagonal; the rows of ``_legendre_rows``, stacked.
    """
    x = np.asarray(cos_theta, dtype=float)
    P = np.zeros((l_max + 1, l_max + 1, len(x)))
    for l, row in enumerate(_legendre_rows(l_max, x)):
        P[l, : l + 1] = row
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
        th, ph = self.grid.points()
        w = self.grid.weights()
        with open(path, "w", newline="") as fh:
            fh.write("k,theta,phi,weight,beta\n")
            for k in range(self.grid.n_points):
                fh.write(f"{k},{th[k]:.17g},{ph[k]:.17g},{w[k]:.17g},{self.values[k]:.17g}\n")


def _needlet_field(packed: np.ndarray, grid: CubatureGrid, window: MexicanWindow,
                   l_max: int) -> np.ndarray:
    """Filtered fields sum_l f_p(l/B^j) sum_m a_lm Y_lm at the grid nodes, as
    (S, n_theta, n_phi), for S coefficient sets stacked in the ``AlmSet.data``
    layout.  Degree l adds f_p(l/B^j) a_lm P_lm to the (m, ring) amplitudes as
    the recurrence yields its row; m is folded modulo n_phi (m runs past
    n_phi / 2, and e^{i m phi} repeats with period n_phi on the grid)."""
    n_sets, n_phi = len(packed), grid.n_phi
    fl = window.window(np.arange(1, l_max + 1) / window.B**grid.j)
    n_m = -(-(l_max + 1) // n_phi) * n_phi  # m padded to whole periods of n_phi
    amp = np.zeros((n_sets, n_m, grid.n_theta), dtype=complex)
    rows = _legendre_rows(l_max, grid.ring_cos)
    next(rows)  # l = 0 carries no coefficient
    for l, row in enumerate(rows, start=1):
        s = _row_start(l)
        amp[:, : l + 1] += (fl[l - 1] * packed[:, s : s + l + 1])[:, :, None] * row
    amp[:, 1:] *= 2.0  # m and -m together: field = Re sum_{m >= 0} amp_m e^{i m phi}
    folded = amp.reshape(n_sets, -1, n_phi, grid.n_theta).sum(axis=1)
    field = np.fft.ifft(folded, axis=1, norm="forward").real
    return field.transpose(0, 2, 1)


def synthesize_beta(alm: AlmSet, grid: CubatureGrid, p: int, B: float) -> BetaCoefficients:
    """Needlet coefficients beta_k = sqrt(lambda_k) * field(xi_k) at level grid.j."""
    window = MexicanWindow(p=p, B=B)
    l_max = window.effective_lmax(grid.j, alm.l_max)
    if grid.n_theta < window.peak_x * B**grid.j:
        raise BandLimitError(
            f"grid with {grid.n_theta} rings cannot resolve the level-{grid.j} window "
            f"(peak multipole ~{window.peak_x * B ** grid.j:.0f})"
        )
    field = _needlet_field(alm.data[None, :], grid, window, l_max)[0]
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
    (1 + scale * d) over the main-lobe bins (mean in [0.15, 0.95]); the decay
    bound predicts 4p + 2 - alpha0 for it.  Coarse grids (half the rings of
    ``build_grid``'s default) are fine here: the correlation is a field
    property, not a quadrature.
    """
    if not 4 * p + 2 - model.alpha0 > 0:
        raise DomainError("requires 4p + 2 - alpha0 > 0")
    if n_seeds < 2:
        raise DomainError(f"a correlation needs n_seeds >= 2, got {n_seeds}")
    window = MexicanWindow(p=p, B=B)
    grids = [build_grid(level, B, oversample=0.5) for level in dict.fromkeys((j, j2))]
    l_max = max(window.effective_lmax(g.j, 10**9) for g in grids)
    n_bins = 48

    # node subsample shared across seeds
    rng = np.random.default_rng(np.random.SeedSequence((master_seed & 0xFFFFFFFFFFFFFFFF, 0x9D)))
    picks = [rng.choice(g.n_points, size=min(max_points, g.n_points), replace=False) for g in grids]
    th = np.concatenate([g.points()[0][idx] for g, idx in zip(grids, picks)])
    ph = np.concatenate([g.points()[1][idx] for g, idx in zip(grids, picks)])

    betas = [np.empty((n_seeds, len(idx))) for idx in picks]
    for first in range(0, n_seeds, _SEED_BLOCK):
        block = range(first, min(first + _SEED_BLOCK, n_seeds))
        packed = np.stack([_simulate_banded(model, l_max, (master_seed, s)).data for s in block])
        for g, idx, beta in zip(grids, picks, betas):
            field = _needlet_field(packed, g, window, window.effective_lmax(g.j, l_max))
            beta[first : block.stop] = field.reshape(len(block), -1)[:, idx]

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
    max_abs = np.zeros(n_bins)
    mean_abs = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        sel = which == b
        counts[b] = int(sel.sum())
        if counts[b]:
            max_abs[b] = cv[sel].max()
            mean_abs[b] = cv[sel].mean()

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


def _simulate_banded(model: PowerSpectrumModel, l_max: int, seed_pair) -> AlmSet:
    """Coefficient set keyed by a (master, replicate) pair; rows still follow
    the per-(seed, l) stream convention via a derived 64-bit seed."""
    derived = int(
        np.random.SeedSequence((seed_pair[0] & 0xFFFFFFFFFFFFFFFF, seed_pair[1])).generate_state(
            1, np.uint64
        )[0]
    )
    return simulate_alm(model, l_max, derived)
