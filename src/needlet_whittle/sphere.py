"""Real-space needlet coefficients on a spherical cubature grid.

The grid is Gauss-Legendre in colatitude times equally spaced longitudes:
exact quadrature for band-limited integrands with simple product weights.
``synthesize_beta`` evaluates the needlet-filtered field at the nodes with
fully normalized associated Legendre recurrences (stable in double precision
to l of a few thousand; very high m underflows gracefully to zero).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandLimitError, DomainError, ResourceLimitError
from .harmonic import AlmSet, simulate_alm
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


def legendre_table(l_max: int, cos_theta: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values, shape (l_max+1, l_max+1, n).

    Normalized so that Y_lm = P[l, m] exp(i m phi) is orthonormal on the
    sphere and sum_m |Y_lm|^2 = (2l+1)/(4 pi).  Three-term recurrence in l
    seeded on the m = l diagonal.
    """
    x = np.asarray(cos_theta, dtype=float)
    sin_th = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    P = np.zeros((l_max + 1, l_max + 1, len(x)))
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, l_max + 1):
        P[m, m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_th * P[m - 1, m - 1]
    for m in range(0, l_max):
        P[m + 1, m] = math.sqrt(2.0 * m + 3.0) * x * P[m, m]
    for l in range(2, l_max + 1):
        ms = np.arange(0, l - 1, dtype=float)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - ms * ms))
        b = np.sqrt(
            ((2.0 * l + 1.0) * (l - 1 + ms) * (l - 1 - ms)) / ((2.0 * l - 3.0) * (l * l - ms * ms))
        )
        P[l, : l - 1] = a[:, None] * x[None, :] * P[l - 1, : l - 1] - b[:, None] * P[l - 2, : l - 1]
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


def _needlet_field(
    alm: AlmSet,
    grid: CubatureGrid,
    window: MexicanWindow,
    l_max: int,
    table: np.ndarray | None = None,
) -> np.ndarray:
    """Filtered field sum_l f_p(l/B^j) sum_m a_lm Y_lm at the grid nodes,
    returned as (n_theta, n_phi)."""
    if table is None:
        table = legendre_table(l_max, grid.ring_cos)
    fl = np.zeros(l_max + 1)
    ls = np.arange(1, l_max + 1, dtype=float)
    fl[1:] = window.window(ls / window.B**grid.j)
    # m-major accumulation: one (m, ring) pair of cosine/sine amplitudes
    re = np.zeros((l_max + 1, l_max + 1))
    im = np.zeros((l_max + 1, l_max + 1))
    for l in range(1, l_max + 1):
        row = alm.row(l)
        re[l, : l + 1] = fl[l] * row.real
        im[l, : l + 1] = fl[l] * row.imag
    gc = np.einsum("lmi,lm->mi", table[: l_max + 1, : l_max + 1], re)
    gs = np.einsum("lmi,lm->mi", table[: l_max + 1, : l_max + 1], im)
    m = np.arange(l_max + 1, dtype=float)
    ang = np.outer(m, grid.phis())
    field = gc[0][:, None] + 2.0 * (np.cos(ang[1:]).T @ gc[1:] - np.sin(ang[1:]).T @ gs[1:]).T
    return field


def synthesize_beta(
    alm: AlmSet,
    grid: CubatureGrid,
    p: int,
    B: float,
    _table: np.ndarray | None = None,
) -> BetaCoefficients:
    """Needlet coefficients beta_k = sqrt(lambda_k) * field(xi_k) at level grid.j."""
    window = MexicanWindow(p=p, B=B)
    l_max = window.effective_lmax(grid.j, alm.l_max)
    if grid.n_theta < window.peak_x * B**grid.j:
        raise BandLimitError(
            f"grid with {grid.n_theta} rings cannot resolve the level-{grid.j} window "
            f"(peak multipole ~{window.peak_x * B ** grid.j:.0f})"
        )
    field = _needlet_field(alm, grid, window, l_max, table=_table)
    beta = np.sqrt(np.repeat(grid.ring_weight, grid.n_phi)) * field.ravel()
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
    window = MexicanWindow(p=p, B=B)
    grids = [build_grid(j, B, oversample=0.5)]
    if j2 != j:
        grids.append(build_grid(j2, B, oversample=0.5))
    l_max = max(window.effective_lmax(g.j, 10**9) for g in grids)
    n_bins = 48
    tables = [legendre_table(l_max, g.ring_cos) for g in grids]

    # node subsample shared across seeds
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, 0x9D)))
    th_list, ph_list, owner = [], [], []
    for gi, g in enumerate(grids):
        th, ph = g.points()
        take = min(max_points, g.n_points)
        idx = rng.choice(g.n_points, size=take, replace=False)
        th_list.append(th[idx])
        ph_list.append(ph[idx])
        owner.append((gi, idx))

    betas = [np.empty((n_seeds, len(o[1]))) for o in owner]
    for s in range(n_seeds):
        alm = _simulate_banded(model, l_max, (master_seed, s))
        for gi, g in enumerate(grids):
            le = window.effective_lmax(g.j, l_max)
            field = _needlet_field(alm, g, window, le, table=tables[gi])
            betas[gi][s] = field.ravel()[owner[gi][1]]

    th = np.concatenate(th_list)
    ph = np.concatenate(ph_list)
    z = np.concatenate(
        [(b - b.mean(axis=0)) / b.std(axis=0) for b in betas], axis=1
    )
    corr = z.T @ z / n_seeds
    cosd = np.cos(th)[:, None] * np.cos(th)[None, :] + np.sin(th)[:, None] * np.sin(th)[
        None, :
    ] * np.cos(ph[:, None] - ph[None, :])
    d = np.arccos(np.clip(cosd, -1.0, 1.0))

    if j2 == j:
        iu = np.triu_indices(len(th), k=1)
        dv, cv = d[iu], np.abs(corr[iu])
    else:
        n1 = len(th_list[0])
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
