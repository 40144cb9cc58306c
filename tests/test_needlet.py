import copy
import math
import pickle
import re
import time
import tracemalloc

import numpy as np
import pytest

from needlet_whittle import (
    DomainError,
    JRange,
    MexicanWindow,
    ResourceLimitError,
    StandardWindow,
    TruncationError,
    c_l,
    compute_statistics,
    fit_full_band,
    lambda_hat,
    select_j_range,
)
from needlet_whittle import harmonic, needlet, sphere, whittle
from needlet_whittle.asymptotics import i_ps, sigma0_sq, tau_b
from needlet_whittle.needlet import GRID_POINTS, LevelBasis, _bump_cdf, check_levels, narrow_band_j1

from conftest import chi2_spectrum, held_within_bound, kept, noise_free_spectrum

MEX = MexicanWindow(p=2, B=2.0)
STD = StandardWindow(B=2.0)


def _basis(window, j, l_max, c_b=1.0):
    """Level j's one-level basis: its ``k`` and ``k_derivs`` are K_j and its
    alpha-derivatives, cut at l_max."""
    return LevelBasis(window, JRange(j0=j, jL=j, c_b=c_b), l_max)


class TestWindows:
    def test_mexican_values(self):
        assert MEX.window_sq(0.0) == 0.0
        assert MEX.window_sq(1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_mexican_argmax_at_sqrt_p(self):
        for p in (1, 2, 5):
            w = MexicanWindow(p=p, B=2.0)
            x = np.linspace(0.01, 6.0, 20_000)
            assert x[np.argmax(w.window_sq(x))] == pytest.approx(math.sqrt(p), abs=2e-3)

    def test_standard_support(self):
        x = np.array([0.4, 0.499999, 2.000001, 5.0])
        assert np.all(STD.window_sq(x) == 0.0)
        inside = np.linspace(0.51, 1.99, 50)
        assert np.all(STD.window_sq(inside) > 0.0)

    def test_standard_golden_values(self):
        # bump symmetry pins the mid-profile values exactly
        assert STD.window_sq(1.0) == pytest.approx(1.0, abs=1e-12)
        assert STD.window_sq(0.75) == pytest.approx(0.5, abs=1e-12)
        assert STD.window_sq(1.5) == pytest.approx(0.5, abs=1e-12)

    def test_standard_partition_of_unity(self):
        ls = np.geomspace(2.0, 512.0, 200)
        total = np.zeros_like(ls)
        for j in range(-2, 14):
            total += STD.window_sq(ls / 2.0**j)
        assert np.max(np.abs(total - 1.0)) < 1e-8

    def test_bump_cdf_matches_quad(self):
        from scipy.integrate import quad

        bump = lambda t: math.exp(-1.0 / (1.0 - t * t))
        norm = quad(bump, -1.0, 1.0, epsabs=1e-16, epsrel=1e-13)[0]
        us = np.linspace(-1.0, 1.0, 41)
        ref = [quad(bump, -1.0, u, epsabs=1e-16, epsrel=1e-13)[0] / norm for u in us]
        assert np.max(np.abs(_bump_cdf(us) - ref)) <= 1e-14

    @pytest.mark.parametrize("B", [1.0, 0.5, -2.0, math.inf, math.nan])
    @pytest.mark.parametrize("window", [MexicanWindow, StandardWindow])
    def test_b_finite_above_one(self, window, B):
        with pytest.raises(DomainError, match="B must be finite and exceed 1"):
            window(B=B)

    @pytest.mark.parametrize("p", [0, needlet.MEXICAN_P_MAX + 1, 200])
    def test_p_bounded(self, p):
        # p = 200 once overflowed x^(4p) in a level's row: a RuntimeWarning, then inf weights
        with pytest.raises(DomainError, match="p must be in"):
            MexicanWindow(p=p)

    @pytest.mark.parametrize("B", [1.05, 2.0, 3.0])
    def test_largest_p_rows_finite(self, B):
        # the lowest resolved level reads x up to nearly 2 cutoff_x
        window = MexicanWindow(p=needlet.MEXICAN_P_MAX, B=B)
        j0 = next(j for j in range(-200, 2) if window.resolved(j, 1024))
        basis = LevelBasis(window, JRange(j0=j0, jL=select_j_range(1024, window).jL), 1024)
        assert np.isfinite(basis.w).all() and basis.w.any(axis=1).all()

    def test_field_defaults(self):
        assert MexicanWindow() == MexicanWindow(p=2, B=2.0)
        assert StandardWindow() == StandardWindow(B=2.0)


class TestKj:
    def test_doubling_cb_halves(self):
        a = _basis(MEX, 5, 2048).k(3.0)[0]
        b = _basis(MEX, 5, 2048, c_b=2.0).k(3.0)[0]
        assert b == pytest.approx(a / 2.0, rel=1e-15)

    def test_limit_constant(self):
        # B^(alpha j) K_j approaches i_ps(p, alpha) within 1% by B^j = 256
        got = _basis(MEX, 8, 4096).k(3.0)[0] * 2.0 ** (3.0 * 8)
        assert got == pytest.approx(i_ps(2, 3.0), rel=0.01)

    def test_standard_support_exceeds_lmax(self):
        with pytest.raises(TruncationError):
            _basis(STD, 9, 512)  # support ends at B^10 = 1024 > 512

    def test_mexican_peak_beyond_lmax(self):
        with pytest.raises(TruncationError):
            _basis(MEX, 10, 1024)  # peak at sqrt(2) * 1024 > 1024

    @pytest.mark.parametrize("B", [2.0, 3.0, math.sqrt(2.0), 1.3])
    @pytest.mark.parametrize("l_max", [64, 1000, 1024])
    def test_compact_levels_drop_no_weight(self, B, l_max):
        # every compact level check_levels accepts ends by l_max, so the first
        # term past l_max is 0 and the basis's sums are over the whole support
        window = StandardWindow(B=B)
        for j in select_j_range(l_max, window).levels():
            assert window._level_sq(np.array([l_max + 1.0]), j)[0] == 0.0
            assert window.support(j)[1] <= l_max

    def test_order_zero_is_k_j(self):
        for window, j, l_max in ((MEX, 8, 4096), (MEX, 9, 1024), (STD, 5, 1024)):
            basis = _basis(window, j, l_max)
            assert basis.k_derivs(3.0)[0][0] == basis.k(3.0)[0]

    def test_level_past_the_float_range(self):
        # B^1100 overflows a float: check_levels rejects the level first
        with pytest.raises(TruncationError, match="outside the band"):
            _basis(MEX, 1100, 256)

    def test_one_truncation_rule(self):
        assert MexicanWindow.effective_lmax is StandardWindow.effective_lmax

    def test_truncation_soundness(self, canonical_model):
        # level 8's support ends at 1294, so K_j is the full sum at both band
        # limits; lambda_hat on noise-free data, truncated at 1294 too, moves
        # by < 1e-10 relative when l_max doubles
        a = _basis(MEX, 8, 1400).k(3.0)[0]
        b = _basis(MEX, 8, 2800).k(3.0)[0]
        assert abs(a - b) / b < 1e-10
        la = lambda_hat(noise_free_spectrum(canonical_model, 1400), MEX, 8)
        lb = lambda_hat(noise_free_spectrum(canonical_model, 2800), MEX, 8)
        assert abs(la - lb) / lb < 1e-10

    def test_finite_difference_derivative(self):
        h = 1e-4
        basis = _basis(MEX, 6, 4096)
        lo, mid, hi = (basis.k(a)[0] for a in (3.0 - h, 3.0, 3.0 + h))
        for order, fd in ((1, (hi - lo) / (2 * h)), (2, (hi - 2 * mid + lo) / h**2)):
            exact = basis.k_derivs(3.0)[order][0]
            assert abs(exact - fd) < 1e-6 * abs(exact)

    def test_derivative_asymptotes(self):
        # -k'/k -> j log B + I1/I0 and the second-order analogue, within 1%
        r10 = i_ps(2, 3.0, 1) / i_ps(2, 3.0)
        r20 = i_ps(2, 3.0, 2) / i_ps(2, 3.0)
        for j in (8, 9):
            k0, k1, k2 = (k[0] for k in _basis(MEX, j, int(6 * 2**j)).k_derivs(3.0))
            expect1 = j * math.log(2.0) + r10
            assert -k1 / k0 == pytest.approx(expect1, rel=0.01)
            expect2 = (j * math.log(2.0)) ** 2 + 2 * j * math.log(2.0) * r10 + r20
            assert k2 / k0 == pytest.approx(expect2, rel=0.01)


def _former_level_terms(window, j, l_max):
    """Per-level (l, w_l) with w_l = window_sq(l/B^j)(2l+1), as summed before
    the level basis."""
    l = np.arange(1, window.effective_lmax(j, l_max) + 1, dtype=float)
    return l, window.window_sq(l / window.B**j) * (2.0 * l + 1.0)


def _former_list_build(window, j_range, l_max):
    """The weight matrix as built before rows were filled in place: every
    level's window row in a list first."""
    levels = j_range.levels()
    cut = [window.effective_lmax(j, l_max) for j in levels]
    B = window.B
    l = np.arange(1, max(cut) + 1, dtype=float)
    n = np.array([j_range.n_j(j, B) for j in levels])
    if isinstance(window, StandardWindow):
        phi = [window._phi(l / B**k) for k in range(levels[0], levels[-1] + 2)]
        sq = [np.clip(hi - lo, 0.0, None) for lo, hi in zip(phi, phi[1:])]
    else:
        sq = [window.window_sq(l[:le] / B**j) for j, le in zip(levels, cut)]
    w = np.zeros((len(levels), len(l)))
    for i, le in enumerate(cut):
        w[i, :le] = sq[i][:le] * (2.0 * l[:le] + 1.0) / n[i]
    return w


class TestLevelBasis:
    @pytest.mark.parametrize("window", [MEX, STD, MexicanWindow(p=1, B=math.sqrt(2.0))])
    @pytest.mark.parametrize("l_max", [1024, 8192])
    def test_matches_former_per_level_sums(self, window, l_max, canonical_model):
        spec = chi2_spectrum(canonical_model, l_max, 71)
        for j in select_j_range(l_max, window).levels():
            l, w = _former_level_terms(window, j, l_max)
            n = window.B ** (2.0 * j)
            basis = _basis(window, j, l_max)
            for alpha in (2.2, 3.0, 5.5):
                assert basis.k(alpha)[0] == pytest.approx(
                    float(np.sum(w * l**-alpha)) / n, rel=1e-13
                )
                for order, factor in ((1, -np.log(l)), (2, np.log(l) ** 2)):
                    assert basis.k_derivs(alpha)[order][0] == pytest.approx(
                        float(np.sum(w * l**-alpha * factor)) / n, rel=1e-13
                    )
            assert lambda_hat(spec, window, j) == pytest.approx(
                float(np.sum(w * spec.values[1 : len(l) + 1])), rel=1e-13
            )

    def test_compact_rows_share_phi(self):
        # rows phi(l/B^(j+1)) - phi(l/B^j) equal window_sq(l/B^j) bit for bit
        basis = LevelBasis(STD, JRange(j0=1, jL=8), 1024)
        for i, j in enumerate(basis.j_range.levels()):
            l, w = _former_level_terms(STD, j, 1024)
            assert np.array_equal(basis.w[i, : len(l)] * basis.n[i], w)
            assert not basis.w[i, len(l) :].any()

    @pytest.mark.parametrize(
        "window, j_range, l_max",
        [
            (MexicanWindow(p=1, B=1.1), JRange(j0=1, jL=71), 1024),
            (StandardWindow(B=1.1), JRange(j0=14, jL=71), 1024),
            (STD, JRange(j0=0, jL=12), 8192),
        ],
    )
    def test_rows_in_place_match_former_list_build(self, window, j_range, l_max):
        expected = _former_list_build(window, j_range, l_max)
        assert LevelBasis(window, j_range, l_max).w.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("window", [MexicanWindow(p=1, B=1.01), StandardWindow(B=1.01)])
    def test_build_peak_near_the_matrix(self, window):
        # rows are filled one at a time: the list build peaked at ~1.5x
        # (mexican) and ~3.1x (compact) the weight matrix
        j_range = select_j_range(2048, window)
        tracemalloc.start()
        try:
            basis = LevelBasis(window, j_range, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.w.nbytes > 4 * 2**20
        assert peak <= 1.2 * basis.w.nbytes

    def test_immutable(self):
        basis = LevelBasis(MEX, JRange(j0=1, jL=9), 1024)
        with pytest.raises(ValueError):
            basis.w[0, 0] = 1.0

    @pytest.mark.parametrize("search", [(2.001, 10.0), (-1.5, 4.25), (3.0, 3.5)])
    def test_k_linspace_matches_k(self, search):
        basis = LevelBasis(MEX, select_j_range(8192, MEX), 8192)
        grid, k = basis.k_linspace(*search)
        assert grid == tuple(np.linspace(*search, GRID_POINTS).tolist())
        exact = np.array([basis.k(a) for a in grid])
        assert np.max(np.abs(k / exact - 1.0)) < 1e-13


class TestGridTables:
    # l_max 1024 cuts the top mexican levels at a block boundary (1024 = 16 x 64
    # multipoles from l = 1), 1000 inside a block, 61 before the first block ends
    # the full band and the top two levels view M and read its kept table; a
    # range from j0 = 0 has a matrix of its own and sums its own blocks
    @pytest.mark.parametrize("l_max", [1024, 1000, 61])
    @pytest.mark.parametrize("band", ["full", "narrow", "own"])
    @pytest.mark.parametrize("search", [(2.001, 10.0), (-1.5, 4.25)])
    @pytest.mark.parametrize("window", [MEX, STD, MexicanWindow(p=1, B=3.0), StandardWindow(B=1.5)], ids=str)
    def test_grid_matches_k(self, fresh_store, window, l_max, band, search):
        full = select_j_range(l_max, window)
        cut = [window.support(j)[1] > l_max for j in full.levels()]
        if isinstance(window, MexicanWindow):
            assert any(cut) and not all(cut)
        j0 = {"full": full.j0, "narrow": max(full.j0, full.jL - 1), "own": 0}[band]
        j_range = JRange(j0=j0, jL=full.jL)
        for _ in ("cold", "warm"):
            basis = LevelBasis(window, j_range, l_max)
            assert (basis.m is None) == (band == "own")
            grid, k = basis.k_linspace(*search)
            assert grid == tuple(np.linspace(*search, GRID_POINTS).tolist())
            exact = np.array([basis.k(a) for a in grid])
            assert np.max(np.abs(k / exact - 1.0)) < 1e-13

    @pytest.mark.host_bits
    def test_one_table_read_at_every_band_limit(self, fresh_store):
        # one table over the window's M, its every whole block from S[0] = 0,
        # serves each band limit and level range
        top = select_j_range(8192, MEX).jL
        for l_max in (8192, 1000, 4133, 1024, 61):
            for j0 in (1, select_j_range(l_max, MEX).jL - 1):
                basis = LevelBasis(MEX, JRange(j0=j0, jL=select_j_range(l_max, MEX).jL), l_max)
                grid, k = basis.k_linspace(2.001, 10.0)
                exact = np.array([basis.k(a) for a in grid])
                assert np.max(np.abs(k / exact - 1.0)) < 1e-13
        tables = kept(fresh_store, "table")
        assert list(tables) == [(MEX, 1.0, 2.001, 10.0)]
        table, alphas, grid = tables[MEX, 1.0, 2.001, 10.0]
        blocks = harmonic.DEFAULT_LMAX_CAP // needlet._GRID_BLOCK
        assert table.shape == (blocks + 1, GRID_POINTS, top) and not table[0].any()
        assert alphas.tobytes() == np.linspace(2.001, 10.0, GRID_POINTS).tobytes()
        assert grid == tuple(alphas.tolist())

    @pytest.mark.host_bits
    def test_tables_read_only(self, fresh_store):
        LevelBasis(STD, JRange(j0=1, jL=9), 1024).k_linspace(2.001, 10.0)
        assert kept(fresh_store, "table")
        for table, alphas, _ in kept(fresh_store, "table").values():
            with pytest.raises(ValueError):
                table[0, 0, 0] = 1.0
            with pytest.raises(ValueError):
                alphas[0] = 0.0

    @pytest.mark.host_bits
    def test_cache_within_its_byte_bound(self, fresh_store):
        requested = 0
        for B in np.linspace(1.5, 3.0, 30):
            for window in (MexicanWindow(p=2, B=float(B)), StandardWindow(B=float(B))):
                LevelBasis(window, select_j_range(4096, window), 4096).k_linspace(2.001, 10.0)
                requested += needlet._nbytes(fresh_store.get(("table", window, 1.0, 2.001, 10.0)))
                held_within_bound(fresh_store)
        held = sum(needlet._nbytes(entry) for entry in kept(fresh_store, "table").values())
        assert held < requested  # the bound did evict tables

    @pytest.mark.host_bits
    @pytest.mark.parametrize(
        "window, j_range, l_max",
        [
            (MEX, JRange(j0=16, jL=16), 100_000),  # past the cap: no M
            (StandardWindow(B=1.1), JRange(j0=14, jL=71), 1024),  # B near 1: M past its bound
            (MexicanWindow(p=2, B=1.305), JRange(j0=1, jL=20), 1024),  # 32 levels at the cap
        ],
        ids=["past-the-cap", "B-near-1", "32-levels"],
    )
    def test_table_past_the_bound_not_stored(self, fresh_store, window, j_range, l_max):
        # the running sum over the basis's own blocks: nothing is kept
        basis = LevelBasis(window, j_range, l_max)
        grid, k = basis.k_linspace(2.001, 10.0)
        assert not fresh_store._entries and basis.m is None
        exact = np.array([basis.k(a) for a in grid])
        assert np.max(np.abs(k / exact - 1.0)) < 1e-13

    @pytest.mark.host_bits
    @pytest.mark.parametrize("window", [MexicanWindow(p=1, B=1.01), StandardWindow(B=1.01)])
    def test_running_sum_peak_a_small_fraction_of_the_matrix(self, window):
        # a basis with a matrix of its own sums its grid block by block: (num,
        # J) arrays on top of w, not a table per level (the per-level tables
        # peaked at 0.21x (compact) and 0.51x (mexican) the weight matrix)
        basis = LevelBasis(window, select_j_range(2048, window), 2048)
        assert basis.m is None
        tracemalloc.start()
        try:
            basis.k_linspace(2.001, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.15 * basis.w.nbytes

    def test_entry_past_the_bound_not_kept(self):
        store = needlet.Kept(1024)
        store.put("small", (1, np.zeros(64)))  # half the bound: kept
        store.put("large", (1, np.zeros(65)))
        assert store.get("large") is None and store.get("small") is not None
        assert store.nbytes == 512


# windows sharing B, p or the class, so a cache key missing any field mixes rows
ROW_WINDOWS = [
    MEX,
    STD,
    MexicanWindow(p=1, B=2.0),
    MexicanWindow(p=2, B=3.0),
    StandardWindow(B=3.0),
    StandardWindow(B=math.sqrt(2.0)),
    MexicanWindow(p=1, B=1.1),
    StandardWindow(B=1.1),
]


class TestLevelRows:
    @pytest.mark.parametrize("window", ROW_WINDOWS, ids=str)
    def test_support_holds_every_nonzero_weight(self, window):
        # the former build computed every compact weight on l = 1..l_max:
        # those outside support(j) are exactly 0, and the mexican rows end at
        # effective_lmax = min(l_max, last)
        l_max = 1024
        j_range = select_j_range(l_max, window)
        B, levels = window.B, j_range.levels()
        l = np.arange(1, l_max + 1, dtype=float)
        for j in levels:
            first, last = window.support(j)
            assert window.effective_lmax(j, l_max) == min(l_max, last)
            if isinstance(window, StandardWindow):
                sq = np.clip(window._phi(l / B ** (j + 1)) - window._phi(l / B**j), 0.0, None)
                assert not sq[: first - 1].any() and not sq[last:].any()
                assert sq[first - 1 : last].any()
            else:
                assert first == 1
                peak = window.window_sq(window.peak_x)
                assert window.window_sq(last / B**j) <= needlet.MEXICAN_TAIL_RATIO * peak
        w = _former_list_build(window, j_range, l_max)
        for i, j in enumerate(levels):
            first, last = window.support(j)
            assert not w[i, : first - 1].any() and not w[i, last:].any()

    def test_support_pinned(self):
        # the integers inside compact level j's open support (B^(j-1), B^(j+1)),
        # and the mexican cutoff ceil(B^j cutoff_x) at cutoff_x ~ 5.05
        assert STD.support(3) == (5, 15)
        assert StandardWindow(B=3.0).support(2) == (4, 26)
        assert MEX.support(3) == (1, 41)

    @pytest.mark.parametrize("l_maxes", [(8192, 1024), (1024, 8192)], ids=["down", "up"])
    def test_warm_rows_match_former_list_build(self, fresh_store, l_maxes):
        # M built at one band limit and read at another, across windows
        # that share B, p or the class
        for window in ROW_WINDOWS:
            for l_max in l_maxes:
                j_range = select_j_range(l_max, window)
                got = LevelBasis(window, j_range, l_max).w
                assert got.tobytes() == _former_list_build(window, j_range, l_max).tobytes()

    @pytest.mark.host_bits
    def test_matrix_kept_read_only(self, fresh_store):
        # each build reads the window's one M and its N_j, kept read-only: no
        # row is kept
        top = select_j_range(harmonic.DEFAULT_LMAX_CAP, STD).jL
        for j_range, l_max in ((JRange(j0=1, jL=9), 1024), (JRange(j0=3, jL=5), 64)):
            basis = LevelBasis(STD, j_range, l_max)
            m, n = fresh_store.get(("weights", STD, 1.0))
            assert basis.m is m and basis.n.base is n
            assert m.shape == (top, harmonic.DEFAULT_LMAX_CAP) and n.shape == (top,)
            for arr in (m, n):
                with pytest.raises(ValueError):
                    arr[0] = 1.0
        assert {key[0] for key in fresh_store._entries} == {"weights"}

    @pytest.mark.host_bits
    def test_builds_keep_no_row(self, fresh_store):
        for B in np.linspace(1.5, 3.0, 30):
            for window in (MexicanWindow(p=2, B=float(B)), StandardWindow(B=float(B))):
                LevelBasis(window, select_j_range(4096, window), 4096)
                held_within_bound(fresh_store)
        assert {key[0] for key in fresh_store._entries} == {"weights"}

    @pytest.mark.host_bits
    def test_row_past_the_bound_not_stored(self, fresh_store, monkeypatch):
        # level 16's mexican support, up to l ~ 331,000, is past half the
        # store's bound: its row is computed only up to l_max, and nothing of
        # it is kept
        window, j, l_max = MEX, 16, 100_000
        first, last = window.support(j)
        assert 2 * 8 * (last - first + 1) > needlet.KEPT_BYTES
        lengths = []
        level_sq = MexicanWindow._level_sq
        monkeypatch.setattr(
            MexicanWindow, "_level_sq", lambda self, l, j: lengths.append(len(l)) or level_sq(self, l, j)
        )
        basis = LevelBasis(window, JRange(j0=j, jL=j), l_max)
        assert lengths == [l_max]
        assert not fresh_store._entries
        l = np.arange(1, l_max + 1, dtype=float)
        assert np.array_equal(
            basis.w[0], window.window_sq(l / window.B**j) * (2.0 * l + 1.0) / basis.n[0]
        )


def _contiguous(basis):
    """The basis with a weight matrix, log table and N_j of its own, as built
    before they were views of the window's kept M, its N_j and one log table:
    ``m`` is None, so its grid is the running sum over its own blocks."""
    ref = copy.copy(basis)
    rng, B = basis.j_range, basis.window.B
    object.__setattr__(ref, "w", _former_list_build(basis.window, rng, basis.l_max))
    object.__setattr__(ref, "log_l", np.log(np.arange(1, ref.w.shape[1] + 1, dtype=float)))
    object.__setattr__(ref, "n", np.array([rng.n_j(j, B) for j in rng.levels()]))
    object.__setattr__(ref, "n_sum", float(ref.n.sum()))
    object.__setattr__(ref, "m", None)
    return ref


# band limits drawn once from a seeded generator over [16, 8192], with both ends
VIEW_LMAX = sorted({16, 8192, *(int(x) for x in np.random.default_rng(23).integers(16, 8193, 4))})
VIEW_WINDOWS = [MEX, STD, StandardWindow(B=math.sqrt(2.0)), StandardWindow(B=3.0)]


@pytest.mark.host_bits
class TestWeightMatrix:
    """Bases as views of the window's one weight matrix M and of one log table
    against a fresh contiguous build byte for byte, and grids from M's kept
    table against the running sum over a contiguous build.  Both sides are
    computed on one host, so these hold under numpy's AVX-512 and AVX2 loops
    alike (CI reruns them with AVX-512 off)."""

    @pytest.mark.parametrize("c_b", [1.0, 2.0])
    @pytest.mark.parametrize("band", ["full", "narrow"])
    @pytest.mark.parametrize("l_max", VIEW_LMAX)
    @pytest.mark.parametrize("window", VIEW_WINDOWS, ids=str)
    def test_view_basis_matches_contiguous_build(self, window, l_max, band, c_b, canonical_model):
        full = select_j_range(l_max, window)
        j0 = full.j0 if band == "full" else max(full.j0, full.jL - 1)
        basis = LevelBasis(window, JRange(j0=j0, jL=full.jL, c_b=c_b), l_max)
        m, n = needlet._weights(window, c_b)
        assert basis.m is m and basis.w.base is m and basis.n.base is n
        ref = _contiguous(basis)
        assert basis.w.tobytes() == ref.w.tobytes()
        assert basis.log_l.tobytes() == ref.log_l.tobytes()
        assert basis.n.tobytes() == ref.n.tobytes() and basis.n_sum == ref.n_sum
        spec = chi2_spectrum(canonical_model, l_max, l_max)
        assert basis.lam(spec.values).tobytes() == ref.lam(spec.values).tobytes()
        for alpha in (2.2, 3.0, 5.5):
            assert basis.k(alpha).tobytes() == ref.k(alpha).tobytes()
            for got, want in zip(basis.k_derivs(alpha), ref.k_derivs(alpha)):
                assert got.tobytes() == want.tobytes()

    # l_max 1024 ends on a block boundary, 1000 inside a block, 61 before the first
    @pytest.mark.parametrize("c_b", [1.0, 2.0])
    @pytest.mark.parametrize("band", ["full", "narrow"])
    @pytest.mark.parametrize("l_max", [1024, 1000, 61])
    @pytest.mark.parametrize("window", VIEW_WINDOWS, ids=str)
    def test_view_grid_matches_own_matrix_grid(self, fresh_store, window, l_max, band, c_b):
        # the table's block products span all of M's rows, the running sum's
        # only the basis's, and BLAS may order a product's terms by its width:
        # the two agree to a few ulps, not bit for bit
        full = select_j_range(l_max, window)
        j0 = full.j0 if band == "full" else max(full.j0, full.jL - 1)
        basis = LevelBasis(window, JRange(j0=j0, jL=full.jL, c_b=c_b), l_max)
        ref = _contiguous(basis)
        for search in ((2.001, 10.0), (-1.5, 4.25)):
            grid, k = basis.k_linspace(*search)
            own_grid, own = ref.k_linspace(*search)
            assert own_grid == grid and kept(fresh_store, "table")[(window, c_b) + search][2] is grid
            assert np.max(np.abs(k / own - 1.0)) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("kind", ["full", "narrow", "plugin"])
    def test_fit_after_clearing_caches_matches_warm(self, monkeypatch, kind, canonical_model):
        spec = chi2_spectrum(canonical_model, 3000, 5)
        fits = {
            "full": lambda: whittle.fit_full_band(spec, MEX),
            "narrow": lambda: whittle.fit_narrow_band(spec, MEX, g=0.5),
            "plugin": lambda: whittle.plug_in(spec, p=2, b_std=2.0, b_mex=2.0),
        }
        fits[kind]()
        warm = pickle.dumps(fits[kind]())  # floats pickle as their 8 bytes
        monkeypatch.setattr(needlet, "_KEPT", needlet.Kept(needlet.KEPT_BYTES))
        assert pickle.dumps(fits[kind]()) == warm

    def test_cache_within_its_byte_bound(self, fresh_store):
        # the sweep of the table bound test, for the matrices M
        requested = 0
        for B in np.linspace(1.5, 3.0, 30):
            for window in (MexicanWindow(p=2, B=float(B)), StandardWindow(B=float(B))):
                LevelBasis(window, select_j_range(4096, window), 4096).k_linspace(2.001, 10.0)
                requested += needlet._nbytes(fresh_store.get(("weights", window, 1.0)))
                held_within_bound(fresh_store)
        assert requested > 4 * needlet.KEPT_BYTES  # the bound did evict matrices

    @pytest.mark.parametrize("window", VIEW_WINDOWS, ids=str)
    def test_low_and_tall_requests_read_one_matrix(self, fresh_store, window):
        # M is built once, for every level resolved at the cap, and never
        # replaced: a low request and a tall one read the same M object
        full = select_j_range(harmonic.DEFAULT_LMAX_CAP, window)  # its top is M's
        low = LevelBasis(window, JRange(j0=full.j0, jL=full.j0 + 1), 1024)
        m, n = fresh_store.get(("weights", window, 1.0))
        assert m.shape == (full.jL, harmonic.DEFAULT_LMAX_CAP) and not m.flags.writeable
        assert n.shape == (full.jL,) and not n.flags.writeable
        assert low.m is m and low.w.base is m
        assert LevelBasis(window, JRange(j0=full.j0, jL=full.j0), 64).w.base is m
        tall = LevelBasis(window, full, harmonic.DEFAULT_LMAX_CAP)
        assert tall.m is m and tall.w.base is m
        assert fresh_store.get(("weights", window, 1.0))[0] is m
        for basis in (low, tall):
            assert basis.w.tobytes() == _contiguous(basis).w.tobytes()
            assert basis.n.base is n

    @pytest.mark.parametrize(
        "window, j_range, l_max",
        [
            (MEX, JRange(j0=16, jL=16), 100_000),  # past the cap
            (StandardWindow(B=1.1), JRange(j0=14, jL=71), 1024),  # B near 1: M past its bound
            (MexicanWindow(p=2, B=1.305), JRange(j0=1, jL=20), 1024),  # 32 levels at the cap
        ],
        ids=["past-the-cap", "B-near-1", "32-levels"],
    )
    def test_request_past_the_bound_keeps_nothing(self, fresh_store, window, j_range, l_max):
        basis = LevelBasis(window, j_range, l_max)
        assert not fresh_store._entries and basis.m is None
        assert basis.n.tobytes() == _contiguous(basis).n.tobytes()
        assert basis.w.flags.c_contiguous
        assert basis.w.tobytes() == _former_list_build(window, j_range, l_max).tobytes()
        assert basis.log_l.tobytes() == _contiguous(basis).log_l.tobytes()


@pytest.mark.host_bits
class TestKept:
    """The stores of arrays kept between calls, ``needlet.Kept``: the rule,
    the kinds of the fit's store ``needlet._KEPT``, a synthesis beside it, and
    a level-6 field from fresh stores against a warm one byte for byte (fits:
    ``TestWeightMatrix``).  Both sides are computed on
    one host, so these hold under numpy's AVX-512 and AVX2 loops alike (CI
    reruns them with AVX-512 off)."""

    def test_oldest_go_first(self):
        store = needlet.Kept(1024)
        for key in "abc":
            store.put(key, np.zeros(48))  # 384 bytes each
        assert store.get("a") is None and store.nbytes == 768
        assert store.get("b") is not None and store.get("c") is not None

    def test_put_again_replaces(self):
        store = needlet.Kept(1024)
        store.put("a", np.zeros(16))
        store.put("b", (2.0, np.zeros(16)))  # only the arrays of an entry count
        wider = np.zeros(48)
        store.put("a", wider)  # replaces, and "a" is now the newest
        assert store.get("a") is wider and store.nbytes == 512
        store.put("c", np.zeros(64))
        store.put("d", np.zeros(16))  # 1152 bytes: the oldest, "b", goes
        assert store.get("b") is None and store.get("a") is wider
        assert store.nbytes == 1024

    def test_kinds_never_collide(self, fresh_store):
        # M and its grid table share (window, c_b), and the table's key ends in
        # the search range (start, stop): two kinds, each entry under its own
        LevelBasis(MEX, JRange(j0=1, jL=9), 1024).k_linspace(2.001, 10.0)
        top = select_j_range(harmonic.DEFAULT_LMAX_CAP, MEX).jL
        assert {key[0] for key in fresh_store._entries} == {"weights", "table"}
        m, n = fresh_store.get(("weights", MEX, 1.0))
        assert m.shape == (top, harmonic.DEFAULT_LMAX_CAP) and n.shape == (top,)
        table, alphas, grid = fresh_store.get(("table", MEX, 1.0, 2.001, 10.0))
        assert table.shape == (harmonic.DEFAULT_LMAX_CAP // needlet._GRID_BLOCK + 1, GRID_POINTS, top)
        assert alphas.shape == (GRID_POINTS,) and len(grid) == GRID_POINTS
        assert len(fresh_store._entries) == 2

    def test_two_kinds_after_fits(self, fresh_store, canonical_model):
        # full, narrow and plug-in fits at several band limits on both windows
        # keep only (M, N) under "weights" and (table, alphas, grid) under
        # "table", every array read-only
        for l_max in (256, 1000, 4133, 8192):
            spec = chi2_spectrum(canonical_model, l_max, l_max)
            for window in (MEX, STD, MexicanWindow(p=1, B=3.0), StandardWindow(B=1.5)):
                whittle.fit_full_band(spec, window)
                whittle.fit_narrow_band(spec, window, g=0.5)
            whittle.plug_in(spec, p=2, b_std=2.0, b_mex=2.0)
        assert {key[0] for key in fresh_store._entries} == {"weights", "table"}
        for (m, n) in kept(fresh_store, "weights").values():
            assert m.shape == (len(n), harmonic.DEFAULT_LMAX_CAP) and n.ndim == 1
        for (table, alphas, grid) in kept(fresh_store, "table").values():
            assert table.shape[1] == len(alphas) == len(grid) == GRID_POINTS
            assert grid == tuple(alphas.tolist())
        for entry in fresh_store._entries.values():
            assert all(not arr.flags.writeable for arr in needlet._arrays(entry))

    @pytest.mark.parametrize(
        "window, l_max, j0",
        [(MexicanWindow(p=2, B=1.1), 1024, None), (StandardWindow(B=1.1), 1024, None),
         (MEX, 1024, 0), (STD, 1024, 0), (MEX, 9000, None), (STD, 9000, None)],
        ids=["mexican-B-1.1", "compact-B-1.1", "mexican-j0-0", "compact-j0-0",
             "mexican-9000", "compact-9000"],
    )
    def test_own_matrix_fit_leaves_the_store(self, fresh_store, canonical_model, window, l_max, j0):
        # a basis with a matrix of its own computes its N_j and grid on each
        # call: after a warm-up fit, its fit leaves every kept entry as it was
        whittle.fit_full_band(chi2_spectrum(canonical_model, 1024, 1), MEX)
        before = dict(fresh_store._entries)
        spec = chi2_spectrum(canonical_model, l_max, 2)
        j_range = None if j0 is None else JRange(j0=j0, jL=select_j_range(l_max, window).jL)
        fit = whittle.fit_full_band(spec, window, j_range=j_range)
        assert compute_statistics(spec, window, fit.j_range_used).basis.m is None
        assert list(fresh_store._entries) == list(before)
        assert all(fresh_store.get(key) is value for key, value in before.items())

    def test_field_from_a_fresh_store_matches_warm(self, monkeypatch, canonical_model):
        grid = sphere.build_grid(6, 2.0)
        alm = harmonic.simulate_alm(canonical_model, MEX.effective_lmax(6, 4096), 3)
        field = lambda: sphere.synthesize_beta(alm, grid, p=2, B=2.0).values.tobytes()
        field()
        warm = field()
        blocks = needlet.Kept(needlet.KEPT_BYTES)
        monkeypatch.setattr(needlet, "_KEPT", needlet.Kept(needlet.KEPT_BYTES))
        monkeypatch.setattr(sphere, "_BLOCKS", blocks)
        assert field() == warm
        assert len(blocks._entries) == -(-MEX.effective_lmax(6, 4096) // sphere._DEGREE_BLOCK)

    def test_synthesis_leaves_the_fit_arrays(self, fresh_store, canonical_model):
        # degree 900's 113 Legendre blocks, ~6.5 MB, pass their own store's
        # bound and evict there: the fit's kept arrays stay as they were
        whittle.fit_full_band(chi2_spectrum(canonical_model, 1024, 1), MEX)
        before = dict(fresh_store._entries)
        sphere.legendre_table(900, np.cos(np.linspace(0.1, 3.0, 2)))
        assert 0 < len(sphere._BLOCKS._entries) < -(-900 // sphere._DEGREE_BLOCK)
        assert fresh_store._entries.keys() == before.keys()
        assert all(fresh_store.get(key) is value for key, value in before.items())


class TestNarrowBandJ1:
    def test_round_half_up_at_tie(self):
        # log1p(-g) / log B is exactly -1/2 at (B, g) = (4, 1/2) and -3/2 at
        # (4, 7/8): both ties round up, where round-half-even would go down
        assert math.log1p(-0.875) / math.log(4.0) == -1.5
        assert narrow_band_j1(6, 0.875, 4.0) == 5
        assert math.log1p(-0.5) / math.log(4.0) == -0.5
        assert narrow_band_j1(4, 0.5, 4.0) == 4

    def test_off_tie(self):
        assert narrow_band_j1(9, 0.5, 2.0) == 8
        assert narrow_band_j1(9, 0.75, 2.0) == 7
        assert narrow_band_j1(9, 1.0 / 729.0, 2.0) == 9


class TestLambdaHat:
    def test_zero_spectrum(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 256)
        spec.values[:] = 0.0
        assert lambda_hat(spec, MEX, 4) == 0.0

    def test_noise_free_matches_kj(self, canonical_model):
        # c-hat = C exactly implies lambda = g0 N_j K_j(alpha0) to rounding
        spec = noise_free_spectrum(canonical_model, 1024)
        for j in (3, 6, 9):
            lam = lambda_hat(spec, MEX, j)
            expected = 1.0 * 2.0 ** (2.0 * j) * _basis(MEX, j, 1024).k(3.0)[0]
            assert lam == pytest.approx(expected, rel=1e-13)

    def test_unbiased(self, canonical_model):
        # Monte Carlo mean within 4 SE of sum w_l C_l over 2000 chi-square draws
        j, l_max, n = 5, 256, 2000
        ls = np.arange(1, l_max + 1, dtype=float)
        w = MEX.window_sq(ls / 2.0**j) * (2 * ls + 1)
        cl = c_l(canonical_model, np.arange(1, l_max + 1))
        target = float(np.sum(w * cl))
        draws = np.array(
            [lambda_hat(chi2_spectrum(canonical_model, l_max, (31, s)), MEX, j) for s in range(n)]
        )
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - target) < 4 * se

    def test_variance_law(self, canonical_model):
        # Var(lambda_j) B^(-2(1-alpha0)j) -> 2 G0^2 Gamma(4p+1-a0) / 4^(4p+1-a0),
        # within 10% for B^j in {64, 128, 256} over 2000 draws
        limit = 2.0 * math.gamma(6.0) / 4.0 ** (8 + 1 - 3)
        n = 2000
        for j in (6, 7, 8):
            l_max = MEX.effective_lmax(j, 10**9)
            draws = np.array(
                [
                    lambda_hat(chi2_spectrum(canonical_model, l_max, (47, j, s)), MEX, j)
                    for s in range(n)
                ]
            )
            scaled = draws.var(ddof=1) * 2.0 ** (-2 * (1 - 3.0) * j)
            assert scaled == pytest.approx(limit, rel=0.10)

    def test_covariance_law(self, canonical_model):
        # adjacent-level covariance matches the variance limit times tau_B within
        # 15%; at |dj| = 2 the target is ~1% of the variance scale and 2000
        # replications only support a 4-sigma consistency band
        j, n = 6, 2000
        l_max = MEX.effective_lmax(j + 2, 10**9)
        lam = {dj: np.empty(n) for dj in (0, 1, 2)}
        for s in range(n):
            spec = chi2_spectrum(canonical_model, l_max, (53, s))
            for dj in lam:
                lam[dj][s] = lambda_hat(spec, MEX, j + dj)
        limit = 2.0 * math.gamma(6.0) / 4.0**6 * 2.0 ** (2 * (1 - 3.0) * j)
        cov1 = float(np.cov(lam[0], lam[1])[0, 1])
        assert cov1 == pytest.approx(limit * tau_b(1, 2, 2.0, 3.0), rel=0.15)
        cov2 = float(np.cov(lam[0], lam[2])[0, 1])
        target2 = limit * tau_b(2, 2, 2.0, 3.0)
        se2 = math.sqrt(
            (lam[0].var(ddof=1) * lam[2].var(ddof=1) + cov2**2) / n
        )
        assert abs(cov2 - target2) < 4 * se2

    def test_sigma0_consistency(self):
        # the variance-law limit equals sigma0^2 times the squared K limit scale
        p, a0 = 2, 3.0
        lhs = 2.0 * math.gamma(4 * p + 1 - a0) / 4.0 ** (4 * p + 1 - a0)
        rhs = sigma0_sq(p, a0) * i_ps(p, a0) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSelectJRange:
    def test_default_policy(self):
        r = select_j_range(1024, MEX)
        assert (r.j0, r.jL) == (1, 9)

    def test_boundary(self):
        r = select_j_range(4, MEX)
        assert (r.j0, r.jL) == (1, 1)

    def test_cube(self):
        r = select_j_range(8, MEX)
        assert (r.j0, r.jL) == (1, 2)

    def test_standard_clamped_to_support(self):
        # non-power l_max would round the top level past the compact support
        r = select_j_range(1000, STD)
        assert 2.0 ** (r.jL + 1) <= 1000

    def test_too_small_lmax(self):
        with pytest.raises(DomainError):
            select_j_range(3, MEX)

    def test_custom_thresholds_verbatim(self):
        # the displayed threshold choices do not reproduce the J0 = 1 /
        # B^JL = l_max/B arithmetic exactly: applying them verbatim at
        # (p=2, B=2, l_max=1024) lands one level off on both ends
        B, p, L = 2.0, 2, 1024
        eps1 = B ** (-2 * p) * math.exp((B - 1) / B**2)
        eps2 = B ** (-2 * p) * math.exp(B**2 * (B**2 - 1))
        r = select_j_range(L, MEX, thresholds=(eps1, eps2))
        assert (r.j0, r.jL) == (0, 10)

    def test_empty_range(self):
        with pytest.raises(DomainError):
            JRange(j0=5, jL=4)

    @staticmethod
    def _former_top_level(l_max, window):
        """JRange.jL as found before the bisection: lowered one level at a time."""
        B = window.B
        jL = int(math.floor(math.log(l_max / B) / math.log(B) + 0.5))
        while jL > 1 and not window.resolved(jL, l_max):
            jL -= 1
        return jL

    @pytest.mark.parametrize("B", [1.05, 1.1, math.sqrt(2.0), 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("kind", ["mexican", "standard"])
    def test_top_level_matches_former_loop(self, B, kind):
        window = MexicanWindow(p=2, B=B) if kind == "mexican" else StandardWindow(B=B)
        for l_max in (4, 64, 1000, 1024, 8192):
            if l_max < B * B:
                with pytest.raises(DomainError):
                    select_j_range(l_max, window)
                continue
            assert select_j_range(l_max, window).jL == self._former_top_level(l_max, window)

    @pytest.mark.parametrize("window", [MexicanWindow(p=2, B=1 + 1e-7), StandardWindow(B=1 + 1e-7)])
    def test_top_level_in_log_steps(self, window):
        # the former loop took ~4 s here, one level per step
        start = time.perf_counter()
        select_j_range(8192, window)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize(
        "B, l_max, expected",
        [(2.0, 1024, (1, 9)), (2.0, 8192, (1, 12)), (3.0, 1024, (1, 5)), (3.0, 8192, (1, 7))],
    )
    def test_compact_ranges_unchanged_at_b_2_and_3(self, B, l_max, expected):
        r = select_j_range(l_max, StandardWindow(B=B))
        assert (r.j0, r.jL) == expected

    def test_compact_top_level_support_ending_at_l_max(self, canonical_model):
        # level 9's support (256, 1024) ends at l = 1023, inside the band
        window = StandardWindow(B=2.0)
        r = select_j_range(1023, window)
        assert (r.j0, r.jL) == (1, 9)
        check_levels(window, r, 1023)
        fit = fit_full_band(noise_free_spectrum(canonical_model, 1023), window)
        assert fit.j_range_used == r
        assert abs(fit.alpha_hat - canonical_model.alpha0) <= 1e-12

    # default mexican tops (J0 is 1) at l_max 64, 1000, 1023, 1024, 4095, 8192
    MEXICAN_TOPS = {
        1.1: (39, 68, 69, 69, 83, 90),
        math.sqrt(2.0): (10, 18, 18, 18, 22, 24),
        2.0: (5, 9, 9, 9, 11, 12),
        3.0: (3, 5, 5, 5, 7, 7),
    }

    @pytest.mark.parametrize("B", list(MEXICAN_TOPS))
    def test_mexican_default_ranges_pinned(self, B):
        window = MexicanWindow(p=2, B=B)
        got = [select_j_range(l_max, window) for l_max in (64, 1000, 1023, 1024, 4095, 8192)]
        assert [(r.j0, r.jL) for r in got] == [(1, jL) for jL in self.MEXICAN_TOPS[B]]

    @pytest.mark.parametrize(
        # empty levels: {1}; {1, 2, 3, 5}; {1-6, 9, 10, 13}
        "B, j0",
        [(math.sqrt(2.0), 2), (2.0**0.25, 6), (1.1, 14)],
    )
    def test_compact_start_past_every_empty_level(self, B, j0, canonical_model):
        window = StandardWindow(B=B)
        r = select_j_range(256, window)
        assert r.j0 == j0
        assert window.empty(j0 - 1, 256)
        basis = LevelBasis(window, r, 256)
        assert basis.w.any(axis=1).all()
        fit = fit_full_band(noise_free_spectrum(canonical_model, 256), window)
        assert fit.alpha_hat == pytest.approx(canonical_model.alpha0, abs=1e-5)


class TestCheckLevels:
    @pytest.mark.parametrize(
        "window, lowest",
        [(MEX, -2), (STD, 0)],  # mexican: B^j cutoff_x > 1; compact: B^(j+1) > 1
    )
    def test_both_ends_of_the_band(self, window, lowest):
        top = select_j_range(256, window).jL
        check_levels(window, JRange(j0=lowest, jL=top), 256)
        for j_range, bad in (
            (JRange(j0=lowest - 1, jL=top), lowest - 1),
            (JRange(j0=lowest, jL=top + 1), top + 1),
        ):
            message = rf"level j={bad} of {re.escape(repr(window))}.*l_max=256"
            with pytest.raises(TruncationError, match=message):
                check_levels(window, j_range, 256)
            with pytest.raises(TruncationError):
                LevelBasis(window, j_range, 256)

    @pytest.mark.parametrize("B", [1.05, 1.1, 2.0**0.25, 1.3, math.sqrt(2.0), 2.0])
    def test_empty_matches_basis_rows(self, B):
        window = StandardWindow(B=B)
        j_range = JRange(j0=0, jL=select_j_range(1024, window).jL)
        rows = _former_list_build(window, j_range, 1024)
        for j, row in zip(j_range.levels(), rows):
            assert window.empty(j, 1024) == (not row.any()), j

    def test_level_without_multipole(self):
        # level 1's support (1, 2) at B = sqrt 2 holds no integer l
        window = StandardWindow(B=math.sqrt(2.0))
        message = rf"level j=1 of {re.escape(repr(window))} has no multipole"
        with pytest.raises(TruncationError, match=message):
            check_levels(window, JRange(j0=1, jL=6), 256)
        check_levels(window, JRange(j0=2, jL=6), 256)

    def test_level_past_float_range(self):
        # 2.0 ** 1100 overflows a float: the level lies above any band
        with pytest.raises(TruncationError, match="level j=1100"):
            check_levels(MEX, JRange(j0=1100, jL=1101), 256)

    def test_level_count_capped_before_allocation(self):
        window = MexicanWindow(p=2, B=1.00001)
        j_range = select_j_range(8192, window)
        assert j_range.jL - j_range.j0 + 1 > 800_000
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                LevelBasis(window, j_range, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def reference_check_levels(window, j_range, l_max):
    """``check_levels`` as a walk over every level of the range, ``resolved``
    then, for the compact window, ``empty``: the form the range-end test of
    ``resolved`` replaced."""
    size = (j_range.jL - j_range.j0 + 1) * l_max
    if size > needlet.BASIS_CAP:
        raise ResourceLimitError(
            f"levels [{j_range.j0}, {j_range.jL}] x l_max={l_max}: {size} weights > cap {needlet.BASIS_CAP}"
        )
    for j in range(j_range.j0, j_range.jL + 1):
        try:
            resolved = window.resolved(j, l_max)
        except OverflowError:
            resolved = False
        if not resolved:
            raise TruncationError(f"level j={j} of {window} is outside the band 1..l_max={l_max}")
        if isinstance(window, StandardWindow) and window.empty(j, l_max):
            raise TruncationError(f"level j={j} of {window} has no multipole of nonzero weight")


def _check_outcome(check, window, j_range, l_max):
    """None when the range passes, else the exception's type and message."""
    try:
        check(window, j_range, l_max)
    except (ResourceLimitError, TruncationError) as exc:
        return type(exc), str(exc)
    return None


CHECK_WINDOWS = [
    *(MexicanWindow(p=p, B=B) for p in (1, 2, 4) for B in (1.05, math.sqrt(2.0), 2.0, 3.0)),
    *(StandardWindow(B=B) for B in (1.05, 1.5, 2.0, 3.0)),
]


@pytest.mark.host_bits
class TestCheckLevelsAtRangeEnds:
    @pytest.mark.parametrize("l_max", [4, 64, 1023, 8192, 50_000])
    @pytest.mark.parametrize("window", CHECK_WINDOWS, ids=str)
    def test_matches_reference_walk(self, window, l_max):
        # range ends below, inside and above the resolved interval, single
        # levels, j <= 0, a level past the float range (2^1100 overflows) and
        # a range past BASIS_CAP
        resolved = [j for j in range(-3, 400) if window.resolved(j, l_max)]
        top = resolved[-1] if resolved else 1
        ends = sorted({-2, 0, 1, 2, top // 2, top - 1, top, top + 1, 1100})
        ranges = [JRange(j0=a, jL=b) for a in ends for b in ends if a <= b]
        ranges.append(JRange(j0=1, jL=needlet.BASIS_CAP // l_max + 1))  # past BASIS_CAP
        failing = 0
        for j_range in ranges:
            want = _check_outcome(reference_check_levels, window, j_range, l_max)
            assert _check_outcome(check_levels, window, j_range, l_max) == want, j_range
            failing += want is not None
        assert 0 < failing < len(ranges)

    def test_resolved_levels_are_one_interval(self):
        # the range-end rule reads resolved at j0 and jL only
        for window in CHECK_WINDOWS:
            for l_max in (4, 64, 1023, 8192, 50_000):
                resolved = [j for j in range(-40, 400) if window.resolved(j, l_max)]
                assert resolved == list(range(resolved[0], resolved[-1] + 1)), (window, l_max)


class TestLevelCounts:
    def test_counts_kept_read_only(self, fresh_store):
        # a view of M reads its N_j as a slice of M's, at any band limit
        for c_b in (1.0, 2.0):
            j_range = JRange(j0=2, jL=9, c_b=c_b)
            basis = LevelBasis(MEX, j_range, 1024)
            want = np.array([j_range.n_j(j, MEX.B) for j in j_range.levels()])
            assert basis.n.tobytes() == want.tobytes()
            assert basis.n_sum == float(want.sum())
            n = fresh_store.get(("weights", MEX, c_b))[1]
            assert basis.n.base is n and LevelBasis(MEX, j_range, 8192).n.base is n
            with pytest.raises(ValueError):
                basis.n[0] = 1.0


class TestOneSource:
    """``_matrix`` forms every level quantity once: each row's N_j and its
    ``support`` read, and every basis with L <= the cap slices one log table."""

    def _counted(self, monkeypatch, cls, name):
        calls = []
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *args: calls.append(args) or method(self, *args))
        return calls

    @pytest.mark.parametrize(
        "window, l_max",
        [(MEX, 1024), (STD, 4096), (MexicanWindow(p=2, B=1.1), 1024), (MEX, 9000)],
        ids=["view", "compact-view", "own-B-1.1", "own-past-cap"],
    )
    def test_counts_formed_once_per_row(self, fresh_store, monkeypatch, canonical_model, tmp_path, window, l_max):
        # a cold fit, a lambda_hat and a to_csv form N_j for the rows _matrix
        # built, and nowhere else
        n_j = self._counted(monkeypatch, JRange, "n_j")
        rows = []
        matrix = needlet._matrix
        monkeypatch.setattr(needlet, "_matrix", lambda *args: rows.append(len(args[1].levels())) or matrix(*args))
        spec = chi2_spectrum(canonical_model, l_max, 7)
        fit = fit_full_band(spec, window)
        lambda_hat(spec, window, fit.j_range_used.jL)
        compute_statistics(spec, window, fit.j_range_used).to_csv(tmp_path / "stats.csv")
        assert rows and len(n_j) == sum(rows)

    @pytest.mark.parametrize("window", [MEX, STD], ids=str)
    def test_support_read_once_per_row(self, monkeypatch, window):
        j_range = select_j_range(1024, window)
        support = self._counted(monkeypatch, type(window), "support")
        needlet._matrix(window, j_range, 1024)
        assert len(support) == len(j_range.levels())
        if isinstance(window, StandardWindow):
            support.clear()
            for j in j_range.levels():
                window.empty(j, 1024)
            assert len(support) == len(j_range.levels())

    @pytest.mark.parametrize(
        "j_range, l_max", [(JRange(j0=0, jL=9), 1024), (JRange(j0=1, jL=9), 8192)], ids=["own", "view"]
    )
    def test_log_table_sliced_up_to_the_cap(self, fresh_store, j_range, l_max):
        basis = LevelBasis(MEX, j_range, l_max)
        assert basis.log_l.base is needlet._LOG_L
        assert LevelBasis(MEX, select_j_range(9000, MEX), 9000).log_l.base is None  # past the cap: its own

    @pytest.mark.host_bits
    def test_log_table_equals_fresh_logs(self):
        # a slice of the table has the bytes of np.log over its own length,
        # whatever SIMD loop and tail that length takes
        for size in range(1, harmonic.DEFAULT_LMAX_CAP + 1):
            fresh = np.log(np.arange(1, size + 1, dtype=float))
            assert needlet._LOG_L[:size].tobytes() == fresh.tobytes(), size


class TestAlphaGrid:
    @pytest.mark.parametrize("search", [(2.001, 10.0), (-1.5, 4.25)])
    @pytest.mark.parametrize("own", [False, True], ids=["view", "own"])
    def test_equals_linspace(self, fresh_store, search, own):
        # from M's kept table for a view, computed on each call for a basis
        # with a matrix of its own
        basis = LevelBasis(MEX, JRange(j0=0 if own else 1, jL=9), 1024)
        assert (basis.m is None) == own
        grid, _ = basis.k_linspace(*search)
        assert grid == tuple(np.linspace(*search, GRID_POINTS).tolist())
        if not own:
            _, alphas, kept_grid = fresh_store.get(("table", MEX, 1.0, *search))
            assert alphas.tobytes() == np.linspace(*search, GRID_POINTS).tobytes()
            assert kept_grid is grid and basis.k_linspace(*search)[0] is grid
            with pytest.raises(ValueError):
                alphas[0] = 0.0


class TestComputeStatistics:
    def test_single_level(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 256)
        stats = compute_statistics(spec, MEX, JRange(j0=4, jL=4))
        assert stats.lam.shape == (1,)
        assert stats.lam[0] == pytest.approx(lambda_hat(spec, MEX, 4), rel=1e-15)

    def test_csv(self, canonical_model, tmp_path):
        spec = noise_free_spectrum(canonical_model, 256)
        stats = compute_statistics(spec, MEX, JRange(j0=3, jL=5))
        path = tmp_path / "stats.csv"
        stats.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,B_pow_j,N_j,lambda_hat"
        assert len(lines) == 4
