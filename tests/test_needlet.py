import math
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
    k_j,
    k_j_deriv,
    lambda_hat,
    select_j_range,
    window_sq,
)
from needlet_whittle.asymptotics import i_ps, sigma0_sq, tau_b
from needlet_whittle.needlet import LevelBasis, _bump_cdf, check_levels, narrow_band_j1

from conftest import chi2_spectrum, noise_free_spectrum

MEX = MexicanWindow(p=2, B=2.0)
STD = StandardWindow(B=2.0)


class TestWindows:
    def test_mexican_values(self):
        assert window_sq(MEX, 0.0) == 0.0
        assert window_sq(MEX, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_mexican_argmax_at_sqrt_p(self):
        for p in (1, 2, 5):
            w = MexicanWindow(p=p, B=2.0)
            x = np.linspace(0.01, 6.0, 20_000)
            assert x[np.argmax(w.window_sq(x))] == pytest.approx(math.sqrt(p), abs=2e-3)

    def test_standard_support(self):
        x = np.array([0.4, 0.499999, 2.000001, 5.0])
        assert np.all(window_sq(STD, x) == 0.0)
        inside = np.linspace(0.51, 1.99, 50)
        assert np.all(window_sq(STD, inside) > 0.0)

    def test_standard_golden_values(self):
        # bump symmetry pins the mid-profile values exactly
        assert window_sq(STD, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert window_sq(STD, 0.75) == pytest.approx(0.5, abs=1e-12)
        assert window_sq(STD, 1.5) == pytest.approx(0.5, abs=1e-12)

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

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            window_sq(MEX, -0.5)

    @pytest.mark.parametrize("B", [1.0, 0.5, -2.0, math.inf, math.nan])
    @pytest.mark.parametrize("window", [MexicanWindow, StandardWindow])
    def test_b_finite_above_one(self, window, B):
        with pytest.raises(DomainError, match="B must be finite and exceed 1"):
            window(B=B)

    def test_field_defaults(self):
        assert MexicanWindow() == MexicanWindow(p=2, B=2.0)
        assert StandardWindow() == StandardWindow(B=2.0)


class TestKj:
    def test_doubling_cb_halves(self):
        a = k_j(MEX, 5, 3.0, 2048)
        b = k_j(MEX, 5, 3.0, 2048, c_b=2.0)
        assert b == pytest.approx(a / 2.0, rel=1e-15)

    def test_limit_constant(self):
        # B^(alpha j) k_j approaches i_ps(p, alpha) within 1% by B^j = 256
        got = k_j(MEX, 8, 3.0, 4096) * 2.0 ** (3.0 * 8)
        assert got == pytest.approx(i_ps(2, 3.0), rel=0.01)

    def test_standard_support_exceeds_lmax(self):
        with pytest.raises(TruncationError):
            k_j(STD, 9, 3.0, 512)  # support ends at B^10 = 1024 > 512

    def test_mexican_peak_beyond_lmax(self):
        with pytest.raises(TruncationError):
            k_j(MEX, 10, 3.0, 1024)  # peak at sqrt(2) * 1024 > 1024

    def test_tail_check_fires(self):
        # at j = 9 and l_max = 1024 the dropped gaussian tail is percent-level
        with pytest.raises(TruncationError):
            k_j(MEX, 9, 3.0, 1024)
        # disabling the check gives the truncation-consistent estimator value
        assert k_j(MEX, 9, 3.0, 1024, check_tail=False) > 0

    def test_truncation_soundness(self, canonical_model):
        # once the tail bound passes, doubling l_max moves k_j (and lambda_hat
        # on noise-free data) by < 1e-10 relative
        a = k_j(MEX, 8, 3.0, 1400)
        b = k_j(MEX, 8, 3.0, 2800)
        assert abs(a - b) / b < 1e-10
        la = lambda_hat(noise_free_spectrum(canonical_model, 1400), MEX, 8)
        lb = lambda_hat(noise_free_spectrum(canonical_model, 2800), MEX, 8)
        assert abs(la - lb) / lb < 1e-10

    def test_finite_difference_derivative(self):
        h = 1e-4
        for order, fd in (
            (1, (k_j(MEX, 6, 3.0 + h, 4096) - k_j(MEX, 6, 3.0 - h, 4096)) / (2 * h)),
            (
                2,
                (
                    k_j(MEX, 6, 3.0 + h, 4096)
                    - 2 * k_j(MEX, 6, 3.0, 4096)
                    + k_j(MEX, 6, 3.0 - h, 4096)
                )
                / h**2,
            ),
        ):
            exact = k_j_deriv(MEX, 6, 3.0, 4096, order)
            assert abs(exact - fd) < 1e-6 * abs(exact)

    def test_derivative_asymptotes(self):
        # -k'/k -> j log B + I1/I0 and the second-order analogue, within 1%
        r10 = i_ps(2, 3.0, 1) / i_ps(2, 3.0)
        r20 = i_ps(2, 3.0, 2) / i_ps(2, 3.0)
        for j in (8, 9):
            l_max = int(6 * 2**j)
            k0 = k_j(MEX, j, 3.0, l_max)
            k1 = k_j_deriv(MEX, j, 3.0, l_max, 1)
            k2 = k_j_deriv(MEX, j, 3.0, l_max, 2)
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
            for alpha in (2.2, 3.0, 5.5):
                assert k_j(window, j, alpha, l_max, check_tail=False) == pytest.approx(
                    float(np.sum(w * l**-alpha)) / n, rel=1e-13
                )
                for order, factor in ((1, -np.log(l)), (2, np.log(l) ** 2)):
                    assert k_j_deriv(
                        window, j, alpha, l_max, order, check_tail=False
                    ) == pytest.approx(float(np.sum(w * l**-alpha * factor)) / n, rel=1e-13)
            assert lambda_hat(spec, window, j) == pytest.approx(
                float(np.sum(w * spec.values[1 : len(l) + 1])), rel=1e-13
            )

    def test_compact_rows_share_phi(self):
        # adjacent levels share phi(l/B^k); the rows equal window_sq(l/B^j) bit for bit
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

    @pytest.mark.parametrize("num", [1, 7, 64])
    def test_k_linspace_matches_k(self, num):
        basis = LevelBasis(MEX, select_j_range(8192, MEX), 8192)
        alphas, k = basis.k_linspace(2.001, 10.0, num)
        assert np.array_equal(alphas, np.linspace(2.001, 10.0, num))
        exact = np.array([basis.k(a) for a in alphas])
        assert np.max(np.abs(k / exact - 1.0)) < 1e-13


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
        # c-hat = C exactly implies lambda = g0 N_j k_j(alpha0) to rounding
        spec = noise_free_spectrum(canonical_model, 1024)
        for j in (3, 6, 9):
            lam = lambda_hat(spec, MEX, j)
            expected = 1.0 * 2.0 ** (2.0 * j) * k_j(MEX, j, 3.0, 1024, check_tail=False)
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
