import math

import numpy as np
import pytest
from scipy import special

from needlet_whittle import DomainError, KappaCorrection, PowerSpectrumModel
from needlet_whittle.asymptotics import (
    bias_coeff,
    bias_coeff_reference,
    check_alpha0,
    check_kappa,
    clt_variance,
    constants,
    digamma,
    gauss_moment_w,
    geometric_sum,
    i_ps,
    kj_ratio_limit,
    level_sum_constants,
    narrowband_variance,
    phi_b,
    sigma0_sq,
    sigma1_sq,
    sum_asymptote,
    table1_constants,
    table1_rho0_sq,
    tau_b,
    tau_tildes,
    trigamma,
    v_and_z,
    varsigma0_sq,
)


def quad_log_moment(a, b, s):
    """Adaptive-quadrature oracle for int_0^inf t^2a e^(-b t^2) log^s t dt.

    Split at t = 1 so the (integrable) power/log endpoint behaviour at 0 and
    the gaussian tail are handled separately; tail checked negligible past
    10/sqrt(b) + 10.
    """
    from scipy.integrate import quad

    def f(t):
        v = t ** (2 * a) * math.exp(-b * t * t)
        return v * math.log(t) ** s if s else v

    upper = 10.0 / math.sqrt(b) + 10.0  # integrand is below 1e-30 past here
    lo, _ = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    hi, _ = quad(f, 1.0, upper, epsabs=1e-14, epsrel=1e-13, limit=200)
    return lo + hi


class TestSpecialFunctions:
    def test_digamma_vs_scipy(self):
        for x in np.geomspace(0.1, 50.0, 40):
            assert digamma(x) == pytest.approx(special.psi(x), rel=1e-12, abs=1e-12)

    def test_trigamma_vs_scipy(self):
        for x in np.geomspace(0.1, 50.0, 40):
            assert trigamma(x) == pytest.approx(special.polygamma(1, x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            trigamma(-1.0)


class TestGaussMomentW:
    def test_s0_values(self):
        assert gauss_moment_w(0.5, 1.0, 0) == pytest.approx(0.5, rel=1e-14)
        assert gauss_moment_w(0.0, 1.0, 0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    def test_quadrature_agreement(self):
        # s = 1, 2 against the independent quadrature oracle on an (a, b) grid
        for a in (0.25, 1.0, 2.0, 3.5, 6.0):
            for b in (0.5, 1.0, 2.0):
                for s in (0, 1, 2):
                    got = gauss_moment_w(a, b, s)
                    want = quad_log_moment(a, b, s)
                    assert got == pytest.approx(want, rel=1e-10), (a, b, s)

    def test_example_a2_b2_s1(self):
        assert gauss_moment_w(2.0, 2.0, 1) == pytest.approx(quad_log_moment(2, 2, 1), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_moment_w(-0.5, 1.0, 0)
        with pytest.raises(DomainError):
            gauss_moment_w(1.0, 0.0, 0)


class TestIps:
    def test_closed_form_value(self):
        # p=2, alpha=2: 2^-(2p - alpha/2 + 1) Gamma(2p + 1 - alpha/2) = 0.375
        assert i_ps(2, 2.0) == pytest.approx(0.375, rel=1e-14)

    def test_cb_scaling(self):
        assert i_ps(2, 3.0, c_b=2.0) == pytest.approx(i_ps(2, 3.0) / 2.0, rel=1e-15)

    def test_kj_ratio_dual_forms(self):
        # the exact gamma ratio and the compact power form differ at finite p
        # and approach each other as p grows
        r = kj_ratio_limit(2, alpha=2.5, alpha0=3.0)
        exact = 2.0**0.25 * math.gamma(2 * 2 + 1 - 1.25) / math.gamma(2 * 2 + 1 - 1.5)
        assert r.exact == pytest.approx(exact, rel=1e-14)
        assert r.power_form == pytest.approx(10.0**0.25, rel=1e-14)
        assert r.exact != pytest.approx(r.power_form, rel=1e-3)
        gaps = [
            abs(kj_ratio_limit(p, 2.5, 3.0).exact / kj_ratio_limit(p, 2.5, 3.0).power_form - 1)
            for p in (2, 8, 32)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestSigma0:
    def test_exact_cells(self):
        assert sigma0_sq(2, 2.0) == pytest.approx(0.625, rel=1e-12)
        assert sigma0_sq(3, 2.0) == pytest.approx(0.4921875, rel=1e-12)
        assert sigma0_sq(2, 4.0) == pytest.approx(0.75, rel=1e-12)

    def test_decreasing_in_p(self):
        for a0 in (2.0, 3.0, 4.0):
            vals = [sigma0_sq(p, a0) for p in range(2, 7)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_stirling_scale(self):
        # large-p behaviour ~ 2 / sqrt(pi (2p - a0/2))
        p, a0 = 40, 3.0
        assert sigma0_sq(p, a0) == pytest.approx(
            2.0 / math.sqrt(math.pi * (2 * p - a0 / 2)), rel=0.02
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            sigma0_sq(1, 5.5)

    def test_matches_direct_form(self):
        # the direct ratio of gammas, finite up to p 43; the log form's bound,
        # 1e-12, is |lgamma| <~ 800 times double epsilon
        def direct(p, a0):
            num, den = math.gamma(4 * p + 1 - a0), math.gamma(2 * p + 1 - a0 / 2.0)
            return 2.0 / 2.0 ** (4 * p - a0) * num / den**2

        for p in range(1, 44):
            for a0 in np.linspace(2.0, 4 * p + 1, 12)[1:-1]:
                assert sigma0_sq(p, a0) == pytest.approx(direct(p, a0), rel=1e-12)

    def test_finite_at_largest_window_p(self):
        assert sigma0_sq(50, 3.0) == pytest.approx(0.11355, rel=1e-4)


class TestTauB:
    def test_zero_offset(self):
        assert tau_b(0, 2, 2.0, 3.0) == 1.0

    def test_hand_value(self):
        # cosh(log 2) = 5/4 exactly
        assert tau_b(1, 2, 2.0, 3.0) == pytest.approx(2.0**-2 * 1.25**-6, rel=1e-14)
        assert tau_b(1, 2, 2.0, 3.0) == pytest.approx(0.065536, rel=1e-12)

    def test_matches_cross_level_tau(self):
        # tau_{p,2,2} with n = 1 - 2 alpha0 reduces to tau_b
        p, B, a0 = 2, 2.0, 3.0
        n = 1.0 - 2 * a0
        for dj in (-3, -1, 1, 2, 4):
            ap = 4 * p + (n + 1) / 2
            cross = ((2 * B**dj + 2 * B**-dj) / 4.0) ** (-ap) * B ** (dj * (n + 1) / 2.0)
            assert tau_b(dj, p, B, a0) == pytest.approx(cross, rel=1e-12)


class TestSumAsymptote:
    @pytest.mark.parametrize("a,n,B,j", [(4, -5.0, 2.0, 10), (2, -2.0, 2.0, 9), (4, -4.0, 1.5, 16)])
    def test_single_vs_brute(self, a, n, B, j):
        p = 2
        l = np.arange(1, int(10 * B**j) + 1, dtype=float)
        f = (l / B**j) ** (2 * p) * np.exp(-((l / B**j) ** 2))
        brute = float(np.sum(f**a * l**n))
        assert sum_asymptote(a, n, p, B, j) == pytest.approx(brute, rel=1e-4)

    def test_cross_vs_brute(self):
        p, B, j, dj, n = 2, 2.0, 10, 2, -5.0
        l = np.arange(1, int(10 * B ** (j + dj)) + 1, dtype=float)
        f = lambda x: x ** (2 * p) * np.exp(-(x**2))
        brute = float(np.sum(f(l / B**j) ** 2 * f(l / B ** (j + dj)) ** 2 * l**n))
        assert sum_asymptote((2, 2), n, p, B, j, delta_j=dj) == pytest.approx(brute, rel=1e-4)

    def test_cross_reduces_to_single(self):
        assert sum_asymptote((2, 2), -5.0, 2, 2.0, 8) == pytest.approx(
            sum_asymptote(4, -5.0, 2, 2.0, 8), rel=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            sum_asymptote(1, -20.0, 2, 2.0, 5)


class TestGeometricSums:
    def test_plain_sum(self):
        assert geometric_sum(2.0, 2.0, 0, 3) == pytest.approx(85.0, rel=1e-13)

    @pytest.mark.parametrize("moment", [1, 2])
    def test_random_configs_vs_brute(self, moment):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            s = rng.uniform(0.5, 3.0)
            B = rng.uniform(1.2, 3.0)
            j0 = int(rng.integers(-8, 8))
            jL = j0 + int(rng.integers(0, 20))
            brute = math.fsum(
                B ** (s * j) * (j * math.log(B)) ** moment for j in range(j0, jL + 1)
            )
            got = geometric_sum(s, B, j0, jL, moment)
            assert got == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_empty_range(self):
        with pytest.raises(DomainError):
            geometric_sum(1.0, 2.0, 3, 2)


class TestVandZ:
    def test_identity_vs_moment_sums(self):
        for s, B, j0, jL in [(2.0, 2.0, -5, 12), (1.0, 1.5, 0, 20), (2.5, 1.3, 2, 18)]:
            S0 = geometric_sum(s, B, j0, jL, 0)
            S1 = geometric_sum(s, B, j0, jL, 1)
            S2 = geometric_sum(s, B, j0, jL, 2)
            assert v_and_z(s, B, j0, jL).V == pytest.approx(S0 * S2 - S1 * S1, rel=1e-10)

    def test_degenerate_single_level(self):
        assert v_and_z(2.0, 2.0, 4, 4).V == pytest.approx(0.0, abs=1e-6)

    def test_limit(self):
        s, B, jL = 2.0, 2.0, 40
        limit = math.log(B) ** 2 * B ** (3 * s) / (B**s - 1) ** 4
        assert v_and_z(s, B, -jL, jL).z_limit_check == pytest.approx(limit, rel=1e-6)


def brute_sigma(m, p, B, a0, JL, J0):
    lb = math.log(B)
    P = 4 * p + 1 - a0
    total = 0.0
    for j in range(J0, JL + 1):
        djs = np.arange(J0 - j, JL - j + 1, dtype=float)
        inner = float(np.sum(B**djs * np.cosh(djs * lb) ** (-P)))
        total += B ** (2.0 * j) * (j * lb) ** m * inner
    return total


class TestLevelSumConstants:
    def test_sigma_sums_match_brute_force(self):
        # the closed forms built on the kernel moments reproduce the dressed
        # double sums to near machine precision at JL = 20
        for p, B, a0 in [(2, 2.0, 2.0), (2, 2.0, 3.0), (3, math.sqrt(2.0), 3.0)]:
            JL = 20
            lsc = level_sum_constants(p, B, a0)
            lb = math.log(B)
            f = B**2 / (B**2 - 1) * B ** (2.0 * JL)
            closed = (
                f * (1 + lsc.tau0),
                f * lb * ((1 + lsc.tau0) * JL - (1 + lsc.tau1) / (B**2 - 1)),
                f
                * lb**2
                * (
                    (1 + lsc.tau0) * JL**2
                    - 2 * (1 + lsc.tau1) / (B**2 - 1) * JL
                    + (B**2 + 1) / (B**2 - 1) ** 2 * (1 + lsc.tau2)
                ),
            )
            for m in range(3):
                brute = brute_sigma(m, p, B, a0, JL, -JL)
                assert closed[m] == pytest.approx(brute, rel=1e-10), (p, B, a0, m)

    def test_z_combination(self):
        p, B, a0, JL = 2, 2.0, 3.0, 20
        lsc = level_sum_constants(p, B, a0)
        brute = brute_sigma(0, p, B, a0, JL, -JL) * brute_sigma(2, p, B, a0, JL, -JL) - (
            brute_sigma(1, p, B, a0, JL, -JL) ** 2
        )
        closed = (
            B**6 * math.log(B) ** 2 / (B**2 - 1) ** 4 * (1 + lsc.tau_z) * B ** (4.0 * JL)
        )
        assert closed == pytest.approx(brute, rel=1e-9)

    def test_reference_forms_disagree_with_sums(self):
        # the geometric-tail reference constants are far outside 1% of the
        # brute-force sums; this pins why the exact kernel constants exist
        p, B, a0, JL = 2, 2.0, 3.0, 20
        tt = tau_tildes(p, B, a0)
        closed = B**2 / (B**2 - 1) * (1 + tt.tau0) * B ** (2.0 * JL)
        brute = brute_sigma(0, p, B, a0, JL, -JL)
        assert abs(closed - brute) / brute > 0.10

    def test_unconverged_sums_raise(self):
        # the kernel decays like B^(-(P+1) d): at B = 1 + 1e-6 its 1e-18 stop
        # lies millions of terms out, and the truncated sum gave c0 log B =
        # 0.094; at B = 1.001 it stops and c0 log B nears its B -> 1 limit
        with pytest.raises(DomainError, match="B=1.000001"):
            level_sum_constants(2, 1.000001, 3.0)
        lsc = level_sum_constants(2, 1.001, 3.0)
        assert lsc.c0 * math.log(1.001) == pytest.approx(0.389, abs=1e-3)

    def test_unconverged_sums_accepted_on_a_small_tail_bound(self):
        # past 100,000 terms a sum is kept when its geometric tail bound is at
        # most TAIL_TOL of c0: 1.5e-14 at B = 1.00005, 1.6e-11 at 1.00004
        lsc = level_sum_constants(2, 1.00005, 3.0)
        assert lsc.c0 * math.log(1.00005) == pytest.approx(0.389, abs=1e-3)
        with pytest.raises(DomainError, match="B=1.00004"):
            level_sum_constants(2, 1.00004, 3.0)

    def test_kernel_sandwich(self):
        # c0 is bounded by its geometric envelope: tau0_ref (1 + B^-2)^-P
        # <= 2 c0 <= 2 tau0_ref... the two-sided sum over dj is finite
        for p, B, a0 in [(2, 2.0, 3.0), (3, 1.5, 2.5)]:
            P = 4 * p + 1 - a0
            geo = 2.0**P / (B ** (P + 1) - 1)
            lsc = level_sum_constants(p, B, a0)
            assert lsc.c0 <= geo
            assert lsc.c0 >= geo * (1 + B**-2) ** -P
        djs = np.arange(-40, 41, dtype=float)
        total = float(np.sum(2.0**djs * np.cosh(djs * math.log(2.0)) ** (-6.0)))
        assert math.isfinite(total)


class TestTauTildes:
    def test_pinned_reference_values(self):
        tt = tau_tildes(2, 2.0, 2.0)
        assert tt.tau0 == pytest.approx(128.0 / 255.0, rel=1e-14)
        assert tt.tau0 == pytest.approx(0.501961, rel=1e-6)
        assert tt.tau1 == pytest.approx(128.0 * 1023.0 / 255.0**2, rel=1e-14)
        assert tt.tau1 == pytest.approx(2.013748, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            tau_tildes(1, 2.0, 4.5)


class TestCompositeConstants:
    def test_phi_values(self):
        assert phi_b(2.0) == pytest.approx(0.09565, abs=5e-6)
        assert phi_b(2.0) > 0

    def test_phi_positive_on_range(self):
        for B in np.linspace(1.01, 4.0, 100):
            assert phi_b(B) > 0

    def test_varsigma_composition(self):
        p, B, a0 = 2, 2.0, 3.0
        expected = sigma1_sq(p, B, a0) * (B**2 - 1) ** 3 / (B**4 * math.log(B) ** 2)
        assert varsigma0_sq(p, B, a0) == pytest.approx(expected, rel=1e-14)
        # golden value pinned after first computation
        assert varsigma0_sq(p, B, a0) == pytest.approx(3.0233909874, rel=1e-9)

    def test_one_clt_scaling(self):
        # varsigma0_sq and the constants bundle share the one scaling, bit for bit
        for B in (1.5, 2.0, 3.0):
            s1 = sigma1_sq(2, B, 3.0)
            assert varsigma0_sq(2, B, 3.0) == clt_variance(s1, B)
            assert constants(2, B, 3.0).varsigma0_sq == clt_variance(s1, B)
        assert clt_variance(1.0, 2.0) == pytest.approx(27.0 / (16.0 * math.log(2.0) ** 2), rel=1e-15)

    def test_narrowband_composition(self):
        assert narrowband_variance(2, 2.0, 3.0) == pytest.approx(
            sigma1_sq(2, 2.0, 3.0) / phi_b(2.0), rel=1e-14
        )

    def test_bias_zero_kappa(self):
        assert bias_coeff(2, 2.0, 3.0, 0.0) == 0.0

    def test_bias_golden(self):
        # positive for kappa > 0; golden value pinned after verification
        # against exact finite-level expectations and Monte Carlo
        got = bias_coeff(2, 2.0, 3.0, 0.5)
        assert got == pytest.approx(1.3813249189, rel=1e-9)
        rho = i_ps(2, 4.0) / i_ps(2, 3.0)
        assert got == pytest.approx(0.5 * rho * 9.0 / (4.0 * math.log(2.0)), rel=1e-14)

    def test_bias_reference_form(self):
        rho = i_ps(2, 4.0) / i_ps(2, 3.0)
        assert bias_coeff_reference(2, 2.0, 3.0, 0.5) == pytest.approx(
            -0.5 * rho * math.log(2.0) / 3.0, rel=1e-14
        )

    def test_constants_bundle(self):
        c = constants(2, 2.0, 3.0, kappa=0.5)
        assert c.tau_tilde == c.tau_tilde_0
        assert c.sigma1_sq == pytest.approx(c.sigma0_sq * (1 + c.tau_tilde), rel=1e-14)
        assert c.varsigma0_sq == pytest.approx(
            c.sigma1_sq * (2.0**2 - 1) ** 3 / (2.0**4 * math.log(2.0) ** 2), rel=1e-14
        )
        assert c.bias_coeff == pytest.approx(bias_coeff(2, 2.0, 3.0, 0.5), rel=1e-14)


class TestCheckAlpha0:
    @pytest.mark.parametrize("alpha0", [2.0 + 1e-12, 3.0, 1e300])
    def test_accepted(self, alpha0):
        check_alpha0(alpha0)

    @pytest.mark.parametrize("alpha0", [2.0, -5.0, math.inf, -math.inf, math.nan])
    def test_rejected(self, alpha0):
        with pytest.raises(DomainError, match="alpha0 must be finite and exceed 2"):
            check_alpha0(alpha0)

    @pytest.mark.parametrize("alpha0", [2.0, -5.0, math.nan])
    def test_model_and_constants_apply_it(self, alpha0):
        expected = rf"alpha0 must be finite and exceed 2, got {alpha0}$"
        with pytest.raises(DomainError, match=expected):
            PowerSpectrumModel(alpha0=alpha0)
        with pytest.raises(DomainError, match=expected):
            constants(2, 2.0, alpha0)


class TestCheckKappa:
    @pytest.mark.parametrize("kappa", [-0.999, 0.0, 0.5, 1e300])
    def test_accepted(self, kappa):
        check_kappa(kappa)

    @pytest.mark.parametrize("kappa", [-1.0, -2.5, math.inf, -math.inf, math.nan])
    def test_rejected(self, kappa):
        with pytest.raises(DomainError, match="kappa must be finite and exceed -1"):
            check_kappa(kappa)

    @pytest.mark.parametrize("kappa", [-1.0, math.nan])
    def test_model_and_constants_apply_it(self, kappa):
        expected = rf"kappa must be finite and exceed -1, got {kappa}$"
        with pytest.raises(DomainError, match=expected):
            PowerSpectrumModel(alpha0=3.0, correction=KappaCorrection(kappa))
        with pytest.raises(DomainError, match=expected):
            constants(2, 2.0, 3.0, kappa=kappa)


class TestDeltaMethodValidation:
    """Independent finite-level validation of the headline constants.

    Builds the estimator's score as an explicit function of the level
    statistics, propagates the exact chi-square covariance of the empirical
    spectrum through it (no sampling), and compares the resulting variance and
    bias of B^J (alpha-hat - alpha0) with the closed forms.
    """

    @staticmethod
    def _setup(J, kappa=0.0):
        p, B, a0 = 2, 2.0, 3.0
        l_max = int(math.ceil(5.06 * B**J))
        l = np.arange(1, l_max + 1, dtype=float)
        cl = l**-a0 * (1.0 + kappa / l)
        levels = np.arange(1, J + 1)
        W = np.stack([(l / B**j) ** (4 * p) * np.exp(-2 * (l / B**j) ** 2) * (2 * l + 1)
                      for j in levels])
        n = B ** (2.0 * levels)
        return l, cl, W, n

    @staticmethod
    def _score_parts(l, cl, W, n, alpha):
        K0 = W @ l**-alpha / n
        K1 = W @ (l**-alpha * -np.log(l)) / n
        K2 = W @ (l**-alpha * np.log(l) ** 2) / n
        lam = W @ cl  # mean level statistics
        sn = n.sum()
        phi = np.sum(lam / K0) / sn
        dphi = -np.sum(lam * K1 / K0**2) / sn
        score = dphi / phi + np.sum(n * K1 / K0) / sn
        d2phi = np.sum(lam * (2 * K1**2 - K2 * K0) / K0**3) / sn
        hess = (d2phi * phi - dphi**2) / phi**2 + np.sum(n * (K2 * K0 - K1**2) / K0**2) / sn
        # gradient of the score in the level statistics at their mean
        r = K1 / K0
        A = np.sum(lam / K0)
        Bv = np.sum(lam * r / K0)
        grad = (-r / K0 * A + Bv / K0) / A**2
        return score, hess, grad

    def test_varsigma_via_exact_covariance(self):
        J = 12
        l, cl, W, n = self._setup(J)
        _, hess, grad = self._score_parts(l, cl, W, n, 3.0)
        cov = 2.0 * (W * (cl**2 / (2 * l + 1))) @ W.T
        var_alpha = grad @ cov @ grad / hess**2
        got = 2.0 ** (2 * J) * var_alpha
        assert got == pytest.approx(varsigma0_sq(2, 2.0, 3.0), rel=0.01)

    def test_bias_via_exact_expectation(self):
        J = 12
        l, cl, W, n = self._setup(J, kappa=0.5)
        score, hess, _ = self._score_parts(l, cl, W, n, 3.0)
        got = -(2.0**J) * score / hess
        assert got == pytest.approx(bias_coeff(2, 2.0, 3.0, 0.5), rel=0.02)
        # and the sign is positive: the 1/l excess steepens the local slope
        assert got > 0

    def test_reference_bias_form_refuted(self):
        # the reference display has the opposite sign and a ~14x smaller
        # magnitude than the exact finite-level bias
        J = 12
        l, cl, W, n = self._setup(J, kappa=0.5)
        score, hess, _ = self._score_parts(l, cl, W, n, 3.0)
        got = -(2.0**J) * score / hess
        ref = bias_coeff_reference(2, 2.0, 3.0, 0.5)
        assert got * ref < 0
        assert abs(got / ref) > 10


class TestTable1:
    def test_rho_grid_verbatim(self):
        t = table1_constants()
        assert t.rho0_sq[0] == (5.00, 2.24, 1.16)
        assert t.rho0_sq[1] == (5.04, 2.53, 1.34)
        assert t.rho0_sq[2] == (5.10, 2.64, 1.57)

    def test_lookup_exact_cells(self):
        # the nine nodes, bit for bit
        t = table1_constants()
        for i, a0 in enumerate(t.alpha0):
            for k, B in enumerate(t.B):
                assert table1_rho0_sq(a0, B) == t.rho0_sq[i][k]

    def test_lookup_interior_between_corners(self):
        # alpha0 3.1 between the 3 and 4 rows, B 2 on the last column
        assert 1.34 < table1_rho0_sq(3.1, 2.0) < 1.57
        # strictly inside a cell: between its smallest and largest corner
        val = table1_rho0_sq(3.5, 2.0**0.75)
        assert 1.34 < val < 2.64

    def test_lookup_outside_hull_clamped(self):
        assert table1_rho0_sq(5.0, 2.5) == table1_rho0_sq(4.0, 2.0) == 1.57
        assert table1_rho0_sq(1.0, 1.1) == table1_rho0_sq(2.0, 2.0**0.25) == 5.00
        assert table1_rho0_sq(5.0, 2.0**0.5) == table1_rho0_sq(4.0, 2.0**0.5)

    def test_sigma_column_vs_closed_form(self):
        # printed sigma column equals sigma0_sq up to table rounding: 7 of 9
        # cells round-trip within a half unit of the printed decimals, the
        # (alpha0=3, p in {2,3}) cells carry mixed rounding (0.679 -> 0.67,
        # 0.517 -> 0.51) and sit within one full unit
        t = table1_constants()
        for i, a0 in enumerate(t.alpha0):
            for k, p in enumerate(t.p):
                assert abs(sigma0_sq(p, a0) - t.sigma_sq[i][k]) <= 0.0105
