import math
import warnings

import numpy as np
import pytest

from needlet_whittle import (
    BoundaryWarning,
    DegenerateDataError,
    EmpiricalSpectrum,
    JRange,
    MexicanWindow,
    NarrowBandError,
    PowerSpectrumModel,
    SearchSettings,
    StandardWindow,
    compute_statistics,
    contrast,
    empirical_cl,
    fit_full_band,
    fit_narrow_band,
    hessian,
    plug_in,
    profile_g_hat,
    score,
    simulate_alm,
    whittle,
)
from needlet_whittle.harness import ReplicationRow, write_rows_csv
from needlet_whittle.needlet import LevelBasis, NeedletStatistics, narrow_band_j1, select_j_range
from needlet_whittle.whittle import GRID_POINTS, contrast_two_param

from conftest import chi2_spectrum, noise_free_spectrum

MEX = MexicanWindow(p=2, B=2.0)
STD = StandardWindow(B=2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_alpha(stats, search):
    """Reference minimizer: grid bracket, then golden section on the contrast
    until the bracket is below tol."""
    grid = np.linspace(search.alpha_min, search.alpha_max, GRID_POINTS)
    i = int(np.argmin([contrast(stats, a) for a in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    c, d = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    fc, fd = contrast(stats, c), contrast(stats, d)
    while hi - lo > search.tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = contrast(stats, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = contrast(stats, d)
    return 0.5 * (lo + hi)


def stats_for(spec, j0=1, jL=None, c_b=1.0):
    jL = jL if jL is not None else 9
    return compute_statistics(spec, MEX, JRange(j0=j0, jL=jL, c_b=c_b))


class TestProfileGHat:
    def test_single_level_identity(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 256)
        stats = compute_statistics(spec, MEX, JRange(j0=4, jL=4))
        kj = LevelBasis(MEX, JRange(j0=4, jL=4), 256).k(3.0)[0]
        stats.lam = np.array([2.0 ** (2 * 4) * kj])
        assert profile_g_hat(stats, 3.0) == pytest.approx(1.0, rel=1e-14)

    def test_noise_free_recovers_g0(self):
        model = PowerSpectrumModel(alpha0=3.0, g0=2.5)
        spec = noise_free_spectrum(model, 1024)
        stats = stats_for(spec)
        assert profile_g_hat(stats, 3.0) == pytest.approx(2.5, rel=1e-13)

    def test_unbiased_monte_carlo(self, canonical_model):
        n = 2000
        vals = np.array(
            [
                profile_g_hat(stats_for(chi2_spectrum(canonical_model, 1024, (61, s))), 3.0)
                for s in range(n)
            ]
        )
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 1.0) < 4 * se

    def test_degenerate(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 256)
        spec.values[:] = 0.0
        with pytest.raises(DegenerateDataError):
            profile_g_hat(compute_statistics(spec, MEX, JRange(j0=2, jL=5)), 3.0)


class TestContrast:
    def test_jensen_nonnegativity(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 1024)
        stats = stats_for(spec)
        base = contrast(stats, 3.0)
        for a in np.linspace(2.0 + 1e-6, 8.0, 200):
            assert contrast(stats, a) - base >= -1e-12

    def test_minimum_at_alpha0(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 1024)
        stats = stats_for(spec)
        grid = np.linspace(2.01, 6.0, 400)
        vals = [contrast(stats, a) for a in grid]
        assert grid[int(np.argmin(vals))] == pytest.approx(3.0, abs=0.02)

    def test_scale_invariance_in_k(self, canonical_model):
        # rescaling every K_j by a constant shifts both terms by cancelling
        # amounts: realized here through the c_b normalization of N_j and K_j
        spec = noise_free_spectrum(canonical_model, 1024)
        s1 = stats_for(spec, c_b=1.0)
        s2 = stats_for(spec, c_b=2.7)
        d1 = contrast(s1, 3.4) - contrast(s1, 2.6)
        d2 = contrast(s2, 3.4) - contrast(s2, 2.6)
        assert d1 == pytest.approx(d2, rel=1e-12, abs=1e-12)

    def test_profile_optimality(self, canonical_model):
        # contrast(alpha) + 1 = two-parameter contrast at the profile point,
        # which lower-bounds the two-parameter contrast over G
        spec = chi2_spectrum(canonical_model, 512, 17)
        stats = stats_for(spec, jL=8)
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(2.1, 6.0)
            g = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            assert contrast(stats, a) + 1.0 <= contrast_two_param(stats, a, g) + 1e-12


class TestScoreHessian:
    def test_finite_difference_agreement(self, canonical_model):
        spec = chi2_spectrum(canonical_model, 1024, 23)
        stats = stats_for(spec)
        h = 1e-4
        for a in (2.6, 3.0, 3.7):
            fd = (contrast(stats, a + h) - contrast(stats, a - h)) / (2 * h)
            assert abs(score(stats, a) - fd) < 1e-5 * max(abs(fd), 1e-3)
            fd2 = (
                contrast(stats, a + h) - 2 * contrast(stats, a) + contrast(stats, a - h)
            ) / h**2
            assert hessian(stats, a) == pytest.approx(fd2, rel=1e-4)

    def test_noise_free_score_zero(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 1024)
        assert abs(score(stats_for(spec), 3.0)) < 1e-8

    def test_noise_free_hessian_near_limit(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 1024)
        limit = 4.0 * math.log(2.0) ** 2 / 9.0
        assert hessian(stats_for(spec), 3.0) == pytest.approx(limit, rel=0.05)


class TestFitFullBand:
    def test_noise_free_exact(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 1024)
        fit = fit_full_band(spec, MEX)
        assert fit.alpha_hat == pytest.approx(3.0, abs=1e-5)
        assert fit.g_hat == pytest.approx(1.0, abs=1e-6)
        assert fit.converged
        # converged interior optimum: the analytic score is pinned near zero
        assert abs(fit.score_at_hat) < 1e-5
        assert (fit.j_range_used.j0, fit.j_range_used.jL) == (1, 9)
        # the 64-point grid, then at most 8 Newton or bisection iterates
        assert 64 < len(fit.contrast_trace) <= 64 + 8

    def test_equivariance(self, canonical_model):
        spec = chi2_spectrum(canonical_model, 1024, 29)
        fit1 = fit_full_band(spec, MEX)
        scaled = EmpiricalSpectrum(l_max=spec.l_max, values=2.0 * spec.values)
        fit2 = fit_full_band(scaled, MEX)
        assert fit2.alpha_hat == pytest.approx(fit1.alpha_hat, abs=1e-5)
        assert fit2.g_hat == pytest.approx(2.0 * fit1.g_hat, rel=1e-9)

    def test_cb_invariance(self, canonical_model):
        spec = chi2_spectrum(canonical_model, 1024, 31)
        fits = [
            fit_full_band(spec, MEX, j_range=JRange(j0=1, jL=9, c_b=cb)) for cb in (0.5, 1.0, 3.0)
        ]
        for f in fits[1:]:
            assert f.alpha_hat == pytest.approx(fits[0].alpha_hat, abs=1e-5)

    def test_boundary_warning(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 1024)
        with pytest.warns(BoundaryWarning):
            fit = fit_full_band(spec, MEX, search=SearchSettings(alpha_min=4.0, alpha_max=10.0))
        # the contrast rises across the whole range: the search ends at its floor
        assert fit.alpha_hat == pytest.approx(4.0, abs=1e-6)

    def test_degenerate_propagates(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 1024)
        spec.values[:] = 0.0
        with pytest.raises(DegenerateDataError):
            fit_full_band(spec, MEX)

    @pytest.mark.parametrize("B", [1.1, 1.2, 1.4])
    @pytest.mark.parametrize("l_max", [1024, 8192])
    def test_default_range_resolved_at_small_b(self, B, l_max, canonical_model):
        # the mexican peak sits at sqrt(p) B^j, so at small B the rounded
        # default top level can lie past l_max; the default range stops below it
        window = MexicanWindow(p=2, B=B)
        j_l = select_j_range(l_max, window).jL
        assert window.resolved(j_l, l_max) and not window.resolved(j_l + 1, l_max)
        fit = fit_full_band(noise_free_spectrum(canonical_model, l_max), window)
        assert fit.j_range_used.jL == j_l
        assert abs(fit.alpha_hat - 3.0) <= 1e-12

    def test_levels_below_l_one_resolved(self, canonical_model):
        # level -2's mexican window still reaches past l = 1 at B = 2
        spec = noise_free_spectrum(canonical_model, 256)
        fit = fit_full_band(spec, MEX, j_range=JRange(j0=-2, jL=7))
        assert abs(fit.alpha_hat - 3.0) <= 1e-12

    @pytest.mark.parametrize(
        "l_max, j_range", [(256, JRange(j0=4, jL=4)), (4, None)], ids=["explicit", "default"]
    )
    def test_single_level_degenerate(self, canonical_model, l_max, j_range):
        # one level: G-hat absorbs alpha and the contrast is flat
        spec = noise_free_spectrum(canonical_model, l_max)
        with pytest.raises(DegenerateDataError, match="single level"):
            fit_full_band(spec, MEX, j_range=j_range)

    def test_one_evaluation_at_alpha_hat(self, canonical_model, monkeypatch):
        spec = chi2_spectrum(canonical_model, 1024, 47)
        at = []
        for name in ("k", "k_derivs"):
            method = getattr(LevelBasis, name)

            def counted(basis, alpha, method=method):
                at.append(alpha)
                return method(basis, alpha)

            monkeypatch.setattr(LevelBasis, name, counted)
        fit = fit_full_band(spec, MEX)
        assert at.count(fit.alpha_hat) == 1
        monkeypatch.undo()
        stats = compute_statistics(spec, MEX, fit.j_range_used)
        assert fit.g_hat == profile_g_hat(stats, fit.alpha_hat)
        assert fit.score_at_hat == score(stats, fit.alpha_hat)
        assert fit.hessian_at_hat == hessian(stats, fit.alpha_hat)
        assert fit.converged and not fit.boundary


class TestScaleFree:
    """A fit runs on lambda / 2^e, with e the binary exponent of the largest
    lambda, so it does not depend on the spectrum's overall scale."""

    @pytest.mark.host_bits
    @pytest.mark.parametrize("window", [MEX, STD], ids=str)
    @pytest.mark.parametrize("band", ["full", "narrow"])
    def test_power_of_two_scale_equivariance(self, window, band, canonical_model):
        # alpha-hat, score and hessian keep their bits and G-hat scales
        # exactly, for every 2^k that keeps the spectrum finite and normal
        spec = empirical_cl(simulate_alm(canonical_model, 256, 1))

        def fit(values):
            scaled = EmpiricalSpectrum(l_max=256, values=values)
            if band == "full":
                return fit_full_band(scaled, window)
            return fit_narrow_band(scaled, window, g=0.5)

        base = fit(spec.values)
        for k in range(-975, 1001, 25):
            got = fit(np.ldexp(spec.values, k))
            assert (got.alpha_hat, got.score_at_hat, got.hessian_at_hat) == (
                base.alpha_hat, base.score_at_hat, base.hessian_at_hat
            ), k
            assert got.g_hat == math.ldexp(base.g_hat, k), k

    @pytest.mark.host_bits
    def test_evaluators_power_of_two_scale_equivariance(self, canonical_model):
        # the public evaluators run on lambda / 2^e as the fit does: score and
        # hessian keep their bits, G-hat scales exactly and the contrast moves
        # by k log 2, for every 2^k that keeps lambda finite and normal
        spec = noise_free_spectrum(canonical_model, 256)
        j_range = select_j_range(256, MEX)

        def evaluate(values):
            stats = compute_statistics(EmpiricalSpectrum(l_max=256, values=values), MEX, j_range)
            return [f(stats, 3.0) for f in (contrast, score, hessian, profile_g_hat)]

        base = evaluate(spec.values)
        for k in [*range(-990, 1021, 10), 1023]:
            value, grad, curv, g = evaluate(np.ldexp(spec.values, k))
            assert (grad, curv, g) == (base[1], base[2], math.ldexp(base[3], k)), k
            assert value == pytest.approx(base[0] + k * math.log(2.0), rel=0.0, abs=1e-12), k

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_far_scaled_evaluators(self, scale, canonical_model):
        # these raised ZeroDivisionError and OverflowError before the evaluators ran scaled
        spec = noise_free_spectrum(canonical_model, 256)
        stats = compute_statistics(spec, MEX, select_j_range(256, MEX))
        far = NeedletStatistics(basis=stats.basis, lam=stats.lam * scale)
        assert score(far, 3.0) == pytest.approx(score(stats, 3.0), abs=1e-12)
        assert hessian(far, 3.0) == pytest.approx(hessian(stats, 3.0), rel=1e-12)
        assert profile_g_hat(far, 3.0) == pytest.approx(scale, rel=1e-12)
        assert contrast(far, 3.0) == pytest.approx(contrast(stats, 3.0) + math.log(scale), rel=1e-12)

    def test_far_scaled_spectrum_fits(self, canonical_model):
        # 10^307 is no power of two: the fit moves by rounding only, where the
        # unscaled contrast once overflowed into a wrong "converged" 2.128
        spec = empirical_cl(simulate_alm(canonical_model, 256, 1))
        fit = fit_full_band(EmpiricalSpectrum(l_max=256, values=spec.values * 1e307), MEX)
        assert fit.converged
        assert fit.alpha_hat == pytest.approx(fit_full_band(spec, MEX).alpha_hat, abs=1e-12)

    def test_overflowing_statistics_raise(self):
        # lambda overflows to inf without numpy's RuntimeWarning, which tier-1 makes an error
        spec = EmpiricalSpectrum(l_max=64, values=np.concatenate([[0.0], np.full(64, 1e308)]))
        with pytest.raises(DegenerateDataError, match="finite"):
            fit_full_band(spec, MEX)

    def test_overflowing_amplitude_raises(self):
        # a flat 1e300 spectrum fitted at alpha >= 8: G-hat = lambda / K_j is
        # past the float range, and is a typed error, not an inf
        spec = EmpiricalSpectrum(l_max=256, values=np.concatenate([[0.0], np.full(256, 1e300)]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryWarning)
            with pytest.raises(DegenerateDataError, match="overflows"):
                fit_full_band(spec, MEX, search=SearchSettings(alpha_min=8.0, alpha_max=10.0))


class TestNewtonSearch:
    @pytest.mark.parametrize("l_max", [1024, 8192])
    @pytest.mark.parametrize(
        "kind, window",
        [("full", MEX), ("narrow", MEX), ("full", STD)],
    )
    def test_agrees_with_golden_section(self, kind, window, l_max, canonical_model):
        search = SearchSettings()
        for seed in range(3):
            spec = chi2_spectrum(canonical_model, l_max, (83, l_max, seed))
            if kind == "full":
                fit = fit_full_band(spec, window)
            else:
                fit = fit_narrow_band(spec, window, g=0.5)
            stats = compute_statistics(spec, window, fit.j_range_used)
            assert fit.converged
            assert fit.iterations <= 8
            assert abs(fit.alpha_hat - golden_section_alpha(stats, search)) <= search.tol

    @pytest.mark.parametrize("window", [MEX, STD])
    def test_noise_free_exact_at_8192(self, window, canonical_model):
        spec = noise_free_spectrum(canonical_model, 8192)
        fit = fit_full_band(spec, window)
        assert abs(fit.alpha_hat - 3.0) <= 1e-12
        assert fit.g_hat == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "distort",
        [lambda curv: -abs(curv), lambda curv: 1e-4 * curv],
        ids=["hessian-not-positive", "step-leaves-bracket"],
    )
    def test_bisection_fallback(self, distort, monkeypatch, canonical_model):
        spec = chi2_spectrum(canonical_model, 1024, 89)
        search = SearchSettings()
        expected = fit_full_band(spec, MEX).alpha_hat
        derivs = whittle._derivs

        def distorted(stats, alpha):
            value, grad, curv, g_hat = derivs(stats, alpha)
            return value, grad, distort(curv), g_hat

        monkeypatch.setattr(whittle, "_derivs", distorted)
        fit = fit_full_band(spec, MEX)
        # bisection halves the two-cell grid bracket (~0.25) down to tol
        assert fit.converged
        assert 15 <= fit.iterations <= 25
        assert abs(fit.alpha_hat - expected) <= search.tol


class TestFitNarrowBand:
    def test_default_rule_degenerate_at_desk_scale(self, canonical_model):
        # g = jL^-3 = 1/729 rounds J1 to jL at jL = 9: the default rule needs
        # much deeper level ranges than banded data provides
        spec = noise_free_spectrum(canonical_model, 1024)
        with pytest.raises(NarrowBandError):
            fit_narrow_band(spec, MEX)

    def test_g_half_takes_top_two_levels(self, canonical_model):
        spec = noise_free_spectrum(canonical_model, 1024)
        fit = fit_narrow_band(spec, MEX, g=0.5)
        assert fit.j_range_used.j0 == 8
        assert (fit.j_range_used.j0, fit.j_range_used.jL) == (8, 9)
        assert fit.alpha_hat == pytest.approx(3.0, abs=1e-5)
        assert fit.band == "narrow"

    def test_fit_band_resolves_a_narrow_band_once(self, canonical_model, monkeypatch):
        level_range, calls = whittle.level_range, []

        def spy(*args, **kwargs):
            calls.append(args)
            return level_range(*args, **kwargs)

        monkeypatch.setattr(whittle, "level_range", spy)
        spec = noise_free_spectrum(canonical_model, 1024)
        fit = whittle.fit_band(spec, MEX, "narrow", None, None, 0.5, None)
        assert (fit.j_range_used.j0, fit.j_range_used.jL) == (8, 9)
        assert len(calls) == 1

    def test_band_under_one_multipole(self):
        # at B = 1.01 the default top level at l_max 64 is 417; g = 0.01 puts
        # J1 at 416, and B^417 - B^416 = 0.63 multipoles
        window = StandardWindow(B=1.01)
        with pytest.raises(NarrowBandError, match="narrower than one multipole"):
            whittle.level_range(window, 64, "narrow", g=0.01)
        j_range = whittle.level_range(window, 64, "narrow", g=0.015)
        assert (j_range.j0, j_range.jL) == (415, 417)

    def test_j1_tie_rounds_half_up(self, canonical_model):
        # at B = 4 the band fraction g = 7/8 puts J1 at jL - 3/2 exactly
        window = MexicanWindow(p=2, B=4.0)
        spec = noise_free_spectrum(canonical_model, 256)
        j_l = select_j_range(256, window).jL
        fit = fit_narrow_band(spec, window, g=0.875)
        assert fit.j_range_used.j0 == narrow_band_j1(j_l, 0.875, 4.0) == j_l - 1
        # g = 1/2 puts it at jL - 1/2, which rounds up to a single level
        with pytest.raises(NarrowBandError):
            fit_narrow_band(spec, window, g=0.5)


class TestPlugIn:
    def test_decision_rule_fires(self, canonical_model):
        spec = chi2_spectrum(canonical_model, 1024, 37)
        res = plug_in(spec, p=2, b_std=2.0, b_mex=2.0)
        # p = 2 > alpha_std / 4 for any alpha_std near 3
        assert res.used_mexican
        assert res.alpha_final != res.alpha_standard
        assert res.sigma1_sq < res.rho0_sq

    def test_decision_rule_declines(self, canonical_model):
        # p = 1 against a steep pilot estimate: 1 > alpha/4 fails for alpha > 4
        spec = noise_free_spectrum(PowerSpectrumModel(alpha0=4.4), 1024)
        res = plug_in(spec, p=1, b_std=2.0, b_mex=2.0)
        assert not res.used_mexican
        assert res.alpha_final == res.alpha_standard

    def test_table_row_comparison(self):
        # at the (alpha0 = 3, B = sqrt 2, p = 2) table row the mexican column
        # wins: 0.67 < 2.53
        from needlet_whittle.asymptotics import sigma0_sq, table1_rho0_sq

        assert sigma0_sq(2, 3.0) < table1_rho0_sq(3.0, math.sqrt(2.0))


class TestCsvRow:
    def test_round_trip_fields(self, canonical_model, tmp_path):
        spec = chi2_spectrum(canonical_model, 1024, 41)
        fit = fit_full_band(spec, MEX)
        path = tmp_path / "fit.csv"
        write_rows_csv([ReplicationRow.from_fit(0, 41, fit)], path)
        header, row = path.read_text().splitlines()
        parts = row.split(",")
        assert len(parts) == len(header.split(","))
        assert float(parts[3]) == pytest.approx(fit.alpha_hat, rel=1e-15)
        assert parts[2] == "full"


class TestPinnedFits:
    """The bits of four fits on one seeded spectrum.  A change that moves
    them must update this pin and say why.  They hold for one numpy and BLAS
    build: a matrix product may sum in another order elsewhere."""

    PINS = {
        ("full", MEX): ("2.990578636365916", "0.9389603022853381",
                        "-1.7763568394002505e-15", "0.20805640815522397"),
        ("narrow", MEX): ("2.990785649313923", "0.9401320987193978",
                          "-2.6645352591003757e-15", "0.07372415245694663"),
        ("full", STD): ("2.986720876283945", "0.9184736007270257",
                        "-8.881784197001252e-16", "0.21363274152313402"),
        ("narrow", STD): ("2.977680513274601", "0.8687689777419918",
                          "0.0", "0.07688514052655702"),
    }

    @pytest.mark.parametrize(
        "band, window",
        list(PINS),
        ids=["full-mexican", "narrow-mexican", "full-standard", "narrow-standard"],
    )
    def test_fit_bits(self, band, window, canonical_model):
        spec = chi2_spectrum(canonical_model, 1024, 7)
        fit = fit_full_band(spec, window) if band == "full" else fit_narrow_band(spec, window, g=0.5)
        got = (fit.alpha_hat, fit.g_hat, fit.score_at_hat, fit.hessian_at_hat)
        assert tuple(repr(float(v)) for v in got) == self.PINS[band, window]


def reference_k_linspace(self, start, stop, num):
    """The grid as a running product l^-(a+da) = l^-a l^-da, eight grid rows
    per matrix product with the weight matrix: the form the cached block
    tables of ``LevelBasis.k_linspace`` replaced."""
    alphas = np.linspace(start, stop, num)
    step = np.exp(-(stop - start) / max(num - 1, 1) * self.log_l)
    rows = np.empty((min(8, num), len(step)))
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


def _sweep_fits():
    """Full and narrow fits, both windows, on 200 seeded chi-square spectra
    at l_max 64-8192: per fit, the grid argmin and the bits of everything
    else."""
    rng = np.random.default_rng(20260)
    out = []
    for i in range(200):
        l_max = int(np.exp(rng.uniform(math.log(64), math.log(8192))))
        spec = chi2_spectrum(PowerSpectrumModel(alpha0=float(rng.uniform(2.5, 4.5))), l_max, (31, i))
        for window in (MEX, STD):
            for band in ("full", "narrow"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", BoundaryWarning)
                    fit = (fit_full_band(spec, window) if band == "full"
                           else fit_narrow_band(spec, window, g=0.5))
                grid = [v for _, v in fit.contrast_trace[:GRID_POINTS]]
                out.append((
                    int(np.argmin(grid)),
                    np.array([fit.alpha_hat, fit.g_hat, fit.score_at_hat, fit.hessian_at_hat]).tobytes(),
                    fit.iterations,
                    len(fit.contrast_trace),
                    np.array(fit.contrast_trace[GRID_POINTS:]).tobytes(),
                ))
    return out


def test_cached_grid_keeps_every_fit(monkeypatch):
    # the grid values change in their last bits only: the grid argmin and
    # every fitted number are those of the running-product grid
    got = _sweep_fits()
    monkeypatch.setattr(LevelBasis, "k_linspace", reference_k_linspace)
    expected = _sweep_fits()
    assert len(got) == 800 and got == expected


def reference_derivs(stats, alpha):
    """Contrast, score, hessian and G-hat with one ``np.sum`` per level sum:
    the form the single (5, J) reduction of ``whittle._derivs`` replaced."""
    k0, k1, k2 = stats.basis.k_derivs(alpha)
    n, sn = stats.basis.n, stats.basis.n_sum
    phi = (stats.lam / k0).sum(axis=-1) / sn
    value = np.log(phi) + np.log(k0) @ n / sn
    dphi = -float(np.sum(stats.lam * k1 / k0**2)) / sn
    d2phi = float(np.sum(stats.lam * (2.0 * k1**2 - k2 * k0) / k0**3)) / sn
    grad = dphi / phi + float(np.sum(n * k1 / k0)) / sn
    curv = (d2phi * phi - dphi * dphi) / phi**2 + float(
        np.sum(n * (k2 * k0 - k1**2) / k0**2)
    ) / sn
    return float(value), float(grad), float(curv), float(phi)


@pytest.mark.host_bits
@pytest.mark.parametrize("l_max", [64, 1000, 8192])
@pytest.mark.parametrize("window", [MEX, STD], ids=str)
def test_one_reduction_keeps_the_derivatives(window, l_max, canonical_model):
    spec = chi2_spectrum(canonical_model, l_max, (32, l_max))
    stats = compute_statistics(spec, window, select_j_range(l_max, window))
    for alpha in np.linspace(2.001, 10.0, 17):
        assert whittle._derivs(stats, alpha) == reference_derivs(stats, alpha)


@pytest.mark.parametrize("band", ["full", "narrow"])
def test_newton_steps_on_floats(band, canonical_model):
    # the level sums leave numpy once per step: every number a step forms,
    # and so every fitted number and trace entry, is a Python float
    spec = chi2_spectrum(canonical_model, 1024, 5)
    stats = compute_statistics(spec, MEX, select_j_range(1024, MEX))
    assert all(type(x) is float for x in whittle._derivs(stats, 3.0))
    fit = fit_full_band(spec, MEX) if band == "full" else fit_narrow_band(spec, MEX, g=0.5)
    assert all(type(x) is float for x in (fit.alpha_hat, fit.g_hat, fit.score_at_hat, fit.hessian_at_hat))
    assert all(type(a) is float and type(v) is float for a, v in fit.contrast_trace)
