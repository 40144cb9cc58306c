"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria share two module-scoped experiment runs: the
canonical clean power law, and one shared-draw run that fits the
kappa-corrected fields on the full band and on a narrow band (criterion 8a
compares the two on the same fields).  All seeds are pinned, so the suite is
deterministic.

Criterion 8's variance clause is implemented faithfully and marked as an
expected failure: at a fixed band fraction an integer-level narrow band holds
2-5 levels, and its variance constant sits a factor 2-12 below the continuum
limit sigma1^2 / Phi(B) for every usable bandwidth (see the analysis notes
shipped with the repository history).  The bias-reduction clause of the same
criterion passes and is tested separately.
"""
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from needlet_whittle import (
    EmpiricalSpectrum,
    JRange,
    KappaCorrection,
    MexicanWindow,
    PowerSpectrumModel,
    alm_row,
    c_l,
    compute_statistics,
    empirical_cl,
    fit_full_band,
    simulate_alm,
)
from needlet_whittle.asymptotics import (
    bias_coeff,
    gauss_moment_w,
    geometric_sum,
    level_sum_constants,
    narrowband_variance,
    phi_b,
    sigma0_sq,
    sum_asymptote,
    table1_constants,
    varsigma0_sq,
)
from needlet_whittle.harness import (
    JB_CRITICAL_0_001,
    ExperimentConfig,
    run_experiment,
    run_experiments,
    write_rows_csv,
)
from needlet_whittle.needlet import lambda_hat
from needlet_whittle.sphere import build_grid, synthesize_beta
from needlet_whittle.whittle import contrast, contrast_two_param

from conftest import noise_free_spectrum

B, P, ALPHA0 = 2.0, 2, 3.0
MEX = MexicanWindow(p=P, B=B)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def canonical_run():
    cfg = ExperimentConfig(
        model=PowerSpectrumModel(alpha0=ALPHA0, g0=1.0),
        window=MEX,
        l_max=1024,
        replications=500,
        master_seed=20130202,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def kappa_runs():
    """The kappa full-band and narrow-band runs, fitted on one set of draws."""
    full = ExperimentConfig(
        model=PowerSpectrumModel(alpha0=ALPHA0, correction=KappaCorrection(0.5)),
        window=MEX,
        l_max=1024,
        replications=1000,
        master_seed=40411,
    )
    narrow = ExperimentConfig(
        model=PowerSpectrumModel(alpha0=ALPHA0, correction=KappaCorrection(0.5)),
        window=MEX,
        l_max=1024,
        band="narrow",
        g=0.5,
        replications=1000,
        master_seed=40411,
    )
    return run_experiments([full, narrow])


@pytest.fixture(scope="module")
def kappa_full_run(kappa_runs):
    return kappa_runs[0]


@pytest.fixture(scope="module")
def kappa_narrow_run(kappa_runs):
    return kappa_runs[1]


def test_criterion_01_sigma_table():
    """Closed-form sigma0_sq reproduces the printed mexican variance column.

    Two printed cells carry mixed rounding (0.679 printed as 0.67 and 0.517 as
    0.51), so the faithful check is one unit of the printed decimals; the
    other seven cells agree to the half-unit implied by exact rounding.
    """
    t = table1_constants()
    worst = 0.0
    half_unit_cells = 0
    for i, a0 in enumerate(t.alpha0):
        for k, p in enumerate(t.p):
            gap = abs(sigma0_sq(p, a0) - t.sigma_sq[i][k])
            worst = max(worst, gap)
            half_unit_cells += gap <= 0.00501
    ok = worst <= 0.0105 and half_unit_cells >= 7
    report("1 (sigma table)", ok, f"max |closed form - printed| = {worst:.4f}, "
           f"{half_unit_cells}/9 cells within half a printed unit")
    assert ok


def test_criterion_02_rho_table_and_comparison():
    t = table1_constants()
    assert t.rho0_sq == ((5.00, 2.24, 1.16), (5.04, 2.53, 1.34), (5.10, 2.64, 1.57))
    ok = all(
        t.sigma_sq[i][k] < t.rho0_sq[i][kb]
        for i in range(3)
        for k in range(3)
        for kb in range(3)
    )
    report("2 (rho table, sigma < rho)", ok, "all 27 cross-cell comparisons favor the mexican column")
    assert ok


def test_criterion_03_sum_asymptotics():
    """Brute-force window sums against their closed forms, 1% and improving."""
    worst = 0.0
    for a0 in (2.5, 3.0, 4.0):
        for b in (math.sqrt(2.0), 2.0):
            js = [j for j in range(5, 40) if 64 <= b**j <= 512]
            for a, n in ((4, 1.0 - 2 * a0), (2, 1.0 - a0)):
                errs = []
                for j in js:
                    l = np.arange(1, int(8 * b**j) + 1, dtype=float)
                    f = (l / b**j) ** (2 * P) * np.exp(-((l / b**j) ** 2))
                    brute = float(np.sum(f**a * l**n))
                    closed = sum_asymptote(a, n, P, b, j)
                    errs.append(abs(closed - brute) / brute)
                assert max(errs) < 0.01, (a0, b, a)
                worst = max(worst, max(errs))
                for e_lo, e_hi in zip(errs, errs[1:]):
                    assert e_hi <= max(e_lo, 1e-9), (a0, b, a, errs)
    report("3 (window-sum asymptotics)", True, f"worst relative error {worst:.2e} (< 1%)")


def test_criterion_04_dressed_level_sums():
    """Brute-force dressed double sums at JL = 30 against the closed forms."""
    worst = 0.0
    for p, b, a0 in ((2, 2.0, 3.0), (2, 2.0, 2.0), (3, math.sqrt(2.0), 3.0)):
        JL = 30
        lb = math.log(b)
        Pexp = 4 * p + 1 - a0
        brute = [0.0, 0.0, 0.0]
        for j in range(-JL, JL + 1):
            djs = np.arange(-JL - j, JL - j + 1, dtype=float)
            inner = float(np.sum(b**djs * np.cosh(djs * lb) ** (-Pexp)))
            w = b ** (2.0 * j) * inner
            for m in range(3):
                brute[m] += w * (j * lb) ** m
        lsc = level_sum_constants(p, b, a0)
        f = b**2 / (b**2 - 1) * b ** (2.0 * JL)
        closed = [
            f * (1 + lsc.tau0),
            f * lb * ((1 + lsc.tau0) * JL - (1 + lsc.tau1) / (b**2 - 1)),
            f
            * lb**2
            * (
                (1 + lsc.tau0) * JL**2
                - 2 * (1 + lsc.tau1) / (b**2 - 1) * JL
                + (b**2 + 1) / (b**2 - 1) ** 2 * (1 + lsc.tau2)
            ),
        ]
        for m in range(3):
            rel = abs(closed[m] - brute[m]) / brute[m]
            assert rel < 0.01, (p, b, a0, m, rel)
            worst = max(worst, rel)
    report("4 (dressed level sums)", True, f"worst relative error {worst:.2e} (< 1%)")


def test_criterion_05_consistency(canonical_run):
    agg = canonical_run.aggregate
    dev = abs(agg.mean_alpha - ALPHA0)
    ok = dev <= 3.0 * agg.se_alpha and agg.n_failed == 0
    report(
        "5 (consistency)",
        ok,
        f"|mean(alpha) - 3| = {dev:.5f} vs 3 SE = {3 * agg.se_alpha:.5f} (R=500)",
    )
    assert ok


def test_criterion_06_clt_variance_and_normality(canonical_run):
    agg = canonical_run.aggregate
    theory = varsigma0_sq(P, B, ALPHA0)
    rel = abs(agg.var_scaled - theory) / theory
    ok = rel <= 0.25 and agg.jarque_bera < JB_CRITICAL_0_001
    report(
        "6 (CLT variance + normality)",
        ok,
        f"Var(B^J (a-hat - a0)) = {agg.var_scaled:.4f} vs varsigma0^2 = {theory:.4f} "
        f"({rel:.1%}); JB = {agg.jarque_bera:.2f} < {JB_CRITICAL_0_001:.2f}",
    )
    assert ok


def test_criterion_07_bias_constant(kappa_full_run):
    """Scaled bias against the theory constant for G = G0 (1 + kappa/l).

    The module's bias_coeff carries the sign- and rate-corrected constant
    (+1.381 at these parameters); the classical display -kappa rho log B/(B+1)
    disagrees with the measured bias in sign and by a factor ~14 and is kept
    only as bias_coeff_reference.
    """
    agg = kappa_full_run.aggregate
    theory = bias_coeff(P, B, ALPHA0, 0.5)
    rel = abs(agg.scaled_bias - theory) / abs(theory)
    ok = rel <= 0.30
    report(
        "7 (bias constant)",
        ok,
        f"mean B^J (a-hat - a0) = {agg.scaled_bias:+.4f} vs {theory:+.4f} ({rel:.1%}, R=1000)",
    )
    assert ok


def test_criterion_08a_narrow_band_bias_reduction(kappa_full_run, kappa_narrow_run):
    full = abs(kappa_full_run.aggregate.scaled_bias)
    narrow = abs(kappa_narrow_run.aggregate.scaled_bias)
    ok = narrow < full
    report(
        "8a (narrow-band bias reduction)",
        ok,
        f"|scaled bias| narrow = {narrow:.4f} < full = {full:.4f}",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="continuum narrow-band variance limit is unreachable by integer-level "
    "bands at fixed g: the 2-level band at (B=2, g=0.5) has variance constant "
    "~2.9 vs sigma1^2/Phi(B) = 9.0, and no usable B at g=0.5 brings the ratio "
    "within 35% (best ~50% at B just under 4); faithful assertion kept red",
)
def test_criterion_08b_narrow_band_variance(kappa_narrow_run):
    agg = kappa_narrow_run.aggregate
    g = kappa_narrow_run.config.g
    var_scaled = g * agg.var_scaled  # Var of g^(1/2) B^J (a-hat - a0)
    theory = narrowband_variance(P, B, ALPHA0)
    rel = abs(var_scaled - theory) / theory
    ok = rel <= 0.35
    report(
        "8b (narrow-band variance vs continuum limit)",
        ok,
        f"g Var(B^J (a-hat - a0)) = {var_scaled:.4f} vs sigma1^2/Phi = {theory:.4f} ({rel:.1%})",
    )
    assert ok


def test_criterion_09_hessian_limit(canonical_run):
    agg = canonical_run.aggregate
    limit = B**2 * math.log(B) ** 2 / (B**2 - 1) ** 2
    rel = abs(agg.mean_hessian - limit) / limit
    ok = rel <= 0.15
    report(
        "9 (hessian limit)",
        ok,
        f"mean hessian(alpha-hat) = {agg.mean_hessian:.5f} vs {limit:.5f} ({rel:.1%})",
    )
    assert ok


def test_criterion_10_nearly_tight_frame():
    model = PowerSpectrumModel(alpha0=ALPHA0)
    worst = 0.0
    for j in (3, 4, 5, 6):
        grid = build_grid(j, B)
        l_max = MEX.effective_lmax(j, 10**9)
        for seed in range(20):
            alm = simulate_alm(model, l_max, 7000 + seed)
            beta = synthesize_beta(alm, grid, P, B)
            lam = lambda_hat(empirical_cl(alm), MEX, j)
            gap = abs(beta.sum_sq() - lam) / lam
            worst = max(worst, gap)
            assert gap < 0.03, (j, seed, gap)
    report("10 (nearly tight frame)", True, f"worst relative gap {worst:.4%} over j=3..6, 20 seeds")


def test_criterion_10_large_scale_level_7():
    # beside criterion 10: level 7 (L = 647, 256 x 512 nodes), where a full
    # (L+1)^2 N_theta Legendre table alone would take 0.86 GB
    grid = build_grid(7, B)
    alm = simulate_alm(PowerSpectrumModel(alpha0=ALPHA0), MEX.effective_lmax(7, 10**9), 7100)
    tracemalloc.start()
    try:
        beta = synthesize_beta(alm, grid, P, B)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    lam = lambda_hat(empirical_cl(alm), MEX, 7)
    gap = abs(beta.sum_sq() - lam) / lam
    ok = gap < 0.03 and peak_mb < 100.0
    report("10 (level 7)", ok, f"relative gap {gap:.4%}, synthesis peak {peak_mb:.1f} MB")
    assert gap < 0.03, gap
    assert peak_mb < 100.0, peak_mb


def test_criterion_11_chi_square_law():
    model = PowerSpectrumModel(alpha0=ALPHA0)
    pvals = {}
    for l in (16, 64, 256):
        cl = c_l(model, l)
        vals = np.empty(2000)
        for s in range(2000):
            row = alm_row(model, l, seed=90_000 + 61 * l + s)
            vals[s] = (abs(row[0]) ** 2 + 2 * np.sum(np.abs(row[1:]) ** 2)) / cl
        pvals[l] = scipy_stats.kstest(vals, scipy_stats.chi2(df=2 * l + 1).cdf).pvalue
        assert pvals[l] > 1e-3, (l, pvals[l])
    report(
        "11 (chi-square law)",
        True,
        "KS p-values " + ", ".join(f"l={l}: {p:.3f}" for l, p in pvals.items()) + " all > 0.001",
    )


def test_criterion_12_property_suite(tmp_path):
    model = PowerSpectrumModel(alpha0=ALPHA0)
    checks = []

    # noise-free exactness
    spec = noise_free_spectrum(model, 1024)
    fit = fit_full_band(spec, MEX)
    checks.append(("noise-free exactness", abs(fit.alpha_hat - 3.0) < 1e-5 and abs(fit.g_hat - 1.0) < 1e-6))

    # equivariance: amplitude scaling moves g-hat exactly, alpha-hat within tol
    alm = simulate_alm(model, 1024, 5150)
    sp = empirical_cl(alm)
    f1 = fit_full_band(sp, MEX)
    sp2 = EmpiricalSpectrum(l_max=sp.l_max, values=2.0 * sp.values)
    f2 = fit_full_band(sp2, MEX)
    checks.append(
        ("equivariance", abs(f2.alpha_hat - f1.alpha_hat) < 1e-5 and f2.g_hat == 2.0 * f1.g_hat)
    )

    # c_B invariance of alpha-hat
    fits = [fit_full_band(sp, MEX, j_range=JRange(j0=1, jL=9, c_b=cb)) for cb in (0.5, 1.0, 3.0)]
    checks.append(
        ("c_B invariance", max(abs(f.alpha_hat - fits[1].alpha_hat) for f in fits) < 1e-5)
    )

    # profile optimality over random (alpha, G) pairs
    stats = compute_statistics(sp, MEX, JRange(j0=1, jL=9))
    rng = np.random.default_rng(8)
    opt = all(
        contrast(stats, a) + 1.0 <= contrast_two_param(stats, a, g) + 1e-12
        for a, g in zip(rng.uniform(2.1, 6.0, 100), np.exp(rng.uniform(-3.0, 3.0, 100)))
    )
    checks.append(("profile optimality", opt))

    # geometric-sum identities against fsum brute force
    rng = np.random.default_rng(2718)
    geo_ok = True
    for _ in range(20):
        s = rng.uniform(0.5, 3.0)
        b = rng.uniform(1.2, 3.0)
        j0 = int(rng.integers(-8, 8))
        jL = j0 + int(rng.integers(0, 20))
        for mom in (0, 1, 2):
            brute = math.fsum(b ** (s * j) * (j * math.log(b)) ** mom for j in range(j0, jL + 1))
            got = geometric_sum(s, b, j0, jL, mom)
            geo_ok &= math.isclose(got, brute, rel_tol=1e-12, abs_tol=1e-12)
    checks.append(("geometric-sum identities", geo_ok))

    # gaussian log-moment integrals against adaptive quadrature
    from scipy.integrate import quad

    w_ok = True
    for a in (0.5, 1.5, 3.0, 5.5):
        for b in (0.7, 2.0):
            for s_ord in (0, 1, 2):
                def f(t, s_ord=s_ord, a=a, b=b):
                    v = t ** (2 * a) * math.exp(-b * t * t)
                    return v * math.log(t) ** s_ord if s_ord else v
                want = sum(quad(f, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                           for lo, hi in ((0.0, 1.0), (1.0, 10.0 / math.sqrt(b) + 10.0)))
                w_ok &= math.isclose(gauss_moment_w(a, b, s_ord), want, rel_tol=1e-10)
    checks.append(("gaussian log-moment quadrature", w_ok))

    # Phi(B) positivity
    checks.append(("Phi positivity", all(phi_b(x) > 0 for x in np.linspace(1.01, 4.0, 100))))

    # determinism and parallel reproducibility
    cfg = ExperimentConfig(model=model, window=MEX, l_max=256, replications=8, master_seed=4, workers=1)
    runs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
        path = tmp_path / f"{tag}.csv"
        cfg_w = ExperimentConfig(**{**cfg.__dict__, "workers": workers})
        write_rows_csv(run_experiment(cfg_w).rows, path)
        runs.append(path.read_bytes())
    checks.append(("determinism + parallel reproducibility", runs[0] == runs[1] == runs[2]))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks)
    report("12 (property suite)", ok, detail)
    assert ok
