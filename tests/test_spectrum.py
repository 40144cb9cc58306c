import math

import numpy as np
import pytest

from needlet_whittle import (
    DomainError,
    KappaCorrection,
    PowerSpectrumModel,
    RationalCorrection,
    c_l,
    check_regularity,
    g_of_l,
)
from needlet_whittle.spectrum import _correction_factor, model_kappa


class TestCl:
    def test_pure_power_law_values(self):
        m = PowerSpectrumModel(alpha0=3.0, g0=1.0)
        assert c_l(m, 1) == 1.0
        assert c_l(m, 2) == 0.125

    def test_kappa_value(self):
        m = PowerSpectrumModel(alpha0=3.0, g0=2.0, correction=KappaCorrection(0.5))
        assert c_l(m, 4) == pytest.approx(2 * 4**-3 * 1.125, rel=1e-15)
        assert c_l(m, 4) == pytest.approx(0.03515625, rel=1e-15)

    def test_monopole_excluded(self):
        m = PowerSpectrumModel(alpha0=3.0)
        with pytest.raises(DomainError):
            c_l(m, 0)

    @pytest.mark.parametrize(
        "model",
        [
            PowerSpectrumModel(alpha0=2.5),
            PowerSpectrumModel(alpha0=3.0, g0=0.2, correction=KappaCorrection(-0.9)),
            PowerSpectrumModel(
                alpha0=3.0,
                correction=RationalCorrection(p_coeffs=(2.0, 1.0), q_coeffs=(1.0, 3.0)),
            ),
        ],
    )
    def test_positivity(self, model):
        ls = np.arange(1, 10_001)
        assert np.all(c_l(model, ls) > 0)

    def test_g0_scaling_exact(self):
        base = PowerSpectrumModel(alpha0=2.7, correction=KappaCorrection(0.3))
        scaled = PowerSpectrumModel(alpha0=2.7, g0=5.0, correction=KappaCorrection(0.3))
        ls = np.arange(1, 2000)
        assert np.array_equal(c_l(scaled, ls), 5.0 * c_l(base, ls))


class TestGofL:
    def test_constant(self):
        m = PowerSpectrumModel(alpha0=4.0, g0=1.0)
        assert g_of_l(m, 17) == 1.0

    def test_kappa(self):
        m = PowerSpectrumModel(alpha0=3.0, correction=KappaCorrection(1.0))
        assert g_of_l(m, 10) == pytest.approx(1.1, rel=1e-15)

    def test_rational_trivial(self):
        m = PowerSpectrumModel(
            alpha0=3.0, correction=RationalCorrection(p_coeffs=(1.0,), q_coeffs=(1.0,))
        )
        assert g_of_l(m, 7) == pytest.approx(1.0, rel=1e-15)

    def test_rational_limit_rate(self):
        # G(l) -> c_pp/c_qq with O(1/l) error: l * |G - limit| stays bounded
        m = PowerSpectrumModel(
            alpha0=3.0,
            correction=RationalCorrection(p_coeffs=(3.0, 2.0), q_coeffs=(1.0, 0.5, 4.0)),
        )
        limit = 2.0 / 4.0
        ls = np.geomspace(100, 10_000, 40)
        scaled = ls * np.abs(g_of_l(m, ls) - limit)
        assert scaled.max() < 10 * abs(scaled[-1]) + 1.0


def _horner(coeffs, u):
    out = np.full_like(u, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = out * u + c
    return out


def _regularity_points(l_max):
    # the grid check_regularity probes, with every finite-difference stencil point
    grid = np.geomspace(1.0, float(l_max), 48)
    h = np.maximum(1e-4 * grid, 1e-6)
    return np.concatenate([np.maximum(grid + off * h, 0.9) for off in range(-2, 3)])


class TestRationalFactor:
    """The rational correction factor, bit for bit, against Horner's rule
    written out here: + and x only, so the bits hold on any host."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_horner(self, seed):
        rng = np.random.default_rng(seed)
        p = tuple(rng.uniform(0.1, 5.0, size=1 + seed % 4).tolist())
        q = tuple(rng.uniform(0.1, 5.0, size=1 + (seed * 7 + 1) % 5).tolist())
        m = PowerSpectrumModel(alpha0=3.0, correction=RationalCorrection(p_coeffs=p, q_coeffs=q))
        for u in (np.arange(1.0, 8193.0), _regularity_points(8192)):
            expected = u ** (len(q) - len(p)) * _horner(p, u) / _horner(q, u)
            assert np.array_equal(_correction_factor(m, u), expected)


class TestValidation:
    def test_alpha0_bound(self):
        with pytest.raises(DomainError):
            PowerSpectrumModel(alpha0=2.0)

    def test_g0_bound(self):
        with pytest.raises(DomainError):
            PowerSpectrumModel(alpha0=3.0, g0=0.0)

    def test_kappa_bound(self):
        with pytest.raises(DomainError):
            PowerSpectrumModel(alpha0=3.0, correction=KappaCorrection(-1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha0=math.inf),
            dict(alpha0=3.0, g0=math.inf),
            dict(alpha0=3.0, correction=KappaCorrection(math.inf)),
            dict(
                alpha0=3.0,
                correction=RationalCorrection(p_coeffs=(1.0, math.inf), q_coeffs=(1.0,)),
            ),
            dict(
                alpha0=3.0,
                correction=RationalCorrection(p_coeffs=(1.0,), q_coeffs=(math.nan, 1.0)),
            ),
        ],
        ids=["alpha0", "g0", "kappa", "p-coeffs", "q-coeffs"],
    )
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(DomainError, match="finite"):
            PowerSpectrumModel(**kwargs)

    def test_rational_positivity_rejected(self):
        with pytest.raises(DomainError):
            PowerSpectrumModel(
                alpha0=3.0,
                correction=RationalCorrection(p_coeffs=(-3.0, 1.0), q_coeffs=(1.0,)),
            )


class TestModelKappa:
    def test_values(self):
        assert model_kappa(PowerSpectrumModel(alpha0=3.0)) == 0.0
        assert model_kappa(PowerSpectrumModel(alpha0=3.0, correction=KappaCorrection(0.4))) == 0.4
        m = PowerSpectrumModel(
            alpha0=3.0, correction=RationalCorrection(p_coeffs=(1.0, 2.0), q_coeffs=(3.0, 1.0))
        )
        assert model_kappa(m) == pytest.approx(1.0 / 2.0 - 3.0 / 1.0)


class TestCheckRegularity:
    def test_constant_model(self):
        rep = check_regularity(PowerSpectrumModel(alpha0=3.0, g0=2.5), l_max=4096, r_max=4)
        assert rep.c0_bounds == (2.5, 2.5)
        assert all(rep.derivative_ok.values())

    def test_kappa_model_first_derivative(self):
        # analytic oracle: G'(u) = -g0 kappa / u^2, so |G'(u)| u = g0 kappa / u
        kappa, g0 = 0.5, 1.0
        rep = check_regularity(
            PowerSpectrumModel(alpha0=3.0, g0=g0, correction=KappaCorrection(kappa)),
            l_max=4096,
            r_max=1,
        )
        assert rep.derivative_ok[1]
        assert rep.sup_scaled[1] == pytest.approx(g0 * kappa, rel=1e-3)

    def test_rational_equal_degrees(self):
        m = PowerSpectrumModel(
            alpha0=3.0,
            correction=RationalCorrection(p_coeffs=(1.0, 2.0), q_coeffs=(3.0, 1.0)),
        )
        rep = check_regularity(m, l_max=4096, r_max=2)
        assert rep.derivative_ok[1] and rep.derivative_ok[2]

    def test_preconditions(self):
        m = PowerSpectrumModel(alpha0=3.0)
        with pytest.raises(DomainError):
            check_regularity(m, l_max=8, r_max=1)
        with pytest.raises(DomainError):
            check_regularity(m, l_max=100, r_max=5)
