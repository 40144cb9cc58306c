import math

import numpy as np
import pytest

from needlet_whittle import (
    BandLimitError,
    DomainError,
    MexicanWindow,
    ResourceLimitError,
    empirical_cl,
    lambda_hat,
    simulate_alm,
)
from needlet_whittle import needlet, sphere
from needlet_whittle.harmonic import AlmSet, alm_rows
from needlet_whittle.sphere import (
    _SEED_BLOCK,
    CubatureGrid,
    build_grid,
    empirical_beta_correlation,
    legendre_table,
    synthesize_beta,
)

from conftest import held_within_bound

def reference_beta(alm, grid, p, B):
    """The former synthesis, kept as a reference: the full Legendre table
    contracted with the coefficients, longitudes from dense cos/sin products."""
    window = MexicanWindow(p=p, B=B)
    l_max = window.effective_lmax(grid.j, alm.l_max)
    table = legendre_table(l_max, grid.ring_cos)
    fl = np.zeros(l_max + 1)
    fl[1:] = window.window(np.arange(1, l_max + 1, dtype=float) / B**grid.j)
    re = np.zeros((l_max + 1, l_max + 1))
    im = np.zeros((l_max + 1, l_max + 1))
    for l in range(1, l_max + 1):
        row = alm.row(l)
        re[l, : l + 1] = fl[l] * row.real
        im[l, : l + 1] = fl[l] * row.imag
    gc = np.einsum("lmi,lm->mi", table, re)
    gs = np.einsum("lmi,lm->mi", table, im)
    ang = np.outer(np.arange(l_max + 1, dtype=float), grid.phis())
    field = gc[0][:, None] + 2.0 * (np.cos(ang[1:]).T @ gc[1:] - np.sin(ang[1:]).T @ gs[1:]).T
    return np.sqrt(grid.weights()) * field.ravel()


class TestGrid:
    def test_total_weight_is_sphere_area(self):
        for j in (2, 4, 6):
            grid = build_grid(j, 2.0)
            assert grid.weights().sum() == pytest.approx(4 * math.pi, rel=1e-10)

    def test_y00_integral(self):
        grid = build_grid(3, 2.0)
        y00 = 1.0 / math.sqrt(4 * math.pi)
        assert grid.weights().sum() * y00 == pytest.approx(math.sqrt(4 * math.pi), rel=1e-10)

    def test_ylm_norm_within_band_limit(self):
        grid = build_grid(3, 2.0)  # 16 rings: exact through l = 15
        table = legendre_table(grid.gl_band_limit, grid.ring_cos)
        for l, m in [(1, 0), (5, 3), (15, 15), (12, 0)]:
            ring_sq = table[l, m] ** 2  # phi-average of |Y_lm|^2 is P^2
            total = float(np.sum(grid.ring_weight * ring_sq)) * grid.n_phi
            assert total == pytest.approx(1.0, rel=1e-8), (l, m)

    def test_scaling_with_level(self):
        # N_j tracks B^2j with a fixed density constant
        n3 = build_grid(3, 2.0).n_points
        n5 = build_grid(5, 2.0).n_points
        assert n5 / n3 == pytest.approx(2.0**4, rel=0.01)

    def test_point_cap(self):
        with pytest.raises(ResourceLimitError):
            build_grid(10, 2.0)


class TestLegendre:
    def test_addition_theorem(self):
        # sum_m |Y_lm|^2 = (2l+1)/(4 pi) at every node, l <= 64
        grid = build_grid(3, 2.0)
        table = legendre_table(64, grid.ring_cos)
        for l in (1, 2, 7, 31, 64):
            total = table[l, 0] ** 2 + 2 * np.sum(table[l, 1 : l + 1] ** 2, axis=0)
            assert np.allclose(total, (2 * l + 1) / (4 * math.pi), rtol=1e-10), l

    def test_high_degree_stability(self):
        costh = np.cos(np.linspace(0.05, math.pi - 0.05, 9))
        table = legendre_table(2048, costh)
        assert np.all(np.isfinite(table))
        # |Y_lm| <= sqrt((2l+1)/(4 pi)) for all (l, m)
        ls = np.arange(2049)
        bound = np.sqrt((2 * ls + 1) / (4 * math.pi))
        assert np.all(np.abs(table) <= bound[:, None, None] * (1 + 1e-9))

    def test_mirror_symmetry_bit_for_bit(self):
        # the hemisphere synthesis rests on P_lm(-x) = (-1)^(l+m) P_lm(x)
        # holding exactly in the recurrence, not just to rounding
        x = np.polynomial.legendre.leggauss(33)[0]
        x = np.concatenate([x[x >= 0], np.cos(np.linspace(0.01, 1.5, 11))])
        l = np.arange(401)
        sign = (-1.0) ** (l[:, None] + l[None, :])
        assert np.array_equal(legendre_table(400, -x), sign[:, :, None] * legendre_table(400, x))

    def test_values_vs_scipy(self):
        from scipy.special import sph_harm_y

        costh = np.array([0.3, -0.7])
        table = legendre_table(12, costh)
        for l, m in [(0, 0), (3, 0), (7, 4), (12, 12)]:
            want = sph_harm_y(l, m, np.arccos(costh), 0.0).real
            assert np.allclose(table[l, m], want, rtol=1e-10), (l, m)


class TestLegendreCoefficients:
    """Recurrence coefficients kept across fields, against fresh ones byte for
    byte.  Both sides are computed on one host, so these hold under numpy's
    AVX-512 and AVX2 loops alike (CI reruns them with AVX-512 off)."""

    def test_field_from_kept_coefficients_matches_fresh(self, monkeypatch, fresh_store, canonical_model):
        grid = build_grid(5, 2.0)
        alm = simulate_alm(canonical_model, MexicanWindow(p=2, B=2.0).effective_lmax(5, 4096), 3)
        field = lambda: synthesize_beta(alm, grid, p=2, B=2.0).values.tobytes()
        with monkeypatch.context() as m:
            nothing_kept = needlet.Kept(0)
            m.setattr(sphere, "_BLOCKS", nothing_kept)
            fresh = field()
        assert not nothing_kept._entries and not sphere._BLOCKS._entries  # nothing kept at a zero bound
        assert field() == fresh
        assert sphere._BLOCKS._entries  # the field kept its blocks
        assert field() == fresh

    def test_cache_within_its_byte_bound(self, fresh_store):
        # degree 900 needs 113 blocks, ~6.5 MB: the oldest are evicted and
        # computed anew, and the table is the same either way
        x = np.cos(np.linspace(0.1, 3.0, 2))
        cold = legendre_table(900, x)
        held_within_bound(sphere._BLOCKS)
        blocks = sphere._BLOCKS._entries
        assert 0 < len(blocks) < -(-900 // sphere._DEGREE_BLOCK)
        for block in blocks.values():
            with pytest.raises(ValueError):
                block[0][0, 0] = 1.0
        assert legendre_table(900, x).tobytes() == cold.tobytes()


class TestSynthesizeBeta:
    def test_zero_coefficients(self):
        grid = build_grid(3, 2.0)
        alm = AlmSet(l_max=32, seed=0, data=np.zeros(32 * 35 // 2, dtype=complex))
        beta = synthesize_beta(alm, grid, p=2, B=2.0)
        assert np.all(beta.values == 0.0)

    def test_single_coefficient_pointwise(self):
        # only a_10 set: beta_k = sqrt(w_k) f_p(1/B^j) a_10 Y_10(xi_k)
        grid = build_grid(2, 2.0)
        alm = AlmSet(l_max=8, seed=0, data=np.zeros(8 * 11 // 2, dtype=complex))
        alm.data[0] = 1.0  # a_10
        beta = synthesize_beta(alm, grid, p=2, B=2.0)
        win = MexicanWindow(p=2, B=2.0)
        th, _ = grid.points()
        y10 = math.sqrt(3.0 / (4 * math.pi)) * np.cos(th)
        expected = np.sqrt(grid.weights()) * float(win.window(np.array(1.0 / 4.0))) * y10
        assert np.allclose(beta.values, expected, atol=1e-14)

    def test_frame_identity(self, canonical_model):
        # sum_k beta^2 vs lambda_hat within 3% (j = 3, 4 smoke; the acceptance
        # suite sweeps B^j in [8, 64] over 20 seeds)
        win = MexicanWindow(p=2, B=2.0)
        for j in (3, 4):
            grid = build_grid(j, 2.0)
            l_max = win.effective_lmax(j, 4096)
            for seed in (1, 2, 3):
                alm = simulate_alm(canonical_model, l_max, seed)
                beta = synthesize_beta(alm, grid, p=2, B=2.0)
                lam = lambda_hat(empirical_cl(alm), win, j)
                assert abs(beta.sum_sq() - lam) / lam < 0.03

    def test_matches_reference_synthesis(self, canonical_model):
        win = MexicanWindow(p=2, B=2.0)
        for j in (3, 4, 5):
            grid = build_grid(j, 2.0)
            for seed in (1, 2, 3):
                alm = simulate_alm(canonical_model, win.effective_lmax(j, 4096), seed)
                want = reference_beta(alm, grid, 2, 2.0)
                got = synthesize_beta(alm, grid, p=2, B=2.0).values
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (j, seed)

    @pytest.mark.parametrize("l,m", [(12, 9), (17, 13), (21, 16), (21, 21)])
    def test_single_coefficient_above_nyquist(self, l, m):
        # j = 2: 8 rings, 16 longitudes, l_max 21; m above n_phi / 2 = 8
        # aliases on the grid, and m >= 16 wraps modulo n_phi (16 onto 0)
        from scipy.special import sph_harm_y

        grid = build_grid(2, 2.0)
        assert (grid.n_theta, grid.n_phi) == (8, 16)
        alm = AlmSet(l_max=21, seed=0, data=np.zeros(21 * 24 // 2, dtype=complex))
        a = 0.3 - 0.7j
        alm.row(l)[m] = a
        beta = synthesize_beta(alm, grid, p=2, B=2.0)
        th, ph = grid.points()
        # a_lm Y_lm + a_l,-m Y_l,-m = 2 Re(a_lm Y_lm) by the reality condition
        field = 2.0 * (a * sph_harm_y(l, m, th, ph)).real
        fl = float(MexicanWindow(p=2, B=2.0).window(np.array(l / 4.0)))
        expected = np.sqrt(grid.weights()) * fl * field
        assert np.allclose(beta.values, expected, rtol=1e-10, atol=1e-12 * np.max(np.abs(expected)))

    def test_odd_ring_count_with_equator(self, canonical_model):
        # 15 rings: seven mirror pairs and the equator, which has no mirror
        grid = build_grid(5, 1.5)
        assert grid.n_theta == 15 and 0.0 in grid.ring_cos
        alm = simulate_alm(canonical_model, 64, seed=6)
        want = reference_beta(alm, grid, 2, 1.5)
        got = synthesize_beta(alm, grid, p=2, B=1.5).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_hand_built_asymmetric_grid(self, canonical_model):
        # rings paired by exact |cos theta| only: three mirror pairs, the
        # equator and unpaired rings on both sides, with an odd longitude count
        # (m and m + n_phi then differ in parity)
        ring_cos = np.array(
            [-0.95, -0.8, -0.61, -0.5, -0.33, -0.2, -0.07, 0.0, 0.12,
             0.2, 0.29, 0.5, 0.58, 0.74, 0.8, 0.9, 0.99]
        )
        weights = np.linspace(0.5, 1.5, len(ring_cos)) * (2 * math.pi / 31)
        grid = CubatureGrid(j=3, B=2.0, ring_cos=ring_cos, ring_weight=weights, n_phi=31)
        alm = simulate_alm(canonical_model, 48, seed=8)
        want = reference_beta(alm, grid, 2, 2.0)
        got = synthesize_beta(alm, grid, p=2, B=2.0).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("block", [1, 3, 1000])
    def test_degree_blocks_do_not_change_the_field(self, canonical_model, monkeypatch, block):
        # j = 2: 16 longitudes, l_max 21 (not a multiple of 8, and past n_phi)
        grid = build_grid(2, 2.0)
        alm = simulate_alm(canonical_model, 21, seed=3)
        assert MexicanWindow(p=2, B=2.0).effective_lmax(2, alm.l_max) == 21 >= grid.n_phi
        default = synthesize_beta(alm, grid, p=2, B=2.0).values
        monkeypatch.setattr("needlet_whittle.sphere._DEGREE_BLOCK", block)
        other = synthesize_beta(alm, grid, p=2, B=2.0).values
        assert np.allclose(other, default, rtol=1e-13, atol=1e-13 * np.max(np.abs(default)))

    def test_memory_at_level_6(self, canonical_model):
        # one field streams its rows: buffers of O(L N_theta) and amplitudes
        # of O(n_phi N_theta), never a Legendre table
        import tracemalloc

        grid = build_grid(6, 2.0)
        alm = simulate_alm(canonical_model, MexicanWindow(p=2, B=2.0).effective_lmax(6, 4096), 2)
        tracemalloc.start()
        try:
            synthesize_beta(alm, grid, p=2, B=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_coefficients_left_unchanged(self, canonical_model):
        # the m >= 1 doubling works on a copy of each row
        grid = build_grid(3, 2.0)
        alm = simulate_alm(canonical_model, 32, seed=4)
        before = alm.data.copy()
        first = synthesize_beta(alm, grid, p=2, B=2.0).values
        assert alm.data.tobytes() == before.tobytes()
        assert np.array_equal(synthesize_beta(alm, grid, p=2, B=2.0).values, first)

    def test_band_limit_error(self, canonical_model):
        grid = build_grid(2, 2.0, oversample=0.2)  # too coarse for its level
        alm = simulate_alm(canonical_model, 32, seed=1)
        with pytest.raises(BandLimitError):
            synthesize_beta(alm, grid, p=4, B=2.0)

    def test_b_must_be_the_grids(self, canonical_model):
        # the level-4 grid at B = 2 filtered with B = 1.5 would be another level's field
        alm = simulate_alm(canonical_model, 64, seed=1)
        with pytest.raises(DomainError, match="grid"):
            synthesize_beta(alm, build_grid(4, 2.0), 2, 1.5)

    def test_csv(self, canonical_model, tmp_path):
        grid = build_grid(2, 2.0)
        alm = simulate_alm(canonical_model, 16, seed=1)
        beta = synthesize_beta(alm, grid, p=2, B=2.0)
        path = tmp_path / "beta.csv"
        beta.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,theta,phi,weight,beta"
        assert len(lines) == grid.n_points + 1


class TestPinnedSynthesis:
    """The bits of four fields: sum beta^2 and three beta values (first, a
    third of the way in, last) at levels 3 and 4 for two seeds.  A change that
    moves them must update this pin and say why.  They hold for one numpy and
    BLAS build: a matrix product may sum in another order elsewhere."""

    PINS = {
        (3, 1): ("0.03509066061357584", "-0.009178995538531775", "0.0028224039778490047",
                 "0.0034981416829013585"),
        (3, 2): ("0.04581722659805106", "-0.00020489253442901927", "-0.002048190834856119",
                 "-0.0006841883769670661"),
        (4, 1): ("0.018319442301175624", "-0.001475717010822577", "-0.001986580859019502",
                 "-4.908593257418815e-05"),
        (4, 2): ("0.019215631296385163", "-2.1034875238652965e-05", "-0.0016788602597255162",
                 "-0.0006637826534437141"),
    }

    @pytest.mark.parametrize("j, seed", list(PINS), ids=["j3-seed1", "j3-seed2", "j4-seed1", "j4-seed2"])
    def test_field_bits(self, j, seed, canonical_model):
        alm = simulate_alm(canonical_model, MexicanWindow(p=2, B=2.0).effective_lmax(j, 4096), seed)
        beta = synthesize_beta(alm, build_grid(j, 2.0), p=2, B=2.0)
        n = len(beta.values)
        got = (beta.sum_sq(), *(beta.values[k] for k in (0, n // 3, n - 1)))
        assert tuple(repr(float(v)) for v in got) == self.PINS[j, seed]

    @pytest.mark.parametrize("block", [1, 3, 8])
    def test_table_rows_are_the_fields_rows(self, monkeypatch, block):
        # the field writes each Legendre row in place into its block buffer;
        # the table stacks the rows of the same recurrence step
        monkeypatch.setattr("needlet_whittle.sphere._DEGREE_BLOCK", block)
        grid = build_grid(3, 2.0)
        window = MexicanWindow(p=2, B=2.0)
        l_max = window.effective_lmax(3, 4096)
        field = sphere._NeedletField(grid, window, l_max, n_sets=1)
        table = legendre_table(l_max, np.unique(np.abs(grid.ring_cos)))
        assert field._row(0).tobytes() == table[0, :1].tobytes()
        for l in range(1, l_max + 1):
            field.add(np.zeros((1, l + 1), dtype=complex))
            assert field._row(l).tobytes() == table[l, : l + 1].tobytes(), l


class TestBetaCorrelation:
    def test_same_point_unit_and_decay(self, canonical_model):
        summary = empirical_beta_correlation(
            canonical_model, 5, 5, p=2, B=2.0, n_seeds=300, master_seed=11
        )
        # nearest bins approach correlation 1 from below
        first = np.nonzero(summary.counts)[0][0]
        assert summary.max_abs[first] > 0.9
        # fitted decay exponent within 30% of 4p + 2 - alpha0 = 7
        assert summary.fitted_exponent == pytest.approx(7.0, rel=0.30)
        # antipodal bin decorrelates (noise floor ~ 1/sqrt(n_seeds))
        assert summary.far_field_mean() < 0.1

    def test_level_7_exponent_finite(self, canonical_model):
        # 700 of the 32,768 nodes, sampled as runs of ring neighbours, give the
        # nearest bins enough pairs for the main-lobe fit
        summary = empirical_beta_correlation(
            canonical_model, 7, 7, p=2, B=2.0, n_seeds=60, master_seed=1
        )
        assert math.isfinite(summary.fitted_exponent)
        assert summary.fitted_exponent == pytest.approx(summary.lemma_exponent, rel=0.30)

    @pytest.mark.parametrize(
        "j, B, max_points",
        [(3, 2.0, 700), (5, 2.0, 700), (5, 2.0, 150), (7, 2.0, sphere.CORRELATION_POINT_CAP),
         (3, 3.0, 700), (3, 3.0, 1457)],
    )
    def test_sampled_nodes(self, j, B, max_points):
        grid = build_grid(j, B, oversample=0.5)
        idx = sphere._sample_nodes(grid, max_points, np.random.default_rng(j))
        assert len(np.unique(idx)) == len(idx) <= min(max_points, grid.n_points)
        assert 0 <= idx.min() and idx.max() < grid.n_points
        if grid.n_points <= max_points:  # a small grid is taken whole
            assert len(idx) == grid.n_points
            return
        runs = idx.reshape(-1, sphere._NODE_RUN)
        per_ring = grid.n_phi // sphere._NODE_RUN
        assert len(runs) == min(max_points // sphere._NODE_RUN, grid.n_theta * per_ring)
        assert (np.diff(runs, axis=1) == 1).all()  # neighbours along one ring
        assert (runs[:, 0] // grid.n_phi == runs[:, -1] // grid.n_phi).all()

    def test_seed_blocks_do_not_change_the_summary(self, canonical_model, monkeypatch):
        # seeds are synthesised in blocks; a block boundary must not show
        args = (canonical_model, 3, 4)
        kwargs = dict(p=2, B=2.0, n_seeds=_SEED_BLOCK + 5, master_seed=5, max_points=150)
        blocked = empirical_beta_correlation(*args, **kwargs)
        monkeypatch.setattr("needlet_whittle.sphere._SEED_BLOCK", 1)
        single = empirical_beta_correlation(*args, **kwargs)
        assert np.allclose(blocked.mean_abs, single.mean_abs, rtol=1e-12, atol=0)
        assert np.allclose(blocked.max_abs, single.max_abs, rtol=1e-12, atol=0)
        assert np.array_equal(blocked.counts, single.counts)

    def test_one_draw_per_seed_block(self, canonical_model, monkeypatch):
        # with j2 != j both grids are fed from one stream of rows per block,
        # drawn up to the larger level's L
        calls = []

        def recording_alm_rows(model, l_max, seeds):
            calls.append((l_max, len(seeds)))
            return alm_rows(model, l_max, seeds)

        monkeypatch.setattr("needlet_whittle.sphere.alm_rows", recording_alm_rows)
        empirical_beta_correlation(
            canonical_model, 3, 4, p=2, B=2.0, n_seeds=_SEED_BLOCK + 5, max_points=150
        )
        l_max = MexicanWindow(p=2, B=2.0).effective_lmax(4, 10**9)
        assert calls == [(l_max, _SEED_BLOCK), (l_max, 5)]

    def test_block_memory_bounded(self, canonical_model):
        # a block of seeds is drawn row by row, never as packed sets: the
        # peak is the (S, n_phi, N_theta) amplitudes, as even-l and odd-l
        # sums, and one matmul product of their size, ~12 MB at j = 6
        import tracemalloc

        tracemalloc.start()
        try:
            empirical_beta_correlation(
                canonical_model, 6, 6, p=2, B=2.0, n_seeds=_SEED_BLOCK, max_points=200
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_point_count_capped_before_allocation(self, canonical_model):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="max_points"):
                empirical_beta_correlation(
                    canonical_model, 3, 3, p=2, B=2.0, n_seeds=4,
                    max_points=sphere.CORRELATION_POINT_CAP + 1,
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_seed_count_capped_before_allocation(self, canonical_model):
        import tracemalloc

        n_seeds = sphere.CORRELATION_SEED_CAP + 1
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                empirical_beta_correlation(canonical_model, 3, 3, p=2, B=2.0, n_seeds=n_seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_lemma_exponent_field(self, canonical_model):
        summary = empirical_beta_correlation(
            canonical_model, 4, 4, p=2, B=2.0, n_seeds=60, master_seed=3, max_points=200
        )
        assert summary.lemma_exponent == 7.0
