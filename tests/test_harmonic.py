import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from needlet_whittle import (
    AlmSet,
    DomainError,
    EmpiricalSpectrum,
    KappaCorrection,
    NeedletWhittleError,
    PowerSpectrumModel,
    RationalCorrection,
    ResourceLimitError,
    alm_row,
    alm_rows,
    c_l,
    chat_moments,
    empirical_cl,
    simulate_alm,
)
from needlet_whittle import harmonic
from needlet_whittle.harmonic import _pcg64_states


def reference_row(model, l, seed):
    """The per-row complex construction the in-place fill must reproduce."""
    z = np.random.default_rng(
        np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF, l))
    ).standard_normal(2 * l + 1)
    c = c_l(model, l)
    row = np.empty(l + 1, dtype=complex)
    row[0] = np.sqrt(c) * z[0]
    row[1:] = np.sqrt(c / 2.0) * (z[1::2] + 1j * z[2::2])
    return row


def reference_simulate(model, l_max, seed):
    data = np.empty(l_max * (l_max + 3) // 2, dtype=complex)
    for l in range(1, l_max + 1):
        s = (l - 1) * (l + 2) // 2
        data[s : s + l + 1] = reference_row(model, l, seed)
    return data


def reference_empirical_cl(alm):
    """c-hat from one whole-set reduction, the form the blocked one must keep."""
    mag = alm.data.real**2 + alm.data.imag**2
    ls = np.arange(1, alm.l_max + 1)
    starts = (ls - 1) * (ls + 2) // 2
    sums = np.add.reduceat(mag, starts)
    return np.concatenate([[0.0], (2.0 * sums - mag[starts]) / (2 * ls + 1)])


PINNED_MODELS = [
    PowerSpectrumModel(alpha0=3.0),
    PowerSpectrumModel(alpha0=2.7, g0=1.3, correction=KappaCorrection(kappa=0.8)),
    PowerSpectrumModel(
        alpha0=3.4, g0=0.7, correction=RationalCorrection((1.0, 2.0, 0.5), (3.0, 1.0))
    ),
]


class TestPinnedDraws:
    """The in-place fill keeps the per-(seed, l) draws byte for byte."""

    @pytest.mark.parametrize("model", PINNED_MODELS, ids=["none", "kappa", "rational"])
    @pytest.mark.parametrize("l_max", [1, 2, 33, 1024])
    @pytest.mark.parametrize("seed", [0, -3, 2**63 + 5, 2**64 + 1])
    def test_simulate_matches_reference(self, model, l_max, seed):
        got = simulate_alm(model, l_max, seed).data
        assert got.tobytes() == reference_simulate(model, l_max, seed).tobytes()

    @pytest.mark.parametrize("model", PINNED_MODELS, ids=["none", "kappa", "rational"])
    def test_alm_row_matches_simulate(self, model):
        alm = simulate_alm(model, 33, seed=12345)
        for l in range(1, 34):
            assert alm_row(model, l, 12345).tobytes() == alm.row(l).tobytes()

    @pytest.mark.parametrize("model", PINNED_MODELS, ids=["none", "kappa", "rational"])
    def test_alm_rows_match_alm_row(self, model):
        seeds = [0, -3, 2**63 + 5, 2**64 + 1]
        for l, stack in enumerate(alm_rows(model, 33, seeds), start=1):
            assert stack.shape == (len(seeds), l + 1)
            for i, seed in enumerate(seeds):
                assert stack[i].tobytes() == alm_row(model, l, seed).tobytes(), (l, seed)
        assert l == 33


class TestVectorisedSeeding:
    """Every row's PCG64 state comes from one vectorised pass over numpy's
    SeedSequence and PCG64 seeding; a change to either in numpy fails here."""

    SEEDS = [0, 7, 12345, -3, 2**32 - 1, 2**32, 2**63 + 5, 2**64 + 1]
    LS = [1, 2, 1023, 1024, 8192]

    def test_states_equal_numpy_seeding(self):
        states, incs = _pcg64_states(self.SEEDS, self.LS)
        for i, seed in enumerate(self.SEEDS):
            for k, l in enumerate(self.LS):
                ref = np.random.PCG64(np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, l)))
                assert ref.state["state"] == {"state": states[i][k], "inc": incs[i][k]}, (seed, l)

    def test_mixed_word_seeds_in_one_block(self, canonical_model):
        # seeds below 2^32 enter SeedSequence as one word, the others as two;
        # with 64 seeds alm_rows seeds 32 degrees per pass, so l_max 64 spans two
        seeds = [base + k for base in (0, 2**32 - 8, 2**32, 2**64 + 1) for k in range(16)]
        for l, stack in enumerate(alm_rows(canonical_model, 64, seeds), start=1):
            for i, seed in enumerate(seeds):
                assert stack[i].tobytes() == reference_row(canonical_model, l, seed).tobytes()
        assert l == 64


class TestSimulateAlm:
    def test_deterministic(self, canonical_model):
        a = simulate_alm(canonical_model, 64, seed=42)
        b = simulate_alm(canonical_model, 64, seed=42)
        assert np.array_equal(a.data, b.data)

    def test_rows_order_independent(self, canonical_model):
        # any degree row equals the standalone per-(seed, l) draw
        a = simulate_alm(canonical_model, 32, seed=7)
        for l in (1, 5, 32):
            assert np.array_equal(a.row(l), alm_row(canonical_model, l, 7))

    def test_g0_scaling_same_seed(self):
        m1 = PowerSpectrumModel(alpha0=3.0, g0=1.0)
        m4 = PowerSpectrumModel(alpha0=3.0, g0=4.0)
        a1 = simulate_alm(m1, 48, seed=3)
        a4 = simulate_alm(m4, 48, seed=3)
        assert np.allclose(a4.data, 2.0 * a1.data, rtol=1e-15)

    def test_a_l0_real(self, canonical_model):
        a = simulate_alm(canonical_model, 16, seed=1)
        for l in range(1, 17):
            assert a.row(l)[0].imag == 0.0

    def test_second_moment_at_l512(self, canonical_model):
        # mean of |a_lm|^2 over the 2l+1 coefficients is c-hat_l, whose
        # chi-square law gives Var = 2 C^2 / (2l+1)
        l = 512
        row = alm_row(canonical_model, l, seed=2024)
        cl = c_l(canonical_model, l)
        mean_sq = (abs(row[0]) ** 2 + 2 * np.sum(np.abs(row[1:]) ** 2)) / (2 * l + 1)
        se = cl * math.sqrt(2.0 / (2 * l + 1))
        assert abs(mean_sq - cl) < 5 * se

    def test_lmax_cap(self, canonical_model):
        with pytest.raises(ResourceLimitError):
            simulate_alm(canonical_model, 10_000, seed=0)


class TestEmpiricalCl:
    def test_zero_coefficients(self):
        alm = AlmSet(l_max=4, seed=0, data=np.zeros(4 * 7 // 2, dtype=complex))
        spec = empirical_cl(alm)
        assert np.all(spec.values == 0.0)

    def test_single_term(self):
        # a_10 = 1, everything else zero: c-hat_1 = 1/3
        alm = AlmSet(l_max=2, seed=0, data=np.zeros(5, dtype=complex))
        alm.data[0] = 1.0
        spec = empirical_cl(alm)
        assert spec.values[1] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert spec.values[2] == 0.0

    def test_matches_direct_sum(self, canonical_model):
        alm = simulate_alm(canonical_model, 24, seed=9)
        spec = empirical_cl(alm)
        for l in (1, 7, 24):
            row = alm.row(l)
            direct = (abs(row[0]) ** 2 + 2 * np.sum(np.abs(row[1:]) ** 2)) / (2 * l + 1)
            assert spec.values[l] == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("l_max", [1, 2, 3, 255, 256, 257, 1024, 4096])
    @pytest.mark.parametrize("seed", [1, -3, 2**64 + 1, 12345])
    def test_blocked_matches_whole_set_reduction(self, canonical_model, l_max, seed):
        # l_max 255..257 and up put a row across a block edge
        alm = simulate_alm(canonical_model, l_max, seed)
        assert empirical_cl(alm).values.tobytes() == reference_empirical_cl(alm).tobytes()

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_rows_longer_than_a_block(self, canonical_model, monkeypatch, block):
        # past l = block a row spans whole blocks, some of which end no row
        monkeypatch.setattr(harmonic, "_CL_BLOCK", block)
        alm = simulate_alm(canonical_model, 100, seed=7)
        assert empirical_cl(alm).values.tobytes() == reference_empirical_cl(alm).tobytes()

    def test_memory_is_one_block(self, canonical_model):
        # the whole-set expression peaked at ~128 MiB here
        alm = simulate_alm(canonical_model, 4096, seed=1)
        tracemalloc.start()
        try:
            empirical_cl(alm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_unbiased_monte_carlo(self, canonical_model):
        # mean over 10^4 seeds at l = 64 within the 4-sigma band of the
        # chi-square law: Var(c-hat/C) = 2/(2l+1)
        l, n = 64, 10_000
        cl = c_l(canonical_model, l)
        vals = np.empty(n)
        for s in range(n):
            row = alm_row(canonical_model, l, seed=s)
            vals[s] = (abs(row[0]) ** 2 + 2 * np.sum(np.abs(row[1:]) ** 2)) / (2 * l + 1)
        band = 4.0 * math.sqrt(2.0 / ((2 * l + 1) * n))
        assert abs(vals.mean() / cl - 1.0) < band


class TestChatMoments:
    def test_variance_formula(self):
        m = PowerSpectrumModel(alpha0=3.0)  # C_1 = 1
        assert chat_moments(m, 1).variance == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_cum4_chi_square_oracle(self):
        # kappa_4 of chi2_k is 48 k; c-hat = C * chi2_k / k with k = 2l+1
        m = PowerSpectrumModel(alpha0=3.0)
        k = 3
        expected = 48.0 * k / k**4  # C_1 = 1
        assert chat_moments(m, 1).cum4 == pytest.approx(expected, rel=1e-15)
        assert chat_moments(m, 1).cum4 == pytest.approx(48.0 / 27.0, rel=1e-15)

    def test_cum4_order_bound(self):
        # cum4 * l^3 * l^(4 alpha0) stays bounded for C_l = l^-alpha0
        m = PowerSpectrumModel(alpha0=3.0)
        ls = np.unique(np.geomspace(2, 2048, 30).astype(int))
        scaled = np.array([chat_moments(m, int(l)).cum4 * l**3 * l ** (4 * 3.0) for l in ls])
        assert scaled.max() <= 48.0 / 8.0 + 1e-9  # sup at (2l+1)^3 ~ (2l)^3

    def test_chi_square_law_ks(self, canonical_model):
        # (2l+1) c-hat / C passes a KS test against chi2_{2l+1}
        l, n = 16, 1000
        cl = c_l(canonical_model, l)
        vals = np.empty(n)
        for s in range(n):
            row = alm_row(canonical_model, l, seed=10_000 + s)
            vals[s] = (abs(row[0]) ** 2 + 2 * np.sum(np.abs(row[1:]) ** 2)) / cl
        assert stats.kstest(vals, stats.chi2(df=2 * l + 1).cdf).pvalue > 1e-3

    def test_independence_across_l(self, canonical_model):
        n = 2000
        a = np.empty(n)
        b = np.empty(n)
        for s in range(n):
            for arr, l in ((a, 24), (b, 37)):
                row = alm_row(canonical_model, l, seed=20_000 + s)
                arr[s] = (abs(row[0]) ** 2 + 2 * np.sum(np.abs(row[1:]) ** 2)) / (2 * l + 1)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(n)


class TestSerialization:
    def test_alm_roundtrip(self, canonical_model, tmp_path):
        a = simulate_alm(canonical_model, 32, seed=11)
        path = tmp_path / "a.alm.bin"
        a.save(path)
        b = AlmSet.load(path)
        assert b.l_max == a.l_max and b.seed == a.seed
        assert np.array_equal(a.data, b.data)

    def test_spectrum_roundtrip_binary_and_csv(self, canonical_model, tmp_path):
        spec = empirical_cl(simulate_alm(canonical_model, 32, seed=11))
        p1 = tmp_path / "s.bin"
        p2 = tmp_path / "s.csv"
        spec.save(p1)
        spec.to_csv(p2)
        b = EmpiricalSpectrum.load(p1)
        c = EmpiricalSpectrum.from_csv(p2)
        assert np.array_equal(spec.values, b.values)
        assert np.allclose(spec.values, c.values, rtol=0, atol=0)  # 17 sig digits round-trip

    @pytest.mark.parametrize(
        "l_max, seed, alm_sha, spectrum_sha",
        [
            (
                64,
                5,
                "638b2eaa288426d3eb0949b5adbc78270583372f660f80473e5f91e22ec0820b",
                "26f7dafa21117a027a7e8b9d8e6a598f5186a8d6eff2a8f5fc690a19a8d0fc5d",
            ),
            (
                300,
                -3,
                "a121d245777b13478e6fd9e6ddd7495e5c9adb96b1d7ef65e26d2ee26464f629",
                "e48c6f000680a813fe39edc7cbd73fc00dd2fd9255e85b45ed685103373a82c4",
            ),
        ],
    )
    def test_saved_files_pinned(self, canonical_model, tmp_path, l_max, seed, alm_sha, spectrum_sha):
        alm = simulate_alm(canonical_model, l_max, seed)
        alm.save(tmp_path / "a.alm.bin")
        empirical_cl(alm).save(tmp_path / "a.spectrum.bin")
        assert hashlib.sha256((tmp_path / "a.alm.bin").read_bytes()).hexdigest() == alm_sha
        assert hashlib.sha256((tmp_path / "a.spectrum.bin").read_bytes()).hexdigest() == spectrum_sha

    def test_save_and_load_hold_one_copy(self, canonical_model, tmp_path):
        alm = simulate_alm(canonical_model, 1024, seed=3)
        path = tmp_path / "a.alm.bin"
        tracemalloc.start()
        try:
            alm.save(path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = AlmSet.load(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak < 2**20  # the set is 8.4 MB: no byte copy of it
        # the set and one block's finiteness flags: no copy, no per-coefficient flags
        assert load_peak < 1.03 * alm.data.nbytes
        assert loaded.data.tobytes() == alm.data.tobytes()
        assert loaded.data.dtype == np.complex128 and loaded.data.flags.writeable

    def test_row_bounds(self, canonical_model):
        a = simulate_alm(canonical_model, 8, seed=0)
        with pytest.raises(DomainError):
            a.row(9)


def _file_bytes(magic: bytes, l_max: int, payload: np.ndarray) -> bytes:
    """A binary file as ``save`` writes it: magic, version 1, l_max, seed 0."""
    return struct.pack("<8sIIq", magic, 1, l_max, 0) + payload.tobytes()


def _spectrum_bytes(values) -> bytes:
    return _file_bytes(b"NWSPECTR", len(values), np.asarray(values, "<f8"))


GOOD_BIN = _spectrum_bytes(np.linspace(1.0, 2.0, 8))
GOOD_ALM = _file_bytes(
    b"NWALMSET", 8, simulate_alm(PowerSpectrumModel(alpha0=3.0), 8, seed=1).data.astype("<c16")
)
GOOD_CSV = "l,c_hat\n" + "".join(f"{l},{1.0 / l}\n" for l in range(1, 9))


class TestMalformedFiles:
    """Every loader rejects a malformed file with NeedletWhittleError."""

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(GOOD_BIN[:4], id="short-header"),
            pytest.param(GOOD_BIN[:-3], id="payload-cut-3-bytes"),
            pytest.param(GOOD_BIN + b"\0" * 8, id="payload-too-long"),
            pytest.param(GOOD_BIN[:12] + b"\0\0\0\0" + GOOD_BIN[16:24], id="l-max-zero"),
            pytest.param(_spectrum_bytes(np.array([1.0, -1.0, 1.0])), id="negative"),
            pytest.param(_spectrum_bytes(np.array([1.0, np.nan])), id="nan"),
            pytest.param(_spectrum_bytes(np.array([np.inf, 1.0])), id="inf"),
        ],
    )
    def test_spectrum_binary(self, tmp_path, content):
        path = tmp_path / "s.spectrum.bin"
        path.write_bytes(content)
        with pytest.raises(NeedletWhittleError):
            EmpiricalSpectrum.load(path)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("l,c_hat\n", id="header-only"),
            pytest.param("l,c_hat\n1,abc\n", id="non-numeric"),
            pytest.param("l,c_hat\n1\n", id="one-cell"),
            pytest.param(GOOD_CSV + "-1,5.0\n", id="negative-l"),
            pytest.param(GOOD_CSV + "0,5.0\n", id="l-zero"),
            pytest.param(GOOD_CSV + "3,5.0\n", id="duplicate-l"),
            pytest.param(GOOD_CSV.replace("5,0.2\n", ""), id="missing-l"),
            pytest.param(GOOD_CSV + "1000000000000,1.0\n", id="far-l"),
            pytest.param(GOOD_CSV.replace("2,0.5", "2,-0.5"), id="negative-value"),
            pytest.param(GOOD_CSV.replace("2,0.5", "2,nan"), id="nan-value"),
            pytest.param(GOOD_CSV.replace("2,0.5", "2,inf"), id="inf-value"),
        ],
    )
    def test_spectrum_csv(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(NeedletWhittleError):
            EmpiricalSpectrum.from_csv(path)

    def test_well_formed_files_load(self, tmp_path):
        (tmp_path / "s.bin").write_bytes(GOOD_BIN)
        (tmp_path / "s.csv").write_text(GOOD_CSV)
        assert EmpiricalSpectrum.load(tmp_path / "s.bin").l_max == 8
        assert EmpiricalSpectrum.from_csv(tmp_path / "s.csv").l_max == 8

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(GOOD_ALM[:4], id="short-header"),
            pytest.param(GOOD_ALM[:-3], id="payload-cut-3-bytes"),
            pytest.param(GOOD_ALM + b"\0" * 16, id="payload-too-long"),
            pytest.param(GOOD_ALM[:-16] + np.array([np.nan + 0j], "<c16").tobytes(), id="nan"),
            pytest.param(GOOD_BIN, id="spectrum-magic"),
        ],
    )
    def test_alm_binary(self, tmp_path, content):
        path = tmp_path / "a.alm.bin"
        path.write_bytes(content)
        with pytest.raises(NeedletWhittleError):
            AlmSet.load(path)


class TestSpectrumConstruction:
    """``EmpiricalSpectrum`` checks its values when built, not only when loaded."""

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([0.0, 1.0, np.inf, 1.0], id="inf"),
            pytest.param([0.0, np.nan, 1.0, 1.0], id="nan"),
            pytest.param([0.0, 1.0, 1.0, -1e-300], id="negative"),
            pytest.param([0.0, 1.0, 1.0], id="too-short"),
            pytest.param([0.0, 1.0, 1.0, 1.0, 1.0], id="too-long"),
        ],
    )
    def test_rejected(self, values):
        with pytest.raises(DomainError):
            EmpiricalSpectrum(l_max=3, values=np.array(values))

    def test_accepted(self):
        spec = EmpiricalSpectrum(l_max=3, values=np.array([0.0, 1.0, 0.0, 2.0]))
        assert spec.values[3] == 2.0
