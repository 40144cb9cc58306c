import numpy as np
import pytest

from needlet_whittle import EmpiricalSpectrum, PowerSpectrumModel, c_l, needlet, sphere


def chi2_spectrum(model: PowerSpectrumModel, l_max: int, seed) -> EmpiricalSpectrum:
    """Oracle spectrum draw: (2l+1) c-hat_l / C_l ~ chi-square(2l+1) exactly.

    Equivalent in law to the coefficient-level simulation but much cheaper;
    used where tests need many replications of c-hat alone.  The law itself is
    verified against the coefficient path in the harmonic tests.
    """
    ls = np.arange(1, l_max + 1)
    cl = c_l(model, ls)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = np.concatenate([[0.0], cl * rng.chisquare(2 * ls + 1) / (2 * ls + 1)])
    return EmpiricalSpectrum(l_max=l_max, values=values)


def noise_free_spectrum(model: PowerSpectrumModel, l_max: int) -> EmpiricalSpectrum:
    ls = np.arange(1, l_max + 1)
    values = np.concatenate([[0.0], c_l(model, ls)])
    return EmpiricalSpectrum(l_max=l_max, values=values)


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-cases", type=int, default=0,
        help="seeded cases per entry point in test_fuzz.py (default: its fixed tier-1 sample)",
    )


@pytest.fixture(scope="session")
def canonical_model() -> PowerSpectrumModel:
    return PowerSpectrumModel(alpha0=3.0, g0=1.0)


@pytest.fixture
def fresh_store(monkeypatch):
    """Empty stores of kept arrays at their bound, for this test only: the
    fit's, ``needlet._KEPT``, which is returned, and ``sphere._BLOCKS``."""
    store = needlet.Kept(needlet.KEPT_BYTES)
    monkeypatch.setattr(needlet, "_KEPT", store)
    monkeypatch.setattr(sphere, "_BLOCKS", needlet.Kept(needlet.KEPT_BYTES))
    return store


def kept(store, kind: str) -> dict:
    """The store's entries of one kind, by their keys past the kind."""
    return {key[1:]: value for key, value in store._entries.items() if key[0] == kind}


def held_within_bound(store) -> int:
    """The bytes the store holds, checked against its count and its bound."""
    held = sum(needlet._nbytes(value) for value in store._entries.values())
    assert 0 < store.nbytes == held <= store.limit
    return held
