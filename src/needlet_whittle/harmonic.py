"""Harmonic-space simulation of isotropic Gaussian fields.

Coefficients a_lm are drawn directly in harmonic space: a_l0 ~ N(0, C_l) real,
and Re/Im of a_lm ~ N(0, C_l/2) independently for m >= 1.  Only m >= 0 is
stored; negative m follows from the reality condition
a_{l,-m} = (-1)^m conj(a_lm).

Randomness is split per (seed, l): the degree-l row is a pure function of the
pair, so partial simulations, per-degree draws and parallel execution all
produce bit-identical coefficients.  Gaussians come from numpy's
``Generator.standard_normal`` (PCG64 + ziggurat), fixed for this release.

Each row is drawn in place: its normals z_0..z_2l land straight in the packed
array, viewed as (re, im) float pairs, and are scaled there, with C_l for all
degrees from one vectorised ``c_l`` call.  ``simulate_alm`` and ``alm_row``
share that one fill.  The bytes equal those of building each row as
a_l0 = sqrt(C_l) z_0, a_lm = sqrt(C_l / 2) (z_{2m-1} + i z_{2m}), so the
draws are unchanged.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NeedletWhittleError, ResourceLimitError
from .spectrum import PowerSpectrumModel, c_l

__all__ = [
    "DEFAULT_LMAX_CAP",
    "AlmSet",
    "EmpiricalSpectrum",
    "ChatMoments",
    "alm_row",
    "simulate_alm",
    "empirical_cl",
    "chat_moments",
]

DEFAULT_LMAX_CAP = 8192

_ALM_MAGIC = b"NWALMSET"
_SPC_MAGIC = b"NWSPECTR"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIIq")  # magic, version, l_max, seed


def _row_start(l: int) -> int:
    return (l - 1) * (l + 2) // 2


def _packed_size(l_max: int) -> int:
    return l_max * (l_max + 3) // 2


def _load_binary(path, magic: bytes, kind: str, dtype: str, count) -> tuple[int, int, np.ndarray]:
    """(l_max, seed, payload) of a file written by ``save``; ``count(l_max)``
    is the payload length in items.  Anything else raises NeedletWhittleError."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        body = fh.read()
    if len(head) < _HEADER.size:
        raise NeedletWhittleError(f"{path}: truncated header ({len(head)} bytes)")
    found, version, l_max, seed = _HEADER.unpack(head)
    if found != magic:
        raise NeedletWhittleError(f"{path}: not an {kind} file")
    if version != _FORMAT_VERSION:
        raise NeedletWhittleError(f"{path}: unsupported version {version}")
    if l_max < 1:
        raise NeedletWhittleError(f"{path}: l_max={l_max} must be >= 1")
    expected = count(l_max) * np.dtype(dtype).itemsize
    if len(body) != expected:
        raise NeedletWhittleError(
            f"{path}: payload has {len(body)} bytes, l_max={l_max} needs {expected}"
        )
    return l_max, seed, np.frombuffer(body, dtype=dtype)


@dataclass
class AlmSet:
    """Packed triangular array of a_lm for 1 <= l <= l_max, 0 <= m <= l."""

    l_max: int
    seed: int
    data: np.ndarray  # complex128, length l_max*(l_max+3)/2

    def row(self, l: int) -> np.ndarray:
        """View of the (l, m >= 0) coefficients, length l + 1."""
        if not 1 <= l <= self.l_max:
            raise DomainError(f"l must be in [1, {self.l_max}]")
        s = _row_start(l)
        return self.data[s : s + l + 1]

    def coefficient(self, l: int, m: int) -> complex:
        if abs(m) > l:
            raise DomainError(f"|m| must be <= l, got m={m}, l={l}")
        if m >= 0:
            return complex(self.row(l)[m])
        return (-1) ** (-m) * complex(np.conj(self.row(l)[-m]))

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_ALM_MAGIC, _FORMAT_VERSION, self.l_max, self.seed))
            fh.write(np.ascontiguousarray(self.data, dtype="<c16").tobytes())

    @classmethod
    def load(cls, path) -> "AlmSet":
        l_max, seed, data = _load_binary(path, _ALM_MAGIC, "AlmSet", "<c16", _packed_size)
        if not np.all(np.isfinite(data)):
            raise NeedletWhittleError(f"{path}: non-finite coefficients")
        return cls(l_max=l_max, seed=seed, data=data.astype(np.complex128))


def _rng_for(seed: int, l: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF, l)))


def _draw_row(pairs: np.ndarray, l: int, seed: int, c: float) -> None:
    """Fill one degree-l row in place; ``pairs`` is its float64 (re, im) view,
    2l + 2 values.  z_0..z_2l land from Im a_l0 on; then a_l0 = sqrt(C_l) z_0
    moves to the real slot and the m >= 1 pairs take the sqrt(C_l / 2) scale."""
    _rng_for(seed, l).standard_normal(2 * l + 1, out=pairs[1:])
    pairs[0] = math.sqrt(c) * pairs[1]
    pairs[1] = 0.0
    pairs[2:] *= math.sqrt(c / 2.0)


def alm_row(model: PowerSpectrumModel, l: int, seed: int) -> np.ndarray:
    """The degree-l coefficient row (m >= 0), deterministic in (seed, l)."""
    if l < 1:
        raise DomainError("l must be >= 1")
    row = np.empty(l + 1, dtype=complex)
    _draw_row(row.view(np.float64), l, seed, c_l(model, l))
    return row


def simulate_alm(
    model: PowerSpectrumModel,
    l_max: int,
    seed: int,
    l_max_cap: int = DEFAULT_LMAX_CAP,
) -> AlmSet:
    """Draw a full coefficient set up to l_max, row by row into one buffer."""
    if l_max < 1:
        raise DomainError("l_max must be >= 1")
    if l_max > l_max_cap:
        raise ResourceLimitError(f"l_max={l_max} exceeds cap {l_max_cap}")
    data = np.empty(_packed_size(l_max), dtype=complex)
    pairs = data.view(np.float64)
    start = 0
    for l, c in enumerate(c_l(model, np.arange(1, l_max + 1)).tolist(), start=1):
        stop = start + 2 * l + 2
        _draw_row(pairs[start:stop], l, seed, c)
        start = stop
    return AlmSet(l_max=l_max, seed=seed, data=data)


@dataclass
class EmpiricalSpectrum:
    """Empirical angular power spectrum; ``values[l]`` is c-hat_l, values[0] unused."""

    l_max: int
    values: np.ndarray  # length l_max + 1, values[0] == 0
    seed: int = 0

    def __post_init__(self):
        """Checked here, so every way in (constructor, ``load``, ``from_csv``)
        gets the same check."""
        if len(self.values) != self.l_max + 1:
            raise DomainError(
                f"spectrum with l_max={self.l_max} needs {self.l_max + 1} values, got {len(self.values)}"
            )
        c_hat = np.asarray(self.values[1:], dtype=float)
        bad = np.flatnonzero(~(np.isfinite(c_hat) & (c_hat >= 0.0)))
        if bad.size:
            raise DomainError(
                f"c_hat at l={bad[0] + 1} is {c_hat[bad[0]]}; values must be finite and non-negative"
            )

    def c_hat(self, l: int) -> float:
        if not 1 <= l <= self.l_max:
            raise DomainError(f"l must be in [1, {self.l_max}]")
        return float(self.values[l])

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_SPC_MAGIC, _FORMAT_VERSION, self.l_max, self.seed))
            fh.write(np.ascontiguousarray(self.values[1:], dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "EmpiricalSpectrum":
        l_max, seed, payload = _load_binary(
            path, _SPC_MAGIC, "EmpiricalSpectrum", "<f8", lambda l_max: l_max
        )
        values = np.concatenate([[0.0], payload.astype(float)])
        return cls(l_max=l_max, values=values, seed=seed)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("l,c_hat\n")
            for l in range(1, self.l_max + 1):
                fh.write(f"{l},{self.values[l]:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "EmpiricalSpectrum":
        """Read ``to_csv`` output: one row per l = 1..l_max, in any order."""
        ls, vals = [], []
        with open(path) as fh:
            header = fh.readline().strip()
            if header.split(",")[:2] != ["l", "c_hat"]:
                raise NeedletWhittleError(f"{path}: unexpected CSV header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    a, b = line.split(",")[:2]
                    ls.append(int(a))
                    vals.append(float(b))
                except ValueError as exc:
                    raise NeedletWhittleError(
                        f"{path}: line {lineno}: cannot parse {line.strip()!r}"
                    ) from exc
        if not ls:
            raise NeedletWhittleError(f"{path}: no data rows")
        l_max = max(ls)
        if min(ls) < 1:
            raise NeedletWhittleError(f"{path}: l={min(ls)} is outside 1..{l_max}")
        seen: set[int] = set()
        for l in ls:
            if l in seen:
                raise NeedletWhittleError(f"{path}: duplicate l={l}")
            seen.add(l)
        if l_max > len(ls):  # distinct l >= 1, so one of 1..len(ls)+1 is absent
            missing = min(set(range(1, len(ls) + 2)) - seen)
            raise NeedletWhittleError(f"{path}: missing l={missing}")
        values = np.zeros(l_max + 1)
        values[ls] = vals
        return cls(l_max=l_max, values=values)


def empirical_cl(alm: AlmSet) -> EmpiricalSpectrum:
    """c-hat_l = (2l+1)^-1 sum_m |a_lm|^2, negative m expanded by reality."""
    mag = alm.data.real**2 + alm.data.imag**2
    starts = np.array([_row_start(l) for l in range(1, alm.l_max + 1)])
    sums = np.add.reduceat(mag, starts)
    ls = np.arange(1, alm.l_max + 1)
    values = np.concatenate([[0.0], (2.0 * sums - mag[starts]) / (2 * ls + 1)])
    return EmpiricalSpectrum(l_max=alm.l_max, values=values, seed=alm.seed)


@dataclass(frozen=True)
class ChatMoments:
    mean: float
    variance: float
    cum4: float


def chat_moments(model: PowerSpectrumModel, l: int) -> ChatMoments:
    """Exact sampling moments of c-hat_l: scaled chi-square with 2l+1 dof."""
    c = c_l(model, l)
    k = 2 * l + 1
    return ChatMoments(mean=c, variance=2.0 * c * c / k, cum4=48.0 * c**4 / k**3)
