"""Harmonic-space simulation of isotropic Gaussian fields.

Coefficients a_lm are drawn directly in harmonic space: a_l0 ~ N(0, C_l) real,
and Re/Im of a_lm ~ N(0, C_l/2) independently for m >= 1.  Only m >= 0 is
stored; negative m follows from the reality condition
a_{l,-m} = (-1)^m conj(a_lm).

Randomness is split per (seed, l): the degree-l row is a pure function of the
pair, so partial simulations, per-degree draws and parallel execution all
produce bit-identical coefficients.  The row's stream is PCG64 seeded by
``SeedSequence((seed mod 2^64, l))``, and its Gaussians come from numpy's
``Generator.standard_normal`` (ziggurat), fixed for this release.  The
PCG64 states of every degree of a call are computed in one vectorised pass
of numpy's documented seeding arithmetic (``_pcg64_states``, pinned by a test
against numpy), and one reused generator is moved onto each row's stream by
setting its state, instead of building a generator per degree.  ``alm_row``
draws one stream, so it takes its state from numpy's own seeding.

Each row is drawn in place: its normals z_0..z_2l land straight in the packed
array, viewed as (re, im) float pairs, and are scaled there, with C_l for all
degrees from one vectorised ``c_l`` call.  ``simulate_alm``, ``alm_row`` and
``alm_rows`` share that one fill.  The bytes equal those of building each row
as a_l0 = sqrt(C_l) z_0, a_lm = sqrt(C_l / 2) (z_{2m-1} + i z_{2m}), so the
draws are unchanged.

Only this module knows the packed layout of ``AlmSet.data``.  ``alm_rows``
streams degree-l rows for a block of seeds, one (S, l + 1) stack at a time,
so a consumer that works degree by degree (real-space synthesis) never holds
a whole coefficient set.

``empirical_cl`` reduces a set one block of whole rows (about 2^15
coefficients, 512 KiB) at a time into two reused buffers, so past the set
itself it needs O(block) memory: a replication at l_max 8192 peaks at one
coefficient set (512 MiB) plus that block.  Each row is summed over the same
``np.add.reduceat`` segment as a whole-set reduction, so c-hat keeps its
bits.  ``save`` writes a set from its own buffer and ``load`` reads the
payload straight into one array and checks it one block at a time, so
neither holds a second copy.

Every CSV of the package is written by ``write_csv`` and read back by
``read_csv``, in the one cell encoding ``csv_cell``.
"""
from __future__ import annotations

import math
import os
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
    "check_lmax",
    "alm_row",
    "alm_rows",
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


def _save_binary(path, magic: bytes, l_max: int, seed: int, payload: np.ndarray) -> None:
    """Header, then the contiguous payload's own buffer (no byte copy)."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, _FORMAT_VERSION, l_max, seed))
        fh.write(payload.view(np.uint8))


def _load_binary(path, magic: bytes, kind: str, dtype: str, count) -> tuple[int, int, np.ndarray]:
    """(l_max, seed, payload) of a file written by ``_save_binary``;
    ``count(l_max)`` is the payload length in items.  The payload is read
    straight into its one array once the file's size matches.  Anything else
    raises NeedletWhittleError."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
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
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:
            raise NeedletWhittleError(
                f"{path}: payload has {size} bytes, l_max={l_max} needs {expected}"
            )
        payload = np.empty(count(l_max), dtype=dtype)
        if fh.readinto(payload.view(np.uint8)) != expected:
            raise NeedletWhittleError(f"{path}: payload shorter than its {expected} bytes")
    return l_max, seed, payload


def csv_cell(value) -> str:
    """One CSV cell: floats at 17 significant digits (an exact round trip),
    booleans as 0/1, and commas in text replaced by semicolons."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value).replace(",", ";")


def write_csv(path, columns, rows) -> None:
    """The header ``columns``, then one line of ``csv_cell`` cells per row."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(csv_cell, row)) + "\n")


def read_csv(path, columns, parsers) -> list[tuple]:
    """The rows of a CSV whose header starts with ``columns``, parsed cell by
    cell by ``parsers``; later columns and blank lines are skipped.  A wrong
    header, a short line, a cell that does not parse or a file that is not
    text is a NeedletWhittleError."""
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            if header.split(",")[: len(columns)] != list(columns):
                raise NeedletWhittleError(f"{path}: header {header!r} does not start {','.join(columns)}")
            rows = []
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                cells = line.rstrip("\n").split(",")[: len(columns)]
                try:  # a short line fails the strict zip
                    rows.append(tuple(parse(cell) for parse, cell in zip(parsers, cells, strict=True)))
                except ValueError as exc:
                    raise NeedletWhittleError(
                        f"{path}: line {lineno}: {line.strip()!r} is not {len(columns)} cells "
                        f"that parse ({exc})"
                    ) from exc
    except UnicodeDecodeError as exc:
        raise NeedletWhittleError(f"{path}: not text ({exc.reason})") from exc
    return rows


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

    def save(self, path) -> None:
        data = np.ascontiguousarray(self.data, dtype="<c16")
        _save_binary(path, _ALM_MAGIC, self.l_max, self.seed, data)

    @classmethod
    def load(cls, path) -> "AlmSet":
        l_max, seed, data = _load_binary(path, _ALM_MAGIC, "AlmSet", "<c16", _packed_size)
        for start in range(0, len(data), _CL_BLOCK):  # a block's flags, not the set's
            if not np.isfinite(data[start : start + _CL_BLOCK]).all():
                raise NeedletWhittleError(f"{path}: non-finite coefficients")
        return cls(l_max=l_max, seed=seed, data=data.astype(np.complex128, copy=False))


def _hash_consts(init: int, mult: int, calls) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiply) constants of the given calls of SeedSequence's hashmix,
    hashmix(v) = ((v ^ h) * h') ^ shift with h' = h * mult mod 2^32 carried to
    the next call; shaped (len(calls), 1, 1) to stack over pool words."""
    h = [init]
    for _ in range(max(calls) + 1):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    h = np.array(h, dtype=np.uint32)[:, None, None]
    return h[calls], h[[c + 1 for c in calls]]


# numpy.random.SeedSequence with its pool of four uint32 words.  Mixing in the
# entropy makes hashmix calls 0-3 (word i into slot i), then, for each src in
# order, one call for each other slot dst in order.  Row src of a
# ``_CROSS_HASH`` table is a placeholder: that slot keeps its value.
_ENTROPY_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, [0, 1, 2, 3])
_CROSS_HASH = [
    _hash_consts(0x43B0D7E5, 0x931E8875, [4 + 3 * src + d - (d > src) for d in range(4)])
    for src in range(4)
]
_DRAW_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, list(range(8)))  # 8 words out
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_S16 = np.uint32(16)
_M32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier M as 64-bit words, and its low word's halves
_MULT = 2549297995355413924 << 64 | 4865540595714422341
_MUL_HI, _MUL_LO = np.uint64(_MULT >> 64), np.uint64(_MULT & 0xFFFFFFFFFFFFFFFF)
_MUL_LO1, _MUL_LO0 = np.uint64(_MULT >> 32 & _M32), np.uint64(_MULT & _M32)
_LOW, _S32, _S63, _ONE = np.uint64(_M32), np.uint64(32), np.uint64(63), np.uint64(1)
_STATES_PER_PASS = 2048  # (seed, l) streams seeded per pass in ``alm_rows``
_CL_BLOCK = 2**15  # packed coefficients (512 KiB) per block of ``empirical_cl`` and ``AlmSet.load``


def _hashmix(v: np.ndarray, consts) -> np.ndarray:
    """SeedSequence's hashmix over stacked words, one constant pair per row."""
    v = (v ^ consts[0]) * consts[1]
    return v ^ (v >> _S16)


def _lcg_mul(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * M mod 2^128 over uint64 word arrays; lo * _MUL_LO is formed
    in full from 32-bit halves."""
    a1, a0 = lo >> _S32, lo & _LOW
    p00, p01, p10 = a0 * _MUL_LO0, a0 * _MUL_LO1, a1 * _MUL_LO0
    mid = (p00 >> _S32) + (p01 & _LOW) + (p10 & _LOW)
    out_hi = a1 * _MUL_LO1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return out_hi + hi * _MUL_LO + lo * _MUL_HI, (p00 & _LOW) | (mid << _S32)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_states(seeds, ls) -> tuple[list, list]:
    """PCG64 (state, inc) of ``SeedSequence((seed & (2^64 - 1), l))`` for every
    seed and l, as nested lists of ints indexed [seed][l]; pinned by a test
    against numpy.

    One pass of uint32/uint64 array arithmetic does what numpy does per pair:
    the entropy words (the masked seed as one little-endian word below 2^32,
    two otherwise, then l) fill a pool of four; the pool is hashmixed and
    cross-mixed, eight words are drawn from it, and their four little-endian
    uint64 pairs seed PCG64 with two 128-bit LCG steps.
    """
    seed = np.array([int(s) & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)[:, None]
    l = np.asarray(ls, dtype=np.uint32)[None, :]
    wide = seed > _LOW
    words = np.zeros((4, seed.shape[0], l.shape[1]), dtype=np.uint32)
    words[0] = seed & _LOW
    words[1] = np.where(wide, seed >> _S32, l)
    words[2] = np.where(wide, l, 0)
    pool = _hashmix(words, _ENTROPY_HASH)
    for src in range(4):  # pool[dst] = mix(pool[dst], hashmix(pool[src])), dst != src
        mixed = pool * _MIX_L - _hashmix(pool[src], _CROSS_HASH[src]) * _MIX_R
        mixed ^= mixed >> _S16
        mixed[src] = pool[src]
        pool = mixed
    out = _hashmix(np.concatenate((pool, pool)), _DRAW_HASH).astype(np.uint64)
    u = out[0::2] | (out[1::2] << _S32)  # u[0..3] = generate_state(4, np.uint64)
    # pcg64 srandom: inc = initseq << 1 | 1; state = (inc + initstate) * M + inc
    inc = (u[2] << _ONE) | (u[3] >> _S63), (u[3] << _ONE) | _ONE
    state = _add128(*_lcg_mul(*_add128(*inc, u[0], u[1])), *inc)

    def ints(hi, lo):
        return ((hi.astype(object) << 64) | lo.astype(object)).tolist()

    return ints(*state), ints(*inc)


class _Streams:
    """One PCG64 and its Generator, moved onto the stream of a (seed, l) pair
    by setting its state, so each row costs a state set instead of a new
    SeedSequence and generator."""

    def __init__(self):
        self._bitgen = np.random.PCG64(0)
        self._normal = np.random.Generator(self._bitgen).standard_normal
        self._words = {"state": 0, "inc": 0}
        self._state = {
            "bit_generator": "PCG64", "state": self._words, "has_uint32": 0, "uinteger": 0
        }

    def draw_row(self, pairs: np.ndarray, l: int, state: int, inc: int, c: float) -> None:
        """Fill one degree-l row in place from the stream (state, inc); ``pairs``
        is its float64 (re, im) view, 2l + 2 values.  z_0..z_2l land from
        Im a_l0 on; then a_l0 = sqrt(C_l) z_0 moves to the real slot and the
        m >= 1 pairs take the sqrt(C_l / 2) scale."""
        self._words["state"], self._words["inc"] = state, inc
        self._bitgen.state = self._state
        self._normal(out=pairs[1:])  # its size is that of out: 2l + 1
        pairs[0] = math.sqrt(c) * pairs[1]
        pairs[1] = 0.0
        pairs[2:] *= math.sqrt(c / 2.0)


def alm_row(model: PowerSpectrumModel, l: int, seed: int) -> np.ndarray:
    """The degree-l coefficient row (m >= 0), deterministic in (seed, l)."""
    if l < 1:
        raise DomainError("l must be >= 1")
    # one stream: numpy's own seeding is cheaper than the vectorised pass
    words = np.random.PCG64(np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, l))).state["state"]
    row = np.empty(l + 1, dtype=complex)
    _Streams().draw_row(row.view(np.float64), l, words["state"], words["inc"], c_l(model, l))
    return row


def check_lmax(l_max: int) -> None:
    """The one band-limit rule for a drawn field: l_max >= 1 (``DomainError``)
    and at most ``DEFAULT_LMAX_CAP`` (``ResourceLimitError``)."""
    if l_max < 1:
        raise DomainError("l_max must be >= 1")
    if l_max > DEFAULT_LMAX_CAP:
        raise ResourceLimitError(f"l_max={l_max} exceeds cap {DEFAULT_LMAX_CAP}")


def _c_ls(model: PowerSpectrumModel, l_max: int) -> list[float]:
    """C_1..C_l_max from one vector ``c_l`` call, once l_max is checked."""
    check_lmax(l_max)
    return c_l(model, np.arange(1, l_max + 1)).tolist()


def alm_rows(model: PowerSpectrumModel, l_max: int, seeds):
    """Yield, for l = 1..l_max, the (len(seeds), l + 1) stack of degree-l rows;
    row i is bit-equal to ``alm_row(model, l, seeds[i])``."""
    seeds = list(seeds)
    c_ls = _c_ls(model, l_max)
    streams = _Streams()
    # seeded a batch of degrees at a time: the states held are bounded by
    # _STATES_PER_PASS, not by len(seeds) * l_max
    batch = max(1, _STATES_PER_PASS // max(1, len(seeds)))
    for first in range(1, l_max + 1, batch):
        ls = range(first, min(first + batch, l_max + 1))
        states, incs = _pcg64_states(seeds, ls)
        for k, l in enumerate(ls):
            stack = np.empty((len(seeds), l + 1), dtype=complex)
            pairs = stack.view(np.float64)
            for i, (state, inc) in enumerate(zip(states, incs)):
                streams.draw_row(pairs[i], l, state[k], inc[k], c_ls[l - 1])
            yield stack


def simulate_alm(model: PowerSpectrumModel, l_max: int, seed: int) -> AlmSet:
    """Draw a full coefficient set up to l_max, row by row into one buffer."""
    c_ls = _c_ls(model, l_max)
    (states,), (incs,) = _pcg64_states([seed], range(1, l_max + 1))
    streams = _Streams()
    data = np.empty(_packed_size(l_max), dtype=complex)
    pairs = data.view(np.float64)
    start = 0
    for l, (c, state, inc) in enumerate(zip(c_ls, states, incs), start=1):
        stop = start + 2 * l + 2
        streams.draw_row(pairs[start:stop], l, state, inc, c)
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

    def save(self, path) -> None:
        values = np.ascontiguousarray(self.values[1:], dtype="<f8")
        _save_binary(path, _SPC_MAGIC, self.l_max, self.seed, values)

    @classmethod
    def load(cls, path) -> "EmpiricalSpectrum":
        l_max, seed, payload = _load_binary(
            path, _SPC_MAGIC, "EmpiricalSpectrum", "<f8", lambda l_max: l_max
        )
        values = np.concatenate([[0.0], payload.astype(float)])
        return cls(l_max=l_max, values=values, seed=seed)

    def to_csv(self, path) -> None:
        write_csv(path, ("l", "c_hat"), enumerate(np.asarray(self.values, float)[1:].tolist(), 1))

    @classmethod
    def from_csv(cls, path) -> "EmpiricalSpectrum":
        """Read ``to_csv`` output: one row per l = 1..l_max, in any order."""
        rows = sorted(read_csv(path, ("l", "c_hat"), (int, float)))
        if not rows:
            raise NeedletWhittleError(f"{path}: no data rows")
        if rows[0][0] < 1:
            raise NeedletWhittleError(f"{path}: l={rows[0][0]} is outside 1..{rows[-1][0]}")
        # sorted: the first l out of place is a duplicate or names the missing l
        for want, (l, _) in enumerate(rows, start=1):
            if l != want:
                raise NeedletWhittleError(
                    f"{path}: duplicate l={l}" if l < want else f"{path}: missing l={want}"
                )
        return cls(l_max=len(rows), values=np.array([0.0, *(c for _, c in rows)]))


def empirical_cl(alm: AlmSet) -> EmpiricalSpectrum:
    """c-hat_l = (2l+1)^-1 sum_m |a_lm|^2, negative m expanded by reality.

    Reduced one block of whole rows at a time: block k holds the rows that end
    past (k - 1) ``_CL_BLOCK`` and by k ``_CL_BLOCK`` coefficients into the
    set, found by one ``searchsorted``, so a block is at most one row longer
    than ``_CL_BLOCK``.  The cuts come out of ``searchsorted`` sorted, so a
    repeated cut (a block that ends no row) is dropped by comparing each cut
    with the one before it: ``np.unique`` keeps the same cuts, but numpy
    2.4's imports ``numpy.ma`` (~1.3 MB), which nothing here computes with.  A
    block's |a_lm|^2 = re*re + im*im goes into two reused buffers, and
    ``np.add.reduceat`` sums each row over the same segment as a whole-set
    reduction, so the bits do not change and the memory past the set is
    O(block)."""
    l_max = alm.l_max
    bounds = _row_start(np.arange(1, l_max + 2))  # row l is bounds[l - 1]:bounds[l]
    ends = np.arange(_CL_BLOCK, bounds[-1] + _CL_BLOCK, _CL_BLOCK)
    # a row longer than a block leaves blocks that end no row: drop them
    cuts = np.concatenate(([0], np.searchsorted(bounds[1:], ends, side="right")))
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]
    buf = np.empty((2, int(np.diff(bounds[cuts]).max())))
    sums, heads = np.empty(l_max), np.empty(l_max)  # row sums and |a_l0|^2
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        lo, hi = int(bounds[a]), int(bounds[b])
        x = alm.data[lo:hi]
        sq, im_sq = buf[:, : hi - lo]
        np.multiply(x.real, x.real, out=sq)
        np.multiply(x.imag, x.imag, out=im_sq)
        sq += im_sq
        starts = bounds[a:b] - lo
        np.add.reduceat(sq, starts, out=sums[a:b])
        heads[a:b] = sq[starts]
    values = np.concatenate([[0.0], (2.0 * sums - heads) / (2 * np.arange(1, l_max + 1) + 1)])
    return EmpiricalSpectrum(l_max=l_max, values=values, seed=alm.seed)


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
