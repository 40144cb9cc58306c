"""Reproducible Monte Carlo experiment runner.

Configuration is a flat key-value text format with dotted section keys (see
``ExperimentConfig.parse``); every replication seed is pre-split from the
master seed so serial and parallel executions emit byte-identical CSV.

Each file format has one declaration that owns it:

* config text -- every key is a dataclass field: ``model.*`` the fields of
  ``PowerSpectrumModel`` and of its correction, ``window.*`` those of the
  window, and ``_FLAT_KEYS`` maps each flat key to its ``ExperimentConfig``
  field.  ``_KINDS`` maps the kind keys ``model.correction`` and
  ``window.kind`` to their classes.  A value is parsed by its field's
  annotation, and an absent key takes the field default (the ``fit.*`` ones
  come from ``whittle.SearchSettings``, the ``window.*`` ones from the window
  classes).  The band keys ``band.kind``, ``jrange.j0``, ``jrange.jl`` and
  ``band.g`` are one ``whittle.level_range`` request, checked and fitted by
  that one rule, as ``estimate`` does;
* rows CSV -- the fields of ``ReplicationRow``, in order, are the columns,
  ``ReplicationRow.from_fit`` is the one mapping from a fit to a row, and
  ``write_rows_csv`` writes rows for both ``montecarlo`` and
  ``estimate --csv-out``;
* summary CSV -- the fields of ``Aggregate``, in order, are the rows.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, Field, astuple, dataclass, fields
from statistics import NormalDist

import numpy as np

from . import asymptotics
from .errors import ConfigError, DegenerateDataError, NeedletWhittleError
from .harmonic import EmpiricalSpectrum, empirical_cl, simulate_alm
from .needlet import JRange, MexicanWindow, NeedletWindow, StandardWindow
from .spectrum import (
    KappaCorrection,
    NoCorrection,
    PowerSpectrumModel,
    RationalCorrection,
    c_l,
    model_kappa,
)
from .whittle import SearchSettings, WhittleFit, fit_band, level_range

__all__ = [
    "ExperimentConfig",
    "ReplicationRow",
    "Aggregate",
    "ExperimentSummary",
    "rep_seed",
    "run_experiment",
    "jarque_bera",
    "JB_CRITICAL_0_001",
    "REPLICATION_CAP",
    "csv_cell",
    "write_rows_csv",
    "write_summary_csv",
    "write_histogram_csv",
    "write_qq_csv",
    "load_summary",
    "theory_checks",
]

# chi-square(2) upper 0.1% point: the Jarque-Bera null is chi-square with 2 dof
JB_CRITICAL_0_001 = -2.0 * math.log(0.001)

MAX_FAILURE_FRACTION = 0.05
# a run keeps one task and one row per replication, ~470 bytes together
# (measured by tracemalloc over 100,000 of them): 2^19 replications hold ~250 MB
REPLICATION_CAP = 2**19
HISTOGRAM_BINS = 24


def _boolean(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError("expected true/false")


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(_format, value))
    # float() first: a numpy float's repr is "np.float64(0.5)", which parse rejects
    return repr(float(value)) if isinstance(value, float) else str(value)


# a config value or rows-CSV cell back to its field, by the field's annotation
# (a string, under ``from __future__ import annotations``)
_PARSE = {
    "int": int,
    "float": float,
    "bool": _boolean,
    "str": str,
    "tuple[float, ...]": lambda raw: tuple(float(c) for c in raw.split(",")),
}


# The config keys that name a class, and the classes they name; an absent
# kind key names the first.  The named class's fields, in order, are keys
# under the same prefix: ``model.kappa`` is ``KappaCorrection.kappa``.
_KINDS = {
    "model.correction": {
        "none": NoCorrection,
        "kappa": KappaCorrection,
        "rational": RationalCorrection,
    },
    "window.kind": {"mexican": MexicanWindow, "standard": StandardWindow},
}


def _keys(prefix: str, obj) -> list[tuple[str, object]]:
    """(key, value) for each field of ``obj``; a field holding a kind gives its
    kind key, then the kind's own keys."""
    items: list[tuple[str, object]] = []
    for f in fields(obj):
        key, value = f"{prefix}.{f.name}", getattr(obj, f.name)
        items += _kind_keys(key, value) if key in _KINDS else [(key, value)]
    return items


def _kind_keys(key: str, obj) -> list[tuple[str, object]]:
    name = next(name for name, cls in _KINDS[key].items() if type(obj) is cls)
    return [(key, name), *_keys(key.split(".")[0], obj)]


# The flat config keys: (key, ExperimentConfig field), in the order ``to_text``
# writes them.
_FLAT_KEYS = (
    ("sim.l_max", "l_max"),
    ("jrange.j0", "j0"),
    ("jrange.jl", "jl"),
    ("band.kind", "band"),
    ("band.g", "g"),
    ("fit.alpha_min", "alpha_min"),
    ("fit.alpha_max", "alpha_max"),
    ("fit.tol", "tol"),
    ("run.replications", "replications"),
    ("run.master_seed", "master_seed"),
    ("run.workers", "workers"),
    ("run.noise_free", "noise_free"),
    ("output.prefix", "output_prefix"),
)


@dataclass
class ExperimentConfig:
    model: PowerSpectrumModel
    window: NeedletWindow
    l_max: int
    j0: int | None = None  # j0 and jl: an explicit full-band range
    jl: int | None = None  # or the top of a narrow band
    band: str = "full"  # "full" | "narrow"
    g: float | None = None  # narrow band fraction; None -> jL^-3 rule
    replications: int = 100
    master_seed: int = 0
    alpha_min: float = SearchSettings.alpha_min
    alpha_max: float = SearchSettings.alpha_max
    tol: float = SearchSettings.tol
    workers: int = 0  # 0 -> cpu count (env NEEDLET_WHITTLE_THREADS overrides)
    noise_free: bool = False
    output_prefix: str = "experiment"

    def search(self) -> SearchSettings:
        return SearchSettings(alpha_min=self.alpha_min, alpha_max=self.alpha_max, tol=self.tol)

    def j_range(self) -> JRange:
        """The level range every replication fits (``whittle.level_range``)."""
        try:
            return level_range(self.window, self.l_max, self.band, self.j0, self.jl, self.g)
        except NeedletWhittleError as exc:
            raise ConfigError(str(exc)) from exc

    def validate(self) -> None:
        if not 1 <= self.replications <= REPLICATION_CAP:
            raise ConfigError(f"run.replications must be in [1, {REPLICATION_CAP}]")
        if self.workers < 0:
            raise ConfigError("run.workers must be >= 0")
        self.search()  # raises on a bad search range or tolerance
        if not -(2**63) <= self.master_seed < 2**63:  # the int64 seed of the file headers
            raise ConfigError("run.master_seed must fit in a signed 64-bit integer")
        self.j_range()  # the range checks every replication's fit would make

    # -- serialization --------------------------------------------------

    def to_text(self) -> str:
        items = [
            *_keys("model", self.model),
            *_kind_keys("window.kind", self.window),
            *((key, getattr(self, name)) for key, name in _FLAT_KEYS),
        ]
        return "".join(f"{key} = {_format(value)}\n" for key, value in items if value is not None)

    def to_file(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        kv: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
            if key in kv:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            kv[key] = value

        def take(key: str, f: Field, args: dict) -> None:
            """Put the value of ``key``, parsed by the annotation of its field
            ``f``, in ``args``; an absent key leaves the field default."""
            if key not in kv:
                if f.default is MISSING and f.default_factory is MISSING:
                    raise ConfigError(f"missing required key {key!r}")
                return
            raw = kv.pop(key)
            try:
                args[f.name] = _PARSE[f.type.removesuffix(" | None")](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"key {key!r}: cannot parse {raw!r} ({exc})") from exc

        def build(prefix: str, target: type):
            args: dict = {}
            for f in fields(target):
                key = f"{prefix}.{f.name}"
                if key in _KINDS:
                    args[f.name] = kind(key)
                else:
                    take(key, f, args)
            try:
                return target(**args)
            except NeedletWhittleError as exc:
                raise ConfigError(f"invalid {prefix}: {exc}") from exc

        def kind(key: str):
            kinds = _KINDS[key]
            name = kv.pop(key, next(iter(kinds))).lower()
            if name not in kinds:
                raise ConfigError(f"{key} must be one of {'/'.join(kinds)}, got {name!r}")
            return build(key.split(".")[0], kinds[name])

        args = {"model": build("model", PowerSpectrumModel), "window": kind("window.kind")}
        config_fields = {f.name: f for f in fields(cls)}
        for key, name in _FLAT_KEYS:
            take(key, config_fields[name], args)
        cfg = cls(**args)
        if kv:
            raise ConfigError(f"unknown keys: {sorted(kv)}")
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.parse(fh.read())


def rep_seed(master_seed: int, r: int) -> int:
    """64-bit per-replication seed split from the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(r,))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class ReplicationRow:
    """One line of the rows CSV: the fields, in order, are its columns.  ``j0``
    is the first level used (J1 on a narrow band); ``boundary`` flags a fit that
    ended at or near a search end."""

    rep: int
    seed: int
    band: str
    alpha_hat: float = math.nan
    g_hat: float = math.nan
    j0: int = 0
    boundary: bool = False
    jL: int = 0
    score: float = math.nan
    hessian: float = math.nan
    converged: bool = False
    iterations: int = 0
    failed: bool = False
    error: str = ""

    @classmethod
    def from_fit(cls, rep: int, seed: int, fit: WhittleFit) -> "ReplicationRow":
        return cls(
            rep=rep,
            seed=seed,
            band=fit.band,
            alpha_hat=fit.alpha_hat,
            g_hat=fit.g_hat,
            j0=fit.j_range_used.j0,
            boundary=fit.boundary,
            jL=fit.j_range_used.jL,
            score=fit.score_at_hat,
            hessian=fit.hessian_at_hat,
            converged=fit.converged,
            iterations=fit.iterations,
        )


def _noise_free_spectrum(model: PowerSpectrumModel, l_max: int) -> EmpiricalSpectrum:
    ls = np.arange(1, l_max + 1)
    values = np.concatenate([[0.0], c_l(model, ls)])
    return EmpiricalSpectrum(l_max=l_max, values=values)


def _fit_for_config(config: ExperimentConfig, spec: EmpiricalSpectrum) -> WhittleFit:
    return fit_band(
        spec, config.window, config.band, config.j0, config.jl, config.g, config.search()
    )


def _run_one(args) -> ReplicationRow:
    config, r = args
    seed = rep_seed(config.master_seed, r)
    try:
        if config.noise_free:
            spec = _noise_free_spectrum(config.model, config.l_max)
        else:
            spec = empirical_cl(simulate_alm(config.model, config.l_max, seed))
        fit = _fit_for_config(config, spec)
    except NeedletWhittleError as exc:
        return ReplicationRow(
            rep=r, seed=seed, band=config.band, failed=True, error=f"{type(exc).__name__}: {exc}"
        )
    return ReplicationRow.from_fit(r, seed, fit)


@dataclass
class Aggregate:
    n_rows: int
    n_failed: int
    mean_alpha: float
    se_alpha: float
    mean_g: float
    var_scaled: float  # sample Var of B^jL (alpha_hat - alpha0)
    scaled_bias: float  # mean of B^jL (alpha_hat - alpha0)
    jarque_bera: float
    mean_hessian: float
    theory_varsigma0_sq: float
    theory_bias: float
    theory_hessian: float


@dataclass
class ExperimentSummary:
    config: ExperimentConfig
    rows: list[ReplicationRow]
    aggregate: Aggregate


def jarque_bera(x) -> float:
    """Skewness/kurtosis normality statistic; chi-square(2) under the null.
    ``nan`` when the sample has no spread (e.g. every fit at a search end)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    sd = x.std(ddof=0)
    if not sd > 0:
        return math.nan
    z = (x - x.mean()) / sd
    skew = float(np.mean(z**3))
    kurt = float(np.mean(z**4))
    return n * (skew**2 / 6.0 + (kurt - 3.0) ** 2 / 24.0)


def _aggregate(config: ExperimentConfig, rows: list[ReplicationRow]) -> Aggregate:
    ok = [row for row in rows if not row.failed]
    window, B, alpha0 = config.window, config.window.B, config.model.alpha0
    jl = ok[0].jL if ok else config.j_range().jL
    alphas = np.array([row.alpha_hat for row in ok])
    scaled = B**jl * (alphas - alpha0)
    if isinstance(window, MexicanWindow):
        # full-band limit; integer-level narrow bands have no closed-form
        # desk-scale reference (see theory_checks / README)
        full = config.band == "full"
        theory_var = asymptotics.varsigma0_sq(window.p, B, alpha0) if full else math.nan
        theory_bias = asymptotics.bias_coeff(window.p, B, alpha0, model_kappa(config.model))
    else:
        rho0_sq = asymptotics.table1_rho0_sq(alpha0, B, interpolate=True)
        theory_var, theory_bias = asymptotics.clt_variance(rho0_sq, B), math.nan
    return Aggregate(
        n_rows=len(rows),
        n_failed=len(rows) - len(ok),
        mean_alpha=float(alphas.mean()) if len(ok) else math.nan,
        se_alpha=float(alphas.std(ddof=1) / math.sqrt(len(ok))) if len(ok) > 1 else math.nan,
        mean_g=float(np.mean([row.g_hat for row in ok])) if len(ok) else math.nan,
        var_scaled=float(scaled.var(ddof=1)) if len(ok) > 1 else math.nan,
        scaled_bias=float(scaled.mean()) if len(ok) else math.nan,
        jarque_bera=jarque_bera(scaled) if len(ok) > 7 else math.nan,
        mean_hessian=float(np.mean([row.hessian for row in ok])) if len(ok) else math.nan,
        theory_varsigma0_sq=theory_var,
        theory_bias=theory_bias,
        theory_hessian=B**2 * math.log(B) ** 2 / (B**2 - 1.0) ** 2,
    )


def _worker_count(config: ExperimentConfig) -> int:
    """Pool size: NEEDLET_WHITTLE_THREADS, else ``run.workers``, else all
    cores; never more than the cores or the replications, because a forked
    pool starts all of its processes at the first task."""
    cores = os.cpu_count() or 1
    env = os.environ.get("NEEDLET_WHITTLE_THREADS")
    if env is not None:
        try:
            requested = int(env)
        except ValueError as exc:
            raise ConfigError(f"NEEDLET_WHITTLE_THREADS={env!r} is not an integer") from exc
    else:
        requested = config.workers if config.workers > 0 else cores
    return max(1, min(requested, cores, config.replications))


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run all replications (worker pool when beneficial) and aggregate.

    Per-replication failures are recorded in their rows; the run itself fails
    only when more than 5% of replications fail.
    """
    config.validate()
    workers = _worker_count(config)
    tasks = [(config, r) for r in range(config.replications)]
    if workers <= 1 or config.replications < 4:
        rows = [_run_one(t) for t in tasks]
    else:
        chunk = max(1, config.replications // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one, tasks, chunksize=chunk))
    n_failed = sum(row.failed for row in rows)
    if n_failed > MAX_FAILURE_FRACTION * len(rows):
        raise NeedletWhittleError(
            f"{n_failed}/{len(rows)} replications failed "
            f"(> {MAX_FAILURE_FRACTION:.0%}); first error: "
            f"{next(row.error for row in rows if row.failed)}"
        )
    return ExperimentSummary(config=config, rows=rows, aggregate=_aggregate(config, rows))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def csv_cell(value) -> str:
    """One CSV cell: floats at 17 significant digits (an exact round trip),
    booleans as 0/1, and commas in text replaced by semicolons."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value).replace(",", ";")


def write_rows_csv(rows: list[ReplicationRow], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f.name for f in fields(ReplicationRow)) + "\n")
        for row in rows:
            fh.write(",".join(map(csv_cell, astuple(row))) + "\n")


def _parse_row(line: str) -> ReplicationRow:
    cells = line.rstrip("\n").split(",")
    return ReplicationRow(*(_PARSE[f.type](cell) for f, cell in zip(fields(ReplicationRow), cells)))


def write_summary_csv(summary: ExperimentSummary, path) -> None:
    agg = summary.aggregate
    with open(path, "w", newline="") as fh:
        fh.write("field,value\n")
        for f in fields(Aggregate):
            fh.write(f"{f.name},{csv_cell(float(getattr(agg, f.name)))}\n")


def _standardized(summary: ExperimentSummary) -> np.ndarray:
    """The scaled estimates B^jL (alpha-hat - alpha0) of the fitted rows,
    standardized.  ``DegenerateDataError`` when there are 7 fits or fewer, or
    when they have no spread (every fit at the same alpha-hat)."""
    ok = [row for row in summary.rows if not row.failed]
    if len(ok) <= 7:
        raise DegenerateDataError(f"{len(ok)} fits are too few to standardize")
    scale = summary.config.window.B ** ok[0].jL
    x = scale * (np.array([row.alpha_hat for row in ok]) - summary.config.model.alpha0)
    if not np.ptp(x) > 0:
        raise DegenerateDataError("the fits have no spread")
    return (x - x.mean()) / x.std(ddof=1)


def write_histogram_csv(summary: ExperimentSummary, path) -> None:
    z = _standardized(summary)
    counts, edges = np.histogram(z, bins=HISTOGRAM_BINS)
    density = counts / (len(z) * np.diff(edges))
    with open(path, "w", newline="") as fh:
        fh.write("x,y\n")
        for center, y in zip(0.5 * (edges[:-1] + edges[1:]), density):
            fh.write(f"{csv_cell(center)},{csv_cell(y)}\n")


def write_qq_csv(summary: ExperimentSummary, path) -> None:
    z = np.sort(_standardized(summary))
    nd = NormalDist()
    with open(path, "w", newline="") as fh:
        fh.write("x,y\n")  # theoretical quantile, sample quantile
        n = len(z)
        for i, v in enumerate(z, start=1):
            fh.write(f"{csv_cell(nd.inv_cdf((i - 0.5) / n))},{csv_cell(v)}\n")


def load_summary(summary_path, rows_path, config: ExperimentConfig) -> ExperimentSummary:
    """Reload a summary from its CSV pair, re-deriving and cross-checking the
    aggregate from the rows."""
    with open(rows_path) as fh:
        fh.readline()
        rows = [_parse_row(line) for line in fh]
    recomputed = _aggregate(config, rows)
    stored: dict[str, float] = {}
    with open(summary_path) as fh:
        fh.readline()
        for line in fh:
            name, value = line.strip().split(",")
            stored[name] = float(value)
    for f in fields(Aggregate):
        a, b = stored[f.name], float(getattr(recomputed, f.name))
        if not (math.isnan(a) and math.isnan(b)) and not math.isclose(
            a, b, rel_tol=1e-12, abs_tol=1e-12
        ):
            raise NeedletWhittleError(
                f"summary field {f.name} does not match rows: stored {a}, recomputed {b}"
            )
    return ExperimentSummary(config=config, rows=rows, aggregate=recomputed)


# ---------------------------------------------------------------------------
# theory checks for `montecarlo --check`
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def theory_checks(summary: ExperimentSummary) -> list[CheckResult]:
    """Applicable acceptance comparisons for a finished run.

    Mean consistency for clean power laws (kappa = 0) on any band;
    variance/normality for full-band mexican clean power laws; scaled-bias
    agreement for full-band mexican kappa models; ``report-only`` when none
    applies.  Narrow-band runs get no variance or bias comparison -- at desk
    scale the continuum variance reference is out of reach (see README).
    Simulated runs also fail when any fit ended at a search end, since such a
    row is averaged like any other.
    """
    agg, cfg = summary.aggregate, summary.config
    if cfg.noise_free:
        ok = abs(agg.mean_alpha - cfg.model.alpha0) <= 10 * cfg.tol
        return [CheckResult("noise-free-exactness", ok, f"mean_alpha={agg.mean_alpha:.8f}")]
    checks: list[CheckResult] = []
    kappa = model_kappa(cfg.model)
    if kappa == 0.0:
        # a 1/l spectral correction biases the estimate by design, so the
        # 3-SE mean band only applies to clean power laws
        dev, width = abs(agg.mean_alpha - cfg.model.alpha0), 3 * agg.se_alpha
        detail = f"|mean-alpha0|={dev:.5f}, 3*SE={width:.5f}"
        checks.append(CheckResult("mean-consistency", dev <= width, detail))
    if cfg.band == "full" and isinstance(cfg.window, MexicanWindow):
        if kappa == 0.0:
            rel = abs(agg.var_scaled - agg.theory_varsigma0_sq) / agg.theory_varsigma0_sq
            detail = f"var={agg.var_scaled:.4f}, theory={agg.theory_varsigma0_sq:.4f}, rel={rel:.2%}"
            checks.append(CheckResult("clt-variance", rel <= 0.25, detail))
            detail = f"JB={agg.jarque_bera:.3f}, crit={JB_CRITICAL_0_001:.3f}"
            checks.append(CheckResult("normality", agg.jarque_bera < JB_CRITICAL_0_001, detail))
        else:
            rel = abs(agg.scaled_bias - agg.theory_bias) / abs(agg.theory_bias)
            detail = f"bias={agg.scaled_bias:.4f}, theory={agg.theory_bias:.4f}, rel={rel:.2%}"
            checks.append(CheckResult("scaled-bias", rel <= 0.30, detail))
    if not checks:
        detail = "no closed-form threshold applies to this configuration"
        checks.append(CheckResult("report-only", True, detail))
    n_boundary = sum(row.boundary for row in summary.rows if not row.failed)
    detail = f"{n_boundary}/{agg.n_rows - agg.n_failed} fits at a search end"
    checks.append(CheckResult("search-boundary", n_boundary == 0, detail))
    return checks
