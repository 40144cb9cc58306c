"""Reproducible Monte Carlo experiment runner.

Configuration is a flat key-value text format with dotted section keys (see
``ExperimentConfig.parse``).  A replication is one ``_draw``, seeded by a split
of the master seed, fitted by ``_fit_for_config`` for each config sharing it
(``run_experiments``): serial, parallel, solo and shared runs emit identical CSV.

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
  ``estimate --csv-out``, and ``load_summary`` parses a cell by its field;
* summary CSV -- the fields of ``Aggregate``, in order, are the rows.

Each CSV is written by ``harmonic.write_csv`` and read by ``harmonic.read_csv``.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, Field, dataclass, fields
from statistics import NormalDist

import numpy as np

from . import asymptotics
from .errors import ConfigError, DegenerateDataError, NeedletWhittleError
from .harmonic import (
    EmpiricalSpectrum,
    check_lmax,
    empirical_cl,
    read_csv,
    simulate_alm,
    write_csv,
)
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
    "run_experiments",
    "jarque_bera",
    "JB_CRITICAL_0_001",
    "REPLICATION_CAP",
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
# a run holds one row per config and replication: ~530 bytes each at peak from
# a pool, ~380 serial (tracemalloc, 2 configs x 100,000): 2^19 rows peak ~280 MB
REPLICATION_CAP = 2**19
HISTOGRAM_BINS = 24
MIN_SAMPLE_FITS = 8  # fewest fits that get a Jarque-Bera statistic and plot data


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

    def check_drawn_lmax(self) -> None:
        """``check_lmax`` on sim.l_max as a ConfigError: the rule of every
        command that draws a field from this config."""
        try:
            check_lmax(self.l_max)
        except NeedletWhittleError as exc:
            raise ConfigError(f"sim.l_max: {exc}") from exc

    def validate(self) -> None:
        if not 1 <= self.replications <= REPLICATION_CAP:
            raise ConfigError(f"run.replications must be in [1, {REPLICATION_CAP}]")
        if self.workers < 0:
            raise ConfigError("run.workers must be >= 0")
        self.search()  # raises on a bad search range or tolerance
        if not -(2**63) <= self.master_seed < 2**63:  # the int64 seed of the file headers
            raise ConfigError("run.master_seed must fit in a signed 64-bit integer")
        if not self.noise_free:  # a noise-free run draws nothing
            self.check_drawn_lmax()
        self.j_range()  # the range checks every replication's fit would make

    # -- serialization --------------------------------------------------

    def to_text(self) -> str:
        items = [
            *_keys("model", self.model),
            *_kind_keys("window.kind", self.window),
            *((key, getattr(self, name)) for key, name in _FLAT_KEYS),
        ]
        pairs = [(key, _format(value)) for key, value in items if value is not None]
        for key, text in pairs:  # parse ends a value at '#' or a line break, and strips it
            if "#" in text or text.splitlines() != [text.strip()]:
                raise ConfigError(f"{key}: value {text!r} would not read back as written")
        return "".join(f"{key} = {text}\n" for key, text in pairs)

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
        try:
            with open(path) as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not text ({exc.reason})") from exc
        return cls.parse(text)


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

    @classmethod
    def from_error(cls, rep: int, seed: int, band: str, exc: Exception) -> "ReplicationRow":
        return cls(rep=rep, seed=seed, band=band, failed=True, error=f"{type(exc).__name__}: {exc}")


def _draw(config: ExperimentConfig, seed: int) -> EmpiricalSpectrum:
    """c-hat of the replication's field, or C_l itself on a noise-free run."""
    if not config.noise_free:
        return empirical_cl(simulate_alm(config.model, config.l_max, seed))
    values = np.concatenate([[0.0], c_l(config.model, np.arange(1, config.l_max + 1))])
    return EmpiricalSpectrum(l_max=config.l_max, values=values)


def _fit_for_config(config: ExperimentConfig, spec: EmpiricalSpectrum) -> WhittleFit:
    return fit_band(
        spec, config.window, config.band, config.j0, config.jl, config.g, config.search()
    )


def _run_one(args) -> list[ReplicationRow]:
    """One draw, then one row per config fitted on it, failed or not."""
    configs, r = args
    seed = rep_seed(configs[0].master_seed, r)
    try:
        spec = _draw(configs[0], seed)
    except NeedletWhittleError as exc:
        return [ReplicationRow.from_error(r, seed, config.band, exc) for config in configs]
    rows = []
    for config in configs:
        try:
            rows.append(ReplicationRow.from_fit(r, seed, _fit_for_config(config, spec)))
        except NeedletWhittleError as exc:
            rows.append(ReplicationRow.from_error(r, seed, config.band, exc))
    return rows


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


def _fitted(
    config: ExperimentConfig, rows: list[ReplicationRow]
) -> tuple[list[ReplicationRow], np.ndarray, np.ndarray]:
    """The fitted rows, their alpha-hat and their scaled B^jL (alpha-hat - alpha0)."""
    ok = [row for row in rows if not row.failed]
    alphas = np.array([row.alpha_hat for row in ok])
    scale = np.array([config.window.B**row.jL for row in ok])
    return ok, alphas, scale * (alphas - config.model.alpha0)


def _aggregate(config: ExperimentConfig, rows: list[ReplicationRow]) -> Aggregate:
    ok, alphas, scaled = _fitted(config, rows)
    window, B, alpha0 = config.window, config.window.B, config.model.alpha0
    # full-band limits; integer-level narrow bands have no closed-form
    # desk-scale reference for either window (see theory_checks / README)
    full = config.band == "full"
    theory_var = theory_bias = math.nan
    if isinstance(window, MexicanWindow):
        theory_var = asymptotics.varsigma0_sq(window.p, B, alpha0) if full else math.nan
        theory_bias = asymptotics.bias_coeff(window.p, B, alpha0, model_kappa(config.model))
    elif full:
        rho0_sq = asymptotics.table1_rho0_sq(alpha0, B, interpolate=True)
        theory_var = asymptotics.clt_variance(rho0_sq, B)
    return Aggregate(
        n_rows=len(rows),
        n_failed=len(rows) - len(ok),
        mean_alpha=float(alphas.mean()) if len(ok) else math.nan,
        se_alpha=float(alphas.std(ddof=1) / math.sqrt(len(ok))) if len(ok) > 1 else math.nan,
        mean_g=float(np.mean([row.g_hat for row in ok])) if len(ok) else math.nan,
        var_scaled=float(scaled.var(ddof=1)) if len(ok) > 1 else math.nan,
        scaled_bias=float(scaled.mean()) if len(ok) else math.nan,
        jarque_bera=jarque_bera(scaled) if len(ok) >= MIN_SAMPLE_FITS else math.nan,
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


def run_experiments(configs: list[ExperimentConfig]) -> list[ExperimentSummary]:
    """Run configs that differ only in ``window.*``, ``band.*``, ``jrange.*``, ``fit.*`` and
    ``output.prefix`` on one draw per replication; fail if over 5% of a config's rows fail."""
    draw_keys = [("model", "model"), *(kn for kn in _FLAT_KEYS if kn[0][:4] in ("sim.", "run."))]
    for config in configs:
        config.validate()
        if differ := [k for k, n in draw_keys if getattr(config, n) != getattr(configs[0], n)]:
            raise ConfigError(f"configs that share draws differ in {', '.join(differ)}")
    if not 0 < sum(config.replications for config in configs) <= REPLICATION_CAP:
        raise ConfigError(f"a run holds 1 to {REPLICATION_CAP} rows (configs x replications)")
    workers, reps = _worker_count(configs[0]), configs[0].replications
    tasks = ((configs, r) for r in range(reps))
    if workers <= 1 or reps < 4:
        rows = [row for task in tasks for row in _run_one(task)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, reps // (workers * 4))
            rows = [row for out in pool.map(_run_one, tasks, chunksize=chunk) for row in out]
    per_config = [rows[i :: len(configs)] for i in range(len(configs))]
    for own in per_config:
        if (n_failed := sum(row.failed for row in own)) > MAX_FAILURE_FRACTION * reps:
            first = next(row.error for row in own if row.failed)
            share = f"{n_failed}/{reps} replications failed (> {MAX_FAILURE_FRACTION:.0%})"
            raise NeedletWhittleError(f"{share}; first error: {first}")
    return [ExperimentSummary(c, own, _aggregate(c, own)) for c, own in zip(configs, per_config)]


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    return run_experiments([config])[0]


# ---------------------------------------------------------------------------
# CSV emission, through ``harmonic.write_csv``
# ---------------------------------------------------------------------------


def write_rows_csv(rows: list[ReplicationRow], path) -> None:
    names = [f.name for f in fields(ReplicationRow)]
    write_csv(path, names, (tuple(getattr(row, name) for name in names) for row in rows))


def write_summary_csv(summary: ExperimentSummary, path) -> None:
    agg = summary.aggregate
    rows = ((f.name, float(getattr(agg, f.name))) for f in fields(Aggregate))
    write_csv(path, ("field", "value"), rows)


def _standardized(summary: ExperimentSummary) -> np.ndarray:
    """The scaled estimates B^jL (alpha-hat - alpha0) of the fitted rows,
    standardized.  ``DegenerateDataError`` when there are fewer than
    ``MIN_SAMPLE_FITS`` fits, or when they have no spread (every fit at the
    same alpha-hat)."""
    ok, _, x = _fitted(summary.config, summary.rows)
    if len(ok) < MIN_SAMPLE_FITS:
        raise DegenerateDataError(f"{len(ok)} fits are too few to standardize")
    if not np.ptp(x) > 0:
        raise DegenerateDataError("the fits have no spread")
    return (x - x.mean()) / x.std(ddof=1)


def write_histogram_csv(summary: ExperimentSummary, path) -> None:
    z = _standardized(summary)
    counts, edges = np.histogram(z, bins=HISTOGRAM_BINS)
    density = counts / (len(z) * np.diff(edges))
    write_csv(path, ("x", "y"), zip((0.5 * (edges[:-1] + edges[1:])).tolist(), density.tolist()))


def write_qq_csv(summary: ExperimentSummary, path) -> None:
    z = np.sort(_standardized(summary))
    nd, n = NormalDist(), len(z)
    quantiles = ((nd.inv_cdf((i - 0.5) / n), v) for i, v in enumerate(z.tolist(), start=1))
    write_csv(path, ("x", "y"), quantiles)  # x theoretical, y sample


def load_summary(summary_path, rows_path, config: ExperimentConfig) -> ExperimentSummary:
    """Reload a summary from its CSV pair, re-deriving and cross-checking the
    aggregate from the rows.  A malformed file, or a summary whose fields are
    not ``Aggregate``'s in order, raises NeedletWhittleError."""
    row_fields = fields(ReplicationRow)
    cells = read_csv(rows_path, [f.name for f in row_fields], [_PARSE[f.type] for f in row_fields])
    rows = [ReplicationRow(*row) for row in cells]
    recomputed = _aggregate(config, rows)
    pairs = read_csv(summary_path, ("field", "value"), (str, float))
    if [name for name, _ in pairs] != [f.name for f in fields(Aggregate)]:
        raise NeedletWhittleError(f"{summary_path}: the fields must be Aggregate's, in order")
    for name, a in pairs:
        b = float(getattr(recomputed, name))
        if not (math.isnan(a) and math.isnan(b)) and not math.isclose(
            a, b, rel_tol=1e-12, abs_tol=1e-12
        ):
            raise NeedletWhittleError(
                f"summary field {name} does not match rows: stored {a}, recomputed {b}"
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
