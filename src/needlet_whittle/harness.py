"""Reproducible Monte Carlo experiment runner.

Configuration is a flat key-value text format with dotted section keys (see
``ExperimentConfig.parse``); every replication seed is pre-split from the
master seed so serial and parallel executions emit byte-identical CSV.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import asymptotics
from .errors import ConfigError, NeedletWhittleError
from .harmonic import EmpiricalSpectrum, empirical_cl, simulate_alm
from .needlet import (
    JRange,
    MexicanWindow,
    NeedletWindow,
    StandardWindow,
    narrow_band_j1,
    select_j_range,
)
from .spectrum import (
    KappaCorrection,
    NoCorrection,
    PowerSpectrumModel,
    RationalCorrection,
    c_l,
    model_kappa,
)
from .whittle import (
    SearchSettings,
    WhittleFit,
    fit_csv_header,
    fit_full_band,
    fit_narrow_band,
)

__all__ = [
    "ExperimentConfig",
    "ReplicationRow",
    "Aggregate",
    "ExperimentSummary",
    "rep_seed",
    "run_experiment",
    "jarque_bera",
    "JB_CRITICAL_0_001",
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


@dataclass
class ExperimentConfig:
    model: PowerSpectrumModel
    window: NeedletWindow
    l_max: int
    jrange_policy: str = "default"  # "default" | "explicit"
    j0: int | None = None
    jl: int | None = None
    band: str = "full"  # "full" | "narrow"
    g: float | None = None  # narrow band fraction; None -> jL^-3 rule
    replications: int = 100
    master_seed: int = 0
    alpha_min: float = 2.001
    alpha_max: float = 10.0
    tol: float = 1e-6
    workers: int = 0  # 0 -> cpu count (env NEEDLET_WHITTLE_THREADS overrides)
    noise_free: bool = False
    output_prefix: str = "experiment"

    def search(self) -> SearchSettings:
        return SearchSettings(alpha_min=self.alpha_min, alpha_max=self.alpha_max, tol=self.tol)

    def j_range(self) -> JRange:
        if self.jrange_policy == "explicit":
            if self.j0 is None or self.jl is None:
                raise ConfigError("explicit jrange policy requires jrange.j0 and jrange.jl")
            return JRange(j0=self.j0, jL=self.jl)
        return select_j_range(self.l_max, self.window)

    def validate(self) -> None:
        if self.replications < 1:
            raise ConfigError("run.replications must be >= 1")
        if self.l_max < self.window.B**2:
            raise ConfigError("sim.l_max must be >= B^2")
        if self.band not in ("full", "narrow"):
            raise ConfigError(f"band.kind must be full or narrow, got {self.band!r}")
        if self.jrange_policy not in ("default", "explicit"):
            raise ConfigError(f"jrange.policy must be default or explicit")
        if self.g is not None and not 0.0 < self.g < 1.0:
            raise ConfigError("band.g must be in (0, 1)")
        if not self.alpha_min < self.alpha_max:
            raise ConfigError("fit.alpha_min must be below fit.alpha_max")
        rng = self.j_range()  # raises on inconsistent ranges
        if self.band == "narrow":
            g = self.g if self.g is not None else float(rng.jL) ** -3
            j1 = narrow_band_j1(rng.jL, g, self.window.B)
            if j1 >= rng.jL:
                raise ConfigError(
                    f"band.g={g:.6g} rounds the narrow band to a single level at jL={rng.jL}"
                )

    # -- serialization --------------------------------------------------

    def to_text(self) -> str:
        lines = [
            f"model.alpha0 = {self.model.alpha0!r}",
            f"model.g0 = {self.model.g0!r}",
        ]
        corr = self.model.correction
        if isinstance(corr, NoCorrection):
            lines.append("model.correction = none")
        elif isinstance(corr, KappaCorrection):
            lines.append("model.correction = kappa")
            lines.append(f"model.kappa = {corr.kappa!r}")
        else:
            lines.append("model.correction = rational")
            lines.append("model.p_coeffs = " + ",".join(repr(c) for c in corr.p_coeffs))
            lines.append("model.q_coeffs = " + ",".join(repr(c) for c in corr.q_coeffs))
        if isinstance(self.window, MexicanWindow):
            lines += [
                "window.kind = mexican",
                f"window.p = {self.window.p}",
                f"window.B = {self.window.B!r}",
            ]
        else:
            lines += ["window.kind = standard", f"window.B = {self.window.B!r}"]
        lines += [
            f"sim.l_max = {self.l_max}",
            f"jrange.policy = {self.jrange_policy}",
        ]
        if self.jrange_policy == "explicit":
            lines += [f"jrange.j0 = {self.j0}", f"jrange.jl = {self.jl}"]
        lines.append(f"band.kind = {self.band}")
        if self.g is not None:
            lines.append(f"band.g = {self.g!r}")
        lines += [
            f"fit.alpha_min = {self.alpha_min!r}",
            f"fit.alpha_max = {self.alpha_max!r}",
            f"fit.tol = {self.tol!r}",
            f"run.replications = {self.replications}",
            f"run.master_seed = {self.master_seed}",
            f"run.workers = {self.workers}",
            f"run.noise_free = {'true' if self.noise_free else 'false'}",
            f"output.prefix = {self.output_prefix}",
        ]
        return "\n".join(lines) + "\n"

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

        def take(key, conv, default=None, required=False):
            if key not in kv:
                if required:
                    raise ConfigError(f"missing required key {key!r}")
                return default
            raw = kv.pop(key)
            try:
                return conv(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"key {key!r}: cannot parse {raw!r} ({exc})") from exc

        def boolean(raw):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError("expected true/false")

        def floats(raw):
            return tuple(float(c) for c in raw.split(","))

        alpha0 = take("model.alpha0", float, required=True)
        g0 = take("model.g0", float, 1.0)
        corr_kind = take("model.correction", str, "none").lower()
        if corr_kind == "none":
            corr = NoCorrection()
        elif corr_kind == "kappa":
            corr = KappaCorrection(kappa=take("model.kappa", float, required=True))
        elif corr_kind == "rational":
            corr = RationalCorrection(
                p_coeffs=take("model.p_coeffs", floats, required=True),
                q_coeffs=take("model.q_coeffs", floats, required=True),
            )
        else:
            raise ConfigError(f"model.correction must be none/kappa/rational, got {corr_kind!r}")
        try:
            model = PowerSpectrumModel(alpha0=alpha0, g0=g0, correction=corr)
        except NeedletWhittleError as exc:
            raise ConfigError(f"invalid model: {exc}") from exc

        kind = take("window.kind", str, "mexican").lower()
        B = take("window.B", float, 2.0)
        try:
            if kind == "mexican":
                window = MexicanWindow(p=take("window.p", int, 2), B=B)
            elif kind == "standard":
                window = StandardWindow(B=B)
            else:
                raise ConfigError(f"window.kind must be mexican or standard, got {kind!r}")
        except NeedletWhittleError as exc:
            raise ConfigError(f"invalid window: {exc}") from exc

        cfg = cls(
            model=model,
            window=window,
            l_max=take("sim.l_max", int, required=True),
            jrange_policy=take("jrange.policy", str, "default"),
            j0=take("jrange.j0", int),
            jl=take("jrange.jl", int),
            band=take("band.kind", str, "full"),
            g=take("band.g", float),
            replications=take("run.replications", int, 100),
            master_seed=take("run.master_seed", int, 0),
            alpha_min=take("fit.alpha_min", float, 2.001),
            alpha_max=take("fit.alpha_max", float, 10.0),
            tol=take("fit.tol", float, 1e-6),
            workers=take("run.workers", int, 0),
            noise_free=take("run.noise_free", boolean, False),
            output_prefix=take("output.prefix", str, "experiment"),
        )
        if kv:
            raise ConfigError(f"unknown keys: {sorted(kv)}")
        try:
            cfg.validate()
        except NeedletWhittleError as exc:
            raise ConfigError(str(exc)) from exc
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
    rep: int
    seed: int
    alpha_hat: float = math.nan
    g_hat: float = math.nan
    j0: int = 0
    j1_or_j0: int = 0
    jL: int = 0
    score: float = math.nan
    hessian: float = math.nan
    converged: bool = False
    iterations: int = 0
    failed: bool = False
    error: str = ""


def _noise_free_spectrum(model: PowerSpectrumModel, l_max: int) -> EmpiricalSpectrum:
    ls = np.arange(1, l_max + 1)
    values = np.concatenate([[0.0], c_l(model, ls)])
    return EmpiricalSpectrum(l_max=l_max, values=values)


def _fit_for_config(config: ExperimentConfig, spec: EmpiricalSpectrum) -> WhittleFit:
    if config.band == "narrow":
        jl = config.jl if config.jrange_policy == "explicit" else config.j_range().jL
        return fit_narrow_band(spec, config.window, j_l=jl, g=config.g, search=config.search())
    return fit_full_band(spec, config.window, j_range=config.j_range(), search=config.search())


def _run_one(args) -> ReplicationRow:
    config, r = args
    seed = rep_seed(config.master_seed, r)
    row = ReplicationRow(rep=r, seed=seed)
    try:
        if config.noise_free:
            spec = _noise_free_spectrum(config.model, config.l_max)
        else:
            spec = empirical_cl(simulate_alm(config.model, config.l_max, seed))
        fit = _fit_for_config(config, spec)
        row.alpha_hat = fit.alpha_hat
        row.g_hat = fit.g_hat
        row.j0 = fit.j_range_used.j0
        row.j1_or_j0 = fit.narrow_j1 if fit.narrow_j1 is not None else fit.j_range_used.j0
        row.jL = fit.j_range_used.jL
        row.score = fit.score_at_hat
        row.hessian = fit.hessian_at_hat
        row.converged = fit.converged
        row.iterations = fit.iterations
    except NeedletWhittleError as exc:
        row.failed = True
        row.error = f"{type(exc).__name__}: {exc}"
    return row


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
    """Skewness/kurtosis normality statistic; chi-square(2) under the null."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    z = (x - x.mean()) / x.std(ddof=0)
    skew = float(np.mean(z**3))
    kurt = float(np.mean(z**4))
    return n * (skew**2 / 6.0 + (kurt - 3.0) ** 2 / 24.0)


def _aggregate(config: ExperimentConfig, rows: list[ReplicationRow]) -> Aggregate:
    ok = [row for row in rows if not row.failed]
    alpha0 = config.model.alpha0
    jl = ok[0].jL if ok else config.j_range().jL
    scale = config.window.B ** jl
    alphas = np.array([row.alpha_hat for row in ok])
    scaled = scale * (alphas - alpha0)
    p = config.window.p if isinstance(config.window, MexicanWindow) else 0
    kappa = model_kappa(config.model)
    if isinstance(config.window, MexicanWindow):
        # full-band limit; integer-level narrow bands have no closed-form
        # desk-scale reference (see theory_checks / README)
        theory_var = (
            asymptotics.varsigma0_sq(p, config.window.B, alpha0)
            if config.band == "full"
            else math.nan
        )
        theory_bias = asymptotics.bias_coeff(p, config.window.B, alpha0, kappa)
    else:
        theory_var = asymptotics.table1_rho0_sq(alpha0, config.window.B, interpolate=True) * (
            config.window.B**2 - 1.0
        ) ** 3 / (config.window.B**4 * math.log(config.window.B) ** 2)
        theory_bias = math.nan
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
        theory_hessian=config.window.B**2
        * math.log(config.window.B) ** 2
        / (config.window.B**2 - 1.0) ** 2,
    )


def _worker_count(config: ExperimentConfig) -> int:
    env = os.environ.get("NEEDLET_WHITTLE_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"NEEDLET_WHITTLE_THREADS={env!r} is not an integer") from exc
    if config.workers > 0:
        return config.workers
    return os.cpu_count() or 1


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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_rows_csv(summary: ExperimentSummary, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("rep," + fit_csv_header() + ",failed,error\n")
        for row in summary.rows:
            fh.write(
                ",".join(
                    [
                        str(row.rep),
                        str(row.seed),
                        summary.config.band,
                        _fmt(row.alpha_hat),
                        _fmt(row.g_hat),
                        str(row.j0),
                        str(row.j1_or_j0),
                        str(row.jL),
                        _fmt(row.score),
                        _fmt(row.hessian),
                        str(int(row.converged)),
                        str(row.iterations),
                        str(int(row.failed)),
                        row.error.replace(",", ";"),
                    ]
                )
                + "\n"
            )


_AGG_FIELDS = (
    "n_rows",
    "n_failed",
    "mean_alpha",
    "se_alpha",
    "mean_g",
    "var_scaled",
    "scaled_bias",
    "jarque_bera",
    "mean_hessian",
    "theory_varsigma0_sq",
    "theory_bias",
    "theory_hessian",
)


def write_summary_csv(summary: ExperimentSummary, path) -> None:
    agg = summary.aggregate
    with open(path, "w", newline="") as fh:
        fh.write("field,value\n")
        for name in _AGG_FIELDS:
            value = getattr(agg, name)
            fh.write(f"{name},{_fmt(float(value))}\n")


def _standardized(summary: ExperimentSummary) -> np.ndarray:
    ok = [row for row in summary.rows if not row.failed]
    scale = summary.config.window.B ** ok[0].jL
    x = scale * (np.array([row.alpha_hat for row in ok]) - summary.config.model.alpha0)
    return (x - x.mean()) / x.std(ddof=1)


def write_histogram_csv(summary: ExperimentSummary, path, bins: int = 24) -> None:
    z = _standardized(summary)
    counts, edges = np.histogram(z, bins=bins)
    density = counts / (len(z) * np.diff(edges))
    with open(path, "w", newline="") as fh:
        fh.write("x,y\n")
        for center, y in zip(0.5 * (edges[:-1] + edges[1:]), density):
            fh.write(f"{_fmt(center)},{_fmt(y)}\n")


def write_qq_csv(summary: ExperimentSummary, path) -> None:
    z = np.sort(_standardized(summary))
    nd = NormalDist()
    with open(path, "w", newline="") as fh:
        fh.write("x,y\n")  # theoretical quantile, sample quantile
        n = len(z)
        for i, v in enumerate(z, start=1):
            fh.write(f"{_fmt(nd.inv_cdf((i - 0.5) / n))},{_fmt(v)}\n")


def load_summary(summary_path, rows_path, config: ExperimentConfig) -> ExperimentSummary:
    """Reload a summary from its CSV pair, re-deriving and cross-checking the
    aggregate from the rows."""
    rows: list[ReplicationRow] = []
    with open(rows_path) as fh:
        header = fh.readline()
        for line in fh:
            f = line.rstrip("\n").split(",")
            rows.append(
                ReplicationRow(
                    rep=int(f[0]),
                    seed=int(f[1]),
                    alpha_hat=float(f[3]),
                    g_hat=float(f[4]),
                    j0=int(f[5]),
                    j1_or_j0=int(f[6]),
                    jL=int(f[7]),
                    score=float(f[8]),
                    hessian=float(f[9]),
                    converged=bool(int(f[10])),
                    iterations=int(f[11]),
                    failed=bool(int(f[12])),
                    error=f[13],
                )
            )
    recomputed = _aggregate(config, rows)
    stored: dict[str, float] = {}
    with open(summary_path) as fh:
        fh.readline()
        for line in fh:
            name, value = line.strip().split(",")
            stored[name] = float(value)
    for name in _AGG_FIELDS:
        a, b = stored[name], float(getattr(recomputed, name))
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

    Mean consistency always; variance/normality for full-band clean power laws
    (kappa = 0); scaled-bias agreement for full-band kappa models.  Narrow-band
    runs get the bias comparison only -- at desk scale the continuum variance
    reference is out of reach (see README).
    """
    agg = summary.aggregate
    cfg = summary.config
    checks: list[CheckResult] = []
    if cfg.noise_free:
        ok = abs(agg.mean_alpha - cfg.model.alpha0) <= 10 * cfg.tol
        checks.append(
            CheckResult("noise-free-exactness", ok, f"mean_alpha={agg.mean_alpha:.8f}")
        )
        return checks
    kappa = model_kappa(cfg.model)
    if kappa == 0.0:
        # a 1/l spectral correction biases the estimate by design, so the
        # 3-SE mean band only applies to clean power laws
        dev = abs(agg.mean_alpha - cfg.model.alpha0)
        ok = dev <= 3.0 * agg.se_alpha
        checks.append(
            CheckResult(
                "mean-consistency", ok, f"|mean-alpha0|={dev:.5f}, 3*SE={3 * agg.se_alpha:.5f}"
            )
        )
    if cfg.band == "full" and isinstance(cfg.window, MexicanWindow):
        if kappa == 0.0:
            rel = abs(agg.var_scaled - agg.theory_varsigma0_sq) / agg.theory_varsigma0_sq
            checks.append(
                CheckResult(
                    "clt-variance",
                    rel <= 0.25,
                    f"var={agg.var_scaled:.4f}, theory={agg.theory_varsigma0_sq:.4f}, rel={rel:.2%}",
                )
            )
            checks.append(
                CheckResult(
                    "normality",
                    agg.jarque_bera < JB_CRITICAL_0_001,
                    f"JB={agg.jarque_bera:.3f}, crit={JB_CRITICAL_0_001:.3f}",
                )
            )
        else:
            rel = abs(agg.scaled_bias - agg.theory_bias) / abs(agg.theory_bias)
            checks.append(
                CheckResult(
                    "scaled-bias",
                    rel <= 0.30,
                    f"bias={agg.scaled_bias:.4f}, theory={agg.theory_bias:.4f}, rel={rel:.2%}",
                )
            )
    if not checks:
        checks.append(
            CheckResult(
                "report-only",
                True,
                "no closed-form threshold applies to this configuration",
            )
        )
    return checks
