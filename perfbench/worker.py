"""One workload in a fresh interpreter: set-up, timed loop, gates, traced pass.

Started by ``run.py``; prints ``READY`` once set-up is done (the parent times
set-up from spawn to that line) and ``RESULT <json>`` at the end.  With
``--setup-only`` it exits right after ``READY``.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --out DIR [--quick] [--setup-only]
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from needlet_whittle import asymptotics, cli, harmonic, harness, needlet, spectrum, sphere, whittle  # noqa: E402
from needlet_whittle.errors import BoundaryWarning, NeedletWhittleError  # noqa: E402

from tracing import Tracer  # noqa: E402

# Highest percentile with at least ten samples beyond it at run_seconds = 30
# (about 1700-2400 fits and 280-360 fields per run).  mc-canonical completes
# only 7-11 montecarlo calls, so no percentile has ten beyond; it reports p90
# of its calls.
TAIL_PERCENTILE = {"mc-canonical": 90.0, "fit-sweep": 99.0, "realspace-j6": 95.0}

P, B = 2, 2.0
WARM_UP = 10**9  # input index of the untimed warm-up operation


class McCanonical:
    """``montecarlo --check`` on the canonical acceptance config, through a
    worker pool of nproc processes.  Operation = one replication."""

    def __init__(self, seed: int, quick: bool, out: Path):
        self.seed = seed
        self.l_max = 128 if quick else 1024
        self.reps = self.items = 8 if quick else 100
        self.config_path = out / "mc.cfg"
        self.prefix = out / "mc"
        self.config = self._write_config(0)
        self.alpha0 = self.config.model.alpha0
        self.workers = int(os.environ["NEEDLET_WHITTLE_THREADS"])

    def _write_config(self, call: int) -> harness.ExperimentConfig:
        text = (
            "model.alpha0 = 3.0\nmodel.g0 = 1.0\nwindow.kind = mexican\n"
            f"window.p = {P}\nwindow.B = {B}\nsim.l_max = {self.l_max}\nband.kind = full\n"
            f"run.replications = {self.reps}\nrun.master_seed = {self.seed * 100_000 + call}\n"
            f"output.prefix = {self.prefix}\n"
        )
        self.config_path.write_text(text)
        return harness.ExperimentConfig.from_file(self.config_path)

    def warm_up(self) -> None:
        harness.run_experiment(replace(self.config, replications=1, master_seed=self.seed, workers=1))

    def prepare(self, i: int):
        self._write_config(i)

    def call(self, _):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["montecarlo", "--config", str(self.config_path), "--check"])
        # aggregate against the closed-form constants
        return rc, asymptotics.constants(P, B, self.alpha0)

    def check(self, _, out) -> int:
        """Failed replications in one call."""
        rc, consts = out
        if rc not in (cli.EXIT_OK, cli.EXIT_CHECK):
            return self.reps
        with open(f"{self.prefix}.summary.csv") as fh:
            summary = {row["field"]: float(row["value"]) for row in csv.DictReader(fh)}
        if not math.isclose(summary["theory_varsigma0_sq"], consts.varsigma0_sq, rel_tol=1e-12):
            return self.reps
        with open(f"{self.prefix}.rows.csv") as fh:
            rows = list(csv.DictReader(fh))
        ok = sum(
            r["failed"] == "0" and r["converged"] == "1" and math.isfinite(float(r["alpha_hat"]))
            for r in rows
        )
        return self.reps - ok

    def gates(self) -> tuple[int, int]:
        """One noise-free replication recovers alpha0 within 10 tol."""
        cfg = replace(self.config, noise_free=True, replications=1, workers=1)
        row = harness.run_experiment(cfg).rows[0]
        ok = not row.failed and abs(row.alpha_hat - self.alpha0) <= 10 * cfg.tol
        return 1, int(not ok)


class FitSweep:
    """Fits of c-hat spectra drawn by the exact chi-square law, rotating
    through full band, narrow band (g = 0.5) and the plug-in procedure.
    Operation = one fit request."""

    KINDS = ("full", "narrow", "plugin")
    items = 1  # operations per timed call
    TRACED_PER_S = 15  # traced-run inputs per --seconds

    def __init__(self, seed: int, quick: bool, out: Path):
        self.seed = seed
        self.l_range = (256, 1024) if quick else (1024, 8192)
        self.window = needlet.MexicanWindow(p=P, B=B)

    @staticmethod
    def chi2_spectrum(alpha0: float, l_max: int, rng) -> harmonic.EmpiricalSpectrum:
        """c-hat with (2l+1) c-hat_l / C_l ~ chi-square(2l+1); noise-free when rng is None."""
        ls = np.arange(1, l_max + 1)
        cl = spectrum.c_l(spectrum.PowerSpectrumModel(alpha0=alpha0), ls)
        chat = cl if rng is None else cl * rng.chisquare(2 * ls + 1) / (2 * ls + 1)
        return harmonic.EmpiricalSpectrum(l_max=l_max, values=np.concatenate([[0.0], chat]))

    def prepare(self, i: int):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, i]))
        l_max = int(rng.integers(self.l_range[0], self.l_range[1] + 1))
        alpha0 = float(rng.uniform(2.5, 4.5))
        return self.KINDS[i % 3], self.chi2_spectrum(alpha0, l_max, rng)

    def fit(self, kind: str, spec):
        if kind == "full":
            return whittle.fit_full_band(spec, self.window)
        if kind == "narrow":
            return whittle.fit_narrow_band(spec, self.window, g=0.5)
        return whittle.plug_in(spec, p=P, b_std=B, b_mex=B)

    def warm_up(self) -> None:
        self.fit("full", self.prepare(WARM_UP)[1])

    def call(self, inp):
        kind, spec = inp
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = self.fit(kind, spec)
        return fit, any(issubclass(w.category, BoundaryWarning) for w in caught)

    def check(self, inp, out) -> int:
        fit, boundary = out
        if isinstance(fit, whittle.PluginResult):
            ok = math.isfinite(fit.alpha_final)
        else:
            ok = fit.converged and math.isfinite(fit.alpha_hat)
        return int(boundary or not ok)

    def gates(self) -> tuple[int, int]:
        """Noise-free spectra are recovered within 10 tol by every fit kind."""
        tol = whittle.SearchSettings().tol
        failed = 0
        for l_max in (self.l_range[0], self.l_range[1]):
            spec = self.chi2_spectrum(3.0, l_max, None)
            for kind in self.KINDS:
                fit = self.fit(kind, spec)
                alpha = fit.alpha_final if kind == "plugin" else fit.alpha_hat
                failed += abs(alpha - 3.0) > 10 * tol
        return 2 * len(self.KINDS), failed


class RealspaceJ6:
    """Needlet coefficients beta on the level-6 cubature grid, one field per
    seed.  The coefficient set is simulated before each timed call.
    Operation = one field."""

    TRACED_PER_S = 1  # traced-run inputs per --seconds
    items = 1  # operations per timed call

    def __init__(self, seed: int, quick: bool, out: Path):
        self.seed = seed
        self.j = 4 if quick else 6
        self.model = spectrum.PowerSpectrumModel(alpha0=3.0)
        self.window = needlet.MexicanWindow(p=P, B=B)
        self.l_max = self.window.effective_lmax(self.j, harmonic.DEFAULT_LMAX_CAP)
        self.grid = sphere.build_grid(self.j, B)

    def prepare(self, i: int):
        return harmonic.simulate_alm(self.model, self.l_max, self.seed * 100_000 + i)

    def warm_up(self) -> None:
        self.call(self.prepare(WARM_UP))

    def call(self, alm):
        return sphere.synthesize_beta(alm, self.grid, P, B)

    def check(self, alm, beta) -> int:
        """Frame identity: sum beta^2 matches lambda_hat_j within 3%."""
        lam = needlet.lambda_hat(harmonic.empirical_cl(alm), self.window, self.j)
        return int(not abs(beta.sum_sq() - lam) / lam < 0.03)

    def gates(self) -> tuple[int, int]:
        return 0, 0


WORKLOADS = {"mc-canonical": McCanonical, "fit-sweep": FitSweep, "realspace-j6": RealspaceJ6}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)


def run_ops(wl, indices, tally: Tally, tracer: Tracer | None = None, deadline: float | None = None):
    """Run operations (inputs prepared untimed) until the indices or the
    deadline run out; returns per-call seconds."""
    times = []
    for i in indices:
        if deadline is not None and times and time.perf_counter() >= deadline:
            break
        inp = wl.prepare(i)
        if tracer is None:
            t0 = time.perf_counter()
            out = wl.call(inp)
            dt = time.perf_counter() - t0
        else:
            with tracer.operation(i) as span:
                out = wl.call(inp)
            dt = span.ms / 1e3
        times.append(dt)
        tally.add(wl.items, wl.check(inp, out))
    return times


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def end_to_end(name: str, wl, seconds: float, tally: Tally) -> tuple[dict, list[float]]:
    """Untraced closed loop for ``seconds``; returns the metrics and the
    per-operation milliseconds in call order."""
    start = time.perf_counter()
    times = run_ops(wl, range(10**9), tally, deadline=start + seconds)
    items = wl.items
    op_ms = [1e3 * t / items for t in times]
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "ops_per_s": len(times) * items / sum(times),
        "op_ms_p50": _pct(op_ms, 50),
        "op_ms_tail": _pct(op_ms, TAIL_PERCENTILE[name]),
        "peak_rss_mb": usage / 1024.0,
    }, op_ms


def _per_layer(tracer: Tracer) -> tuple[dict, dict]:
    ms = lambda name, q=50: _pct([s.ms for s in tracer.by_name(name)], q)
    fits = tracer.by_name("whittle.fit_full_band") + tracer.by_name("whittle.fit_narrow_band")
    mean = lambda spans, key: float(np.mean([s.attrs[key] for s in spans])) if spans else 0.0
    seen, reused = set(), 0
    for s in fits:
        reused += s.attrs["key"] in seen
        seen.add(s.attrs["key"])
    table = tracer.layer_table()
    metrics = {
        "harmonic.simulate_alm_ms_p50": ms("harmonic.simulate_alm"),
        "harmonic.simulate_alm_ms_p90": ms("harmonic.simulate_alm", 90),
        "harmonic.empirical_cl_ms_p50": ms("harmonic.empirical_cl"),
        "harmonic.alm_bytes": mean(tracer.by_name("harmonic.simulate_alm"), "bytes"),
        "needlet.compute_statistics_ms_p50": ms("needlet.compute_statistics"),
        "needlet.levels_per_fit": mean(tracer.by_name("needlet.compute_statistics"), "levels"),
        "whittle.fit_full_band_ms_p50": ms("whittle.fit_full_band"),
        "whittle.fit_narrow_band_ms_p50": ms("whittle.fit_narrow_band"),
        "whittle.plug_in_ms_p50": ms("whittle.plug_in"),
        "whittle.contrast_evals_per_fit": mean(fits, "evals"),
        "whittle.iterations_per_fit": mean(fits, "iterations"),
        "whittle.boundary_frac": mean(fits, "boundary"),
        "whittle.key_reuse_frac": reused / len(fits) if fits else 0.0,
        "sphere.legendre_table_ms_p50": ms("sphere.legendre_table"),
        "sphere.synthesize_beta_ms_p50": ms("sphere.synthesize_beta"),
        "sphere.table_bytes": mean(tracer.by_name("sphere.legendre_table"), "bytes"),
        "asymptotics.constants_ms_p50": ms("asymptotics.constants"),
    }
    for layer, row in table["layers"].items():
        if layer != "bench":
            metrics[f"{layer}.self_share"] = row["self_share"]
    return metrics, table


def traced_run(wl, seconds: float, tally: Tally) -> tuple[dict, dict, Tracer]:
    """The same operations untraced and traced; per-layer metrics come from
    the traced ones and the tracing overhead from the two rates."""
    tracer = Tracer()
    extra = {
        "harness.serial_reps_per_s": 0.0,
        "harness.pool_efficiency": 0.0,
        "harness.write_csv_ms": 0.0,
        "harness.csv_bytes": 0.0,
        "cli.check_failed": 0.0,
    }
    if isinstance(wl, McCanonical):
        # parallel call; serial run_experiment before and after the traced
        # serial call, so that a drift in machine speed cancels in the overhead
        wl.prepare(0)
        parallel = run_ops(wl, [0], tally)[0]
        rows = Path(f"{wl.prefix}.rows.csv").read_bytes()
        os.environ["NEEDLET_WHITTLE_THREADS"] = "1"
        try:
            serial = _timed(harness.run_experiment, wl.config)
            with tracer.operation(0):
                traced = wl.call(None)
            serial = 0.5 * (serial + _timed(harness.run_experiment, wl.config))
        finally:
            os.environ["NEEDLET_WHITTLE_THREADS"] = str(wl.workers)
        tally.add(wl.reps, wl.check(None, traced))
        if Path(f"{wl.prefix}.rows.csv").read_bytes() != rows:
            tally.add(0, wl.reps)  # traced serial rows must match the parallel rows byte for byte
        untraced_rate = wl.reps / serial
        traced_rate = wl.reps / (tracer.by_name("bench.op")[0].ms / 1e3)
        written = [f"{wl.prefix}.{s}.csv" for s in ("rows", "summary", "hist", "qq")]
        extra.update(
            {
                "harness.serial_reps_per_s": untraced_rate,
                "harness.pool_efficiency": (wl.reps / parallel) / (wl.workers * untraced_rate),
                "harness.write_csv_ms": sum(
                    s.ms for s in tracer.spans if s.name.startswith("harness.write_")
                ),
                "harness.csv_bytes": float(sum(os.path.getsize(p) for p in written if os.path.exists(p))),
                "cli.check_failed": float(traced[0] == cli.EXIT_CHECK),
            }
        )
    else:
        # each input untraced, then traced: drift in machine speed hits both
        n = max(2, round(seconds * wl.TRACED_PER_S))
        untraced = []
        for i in range(n):
            untraced += run_ops(wl, [i], tally)
            run_ops(wl, [i], tally, tracer=tracer)
        untraced_rate = n / sum(untraced)
        traced_rate = n / (sum(s.ms for s in tracer.by_name("bench.op")) / 1e3)
    metrics, table = _per_layer(tracer)
    metrics.update(extra)
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return metrics, table, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed, args.quick, out)
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    result = {"numpy": np.__version__, "tail_percentile": TAIL_PERCENTILE[args.workload]}
    if args.trace:
        metrics, table, tracer = traced_run(wl, args.seconds, tally)
        tracer.write_spans(out / "spans.csv")
        (out / "layers.json").write_text(json.dumps(table, indent=1) + "\n")
        result["layers"] = table["layers"]
    else:
        metrics, result["samples"] = end_to_end(args.workload, wl, args.seconds, tally)
    tally.add(*wl.gates())
    result.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except NeedletWhittleError as exc:
        print(f"worker error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(3)
