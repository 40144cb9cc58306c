"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 numeric/domain error,
4 acceptance-threshold failure in ``montecarlo --check``, 141 standard output
closed before everything was written (``... | head``; 128 + SIGPIPE, as a
shell reports a command that a closed pipe stopped), with nothing on stderr.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import fields

from . import asymptotics, harness, sphere, whittle
from .errors import ConfigError, DegenerateDataError, NeedletWhittleError
from .harmonic import EmpiricalSpectrum, empirical_cl, simulate_alm
from .needlet import MexicanWindow, StandardWindow, lambda_hat
from .spectrum import PowerSpectrumModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4
EXIT_PIPE = 141


def _cmd_theory(args) -> int:
    MexicanWindow(p=args.p, B=args.B)  # the window's own p and B rules
    consts = asymptotics.constants(args.p, args.B, args.alpha0, kappa=args.kappa)
    print("field,value")
    for f in fields(consts):
        print(f"{f.name},{getattr(consts, f.name):.10g}")
    table = asymptotics.table1_constants()
    print()
    print("alpha0,kind,key,value")
    for i, a0 in enumerate(table.alpha0):
        for k, b in enumerate(table.B):
            print(f"{a0:g},rho0_sq,B={b:.6g},{table.rho0_sq[i][k]}")
        for k, p in enumerate(table.p):
            print(f"{a0:g},sigma_sq,p={p},{table.sigma_sq[i][k]}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = harness.ExperimentConfig.from_file(args.config)
    config.check_drawn_lmax()  # simulate draws even when run.noise_free is set
    prefix = config.output_prefix
    alm = simulate_alm(config.model, config.l_max, config.master_seed)
    spec = empirical_cl(alm)
    alm.save(f"{prefix}.alm.bin")
    spec.save(f"{prefix}.spectrum.bin")
    spec.to_csv(f"{prefix}.spectrum.csv")
    print(f"wrote {prefix}.alm.bin, {prefix}.spectrum.bin, {prefix}.spectrum.csv")
    return EXIT_OK


def _load_spectrum(path) -> EmpiricalSpectrum:
    if str(path).endswith(".csv"):
        return EmpiricalSpectrum.from_csv(path)
    return EmpiricalSpectrum.load(path)


def _cmd_estimate(args) -> int:
    spec = _load_spectrum(args.spectrum_file)
    if args.window == "standard" and args.p is not None:
        raise ConfigError("--p applies to the mexican window only")
    # an option left out takes the window's own field default
    given = {name: getattr(args, name) for name in ("p", "B") if getattr(args, name) is not None}
    window = harness._KINDS["window.kind"][args.window](**given)
    search = whittle.SearchSettings(
        alpha_min=args.alpha_min, alpha_max=args.alpha_max, tol=args.tol
    )
    fit = whittle.fit_band(spec, window, args.band, args.j0, args.jl, args.g, search)
    print(fit.report())
    if args.csv_out:
        harness.write_rows_csv([harness.ReplicationRow.from_fit(0, spec.seed, fit)], args.csv_out)
        print(f"wrote {args.csv_out}")
    return EXIT_OK


def _num(value: float, spec: str) -> str:
    """``value`` in the format ``spec``, or n/a for a summary value that the
    run leaves undefined (nan: too few fits, no spread, no theory value, no
    main lobe to fit a correlation exponent on)."""
    return "n/a" if math.isnan(value) else format(value, spec)


def _cmd_montecarlo(args) -> int:
    config = harness.ExperimentConfig.from_file(args.config)
    summary = harness.run_experiment(config)
    prefix = config.output_prefix
    harness.write_rows_csv(summary.rows, f"{prefix}.rows.csv")
    harness.write_summary_csv(summary, f"{prefix}.summary.csv")
    try:
        harness.write_histogram_csv(summary, f"{prefix}.hist.csv")
        harness.write_qq_csv(summary, f"{prefix}.qq.csv")
    except DegenerateDataError:
        pass  # too few fits, or no spread (a noise-free run): no sample to plot
    agg = summary.aggregate
    print(f"replications {agg.n_rows} (failed {agg.n_failed})")
    print(f"mean_alpha   {_num(agg.mean_alpha, '.6f')} +- {_num(agg.se_alpha, '.6f')}")
    print(f"mean_g       {_num(agg.mean_g, '.8g')}")
    print(f"var_scaled   {_num(agg.var_scaled, '.4f')}  (theory {_num(agg.theory_varsigma0_sq, '.4f')})")
    print(f"scaled_bias  {_num(agg.scaled_bias, '+.4f')}  (theory {_num(agg.theory_bias, '+.4f')})")
    print(f"jarque_bera  {_num(agg.jarque_bera, '.3f')}")
    if args.check:
        failures = 0
        for res in harness.theory_checks(summary):
            status = "PASS" if res.passed else "FAIL"
            print(f"check {res.name}: {status} ({res.detail})")
            failures += not res.passed
        if failures:
            return EXIT_CHECK
    return EXIT_OK


def _cmd_realspace_check(args) -> int:
    model = PowerSpectrumModel(alpha0=args.alpha0, g0=args.g0)
    sphere.check_correlation_seeds(args.n_seeds)  # before the frame check's field is drawn
    window = MexicanWindow(p=args.p, B=args.B)
    grid = sphere.build_grid(args.j, args.B)
    if args.j2 is not None:  # the correlation's second grid, also before the field is drawn
        sphere.build_grid(args.j2, args.B, sphere.CORRELATION_OVERSAMPLE)
    l_max = window.effective_lmax(args.j, args.l_max)
    alm = simulate_alm(model, l_max, args.seed)
    beta = sphere.synthesize_beta(alm, grid, args.p, args.B)
    lam = lambda_hat(empirical_cl(alm), window, args.j)
    gap = abs(beta.sum_sq() - lam) / lam
    summary = sphere.empirical_beta_correlation(
        model, args.j, args.j2 if args.j2 is not None else args.j, args.p, args.B,
        n_seeds=args.n_seeds, master_seed=args.seed,
    )
    # printed once all the work is done, so a bad argument leaves stdout empty
    print(f"frame check: sum beta^2 = {beta.sum_sq():.8g}, lambda_hat = {lam:.8g}, "
          f"relative gap = {gap:.4%}")
    print(f"correlation decay: fitted exponent {_num(summary.fitted_exponent, '.2f')} "
          f"(bound exponent {summary.lemma_exponent:g})")
    print(f"far-field mean |corr| = {summary.far_field_mean():.4f}")
    return EXIT_OK


def _cmd_plugin(args) -> int:
    spec = _load_spectrum(args.spectrum_file)
    result = whittle.plug_in(spec, p=args.p, b_std=args.B_std, b_mex=args.B_mex)
    print(result.report())
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was, so
    every ``main`` call shares it.  ``--window`` reads its names and default
    from the window kinds as they are at the first call."""
    parser = argparse.ArgumentParser(
        prog="needlet-whittle",
        description="Spectral-index estimation for isotropic Gaussian fields on the sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="print asymptotic constants and the variance table")
    p_theory.add_argument("--p", type=int, required=True)
    p_theory.add_argument("--B", type=float, required=True)
    p_theory.add_argument("--alpha0", type=float, required=True)
    p_theory.add_argument("--kappa", type=float, default=0.0)
    p_theory.set_defaults(func=_cmd_theory)

    p_sim = sub.add_parser("simulate", help="simulate coefficients and empirical spectrum")
    p_sim.add_argument("--config", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="fit a spectrum file")
    p_est.add_argument("--spectrum-file", required=True)
    windows = harness._KINDS["window.kind"]  # the config's window.kind names and default
    p_est.add_argument("--window", choices=tuple(windows), default=next(iter(windows)))
    p_est.add_argument("--p", type=int, help=f"mexican window order (default {MexicanWindow.p})")
    p_est.add_argument("--B", type=float, help="window base (default: the window's own)")
    p_est.add_argument("--band", choices=("full", "narrow"), default="full")
    p_est.add_argument("--g", type=float)
    p_est.add_argument("--j0", type=int)
    p_est.add_argument("--jl", type=int)
    defaults = whittle.SearchSettings
    p_est.add_argument("--alpha-min", type=float, default=defaults.alpha_min)
    p_est.add_argument("--alpha-max", type=float, default=defaults.alpha_max)
    p_est.add_argument("--tol", type=float, default=defaults.tol)
    p_est.add_argument("--csv-out")
    p_est.set_defaults(func=_cmd_estimate)

    p_mc = sub.add_parser("montecarlo", help="run a replicated experiment")
    p_mc.add_argument("--config", required=True)
    p_mc.add_argument("--check", action="store_true",
                      help="exit 4 unless the applicable theory checks pass")
    p_mc.set_defaults(func=_cmd_montecarlo)

    p_rs = sub.add_parser("realspace-check",
                          help="frame identity and correlation-decay diagnostics")
    p_rs.add_argument("--j", type=int, required=True)
    p_rs.add_argument("--p", type=int, required=True)
    p_rs.add_argument("--B", type=float, required=True)
    p_rs.add_argument("--seed", type=int, required=True)
    p_rs.add_argument("--j2", type=int)
    p_rs.add_argument("--alpha0", type=float, default=3.0)
    p_rs.add_argument("--g0", type=float, default=1.0)
    p_rs.add_argument("--n-seeds", type=int, default=300)
    p_rs.add_argument("--l-max", type=int, default=4096)
    p_rs.set_defaults(func=_cmd_realspace_check)

    p_pl = sub.add_parser("plugin", help="two-step pilot/refit estimate")
    p_pl.add_argument("--spectrum-file", required=True)
    p_pl.add_argument("--p", type=int, required=True)
    p_pl.add_argument("--B-std", type=float, default=StandardWindow.B)
    p_pl.add_argument("--B-mex", type=float, default=MexicanWindow.B)
    p_pl.set_defaults(func=_cmd_plugin)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NeedletWhittleError as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
