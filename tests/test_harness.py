import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from needlet_whittle import (
    BoundaryWarning,
    ConfigError,
    DegenerateDataError,
    JRange,
    KappaCorrection,
    MexicanWindow,
    NeedletWhittleError,
    PowerSpectrumModel,
    StandardWindow,
)
from needlet_whittle.harness import (
    REPLICATION_CAP,
    ExperimentConfig,
    jarque_bera,
    load_summary,
    rep_seed,
    run_experiment,
    run_experiments,
    theory_checks,
    write_histogram_csv,
    write_qq_csv,
    write_rows_csv,
    write_summary_csv,
)


def small_config(**kwargs) -> ExperimentConfig:
    base = dict(
        model=PowerSpectrumModel(alpha0=3.0),
        window=MexicanWindow(p=2, B=2.0),
        l_max=256,
        replications=12,
        master_seed=99,
        workers=1,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self):
        for cfg in (
            small_config(),
            small_config(
                model=PowerSpectrumModel(alpha0=3.0, correction=KappaCorrection(0.5)),
                band="narrow",
                g=0.5,
            ),
            small_config(window=StandardWindow(B=2.0), j0=2, jl=6),
        ):
            assert ExperimentConfig.parse(cfg.to_text()) == cfg

    def test_round_trip_numpy_floats(self):
        # numpy floats are written as plain floats: the same text as the
        # Python-float config, which parse reads back
        f = np.float64
        for make in (
            lambda x: small_config(
                model=PowerSpectrumModel(alpha0=x(3.0), g0=x(1.5), correction=KappaCorrection(x(0.5))),
                window=MexicanWindow(p=2, B=x(2.0)),
                band="narrow",
                g=x(0.5),
                tol=x(1e-6),
            ),
            lambda x: small_config(window=StandardWindow(B=x(2.0)), alpha_min=x(2.5)),
        ):
            cfg = make(f)
            text = cfg.to_text()
            assert text == make(float).to_text()
            assert "np." not in text
            assert ExperimentConfig.parse(text) == cfg

    def test_comments_and_blanks(self):
        text = small_config().to_text() + "\n# trailing comment\n\n"
        ExperimentConfig.parse(text)

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda t: t.replace("model.alpha0 = 3.0", "model.alpha0 = banana"),
            lambda t: t.replace("model.alpha0 = 3.0", ""),  # required key missing
            lambda t: t + "unknown.key = 1\n",
            lambda t: t + "model.alpha0 = 4.0\n",  # duplicate
            lambda t: t.replace("run.replications = 12", "run.replications = 0"),
            lambda t: t.replace("band.kind = full", "band.kind = sideways"),
        ],
    )
    def test_malformed_rejected(self, mutation):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse(mutation(small_config().to_text()))

    @pytest.mark.parametrize(
        "kwargs",
        [
            # level 13's window peak lies at l ~ 337 > 300
            dict(
                window=MexicanWindow(p=3, B=1.5),
                l_max=300,
                j0=1,
                jl=13,
            ),
            dict(master_seed=2**63),
            dict(master_seed=-(2**63) - 1),
        ],
        ids=["window-peak-past-l-max", "seed-above-int64", "seed-below-int64"],
    )
    def test_rejected_before_simulation(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse(small_config(**kwargs).to_text())

    @pytest.mark.parametrize(
        "kwargs",
        [dict(tol=0.0), dict(tol=-1.0), dict(alpha_max=math.inf), dict(workers=-3)],
        ids=["tol-zero", "tol-negative", "alpha-max-inf", "workers-negative"],
    )
    def test_search_and_pool_settings_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse(small_config(**kwargs).to_text())

    def test_replications_capped_before_allocation(self):
        text = small_config().to_text().replace(
            "run.replications = 12", "run.replications = 1000000000000"
        )
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="run.replications"):
                ExperimentConfig.parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "text",
        [
            small_config().to_text() + "band.g = 0.5\n",
            small_config(band="narrow", g=0.5).to_text() + "jrange.j0 = 1\n",
            small_config().to_text() + "jrange.j0 = 3\n",
            small_config().to_text() + "jrange.jl = 5\n",
        ],
        ids=["full-g", "narrow-j0", "lone-j0", "lone-jl"],
    )
    def test_ignored_band_keys_rejected(self, text):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse(text)

    @pytest.mark.parametrize(
        "text, levels",
        [
            (small_config().to_text() + "jrange.j0 = 3\njrange.jl = 5\n", (3, 5)),
            # a narrow band topped at a chosen jL: J1 = 6 - log2(1 / (1 - 0.5)) = 5
            (small_config(band="narrow", g=0.5).to_text() + "jrange.jl = 6\n", (5, 6)),
        ],
        ids=["full-explicit", "narrow-jl"],
    )
    def test_named_range_is_fitted(self, text, levels):
        cfg = ExperimentConfig.parse(text)
        assert cfg.j_range() == JRange(*levels)
        rows = run_experiment(replace(cfg, replications=2)).rows
        assert [(row.j0, row.jL) for row in rows] == [levels] * 2

    def test_seed_range_ends_accepted(self):
        for seed in (-(2**63), 2**63 - 1):
            cfg = small_config(master_seed=seed)
            assert ExperimentConfig.parse(cfg.to_text()) == cfg

    def test_narrow_degenerate_rejected_eagerly(self):
        cfg_text = small_config(band="narrow", g=0.5).to_text().replace("band.g = 0.5", "")
        # default g-rule at jL = 7 gives g = 1/343, a single-level band
        with pytest.raises(ConfigError):
            ExperimentConfig.parse(cfg_text)

    def test_narrow_j1_tie_rounds_half_up(self):
        # at B = 4, jL = 3: g = 7/8 puts J1 at 1.5 exactly (rounds up to 2);
        # g = 1/2 puts it at 2.5, which rounds up to the single level jL
        window = MexicanWindow(p=2, B=4.0)
        ExperimentConfig.parse(small_config(window=window, band="narrow", g=0.875).to_text())
        with pytest.raises(ConfigError):
            ExperimentConfig.parse(small_config(window=window, band="narrow", g=0.5).to_text())


class TestRepSeed:
    def test_deterministic_and_distinct(self):
        seeds = [rep_seed(123, r) for r in range(100)]
        assert seeds == [rep_seed(123, r) for r in range(100)]
        assert len(set(seeds)) == 100


class TestRunExperiment:
    def test_noise_free_single_row(self):
        summary = run_experiment(small_config(replications=1, noise_free=True))
        assert summary.aggregate.n_failed == 0
        assert summary.aggregate.mean_alpha == pytest.approx(3.0, abs=1e-5)

    def test_deterministic_csv(self, tmp_path):
        cfg = small_config()
        paths = []
        for tag in ("a", "b"):
            summary = run_experiment(cfg)
            path = tmp_path / f"{tag}.rows.csv"
            write_rows_csv(summary.rows, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_experiment(small_config(workers=1))
        parallel = run_experiment(small_config(workers=2))
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        write_rows_csv(serial.rows, p1)
        write_rows_csv(parallel.rows, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_boundary_fits_flagged_in_rows(self, tmp_path):
        # alpha0 = 3 lies above the search range, so every fit ends at alpha_max;
        # the BoundaryWarning stays inside the pool workers, the row keeps the flag
        summary = run_experiment(small_config(alpha_max=2.5, replications=4, workers=2))
        path = tmp_path / "rows.csv"
        write_rows_csv(summary.rows, path)
        header, *lines = path.read_text().splitlines()
        col = header.split(",").index("boundary")
        assert [line.split(",")[col] for line in lines] == ["1"] * 4
        assert all(row.converged and not row.failed for row in summary.rows)

    @pytest.mark.parametrize("window", [MexicanWindow(p=2, B=2.0), StandardWindow(B=2.0)])
    def test_narrow_band_has_no_theory_variance(self, window):
        # the closed-form variances are full-band limits, for either window
        full = run_experiment(small_config(window=window, replications=2))
        narrow = run_experiment(small_config(window=window, replications=2, band="narrow", g=0.5))
        assert math.isfinite(full.aggregate.theory_varsigma0_sq)
        assert math.isnan(narrow.aggregate.theory_varsigma0_sq)

    def test_env_override_workers(self, monkeypatch, tmp_path):
        monkeypatch.setenv("NEEDLET_WHITTLE_THREADS", "2")
        summary = run_experiment(small_config(workers=1))
        assert summary.aggregate.n_rows == 12

    def test_env_workers_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("NEEDLET_WHITTLE_THREADS", "abc")
        with pytest.raises(ConfigError, match="NEEDLET_WHITTLE_THREADS='abc'"):
            run_experiment(small_config())

    @pytest.mark.parametrize(
        "env, workers, replications, cores, expected",
        [
            ("100000", 1, 12, 2, 2),  # the variable is clamped to the cores
            (None, 100000, 12, 4, 4),  # so is run.workers
            (None, 0, 12, 8, 8),  # 0 -> every core
            (None, 0, 3, 8, 3),  # never more workers than replications
            ("0", 1, 12, 8, 1),
        ],
    )
    def test_worker_count_clamped(self, monkeypatch, env, workers, replications, cores, expected):
        # counts only: no pool is started here
        import needlet_whittle.harness as hn

        monkeypatch.setattr(hn.os, "cpu_count", lambda: cores)
        if env is None:
            monkeypatch.delenv("NEEDLET_WHITTLE_THREADS", raising=False)
        else:
            monkeypatch.setenv("NEEDLET_WHITTLE_THREADS", env)
        config = small_config(workers=workers, replications=replications)
        assert hn._worker_count(config) == expected

    def test_failure_rows_recorded(self, monkeypatch):
        import needlet_whittle.harness as hn

        real = hn._fit_for_config

        def flaky(config, spec):
            if abs(spec.values[1]) % 1.0 < 0.08:  # deterministic pseudo-failures
                raise NeedletWhittleError("injected failure")
            return real(config, spec)

        monkeypatch.setattr(hn, "_fit_for_config", flaky)
        cfg = small_config(replications=40)
        try:
            summary = hn.run_experiment(cfg)
            failed = [row for row in summary.rows if row.failed]
            assert summary.aggregate.n_failed == len(failed)
            for row in failed:
                assert "injected failure" in row.error
        except NeedletWhittleError as exc:
            # alternatively the 5% policy may trip; either way rows were the cause
            assert "replications failed" in str(exc)

    def test_failure_policy_aborts(self, monkeypatch):
        import needlet_whittle.harness as hn

        def always_fail(config, spec):
            raise NeedletWhittleError("boom")

        monkeypatch.setattr(hn, "_fit_for_config", always_fail)
        with pytest.raises(NeedletWhittleError, match="replications failed"):
            hn.run_experiment(small_config())


def csv_bytes(summary, path) -> tuple[bytes, ...]:
    """The rows, summary, histogram and Q-Q CSVs of a run, written beside ``path``."""
    paths = [path.with_suffix(f".{kind}.csv") for kind in ("rows", "summary", "hist", "qq")]
    write_rows_csv(summary.rows, paths[0])
    write_summary_csv(summary, paths[1])
    write_histogram_csv(summary, paths[2])
    write_qq_csv(summary, paths[3])
    return tuple(p.read_bytes() for p in paths)


class TestSharedDraws:
    GROUPS = {
        "full-narrow": [{}, dict(band="narrow", g=0.5)],
        "mexican-standard": [{}, dict(window=StandardWindow(B=2.0))],
    }

    @pytest.mark.host_bits
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("group", list(GROUPS))
    def test_shared_run_equals_solo_runs(self, tmp_path, group, workers):
        configs = [small_config(workers=workers, **kw) for kw in self.GROUPS[group]]
        shared = run_experiments(configs)
        assert [s.config for s in shared] == configs
        for i, (config, summary) in enumerate(zip(configs, shared)):
            solo = run_experiment(config)
            got = csv_bytes(summary, tmp_path / f"shared{i}")
            assert got == csv_bytes(solo, tmp_path / f"solo{i}")

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            (dict(model=PowerSpectrumModel(alpha0=3.5)), "model"),
            (dict(l_max=128), "sim.l_max"),
            (dict(master_seed=100), "run.master_seed"),
            (dict(replications=13), "run.replications"),
            (dict(noise_free=True), "run.noise_free"),
            (dict(workers=2), "run.workers"),
        ],
        ids=["model", "l_max", "master_seed", "replications", "noise_free", "workers"],
    )
    def test_configs_must_share_draws(self, kwargs, key):
        with pytest.raises(ConfigError, match=f"differ in {key}$"):
            run_experiments([small_config(), small_config(band="narrow", g=0.5, **kwargs)])

    def test_cap_counts_rows(self):
        # each config holds one row per replication: two configs of just over
        # half the cap are refused before any replication is drawn
        half = REPLICATION_CAP // 2 + 1
        configs = [small_config(replications=half, **kw) for kw in self.GROUPS["full-narrow"]]
        with pytest.raises(ConfigError, match="rows"):
            run_experiments(configs)
        with pytest.raises(ConfigError, match="rows"):
            run_experiments([])

    def test_each_replication_drawn_once(self, monkeypatch):
        import needlet_whittle.harness as hn

        seeds, real = [], hn.simulate_alm

        def counted(model, l_max, seed):
            seeds.append(seed)
            return real(model, l_max, seed)

        monkeypatch.setattr(hn, "simulate_alm", counted)
        run_experiments([small_config(**kw) for kw in self.GROUPS["full-narrow"]])
        assert seeds == [rep_seed(99, r) for r in range(12)]

    def test_draw_failure_fails_every_row(self, monkeypatch):
        import needlet_whittle.harness as hn

        real, bad_seed = hn._draw, rep_seed(99, 3)

        def flaky(config, seed):
            if seed == bad_seed:
                raise NeedletWhittleError("injected draw failure")
            return real(config, seed)

        monkeypatch.setattr(hn, "_draw", flaky)
        configs = [small_config(replications=40, **kw) for kw in self.GROUPS["full-narrow"]]
        for summary in run_experiments(configs):
            assert [row.rep for row in summary.rows if row.failed] == [3]
            assert summary.rows[3].error == "NeedletWhittleError: injected draw failure"

    def test_fit_failure_stays_in_its_config(self, monkeypatch):
        import needlet_whittle.harness as hn

        real = hn._fit_for_config
        configs = [small_config(replications=40, **kw) for kw in self.GROUPS["full-narrow"]]
        target = hn._draw(configs[0], rep_seed(99, 3)).values

        def flaky(config, spec):
            if config.band == "narrow" and np.array_equal(spec.values, target):
                raise NeedletWhittleError("injected fit failure")
            return real(config, spec)

        monkeypatch.setattr(hn, "_fit_for_config", flaky)
        full, narrow = run_experiments(configs)
        assert not any(row.failed for row in full.rows)
        assert [row.rep for row in narrow.rows if row.failed] == [3]

    def test_one_config_is_run_experiment(self):
        config = small_config()
        assert run_experiment(config) == run_experiments([config])[0]


class TestSummaryIO:
    def test_aggregate_recomputable_on_load(self, tmp_path):
        cfg = small_config()
        summary = run_experiment(cfg)
        rows_path, summary_path = tmp_path / "rows.csv", tmp_path / "summary.csv"
        write_rows_csv(summary.rows, rows_path)
        write_summary_csv(summary, summary_path)
        loaded = load_summary(summary_path, rows_path, cfg)
        assert loaded.aggregate.mean_alpha == pytest.approx(summary.aggregate.mean_alpha)

    def test_tampered_summary_detected(self, tmp_path):
        cfg = small_config()
        summary = run_experiment(cfg)
        rows_path, summary_path = tmp_path / "rows.csv", tmp_path / "summary.csv"
        write_rows_csv(summary.rows, rows_path)
        write_summary_csv(summary, summary_path)
        text = summary_path.read_text().replace(
            f"mean_alpha,{summary.aggregate.mean_alpha:.17g}", "mean_alpha,99"
        )
        summary_path.write_text(text)
        with pytest.raises(NeedletWhittleError, match="does not match rows"):
            load_summary(summary_path, rows_path, cfg)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(alpha_max=2.5), dict(replications=7)],
        ids=["every-fit-at-alpha-max", "seven-fits"],
    )
    def test_plot_data_need_a_sample(self, tmp_path, kwargs):
        # alpha0 = 3 lies above a search range ending at 2.5, so every fit
        # ends at alpha_max and the scaled estimates have no spread
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryWarning)
            summary = run_experiment(small_config(**kwargs))
        for write in (write_histogram_csv, write_qq_csv):
            with pytest.raises(DegenerateDataError):
                write(summary, tmp_path / "plot.csv")

    def test_plot_data_files(self, tmp_path):
        summary = run_experiment(small_config(replications=24))
        hist, qq = tmp_path / "h.csv", tmp_path / "q.csv"
        write_histogram_csv(summary, hist)
        write_qq_csv(summary, qq)
        for path in (hist, qq):
            lines = path.read_text().splitlines()
            assert lines[0] == "x,y"
            assert len(lines) > 2
        qq_rows = np.loadtxt(qq, delimiter=",", skiprows=1)
        assert np.all(np.diff(qq_rows[:, 0]) > 0)  # theoretical quantiles sorted


class TestPinnedMonteCarlo:
    """The sha256 of the rows, summary, histogram and Q-Q CSVs of two small
    seeded serial runs.  A change that moves them must update this pin and say
    why.  They hold for one numpy and BLAS build: a matrix product may sum in
    another order elsewhere."""

    PINS = {
        "mexican-full": (
            "1adf51491995455f10ccceaaddd86ed9bfc64949afe88acbf59b3a0295c890a4",
            "2b17f575848fdf2577932bb95f8942b5c42576b22b170732752ef920c21056e2",
            "3420424056ad5951c4867ab7c3c1a0d82b371154a1705bc574758c99c229ab99",
            "e6e7ce47cb43f7cbd56d3e426355cbeca165052ebaf09de5b5b75679c365e6d3",
        ),
        "standard-narrow": (
            "fcaa6d461b6895fa5f8a158bc73404ec5dec6da8381f87ea510d009067192be6",
            "6531f8898846c8f869f4e0e7c7e0c9e23bda58874a9905a420e91d0a9f0ef4a3",
            "24c8bd64a0136abde3c49b424f0f0798579ffa5b7ce3416bd22fdfcb11fc58bc",
            "1c0fdb13558396aa819c5db9ff47b0408a467cae6542591bb289ebb95e1bc122",
        ),
    }
    CONFIGS = {
        "mexican-full": {},
        "standard-narrow": dict(window=StandardWindow(B=2.0), band="narrow", g=0.5),
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_csv_bytes(self, tmp_path, name):
        summary = run_experiment(small_config(replications=24, **self.CONFIGS[name]))
        paths = [tmp_path / f"{kind}.csv" for kind in ("rows", "summary", "hist", "qq")]
        write_rows_csv(summary.rows, paths[0])
        write_summary_csv(summary, paths[1])
        write_histogram_csv(summary, paths[2])
        write_qq_csv(summary, paths[3])
        got = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)
        assert got == self.PINS[name]


class TestJarqueBera:
    def test_matches_scipy(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(500)
        assert jarque_bera(x) == pytest.approx(scipy_stats.jarque_bera(x).statistic, rel=1e-10)


class TestTheoryChecks:
    def test_noise_free_check(self):
        summary = run_experiment(small_config(replications=1, noise_free=True))
        checks = theory_checks(summary)
        assert len(checks) == 1 and checks[0].passed

    def test_boundary_rows_fail_check(self):
        # alpha0 = 3 lies above the search range, so every fit ends at alpha_max
        with pytest.warns(BoundaryWarning):
            summary = run_experiment(small_config(alpha_max=2.5))
        (check,) = [c for c in theory_checks(summary) if c.name == "search-boundary"]
        assert not check.passed
        assert check.detail.startswith("12/12 ")

    def test_canonical_config_passes_boundary_check(self):
        summary = run_experiment(small_config())
        (check,) = [c for c in theory_checks(summary) if c.name == "search-boundary"]
        assert check.passed and check.detail.startswith("0/12 ")

    def test_report_only_when_no_closed_form(self):
        # kappa model on a narrow band: no closed-form check applies
        summary = run_experiment(
            small_config(model=PowerSpectrumModel(alpha0=3.0, correction=KappaCorrection(0.5)),
                         band="narrow", g=0.5)
        )
        names = [c.name for c in theory_checks(summary)]
        assert names == ["report-only", "search-boundary"]

    def test_kappa_model_bias_check(self):
        # full band, mexican window, kappa model: the bias is compared, the
        # variance and the mean are not
        summary = run_experiment(
            small_config(model=PowerSpectrumModel(alpha0=3.0, correction=KappaCorrection(0.5)))
        )
        names = [c.name for c in theory_checks(summary)]
        assert names == ["scaled-bias", "search-boundary"]

    def test_clean_model_checks_present(self):
        summary = run_experiment(small_config(replications=24, l_max=256))
        names = {c.name for c in theory_checks(summary)}
        assert {"mean-consistency", "clt-variance", "normality"} <= names
