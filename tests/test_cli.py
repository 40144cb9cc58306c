import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from needlet_whittle import cli, harmonic, harness, sphere, whittle
from needlet_whittle.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_PIPE, main
from needlet_whittle.errors import BoundaryWarning, ConfigError
from needlet_whittle.harness import ExperimentConfig, ReplicationRow
from needlet_whittle.needlet import JRange, MexicanWindow, StandardWindow, compute_statistics
from needlet_whittle.spectrum import PowerSpectrumModel


def write_config(tmp_path, **kwargs):
    base = dict(
        model=PowerSpectrumModel(alpha0=3.0),
        window=MexicanWindow(p=2, B=2.0),
        l_max=256,
        replications=10,
        master_seed=7,
        workers=1,
        output_prefix=str(tmp_path / "run"),
    )
    base.update(kwargs)
    path = tmp_path / "config.txt"
    ExperimentConfig(**base).to_file(path)
    return path


class TestTheory:
    def test_prints_constants(self, capsys):
        assert main(["theory", "--p", "2", "--B", "1.4142135623730951", "--alpha0", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        sigma_line = [l for l in out.splitlines() if l.startswith("sigma0_sq,")][0]
        assert float(sigma_line.split(",")[1]) == pytest.approx(0.679, abs=5e-4)
        assert "rho0_sq" in out and "sigma_sq" in out

    def test_domain_error_exit(self, capsys):
        assert main(["theory", "--p", "1", "--B", "2", "--alpha0", "5.5"]) == EXIT_NUMERIC

    @pytest.mark.parametrize("alpha0", ["2.0", "-5"])
    def test_alpha0_at_or_below_two_exits_numeric(self, capsys, alpha0):
        # the spectrum model rejects these: there are no constants to print
        assert main(["theory", "--p", "2", "--B", "2", "--alpha0", alpha0]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == ""
        assert f"alpha0 must be finite and exceed 2, got {float(alpha0)}" in err

    @pytest.mark.parametrize(
        "p, B, kappa",
        [
            ("2", "1", "0"),
            ("2", "-2", "0"),
            ("2", "1e-300", "0"),
            ("2", "inf", "0"),
            ("200", "2", "0"),  # gamma(4p + 1 - alpha0) overflows
            ("2", "2", "nan"),
            ("2", "2", "inf"),
            ("2", "2", "-1"),
            ("2", "1.000001", "0"),  # level sums do not converge
        ],
        ids=["B-one", "B-negative", "B-tiny", "B-inf", "p-200", "kappa-nan", "kappa-inf",
             "kappa-minus-one", "B-near-one"],
    )
    def test_bad_arguments_exit_numeric(self, capsys, p, B, kappa):
        rc = main(["theory", "--p", p, "--B", B, "--alpha0", "3", "--kappa", kappa])
        assert rc == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric error:")

    def test_calls_share_one_parser(self, capsys):
        # a call that fails to parse, past options it did read, leaves the
        # shared parser as it was: the next call takes --kappa's default again
        argv = ["theory", "--p", "2", "--B", "2", "--alpha0", "3"]
        assert main(argv) == EXIT_OK
        expected = capsys.readouterr().out
        built = cli.build_parser.cache_info()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--kappa", "0.5", "--no-such-option"])
        assert exc.value.code == EXIT_CONFIG
        assert "usage:" in capsys.readouterr().err
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == expected
        after = cli.build_parser.cache_info()
        assert (after.misses, after.currsize, after.hits) == (built.misses, 1, built.hits + 2)

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_stops_quietly(self, unbuffered):
        # the pipe's read end is closed before the command starts, so its
        # first write (unbuffered) or its final flush (buffered) meets EPIPE
        read, write = os.pipe()
        os.close(read)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "needlet_whittle.cli", "theory",
                 "--p", "2", "--B", "2.0", "--alpha0", "3.0"],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_PIPE, b"")


class TestSimulateEstimate:
    def test_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        prefix = str(tmp_path / "run")
        for suffix in (".alm.bin", ".spectrum.bin", ".spectrum.csv"):
            assert (tmp_path / f"run{suffix}").exists()
        assert (
            main(
                ["estimate", "--spectrum-file", prefix + ".spectrum.bin", "--window", "mexican",
                 "--p", "2", "--B", "2.0", "--csv-out", str(tmp_path / "fit.csv")]
            )
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert "alpha_hat" in out
        header = (tmp_path / "fit.csv").read_text().splitlines()[0]
        assert header.startswith("rep,seed,band,alpha_hat")

    def test_far_scaled_spectrum_estimated(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model=PowerSpectrumModel(alpha0=3.0, g0=1e300), l_max=64)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        assert main(["estimate", "--spectrum-file", str(tmp_path / "run.spectrum.bin")]) == EXIT_OK
        assert "converged     True" in capsys.readouterr().out

    def test_largest_p_hessian_matches_contrast(self, tmp_path, capsys):
        # at p 50 K_j reaches ~1e124, so k0**3 overflowed: a RuntimeWarning (an
        # error in tier-1), else a hessian of -26.9 reported as converged
        cfg = tmp_path / "ci.cfg"
        cfg.write_text(
            f"model.alpha0 = 3.0\nsim.l_max = 256\nrun.master_seed = 1\noutput.prefix = {tmp_path / 'ci'}\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        path = tmp_path / "ci.spectrum.bin"
        capsys.readouterr()
        assert main(["estimate", "--spectrum-file", str(path), "--p", "50"]) == EXIT_OK
        report = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
        assert report["converged"] == "True"
        j0, jl = map(int, report["levels"].strip("[]").split(","))
        stats = compute_statistics(harmonic.EmpiricalSpectrum.load(path), MexicanWindow(p=50), JRange(j0, jl))
        a, h = float(report["alpha_hat"]), 1e-3
        c = [whittle.contrast(stats, a + d) for d in (-h, 0.0, h)]
        central = (c[0] - 2.0 * c[1] + c[2]) / h**2
        assert float(report["hessian"]) == pytest.approx(central, rel=0.01)

    def test_overflowing_statistics_exit_numeric(self, tmp_path, capsys):
        # finite c-hat whose level statistics overflow: a typed error, no fit
        path = tmp_path / "big.spectrum.csv"
        path.write_text("l,c_hat\n" + "".join(f"{l},1e308\n" for l in range(1, 65)))
        # tier-1 turns numpy's RuntimeWarning into an error: lambda overflows without one
        assert main(["estimate", "--spectrum-file", str(path)]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert "alpha_hat" not in out
        assert err.startswith("numeric error: DegenerateDataError:") and err.count("\n") == 1

    def test_spectrum_file_a_directory_exits_config(self, tmp_path, capsys):
        # an OSError other than FileNotFoundError once ended in a traceback
        assert main(["estimate", "--spectrum-file", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_estimate_from_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg)])
        assert (
            main(["estimate", "--spectrum-file", str(tmp_path / "run.spectrum.csv")]) == EXIT_OK
        )

    def test_files_named_by_the_config_only(self, tmp_path):
        # output.prefix is the one setting for a run's file names
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "other")])
        assert exc.value.code == EXIT_CONFIG
        assert not list(tmp_path.glob("other.*")) and not list(tmp_path.glob("run.*"))

    def test_missing_config(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.txt")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "name, corrupt, message",
        [
            ("run.spectrum.bin", lambda data: data[:-3], "payload has"),
            ("run.spectrum.bin", lambda data: data[:4], "truncated header"),
            ("run.spectrum.csv", lambda data: data.split(b"\n", 1)[0] + b"\n", "no data rows"),
            ("run.spectrum.csv", lambda data: data.replace(b"2,", b"2,abc", 1), "abc"),
            ("run.spectrum.csv", lambda data: data.replace(b"2,", b"2,\xff", 1), "not text"),
            # the header's version word, after the 8-byte magic, set to 2
            (
                "run.spectrum.bin",
                lambda data: data[:8] + (2).to_bytes(4, "little") + data[12:],
                "unsupported version 2",
            ),
        ],
        ids=[
            "bin-short-payload", "bin-4-bytes", "csv-header-only", "csv-non-numeric", "csv-not-utf8",
            "bin-version-2",
        ],
    )
    def test_malformed_spectrum_file(self, tmp_path, capsys, name, corrupt, message):
        main(["simulate", "--config", str(write_config(tmp_path))])
        path = tmp_path / name
        path.write_bytes(corrupt(path.read_bytes()))
        assert main(["estimate", "--spectrum-file", str(path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "NeedletWhittleError" in err and message in err

    def test_csv_out_is_one_rows_csv_row(self, tmp_path):
        main(["simulate", "--config", str(write_config(tmp_path))])
        out = tmp_path / "fit.csv"
        spectrum = str(tmp_path / "run.spectrum.bin")
        assert main(["estimate", "--spectrum-file", spectrum, "--csv-out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        assert header == ",".join(f.name for f in fields(ReplicationRow))
        assert row.startswith("0,7,full,")  # rep 0, the spectrum's seed

    @pytest.mark.parametrize(
        "options",
        [
            ["--j0", "2"],
            ["--jl", "6"],
            ["--g", "0.5"],
            ["--band", "narrow", "--g", "0.5", "--j0", "2"],
        ],
        ids=["full-lone-j0", "full-lone-jl", "full-g", "narrow-j0"],
    )
    def test_ignored_range_options_rejected(self, tmp_path, capsys, options):
        main(["simulate", "--config", str(write_config(tmp_path))])
        spectrum = str(tmp_path / "run.spectrum.bin")
        assert main(["estimate", "--spectrum-file", spectrum, *options]) == EXIT_CONFIG
        assert "alpha_hat" not in capsys.readouterr().out

    def test_windows_are_the_config_kinds(self, tmp_path, monkeypatch, request):
        # --window takes its names, default and classes from window.kind's
        # table: reordered, the table's first kind becomes the default
        main(["simulate", "--config", str(write_config(tmp_path))])
        spectrum = str(tmp_path / "run.spectrum.bin")
        spec = harmonic.EmpiricalSpectrum.load(spectrum)
        kinds = {"standard": StandardWindow, "mexican": MexicanWindow}
        monkeypatch.setitem(harness._KINDS, "window.kind", kinds)
        # the parser reads the table when it is built: build one from this
        # table, and the next test one from the restored table
        cli.build_parser.cache_clear()
        request.addfinalizer(cli.build_parser.cache_clear)
        out = tmp_path / "fit.csv"
        for options, cls in (
            ([], StandardWindow),
            (["--window", "standard"], StandardWindow),
            (["--window", "mexican"], MexicanWindow),
        ):
            argv = ["estimate", "--spectrum-file", spectrum, "--csv-out", str(out), *options]
            assert main(argv) == EXIT_OK
            fit = whittle.fit_full_band(spec, cls())
            assert float(out.read_text().splitlines()[1].split(",")[3]) == fit.alpha_hat

    @pytest.mark.parametrize(
        "options",
        [
            ["--alpha-min", "5", "--alpha-max", "3"],
            ["--tol", "-1"],
            ["--tol", "1.0001"],  # past the alpha grid's spacing 7.999 / 63
            ["--window", "standard", "--p", "3"],
        ],
        ids=["alpha-range-reversed", "tol-negative", "tol-past-grid-spacing",
             "p-on-standard-window"],
    )
    def test_bad_fit_options_rejected(self, tmp_path, capsys, options):
        main(["simulate", "--config", str(write_config(tmp_path))])
        spectrum = str(tmp_path / "run.spectrum.bin")
        assert main(["estimate", "--spectrum-file", spectrum, *options]) == EXIT_CONFIG
        assert "alpha_hat" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "old, new",
        [
            ("model.alpha0 = 3.0", "model.alpha0 = not_a_number"),
            ("window.kind = mexican", "window.kind = gaussian"),
            ("run.noise_free = false", "run.noise_free = maybe"),
            ("window.p = 2", "window.p = 0"),
            ("window.p = 2", "window.p = 51"),
            ("model.g0 = 1.0", "model.g0 = 1.0\udcff"),  # written as the byte 0xff
            (
                "model.correction = none",
                "model.correction = rational\nmodel.p_coeffs = 1.0,-2.0\nmodel.q_coeffs = 1.0",
            ),
            ("sim.l_max = 256", "sim.l_max 256"),
            ("sim.l_max = 256", "sim.l_max = "),
        ],
        ids=[
            "alpha0-not-a-number",
            "unknown-window-kind",
            "noise-free-not-a-boolean",
            "window-p-zero",
            "window-p-past-the-float-range",
            "not-utf8-text",
            "rational-leading-coefficient-negative",
            "line-without-equals",
            "empty-value",
        ],
    )
    def test_malformed_config(self, tmp_path, old, new):
        path = write_config(tmp_path)
        text = path.read_text()
        assert old in text
        path.write_bytes(text.replace(old, new).encode("utf-8", "surrogateescape"))
        assert main(["montecarlo", "--config", str(path)]) == EXIT_CONFIG
        assert not list(tmp_path.glob("run.*"))


class TestConfigRejectedBeforeSimulation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            # level 13's window peak lies at l ~ 337 > 300
            dict(
                window=MexicanWindow(p=3, B=1.5),
                l_max=300,
                replications=200,
                j0=1,
                jl=13,
            ),
            dict(master_seed=2**63),  # does not fit the int64 seed of the file headers
            # level -1's compact support ends at B^0 = 1: no multipole l >= 1
            dict(window=StandardWindow(B=2.0), j0=-1, jl=5),
            # level 1's compact support (1, 2) at B = sqrt 2 holds no integer l
            dict(window=StandardWindow(B=math.sqrt(2.0)), j0=1, jl=12),
            # level -5's mexican window is truncated below l = 1
            dict(j0=-5, jl=7),
            # the default range [1, 866438] would need a ~57 GB weight matrix
            dict(window=MexicanWindow(p=2, B=1.00001), l_max=8192),
            # one level does not identify alpha
            dict(j0=4, jl=4),
            # past the alpha grid's spacing 7.999 / 63 the search would end mid-cell
            dict(tol=1.0001),
        ],
        ids=[
            "window-peak-past-l-max",
            "seed-past-int64",
            "compact-level-below-band",
            "compact-level-without-multipole",
            "mexican-level-below-band",
            "level-count-past-cap",
            "single-level",
            "tol-past-grid-spacing",
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_exit_config(self, tmp_path, kwargs, command):
        cfg = write_config(tmp_path, **kwargs)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert not list(tmp_path.glob("run.*"))

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_replications_past_cap(self, tmp_path, command):
        cfg = write_config(tmp_path, replications=harness.REPLICATION_CAP + 1)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert not list(tmp_path.glob("run.*"))

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_simulated_l_max_past_cap(self, tmp_path, monkeypatch, capsys, command):
        def draw(*args):
            raise AssertionError("a field was drawn")

        monkeypatch.setattr(harness, "simulate_alm", draw)
        monkeypatch.setattr(cli, "simulate_alm", draw)
        l_max = harmonic.DEFAULT_LMAX_CAP + 1
        cfg = write_config(tmp_path, l_max=l_max, replications=8)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert f"l_max={l_max} exceeds cap" in capsys.readouterr().err
        assert not list(tmp_path.glob("run.*"))
        # a noise-free run draws nothing, so the cap does not apply to it
        cfg = write_config(tmp_path, l_max=l_max, replications=8, noise_free=True)
        assert ExperimentConfig.from_file(cfg).l_max == l_max

    def test_noise_free_simulate_past_cap(self, tmp_path, monkeypatch, capsys):
        # simulate draws a field whatever run.noise_free says, so the cap holds
        def draw(*args):
            raise AssertionError("a field was drawn")

        monkeypatch.setattr(cli, "simulate_alm", draw)
        cfg = write_config(tmp_path, l_max=9000, noise_free=True)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "l_max=9000 exceeds cap" in capsys.readouterr().err
        assert not list(tmp_path.glob("run.*"))

    @pytest.mark.parametrize(
        "old, new",
        [
            ("model.alpha0 = 3.0", "model.alpha0 = inf"),
            ("model.g0 = 1.0", "model.g0 = inf"),
            ("model.correction = none", "model.correction = kappa\nmodel.kappa = inf"),
            (
                "model.correction = none",
                "model.correction = rational\nmodel.p_coeffs = 1.0,nan\nmodel.q_coeffs = 1.0",
            ),
        ],
        ids=["alpha0", "g0", "kappa", "rational"],
    )
    def test_non_finite_model(self, tmp_path, old, new):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        assert main(["montecarlo", "--config", str(path)]) == EXIT_CONFIG
        assert not list(tmp_path.glob("run.*"))


class TestBandRequest:
    """``estimate`` and a config read a band request (band, j0, jl, g) by one rule."""

    @pytest.fixture(scope="class")
    def spectrum(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("band")
        main(["simulate", "--config", str(write_config(tmp))])
        return str(tmp / "run.spectrum.bin")

    @pytest.mark.parametrize(
        "text",
        [
            "band.kind = full\nband.g = 0.5\n",
            "band.kind = narrow\nband.g = 0.5\njrange.j0 = 1\n",
            "band.kind = full\njrange.j0 = 3\n",
        ],
        ids=["full-g", "narrow-j0", "lone-j0"],
    )
    def test_ignored_keys_exit_config(self, tmp_path, text):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("band.kind = full\n", text))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)
        assert main(["montecarlo", "--config", str(path)]) == EXIT_CONFIG
        assert not list(tmp_path.glob("run.*"))

    # at l_max 256 the default range is [1, 7]; jl 9 is not resolved, g 0.25
    # rounds to one level at jl 7, and g 1.5 is outside (0, 1)
    @pytest.mark.parametrize("g", [None, 0.5, 0.25, 1.5])
    @pytest.mark.parametrize("jl", [None, 5, 7, 9])
    @pytest.mark.parametrize("j0", [None, 1, 3])
    @pytest.mark.parametrize("band", ["full", "narrow"])
    def test_estimate_and_config_agree(self, spectrum, capsys, band, j0, jl, g):
        self.assert_agree(spectrum, 256, capsys, band, j0=j0, jl=jl, g=g)

    def test_band_below_b_squared_agrees(self, tmp_path, capsys):
        # l_max 3 lies below B^2 = 4 and still holds levels 0 and 1
        main(["simulate", "--config", str(write_config(tmp_path, l_max=3, j0=0, jl=1))])
        spectrum = str(tmp_path / "run.spectrum.bin")
        assert self.assert_agree(spectrum, 3, capsys, "full", j0=0, jl=1) == (0, 1)

    @staticmethod
    def assert_agree(spectrum, l_max, capsys, band, **request):
        """``estimate`` and a config accept the request alike; the range when accepted."""
        options = [f"--{k}={v}" for k, v in request.items() if v is not None]
        rc = main(["estimate", "--spectrum-file", spectrum, "--band", band, *options])
        out = capsys.readouterr().out
        text = ExperimentConfig(
            model=PowerSpectrumModel(alpha0=3.0),
            window=MexicanWindow(p=2, B=2.0),
            l_max=l_max,
            band=band,
            **request,
        ).to_text()
        try:
            j_range = ExperimentConfig.parse(text).j_range()
        except ConfigError:
            assert rc in (EXIT_CONFIG, EXIT_NUMERIC)
            assert "alpha_hat" not in out
            return None
        assert rc == EXIT_OK
        assert f"levels        [{j_range.j0}, {j_range.jL}]" in out.splitlines()
        return j_range.j0, j_range.jL

    def test_single_level_estimate_exits_numeric(self, spectrum, capsys):
        rc = main(["estimate", "--spectrum-file", spectrum, "--j0", "4", "--jl", "4"])
        assert rc == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "alpha_hat" not in captured.out
        assert "single level" in captured.err


class TestMonteCarlo:
    def test_runs_and_writes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, replications=10)
        assert main(["montecarlo", "--config", str(cfg)]) == EXIT_OK
        for suffix in (".rows.csv", ".summary.csv", ".hist.csv", ".qq.csv"):
            assert (tmp_path / f"run{suffix}").exists()
        assert "mean_alpha" in capsys.readouterr().out

    @pytest.mark.parametrize("g0", [1e-300, 1e-200, 1e200, 1e300])
    def test_far_scaled_amplitude(self, tmp_path, capsys, g0):
        # a fit does not depend on the spectrum's scale: these once ended in a
        # ZeroDivisionError or an OverflowError traceback
        model = PowerSpectrumModel(alpha0=3.0, g0=g0)
        cfg = write_config(tmp_path, model=model, l_max=64, replications=8)
        assert main(["montecarlo", "--config", str(cfg)]) == EXIT_OK
        paths = (tmp_path / "run.summary.csv", tmp_path / "run.rows.csv")
        summary = harness.load_summary(*paths, ExperimentConfig.from_file(cfg))
        rows = summary.rows
        assert len(rows) == 8 and not any(row.failed for row in rows)
        for row in rows:
            assert all(map(math.isfinite, (row.alpha_hat, row.g_hat, row.score, row.hessian)))
            assert row.g_hat / g0 == pytest.approx(1.0, rel=0.5)
        # mean_g prints in 8 significant digits, as a fit's g_hat does: not as
        # 0.000000 at 1e-300, nor as a 301-digit integer at 1e300
        (printed,) = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                      if line.startswith("mean_g ")]
        assert printed == f"{summary.aggregate.mean_g:.8g}" and len(printed) <= 14

    def test_check_mode_noise_free_passes(self, tmp_path):
        cfg = write_config(tmp_path, replications=1, noise_free=True)
        assert main(["montecarlo", "--config", str(cfg), "--check"]) == EXIT_OK

    def test_check_mode_failure_exit(self, tmp_path, monkeypatch):
        # force a variance-check failure by inflating the theory value
        import needlet_whittle.harness as hn

        monkeypatch.setattr(hn.asymptotics, "varsigma0_sq", lambda *a: 1e9)
        cfg = write_config(tmp_path, replications=16)
        assert main(["montecarlo", "--config", str(cfg), "--check"]) == EXIT_CHECK

    def test_boundary_rows_exit_check(self, tmp_path, capsys):
        # alpha0 = 3 lies above the search range, so every fit ends at
        # alpha_max and the scaled estimates have no spread
        cfg = write_config(tmp_path, replications=12, alpha_max=2.5)
        with pytest.warns(BoundaryWarning):
            rc = main(["montecarlo", "--config", str(cfg), "--check"])
        assert rc == EXIT_CHECK
        out = capsys.readouterr().out
        assert "check search-boundary: FAIL (12/12 " in out
        assert "jarque_bera  n/a" in out  # undefined: no spread
        assert not (tmp_path / "run.hist.csv").exists()


class TestRealspaceAndPlugin:
    @pytest.mark.parametrize("n_seeds", ["0", "1"])
    def test_realspace_check_needs_two_seeds(self, capsys, n_seeds):
        rc = main(
            ["realspace-check", "--j", "3", "--p", "2", "--B", "2.0", "--seed", "5",
             "--n-seeds", n_seeds, "--l-max", "256"]
        )
        assert rc == EXIT_NUMERIC
        assert "n_seeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options",
        [["--n-seeds", "1"], ["--j2", "0"], ["--alpha0", "20"]],
        ids=["one-seed", "level-zero", "alpha0-past-bound"],
    )
    def test_realspace_check_fails_before_printing(self, capsys, options):
        rc = main(
            ["realspace-check", "--j", "3", "--p", "2", "--B", "2.0", "--seed", "5",
             "--l-max", "256", *options]
        )
        assert rc == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric error:")

    @pytest.mark.parametrize("n_seeds", [1, sphere.CORRELATION_SEED_CAP + 1], ids=["one", "past-cap"])
    def test_realspace_check_seeds_checked_before_simulating(self, capsys, monkeypatch, n_seeds):
        def simulate_alm(*args, **kwargs):
            raise AssertionError("the frame-check field was simulated")

        monkeypatch.setattr(cli, "simulate_alm", simulate_alm)
        rc = main(
            ["realspace-check", "--j", "3", "--p", "2", "--B", "2.0", "--seed", "5",
             "--n-seeds", str(n_seeds), "--l-max", "256"]
        )
        assert rc == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == ""
        assert "n_seeds" in err

    def test_realspace_check_seed_count_capped(self, capsys):
        n_seeds = sphere.CORRELATION_SEED_CAP + 1
        rc = main(
            ["realspace-check", "--j", "3", "--p", "2", "--B", "2.0", "--seed", "5",
             "--n-seeds", str(n_seeds), "--l-max", "256"]
        )
        assert rc == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == ""
        assert "ResourceLimitError" in err

    def test_realspace_check(self, capsys):
        rc = main(
            ["realspace-check", "--j", "3", "--p", "2", "--B", "2.0", "--seed", "5",
             "--n-seeds", "40", "--l-max", "256"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "frame check" in out and "relative gap" in out

    def test_realspace_check_non_finite_alpha0(self, capsys):
        rc = main(
            ["realspace-check", "--j", "3", "--p", "2", "--B", "2.0", "--seed", "5",
             "--alpha0", "inf", "--l-max", "256"]
        )
        assert rc == EXIT_NUMERIC
        assert "alpha0 must be finite" in capsys.readouterr().err

    def test_realspace_check_output_pinned(self, capsys):
        rc = main(
            ["realspace-check", "--j", "3", "--p", "2", "--B", "2.0", "--seed", "1",
             "--n-seeds", "40", "--l-max", "256"]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "frame check: sum beta^2 = 0.035090661, lambda_hat = 0.035203714, "
            "relative gap = 0.3211%",
            "correlation decay: fitted exponent 7.67 (bound exponent 7)",
            "far-field mean |corr| = 0.1052",
        ]

    def test_realspace_check_negative_seed(self, capsys):
        # a negative seed is masked to 64 bits on every stream, the node
        # subsample's included
        rc = main(
            ["realspace-check", "--j", "3", "--p", "2", "--B", "2.0", "--seed", "-1",
             "--n-seeds", "2", "--l-max", "64"]
        )
        assert rc == EXIT_OK
        assert "correlation decay" in capsys.readouterr().out

    def test_plugin(self, tmp_path, capsys):
        cfg = write_config(tmp_path, l_max=512)
        main(["simulate", "--config", str(cfg)])
        rc = main(
            ["plugin", "--spectrum-file", str(tmp_path / "run.spectrum.bin"), "--p", "2"]
        )
        assert rc == EXIT_OK
        assert "used_mexican" in capsys.readouterr().out
