"""Pins of the harness's text formats: config text, rows CSV, summary CSV.

Rows and aggregates are built by hand, not from fits, so that floating-point
rounding in the numerics cannot move the expected bytes.
"""
from __future__ import annotations  # the harness parses a key by its field's annotation string

import math
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from needlet_whittle import (
    KappaCorrection,
    MexicanWindow,
    PowerSpectrumModel,
    RationalCorrection,
    StandardWindow,
)
from needlet_whittle.harness import (
    _FLAT_KEYS,
    _KINDS,
    Aggregate,
    ExperimentConfig,
    ExperimentSummary,
    ReplicationRow,
    _aggregate,
    load_summary,
    write_rows_csv,
    write_summary_csv,
)


def config(**kwargs) -> ExperimentConfig:
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


FULL = config()
NARROW = config(
    model=PowerSpectrumModel(alpha0=3.0, correction=KappaCorrection(0.5)), band="narrow", g=0.5
)
COMPACT = config(window=StandardWindow(B=2.0), j0=2, jl=6)
RATIONAL = config(
    model=PowerSpectrumModel(
        alpha0=3.5, g0=2.0, correction=RationalCorrection(p_coeffs=(1.0, 0.5), q_coeffs=(1.0,))
    ),
    noise_free=True,
    replications=1,
    output_prefix="out/rational",
)

TAIL = """\
fit.alpha_min = 2.001
fit.alpha_max = 10.0
fit.tol = 1e-06
run.replications = 12
run.master_seed = 99
run.workers = 1
run.noise_free = false
output.prefix = experiment
"""

CONFIG_TEXT = {
    "full": (
        FULL,
        "model.alpha0 = 3.0\nmodel.g0 = 1.0\nmodel.correction = none\n"
        "window.kind = mexican\nwindow.p = 2\nwindow.B = 2.0\n"
        "sim.l_max = 256\nband.kind = full\n" + TAIL,
    ),
    "narrow": (
        NARROW,
        "model.alpha0 = 3.0\nmodel.g0 = 1.0\nmodel.correction = kappa\nmodel.kappa = 0.5\n"
        "window.kind = mexican\nwindow.p = 2\nwindow.B = 2.0\n"
        "sim.l_max = 256\nband.kind = narrow\nband.g = 0.5\n" + TAIL,
    ),
    "compact-explicit": (
        COMPACT,
        "model.alpha0 = 3.0\nmodel.g0 = 1.0\nmodel.correction = none\n"
        "window.kind = standard\nwindow.B = 2.0\n"
        "sim.l_max = 256\njrange.j0 = 2\njrange.jl = 6\n"
        "band.kind = full\n" + TAIL,
    ),
    "rational-noise-free": (
        RATIONAL,
        "model.alpha0 = 3.5\nmodel.g0 = 2.0\nmodel.correction = rational\n"
        "model.p_coeffs = 1.0,0.5\nmodel.q_coeffs = 1.0\n"
        "window.kind = mexican\nwindow.p = 2\nwindow.B = 2.0\n"
        "sim.l_max = 256\nband.kind = full\n"
        "fit.alpha_min = 2.001\nfit.alpha_max = 10.0\nfit.tol = 1e-06\n"
        "run.replications = 1\nrun.master_seed = 99\nrun.workers = 1\n"
        "run.noise_free = true\noutput.prefix = out/rational\n",
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIG_TEXT))
def test_config_text(name):
    cfg, text = CONFIG_TEXT[name]
    assert cfg.to_text() == text
    assert ExperimentConfig.parse(text) == cfg


@dataclass(frozen=True)
class _WiderWindow(MexicanWindow):
    q: float = 0.5  # a field the harness has never seen


def test_a_new_window_field_is_a_key(monkeypatch):
    monkeypatch.setitem(_KINDS, "window.kind", {"mexican": _WiderWindow})
    cfg = config(window=_WiderWindow(q=0.25))
    text = cfg.to_text()
    assert "window.kind = mexican\nwindow.p = 2\nwindow.B = 2.0\nwindow.q = 0.25\n" in text
    assert ExperimentConfig.parse(text) == cfg
    assert ExperimentConfig.parse(text.replace("window.q = 0.25\n", "")).window.q == 0.5


def _table_keys(prefix, cls):
    """Every key a ``cls`` can write under ``prefix``: its fields, a kind key
    followed by the keys of each class it names."""
    for f in fields(cls):
        key = f"{prefix}.{f.name}"
        yield key
        for kind in _KINDS.get(key, {}).values():
            yield from _table_keys(prefix, kind)


def test_readme_lists_the_flat_keys():
    # the README's config block is the model and window keys of the kind
    # table, then the flat-key table, in order
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```")[1]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
    windows = _KINDS["window.kind"].values()
    expected = [
        *_table_keys("model", PowerSpectrumModel),
        "window.kind",
        *(key for window in windows for key in _table_keys("window", window)),
        *(key for key, _ in _FLAT_KEYS),
    ]
    assert keys == list(dict.fromkeys(expected))


FULL_ROWS = [
    ReplicationRow(
        rep=0,
        seed=12345678901234567890,
        band="full",
        alpha_hat=3.0012345678901234,
        g_hat=0.98765432109876543,
        j0=1,
        boundary=False,
        jL=7,
        score=-1.25e-13,
        hessian=0.43210987654321,
        converged=True,
        iterations=3,
    ),
    ReplicationRow(
        rep=1,
        seed=7,
        band="full",
        failed=True,
        error="DegenerateDataError: all level statistics are zero, at every level",
    ),
    ReplicationRow(
        rep=2,
        seed=0,
        band="full",
        alpha_hat=2.9,
        g_hat=1.0,
        j0=1,
        boundary=True,
        jL=7,
        score=0.1,
        hessian=1e-300,
        converged=False,
        iterations=200,
    ),
]
NARROW_ROWS = [
    ReplicationRow(
        rep=0,
        seed=18446744073709551615,
        band="narrow",
        alpha_hat=3.1,
        g_hat=1.5,
        j0=6,
        jL=7,
        score=2.5e-9,
        hessian=0.5,
        converged=True,
        iterations=4,
    ),
]

HEADER = (
    "rep,seed,band,alpha_hat,g_hat,j0,boundary,jL,score,hessian,converged,iterations,failed,error\n"
)
FULL_ROWS_CSV = HEADER + (
    "0,12345678901234567890,full,3.0012345678901236,0.98765432109876539,1,0,7,"
    "-1.25e-13,0.43210987654320998,1,3,0,\n"
    "1,7,full,nan,nan,0,0,0,nan,nan,0,0,1,"
    "DegenerateDataError: all level statistics are zero; at every level\n"
    "2,0,full,2.8999999999999999,1,1,1,7,0.10000000000000001,1e-300,0,200,0,\n"
)
NARROW_ROWS_CSV = HEADER + (
    "0,18446744073709551615,narrow,3.1000000000000001,1.5,6,0,7,"
    "2.5000000000000001e-09,0.5,1,4,0,\n"
)


def _summary(cfg, rows, aggregate=None) -> ExperimentSummary:
    return ExperimentSummary(config=cfg, rows=rows, aggregate=aggregate)


@pytest.mark.parametrize(
    "rows, expected",
    [(FULL_ROWS, FULL_ROWS_CSV), (NARROW_ROWS, NARROW_ROWS_CSV)],
    ids=["full", "narrow"],
)
def test_rows_csv(tmp_path, rows, expected):
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    assert path.read_text() == expected


def test_summary_csv(tmp_path):
    aggregate = Aggregate(
        n_rows=12,
        n_failed=1,
        mean_alpha=3.0001,
        se_alpha=0.0123,
        mean_g=1.01,
        var_scaled=0.6789,
        scaled_bias=-0.05,
        jarque_bera=math.nan,
        mean_hessian=0.4321,
        theory_varsigma0_sq=0.679,
        theory_bias=math.nan,
        theory_hessian=0.85,
    )
    path = tmp_path / "summary.csv"
    write_summary_csv(_summary(FULL, [], aggregate), path)
    assert path.read_text() == (
        "field,value\n"
        "n_rows,12\n"
        "n_failed,1\n"
        "mean_alpha,3.0001000000000002\n"
        "se_alpha,0.0123\n"
        "mean_g,1.01\n"
        "var_scaled,0.67889999999999995\n"
        "scaled_bias,-0.050000000000000003\n"
        "jarque_bera,nan\n"
        "mean_hessian,0.43209999999999998\n"
        "theory_varsigma0_sq,0.67900000000000005\n"
        "theory_bias,nan\n"
        "theory_hessian,0.84999999999999998\n"
    )


@pytest.mark.parametrize(
    "cfg, rows", [(FULL, FULL_ROWS), (NARROW, NARROW_ROWS)], ids=["full", "narrow"]
)
def test_load_summary_round_trip(tmp_path, cfg, rows):
    rows_path, summary_path = tmp_path / "rows.csv", tmp_path / "summary.csv"
    write_rows_csv(rows, rows_path)
    write_summary_csv(_summary(cfg, rows, _aggregate(cfg, rows)), summary_path)
    loaded = load_summary(summary_path, rows_path, cfg)
    again_rows, again_summary = tmp_path / "again.rows.csv", tmp_path / "again.summary.csv"
    write_rows_csv(loaded.rows, again_rows)
    write_summary_csv(loaded, again_summary)
    assert again_rows.read_bytes() == rows_path.read_bytes()
    assert again_summary.read_bytes() == summary_path.read_bytes()
