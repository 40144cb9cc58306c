"""What a process loads.  ``import needlet_whittle`` loads none of the
machinery that only some runs use: the process pool (``concurrent.futures``,
``multiprocessing``), the Q-Q quantiles (``statistics``) and the compact
window's Gauss-Legendre rule (``needlet._bump_rule``).  Each loads where a run
first uses it, with the same values.  The numpy submodules are one table,
``NUMPY_SUBMODULES``: each entry path of the CLI and the submodules it may
load beyond ``import numpy``.  None loads ``numpy.ma``.  Every case runs in a
fresh interpreter, since this one has loaded them all.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import needlet_whittle
from needlet_whittle import cli, harness
from needlet_whittle.needlet import MexicanWindow, StandardWindow
from needlet_whittle.spectrum import PowerSpectrumModel, RationalCorrection, c_l
from needlet_whittle.whittle import fit_full_band

from conftest import noise_free_spectrum

DEFERRED = ("concurrent.futures", "multiprocessing", "statistics")
P, Q = (1.0, 2.0, 0.5), (3.0, 1.0)  # a rational correction's coefficients
# code for ``fresh``: a mexican-window Monte Carlo run on ``workers`` processes
RUN = (
    "from needlet_whittle import harness\n"
    "from needlet_whittle.needlet import MexicanWindow, StandardWindow, _bump_rule\n"
    "from needlet_whittle.spectrum import PowerSpectrumModel\n"
    "config = harness.ExperimentConfig(model=PowerSpectrumModel(alpha0=3.0), window=MexicanWindow(),\n"
    "    l_max=64, replications=8, master_seed=1, workers={workers}, output_prefix='run')\n"
    "summary = harness.run_experiment(config)\n"
)
SPECTRUM = ("--spectrum-file", "run.spectrum.bin")  # ``files`` writes it, at l_max 64
CONFIG = ("--config", "run.cfg")
# each entry path, and the numpy submodules it may load beyond ``import numpy``
NUMPY_SUBMODULES = {
    "theory": (("theory", "--p", "2", "--B", "2.0", "--alpha0", "3.0"), ()),
    "estimate-mexican": (("estimate", *SPECTRUM), ()),
    "estimate-standard": (("estimate", *SPECTRUM, "--window", "standard"), ("polynomial",)),
    "plugin": (("plugin", *SPECTRUM, "--p", "2"), ("polynomial",)),
    "simulate": (("simulate", *CONFIG), ("random",)),
    "montecarlo": (("montecarlo", *CONFIG, "--check"), ("random",)),
    "realspace-check": (
        ("realspace-check", "--j", "2", "--p", "2", "--B", "2.0", "--seed", "1", "--n-seeds", "8"),
        ("fft", "polynomial", "random"),
    ),
}


def fresh(code: str, tmp_path) -> dict:
    """The JSON object ``out`` that ``code`` builds in a fresh interpreter on
    this source tree after ``import numpy``, with ``sys``, ``loaded()`` and
    ``numpy_loaded()`` in scope: the deferred modules and the public numpy
    submodules loaded so far that numpy did not load itself (an older numpy
    loads ``numpy.ma``, ``numpy.polynomial`` and ``numpy.random``)."""
    src = str(Path(needlet_whittle.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NEEDLET_WHITTLE_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    prelude = (
        "import json, sys\nimport numpy\nBASE = set(sys.modules)\n"
        f"def loaded():\n    return [m for m in {DEFERRED!r} if m in set(sys.modules) - BASE]\n"
        "def submodules(names):\n"
        "    return {m.split('.')[1] for m in names\n"
        "            if m.startswith('numpy.') and not m.startswith('numpy._')}\n"
        "def numpy_loaded():\n    return sorted(submodules(sys.modules) - submodules(BASE))\n"
    )
    proc = subprocess.run([sys.executable, "-c", f"{prelude}{code}\nprint(json.dumps(out))"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_deferred_module(tmp_path):
    out = fresh(
        "import needlet_whittle, needlet_whittle.cli\n"
        "from needlet_whittle.needlet import _bump_rule\n"
        "out = {'new': loaded(), 'rules': _bump_rule.cache_info().currsize}\n",
        tmp_path,
    )
    assert out == {"new": [], "rules": 0}


def test_serial_mexican_run_loads_no_pool_and_no_rule(tmp_path):
    out = fresh(
        RUN.format(workers=1)
        + "out = {'fits': sum(not row.failed for row in summary.rows),\n"
        "       'pool': 'concurrent.futures' in loaded(), 'rules': _bump_rule.cache_info().currsize}\n",
        tmp_path,
    )
    assert out == {"fits": 8, "pool": False, "rules": 0}


def test_deferred_pieces_work_from_a_fresh_interpreter(tmp_path):
    """A pooled run and its Q-Q file, a compact-window fit and a rational
    model's C_l, each the first use of what it loads, give this process's bytes."""
    serial = harness.run_experiment(harness.ExperimentConfig(
        model=PowerSpectrumModel(alpha0=3.0), window=MexicanWindow(), l_max=64, replications=8,
        master_seed=1, workers=1, output_prefix=str(tmp_path / "run"),
    ))
    harness.write_rows_csv(serial.rows, tmp_path / "serial.rows.csv")
    harness.write_qq_csv(serial, tmp_path / "serial.qq.csv")
    spec = noise_free_spectrum(PowerSpectrumModel(alpha0=3.0), 256)
    out = fresh(
        RUN.format(workers=2)
        + "out = {'workers': harness._worker_count(config), 'after_run': loaded()}\n"
        "harness.write_rows_csv(summary.rows, 'pooled.rows.csv')\n"
        "harness.write_qq_csv(summary, 'pooled.qq.csv')\n"
        "out['after_qq'] = loaded()\n"
        "import numpy as np\n"
        "from needlet_whittle.harmonic import EmpiricalSpectrum\n"
        "from needlet_whittle.spectrum import RationalCorrection, c_l\n"
        "from needlet_whittle.whittle import fit_full_band\n"
        f"spec = EmpiricalSpectrum(l_max=256, values=np.array({spec.values.tolist()!r}))\n"
        "out['rules'] = _bump_rule.cache_info().currsize\n"
        "out['alpha_hat'] = fit_full_band(spec, StandardWindow()).alpha_hat.hex()\n"
        "out['rules_after_fit'] = _bump_rule.cache_info().currsize\n"
        f"model = PowerSpectrumModel(alpha0=3.0, g0=2.0, correction=RationalCorrection({P}, {Q}))\n"
        "out['c_l'] = [x.hex() for x in c_l(model, np.arange(1, 200)).tolist()]\n",
        tmp_path,
    )
    pool = ["concurrent.futures", "multiprocessing"] if out["workers"] > 1 else []
    assert out["after_run"] == pool
    assert out["after_qq"] == [*pool, "statistics"]
    assert (out["rules"], out["rules_after_fit"]) == (0, 1)
    assert (tmp_path / "pooled.rows.csv").read_bytes() == (tmp_path / "serial.rows.csv").read_bytes()
    assert (tmp_path / "pooled.qq.csv").read_bytes() == (tmp_path / "serial.qq.csv").read_bytes()
    assert out["alpha_hat"] == fit_full_band(spec, StandardWindow()).alpha_hat.hex()
    model = PowerSpectrumModel(alpha0=3.0, g0=2.0, correction=RationalCorrection(P, Q))
    assert out["c_l"] == [x.hex() for x in c_l(model, np.arange(1, 200)).tolist()]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding the table's config, ``run.cfg``, and the spectrum
    file it simulates."""
    tmp = tmp_path_factory.mktemp("footprint")
    (tmp / "run.cfg").write_text(
        "model.alpha0 = 3.0\nsim.l_max = 64\nrun.master_seed = 1\nrun.replications = 8\n"
        f"run.workers = 1\noutput.prefix = {tmp / 'run'}\n"
    )
    assert cli.main(["simulate", "--config", str(tmp / "run.cfg")]) == cli.EXIT_OK
    return tmp


@pytest.mark.parametrize("path", NUMPY_SUBMODULES)
def test_numpy_submodules_of_each_entry_path(path, files):
    argv, allowed = NUMPY_SUBMODULES[path]
    out = fresh(
        "import contextlib, io\n"
        "from needlet_whittle import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "out = {'code': code, 'new': numpy_loaded()}\n",
        files,
    )
    assert out["code"] == cli.EXIT_OK
    assert set(out["new"]) <= set(allowed), (path, out["new"])
