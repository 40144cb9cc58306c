"""Seeded fuzz of the command-line entry points, through ``cli.main``.

Each case draws its arguments from a numpy generator seeded by (FUZZ_SEED,
entry point, case), over the boundary values below: argument sets for
``theory``, ``estimate`` and ``plugin``; config texts for ``montecarlo --check``
and ``simulate``, at l_max <= 128 and at most 8 replications; and truncated,
byte-flipped and NaN-filled spectrum files for ``estimate``.  Whatever the
input, the exit code is 0, 2, 3 or 4 and no exception escapes; a non-zero exit
names a typed error on stderr (or a failed check on stdout); on exit 0 every
number printed is finite, and no row of a Monte Carlo run is converged with a
non-finite alpha-hat.  Every case keeps to one ``tracemalloc`` peak,
``MEMORY_BUDGET``, and one wall-time budget, ``TIME_BUDGET_S``.  Tier-1 runs
``FUZZ_CASES`` cases per entry point; ``pytest --fuzz-cases N
tests/test_fuzz.py`` runs N.
"""
import math
import re
import signal
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from needlet_whittle import cli, harness
from needlet_whittle.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from needlet_whittle.needlet import BASIS_CAP
from needlet_whittle.whittle import GRID_POINTS

# a fit at a search end warns and says so in its row: that is an outcome, not a failure
pytestmark = pytest.mark.filterwarnings("ignore::needlet_whittle.errors.BoundaryWarning")

FUZZ_SEED = 20261020
FUZZ_CASES = {"theory": 100, "estimate": 150, "plugin": 80, "config": 100, "file": 150}

FLOATS = (0.0, 1.0, -1.0, 0.5, 1.0001, 1.05, 2.0, 2.001, 3.0, 4.5, 10.0, 1e-9, 1e300,
          math.nan, math.inf, -math.inf)
INTS = (-5, -1, 0, 1, 2, 3, 5, 9, 20, 43, 44, 50, 200, 100000)
SMALL_L_MAX = (-5, -1, 0, 1, 2, 3, 5, 9, 20, 64, 128)
SMALL_REPLICATIONS = (-5, -1, 0, 1, 2, 3, 5, 8)

# The memory budget, set from the limits above before any case ran.  The widest
# level range a case can ask for runs from j0 = -5 to log_B(l_max + 1) at the B
# nearest 1 drawn (1.0001).  A fit holds its (levels, l_max) weights, within
# BASIS_CAP at l_max <= 128, and a few (GRID_POINTS, levels) grid sums; 8
# replications at l_max <= 128 hold far less.  So four such grid sums beside
# the weights bound any case, ~142 MiB.  The time budget catches a hang, not a
# slow case: the slowest cases, at B = 1.0001, take ~3 s, ~21 s under tracemalloc.
MAX_LEVELS = math.ceil(math.log(max(SMALL_L_MAX) + 1) / math.log(1.0001)) + 6
assert MAX_LEVELS * max(SMALL_L_MAX) <= BASIS_CAP
MEMORY_BUDGET = 8 * MAX_LEVELS * (max(SMALL_L_MAX) + 4 * GRID_POINTS)
TIME_BUDGET_S = 120

# a typed error as ``cli.main`` prints it, or argparse's usage error
TYPED = re.compile(r"^(configuration error: |numeric error: \w+: |usage: )", re.M)
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf)(?![\w.])", re.I)


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        kind = metafunc.function.__name__.removeprefix("test_")
        count = metafunc.config.getoption("fuzz_cases") or FUZZ_CASES[kind]
        metafunc.parametrize("case", range(count))


def hung(signum, frame):
    pytest.fail(f"the case ran past its {TIME_BUDGET_S} s budget")


@contextmanager
def budget(argv):
    """A ``main`` call's ``tracemalloc`` peak within ``MEMORY_BUDGET``; a call
    still running after ``TIME_BUDGET_S`` is stopped and fails."""
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(TIME_BUDGET_S)
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert peak <= MEMORY_BUDGET, (argv, f"tracemalloc peak {peak / 2**20:.1f} MiB")


@pytest.fixture(scope="module", autouse=True)
def one_parser():
    """Build the process's one parser outside the budgets, so that no case's
    budget holds it: under ``tracemalloc`` it took most of a small case's."""
    cli.build_parser()


def generator(kind: str, case: int) -> np.random.Generator:
    return np.random.default_rng([FUZZ_SEED, list(FUZZ_CASES).index(kind), case])


def pick(rng, values):
    return values[rng.integers(len(values))]


def options(rng, specs) -> list[str]:
    """``--name=value`` for each (name, values) of ``specs`` kept by a coin
    flip; ``=`` keeps a value such as -inf from reading as an option."""
    return [f"--{name}={pick(rng, values)}" for name, values in specs if rng.random() < 0.5]


def run(argv, capsys) -> int:
    """The exit code of ``main(argv)``, within its budgets, after the checks
    every case shares."""
    with budget(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_CHECK), (argv, code, err)
    if code == EXIT_OK:
        bad = [x for x in NUMBER.findall(out) if not math.isfinite(float(x))]
        assert not bad, (argv, out)
    elif code == EXIT_CHECK:
        assert ": FAIL (" in out, (argv, out)
    else:
        assert TYPED.search(err), (argv, err)
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The spectrum files ``simulate`` writes at l_max 64, by suffix."""
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = tmp / "base.cfg"
    cfg.write_text(f"model.alpha0 = 3.0\nsim.l_max = 64\nrun.master_seed = 1\noutput.prefix = {tmp / 'base'}\n")
    assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
    return {suffix: (tmp / f"base{suffix}").read_bytes() for suffix in (".spectrum.bin", ".spectrum.csv")}


def test_theory(case, capsys):
    rng = generator("theory", case)
    argv = ["theory", f"--p={pick(rng, INTS)}", f"--B={pick(rng, FLOATS)}",
            f"--alpha0={pick(rng, FLOATS)}", *options(rng, [("kappa", FLOATS)])]
    run(argv, capsys)


def test_estimate(case, files, tmp_path, capsys):
    rng = generator("estimate", case)
    suffix = pick(rng, tuple(files))
    path = tmp_path / f"s{suffix}"
    path.write_bytes(files[suffix])
    argv = ["estimate", f"--spectrum-file={path}", *options(rng, [
        ("window", ("mexican", "standard")), ("p", INTS), ("B", FLOATS),
        ("band", ("full", "narrow")), ("g", FLOATS), ("j0", INTS), ("jl", INTS),
        ("alpha-min", FLOATS), ("alpha-max", FLOATS), ("tol", FLOATS),
    ])]
    run(argv, capsys)


def test_plugin(case, files, tmp_path, capsys):
    rng = generator("plugin", case)
    path = tmp_path / "s.spectrum.bin"
    path.write_bytes(files[".spectrum.bin"])
    argv = ["plugin", f"--spectrum-file={path}", f"--p={pick(rng, INTS)}",
            *options(rng, [("B-std", FLOATS), ("B-mex", FLOATS)])]
    run(argv, capsys)


# config keys and the values drawn for them; the base config below is valid,
# and each case sets one to three keys
CONFIG_VALUES = {
    "model.alpha0": FLOATS,
    "model.g0": FLOATS,
    "model.correction": ("none", "kappa", "rational", "other"),
    "model.kappa": FLOATS,
    "model.p_coeffs": ("1.0", "1.0,2.0", "nan", "-1.0", "1e300,1.0"),
    "model.q_coeffs": ("1.0", "0.5,1.0", "inf", "1.0,-1.0"),
    "window.kind": ("mexican", "standard", "other"),
    "window.p": INTS,
    "window.B": FLOATS,
    "sim.l_max": SMALL_L_MAX,
    "jrange.j0": INTS,
    "jrange.jl": INTS,
    "band.kind": ("full", "narrow", "other"),
    "band.g": FLOATS,
    "fit.alpha_min": FLOATS,
    "fit.alpha_max": FLOATS,
    "fit.tol": FLOATS,
    "run.replications": SMALL_REPLICATIONS,
    "run.master_seed": (*INTS, -(2**63), 2**63),
    "run.workers": (-5, -1, 1),  # 0 and up start a worker pool per case
    "run.noise_free": ("true", "false", "2"),
}


def test_config(case, tmp_path, capsys):
    rng = generator("config", case)
    keys = {"model.alpha0": 3.0, "sim.l_max": 64, "run.replications": 8, "run.workers": 1,
            "output.prefix": tmp_path / "run"}
    for key in rng.choice(list(CONFIG_VALUES), size=rng.integers(1, 4), replace=False):
        keys[key] = pick(rng, CONFIG_VALUES[key])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    for argv in (["montecarlo", "--config", str(cfg), "--check"], ["simulate", "--config", str(cfg)]):
        code = run(argv, capsys)
        if argv[0] == "montecarlo" and code in (EXIT_OK, EXIT_CHECK):
            config = harness.ExperimentConfig.from_file(cfg)
            paths = (tmp_path / "run.summary.csv", tmp_path / "run.rows.csv")
            for row in harness.load_summary(*paths, config).rows:
                assert math.isfinite(row.alpha_hat) or not row.converged, (keys, row)


def mutate(rng, data: bytes, suffix: str) -> bytes:
    """Truncate, flip a header or payload byte, or fill values with nan."""
    how = pick(rng, ("truncate", "flip-header", "flip-payload", "nan"))
    head = 24 if suffix == ".spectrum.bin" else data.index(b"\n") + 1
    if how == "truncate":
        return data[: rng.integers(len(data))]
    if how == "nan" and suffix == ".spectrum.bin":
        values = np.frombuffer(data[head:], "<f8").copy()
        values[rng.integers(len(values), size=rng.integers(1, 4))] = np.nan
        return data[:head] + values.tobytes()
    if how == "nan":
        lines = data.decode().splitlines(keepends=True)
        i = 1 + rng.integers(len(lines) - 1)
        lines[i] = lines[i].split(",")[0] + ",nan\n"
        return "".join(lines).encode()
    lo, hi = (0, head) if how == "flip-header" else (head, len(data))
    i = rng.integers(lo, hi)
    return data[:i] + bytes([data[i] ^ (1 << rng.integers(8))]) + data[i + 1 :]


def test_file(case, files, tmp_path, capsys):
    rng = generator("file", case)
    suffix = pick(rng, tuple(files))
    path = tmp_path / f"s{suffix}"
    path.write_bytes(mutate(rng, files[suffix], suffix))
    run(["estimate", f"--spectrum-file={path}", *options(rng, [("band", ("full", "narrow"))])], capsys)
