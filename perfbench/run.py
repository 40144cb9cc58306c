"""Seeded benchmark of the needlet-Whittle pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

NAME is one of the workloads in BENCHMARK.json, or ``all`` to run each of
them in turn.  Each workload runs in a fresh interpreter (``worker.py``).
Set-up is timed from spawn to the worker's READY line, SETUP_SAMPLES times per
run (the last sample is the measured worker itself), and reported as the
median.  The worker gets its inputs from the seed only and runs with a pinned
environment: NEEDLET_WHITTLE_THREADS (which overrides ``run.workers``) is set
here, and BLAS/OpenMP pools are held at one thread.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
BENCHMARK.json with ``--trace 0``, every per-layer metric with ``--trace 1``,
each with its unit.  A line starting with ``# env`` before it records the
machine and the source.  Run records, spans and the per-layer table go to
``.bench_out/`` in the checkout.  Exit status: 0 when every correctness gate
passes, 1 when one fails, 2 when the source tree is missing, 3 when a worker
crashes or runs out of time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "needlet_whittle"
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0  # per workload, spawn to exit


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_env(workload: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        {
            # only mc-canonical uses the worker pool, sized to the cores we may use
            "NEEDLET_WHITTLE_THREADS": str(nproc() if workload == "mc-canonical" else 1),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0",
        }
    )
    return env


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "caches": _cache_sizes(),
    }


def spawn(argv: list[str], env: dict[str, str], deadline: float):
    """Run worker.py to completion; returns (exit code, set-up seconds, result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup is None:
                setup = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT ") :])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return code, setup, result


def run_workload(name: str, args, spec: dict):
    """One workload; returns (final-line object, run record) or None on a crash."""
    deadline = time.monotonic() + TIME_LIMIT_S
    out = ROOT / ".bench_out" / f"{name}-s{args.seed}-t{args.trace}"
    argv = [
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ] + (["--quick"] if args.quick else [])
    env = pinned_env(name)
    setups = []
    for _ in range((2 if args.quick else SETUP_SAMPLES) - 1):
        code, setup, _ = spawn(argv + ["--setup-only"], env, deadline)
        if code != 0 or setup is None:
            return None
        setups.append(setup)
    code, setup, res = spawn(argv, env, deadline)
    if code != 0 or setup is None or res is None:
        return None
    setups.append(setup)
    values = dict(res["metrics"], setup_s=statistics.median(setups))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "machine": dict(machine(), numpy=res["numpy"]),
        "pinned_env": {k: env[k] for k in sorted(env) if k not in os.environ or env[k] != os.environ[k]},
        "tail_percentile": res["tail_percentile"],
        "setup_samples_s": setups,
        "op_ms_samples": res.get("samples"),
        "layers": res.get("layers"),
        "result": line,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return line, record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SOURCE / "__init__.py").is_file():
        print(f"run.py: no package source at {SOURCE.relative_to(ROOT)}", file=sys.stderr)
        return 2

    lines = []
    for name in names if args.workload == "all" else [args.workload]:
        done = run_workload(name, args, spec)
        if done is None:
            print(f"run.py: workload {name} crashed or ran out of time", file=sys.stderr)
            return 3
        line, record = done
        print("# env " + json.dumps({k: record[k] for k in ("workload", "machine", "pinned_env", "tail_percentile")}))
        if record["layers"]:
            for layer, row in record["layers"].items():
                print(f"# layer {layer:<12} self {row['self_ms']:10.2f} ms  share {row['self_share']:.4f}")
        for metric, m in line["metrics"].items():
            print(f"# {name} {metric} = {m['value']:.6g} {m['unit']}")
        lines.append((name, line))

    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{n}:{k}": v for n, line in lines for k, v in line["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
