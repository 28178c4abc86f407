#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload verify-conic --seed 42 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  With
`--trace 0` the run reports the end-to-end metrics: `setup_s` (median over
fresh interpreters), `op_s` (median over the run's operations), both scaled
to reference speed by `reference_kernel()`, and `peak_rss_mb`.  With
`--trace 1` it traces the process's first operation and reports the
per-layer metrics, then times untraced operations to get the tracing
overhead.  Operations repeat until `--seconds` have passed (at least MIN_OPS
of them); `--seconds` defaults to BENCHMARK.json's `run_seconds`.  Outputs
are checked outside the timed spans; the run exits 1 when a check fails and 2
when the program cannot be found or set up.

The last line of standard output is the result; the line before it is the run
record (versions, machine, load, failures).  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported here or in a child
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# bytecode of numpy and finslerlab is cached here, inside the checkout
PYCACHE = OUT / "pycache"

SETUP_REPS = 11      # fresh interpreters per run for setup_s
MIN_OPS = 3          # operations per untraced run, at least
MIN_OPS_TRACED = 1   # untraced operations after the traced one, at least
# Time of reference_kernel() on the reference machine when nothing contends
# with it (README, "How noisy the machine is"); setup_s and op_s are scaled
# to that speed.
REF_S = 0.15

sys.pycache_prefix = str(PYCACHE)
sys.dont_write_bytecode = False
sys.path.insert(0, str(BENCH))
import numpy as np  # noqa: E402
from workloads import WORKLOADS, call  # noqa: E402

SETUP_CODE = """
import time
t0 = time.perf_counter()
import sys
sys.pycache_prefix = {pycache!r}
sys.dont_write_bytecode = False
sys.path.insert(0, {src!r})
from finslerlab import cli, models
models.load_model({model!r})
print(repr(time.perf_counter() - t0))
"""


class SetupError(Exception):
    pass


def measure_setup(model: str) -> tuple:
    """Seconds from a fresh interpreter to finslerlab imported and `model`
    parsed, per interpreter, and the reference kernel's time timed before the
    first interpreter and after each one (SETUP_REPS + 1 times)."""
    code = SETUP_CODE.format(pycache=str(PYCACHE), src=str(SRC), model=model)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    reference_kernel()   # warm: the first call in a process runs slow
    refs = [reference_kernel()]
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up interpreter exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-400:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        refs.append(reference_kernel())
    return times, refs


def import_program():
    sys.path.insert(0, str(SRC))
    import finslerlab
    from finslerlab import cli, models
    if Path(finslerlab.__file__).resolve().parent != (SRC / "finslerlab").resolve():
        raise SetupError(f"imported finslerlab from {finslerlab.__file__}, not {SRC}")
    return cli, models


_RNG = np.random.default_rng(0)
_KI, _KJ, _KK = (_RNG.integers(0, 210, 5880) for _ in range(3))
_KBASE = _RNG.random(210)


def reference_kernel() -> float:
    """Wall time of a fixed piece of work shaped like the program's hot loop
    (gathers and a bincount over a 210-coefficient table, small dict work),
    independent of the program.  It slows down with the machine, so a time
    divided by the kernel's time measured around it no longer follows the
    machine's speed."""
    t0 = time.perf_counter()
    a = _KBASE
    for _ in range(4000):
        a = np.bincount(_KK, weights=a[_KI] * a[_KJ], minlength=210) * 1e-3 + _KBASE
        d = {}
        for q in range(40):
            d[q] = q * 1.5 + len(d)
    return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """A wall time at reference speed: scaled by the kernel timed around it."""
    return seconds * REF_S / ((ref_before + ref_after) / 2)


def run_ops(main, argv, seconds, min_ops, log):
    """Repeat one operation until `seconds` have passed and `min_ops` ran,
    with the reference kernel timed before the first and after each."""
    start = time.perf_counter()
    ref = reference_kernel()
    while len(log) < min_ops or time.perf_counter() - start < seconds:
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        code, out, err = call(main, argv)
        dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        ref_after = reference_kernel()
        log.append({"code": code, "s": dt, "cpu_s": cpu, "scaled_s": scaled(dt, ref, ref_after),
                    "ref_s": (ref + ref_after) / 2, "out": out, "err": err})
        ref = ref_after


def check(wl, cli, models, seed, done) -> list:
    """Output checks, outside every timed span; returns the problems found."""
    if not done:
        return ["no operation succeeded"]
    problems = []
    if any(r["out"] != done[0]["out"] for r in done[1:]):
        problems.append("two operations with one seed gave different output")
    try:
        problems += wl.check_output(done[0]["out"], done[0]["err"])
        problems += wl.check_extra(cli.main, models, seed, done[0]["out"])
    except Exception as e:  # noqa: BLE001 - a malformed output fails the check
        problems.append(f"check raised {type(e).__name__}: {e}")
    return problems


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "B"
    if name.endswith(("ratio", "per_point", "per_rk4_step")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if not (SRC / "finslerlab" / "__init__.py").is_file():
        sys.stderr.write(f"finslerlab sources not found under {SRC}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        cli, models = import_program()
        setup_times, setup_refs = measure_setup(wl.model)
    except (SetupError, ImportError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"set-up failed: {e}\n")
        return 2

    op_argv = wl.argv(args.seed)
    log = []
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        gc.collect()
        reference_kernel()   # warm: the first call in a process runs slow
        ref = reference_kernel()
        code, out, err = tracer.run(call, cli.main, op_argv)
        ref_after = reference_kernel()
        log.append({"code": code, "s": tracer.wall_s, "out": out, "err": err,
                    "scaled_s": scaled(tracer.wall_s, ref, ref_after),
                    "ref_s": (ref + ref_after) / 2})
        untraced = []
        run_ops(cli.main, op_argv, args.seconds - tracer.wall_s, MIN_OPS_TRACED, untraced)
        log += untraced
        layer = tracer.metrics()
        ok_times = [r["scaled_s"] for r in untraced if r["code"] == 0]
        # At reference speed, like op_s.  The traced operation is the
        # process's first, so it also builds the jet spaces, which the later
        # untraced ones find cached.
        traced = scaled(tracer.wall_s - layer["numkit.jet_space_s"], ref, ref_after)
        layer["trace.overhead_s"] = (traced - statistics.median(ok_times)) if ok_times else 0.0
        with open(OUT / f"trace-{wl.name}.json", "w") as fh:
            json.dump(tracer.to_json(), fh)
        additivity = tracer.check_additivity()
        metrics = layer
    else:
        run_ops(cli.main, op_argv, args.seconds, MIN_OPS, log)
        ok_times = [r["scaled_s"] for r in log if r["code"] == 0]
        metrics = {
            "setup_s": statistics.median([scaled(t, setup_refs[k], setup_refs[k + 1])
                                          for k, t in enumerate(setup_times)]),
            "op_s": statistics.median(ok_times) if ok_times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    done = [r for r in log if r["code"] == 0]
    problems = check(wl, cli, models, args.seed, done)
    if args.trace and additivity > 1e-6:
        problems.append(f"traced self times miss the wall time by {additivity:.2e}")
    if args.trace and tracer.missing:
        # a renamed or inlined function would otherwise read 0, like a gain
        problems.append(f"traced functions not found: {', '.join(tracer.missing)}")

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": op_argv,
        "op_s": [r["s"] for r in log], "op_cpu_s": [r.get("cpu_s") for r in log],
        "ref_s": [r["ref_s"] for r in log],
        # the first is the process's cold operation, which a cache kept
        # across calls would not speed up
        "op_scaled_s": [r["scaled_s"] for r in log],
        "setup_s": setup_times, "setup_ref_s": setup_refs,
        "failures": [{"op": k, "code": r["code"], "stderr": r["err"][-200:]}
                     for k, r in enumerate(log) if r["code"] != 0],
        "problems": problems,
        **machine_record(),
    }
    print("record " + json.dumps(record))
    result = {
        "correct": not problems,
        "attempted": len(log),
        "failed": len(log) - len(done),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
