"""polyds benchmark: time to solution of a Poisson solve, one pass after another.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; polyds is imported from ``src/``.
Each workload is a closed loop in one process: a pass starts when the
previous one has ended, and a new pass starts only while it is expected
to end within ``--seconds``.  Every pass goes through the correctness
gate; a failing pass counts in ``failed`` and is never retried.

``--trace 0`` prints the end-to-end metrics, all measured untraced.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (medians), plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object.  Details, machine facts and the spans of the last traced pass
go to ``.perfbench-out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
OUT_DIR = os.path.join(CHECKOUT, ".perfbench-out")

# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 3
# Mesh size of the warm-up pass that fills lazy imports and rule caches.
WARMUP_N = 4
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "L2_p": "1",
    "L2_grad": "1",
}


def import_polyds():
    sys.path.insert(0, SRC)
    try:
        import polyds
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import polyds from {SRC}: {exc}")
    if not os.path.abspath(polyds.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: polyds came from {polyds.__file__}, not {SRC}")


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, else the environment's."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def machine_facts():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "loadavg_1m": os.getloadavg()[0],
    }


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_residual")):
        return "ratio"
    return "count"


def tail_percentile(samples):
    """(p, value): the highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))  # nearest rank, ceil(p n / 100)
    return p, sorted(samples)[rank - 1]


def setup_probe(workload):
    """Body of one timed setup process: import polyds, then a small warm-up pass."""
    import_polyds()
    from polyds import assembly
    from workloads import WORKLOADS, run_pass

    run_pass(WORKLOADS[workload], 0, assembly.manufactured_solution("one-hump"), n=WARMUP_N)


def time_setups(workload):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", workload]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PROBE_TIMEOUT_S, cwd=CHECKOUT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup process failed:\n{proc.stderr}")
    return times


def timed_pass(w, seed, exact, traced):
    """Wall and CPU seconds of one pass, its error norms, and gate problems."""
    from workloads import check_pass, layer_metrics, run_pass, traced_pass

    sample = {"traced": traced, "errors": None, "layers": None, "spans": None}
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if traced:
            tr, (mesh, system, report, errors) = traced_pass(w, seed, exact)
        else:
            mesh, system, report, errors = run_pass(w, seed, exact)
        sample["wall_s"] = time.perf_counter() - t0
        sample["cpu_s"] = time.process_time() - c0
        sample["errors"] = errors
        sample["problems"] = check_pass(w, system, report, errors)
        if traced:
            sample["layers"] = layer_metrics(tr, mesh)
            sample["spans"] = tr.records()
    except Exception as exc:  # a failing pass is counted, never retried
        traceback.print_exc()
        sample.setdefault("wall_s", time.perf_counter() - t0)
        sample.setdefault("cpu_s", time.process_time() - c0)
        sample["problems"] = [f"raised {type(exc).__name__}: {exc}"]
    return sample


def closed_loop(w, seed, exact, seconds, kinds):
    """Run rounds of passes (one per entry of ``kinds``) until ``seconds`` is spent.

    A round starts only if the median round so far would end in time; the
    first round always runs.
    """
    samples, rounds = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        t0 = time.perf_counter()
        for traced in kinds:
            s = timed_pass(w, seed, exact, traced)
            samples.append(s)
            status = "ok" if not s["problems"] else "FAILED: " + "; ".join(s["problems"])
            print(f"pass {len(samples)}{' (traced)' if traced else ''}: "
                  f"wall {s['wall_s']:.3f} s, cpu {s['cpu_s']:.3f} s, {status}", flush=True)
        rounds.append(time.perf_counter() - t0)
    return samples


def median_of(samples, key):
    values = [s[key] for s in samples if not s["problems"]]
    return statistics.median(values) if values else None


def grad_error(errors):
    """H1_semi_p (primal) or L2_u (mixed): the L2 norm of the gradient error of p."""
    return errors.get("H1_semi_p", errors.get("L2_u"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0

    import_polyds()
    from polyds import assembly
    from workloads import WORKLOADS, run_pass

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    w = WORKLOADS[args.workload]
    exact = assembly.manufactured_solution("one-hump")

    print(f"perfbench {w.name}: {w.family} n={w.n}, {w.method} r={w.r}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    facts = machine_facts()
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    setups = time_setups(w.name)
    print("setup: " + " ".join(f"{t:.3f}" for t in setups)
          + f" s ({SETUP_PROBES} fresh processes: import polyds + warm-up pass at n={WARMUP_N})")
    run_pass(w, args.seed, exact, n=WARMUP_N)

    kinds = (False, True) if args.trace else (False,)
    samples = closed_loop(w, args.seed, exact, args.seconds, kinds)

    failed = sum(1 for s in samples if s["problems"])
    ok = [s for s in samples if not s["problems"]]
    untraced = [s for s in samples if not s["traced"]]
    wall = median_of(untraced, "wall_s")
    errors = ok[-1]["errors"] if ok else {}

    end_to_end = {
        "time_to_solution_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "L2_p": errors.get("L2_p"),
        "L2_grad": grad_error(errors),
    }
    n_ok = sum(1 for s in untraced if not s["problems"])
    tail = tail_percentile([s["wall_s"] for s in untraced if not s["problems"]])
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no tail percentile (needs at least 11 passes)")
    print(f"time_to_solution_s = {wall if wall is None else f'{wall:.4f}'} s "
          f"(median wall seconds of {n_ok} untraced passes; {tail_text})")
    print(f"cpu_s = {median_of(untraced, 'cpu_s')} s (median CPU seconds per untraced pass)")
    print(f"setup_s = {end_to_end['setup_s']:.4f} s")
    print(f"peak_rss_mb = {end_to_end['peak_rss_mb']:.1f} MB")
    print(f"failed_ratio = {failed}/{len(samples)} = {failed / len(samples):g}")
    for name, value in errors.items():
        print(f"{name} = {value:.10e} (reference {w.reference[name]:.10e}, rtol {w.rtol:g})")

    if args.trace:
        traced = [s for s in ok if s["traced"]]
        names = list(traced[0]["layers"]) if traced else []
        metrics = {n: statistics.median(s["layers"][n] for s in traced) for n in names}
        traced_wall = median_of([s for s in samples if s["traced"]], "wall_s")
        if traced_wall is not None and wall is not None:
            metrics["trace.overhead_s"] = traced_wall - wall
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {unit_of(name)}")
    else:
        metrics = end_to_end

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "setup_s": setups,
        "passes": [{k: s[k] for k in ("traced", "wall_s", "cpu_s", "errors", "problems")}
                   for s in samples],
        "end_to_end": end_to_end, "metrics": metrics,
        "spans": next((s["spans"] for s in reversed(samples) if s["spans"]), None),
    }
    path = os.path.join(OUT_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(f"# wrote {os.path.relpath(path, CHECKOUT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
