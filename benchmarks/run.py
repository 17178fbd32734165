"""threatnav benchmark: one workload, one process, one BLAS thread.

    python3 benchmarks/run.py --workload pursuer-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. ``--trace 0`` times the workload and prints the end-to-end
metrics; ``--trace 1`` times it the same way, runs the long cases once,
then makes one traced pass over every case, and prints the per-layer
metrics, the tracing overhead and the call trees (to
``benchmarks/_out/``). The last line of standard output is the
result as JSON; the lines before it record the environment and every
figure of the run. Exit code 2 means the benchmark could not start.
"""

import os

# Pin BLAS before numpy loads: OpenBLAS would start one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from time import perf_counter  # noqa: E402

T0 = perf_counter()  # set-up time counts from here: imports, inputs, warm-up

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Set-up is timed in this process and in fresh ones spread over the run,
# and the fastest counts: the host runs slow for stretches of seconds.
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 60


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_library() -> bool:
    """Import threatnav from this checkout's ``src/``; False if that is impossible."""
    src = ROOT / "src"
    if not (src / "threatnav" / "__init__.py").is_file():
        print(f"error: no threatnav sources under {src}; run from a source checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import threatnav

    if Path(threatnav.__file__).resolve().parent != (src / "threatnav").resolve():
        print(f"error: imported threatnav from {threatnav.__file__}, not from {src}", file=sys.stderr)
        return False
    return True


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next((int(line.split()[1]) for line in fh if line.startswith("Threads:")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "process_threads": threads,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _child_setup(args) -> float:
    """Set-up time of a fresh process, measured by that process."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_library():
        return 2
    import metrics
    import workloads
    from tracing import NullTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_dir = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.setup(args.workload, args.seed, ROOT, work_dir)
        own_setup = perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setups = [own_setup]
        fresh = [lambda: setups.append(_child_setup(args))] * (SETUP_RUNS - 1)
        timed, elapsed = workloads.measure(workload.timed, args.seconds, NullTracer(), fresh)
        long = workloads.run_once(workload.long, NullTracer()) if args.trace else []
        untraced = metrics.summarize(timed, long, elapsed)
        figures = {"setup_s": min(setups), **untraced}
        attempted, failed = untraced["attempted"], untraced["failed"]
        checked, layers = timed + long, {}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                t_ops = workloads.run_once(workload.timed + workload.long, tracer)
            finally:
                tracer.uninstall()
            traced_pass_s = metrics.typical_pass_s(t_ops)
            traced = metrics.summarize(t_ops, [], traced_pass_s)
            checked += t_ops
            attempted += traced["attempted"]
            failed += traced["failed"]
            layers = metrics.per_layer(tracer, untraced, traced, metrics.typical_pass_s(timed + long), traced_pass_s)
            out_dir = BENCH_DIR / "_out"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "missing_bindings": tracer.missing,
                "ops": [root.to_dict() for root in tracer.ops],
            }) + "\n")
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = sorted({p for op in checked for p in op.problems})
    print(json.dumps({"environment": _environment()}))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "setup_runs_s": setups,
        "figures": figures,
        "problems": problems,
        "ops": [
            {
                "name": op.name,
                "seconds": op.repeat_seconds,
                "iterations": op.iterations,
                "audit_s": op.audit_seconds,
                "classified": op.classified,
                "t_f": op.t_f,
                "worst_clearance": op.worst_clearance,
            }
            for op in timed + long
        ],
    }))
    if args.trace:
        shown = {name: {"value": value, "unit": unit} for name, (unit, value) in layers.items()}
    else:
        shown = {name: {"value": figures[name], "unit": unit} for name, unit in metrics.END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
