"""Benchmark of coorbit-lab, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a coorbit-lab checkout; it imports the package from
./src.  Workloads: norm-engine, orbit-scans and cli-checks (see README.md).

With --trace 0 the run times set-up in fresh interpreters, then repeats whole
rounds of the workload's operations until --seconds have passed, checking
every output.  With --trace 1 it runs one round untraced and one traced, and
reports per-layer counts and self times instead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Each run
also writes a record that names the machine to perfbench/out/.
"""

from __future__ import annotations

import os

# numpy's BLAS on one thread, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
RUN_LIMIT_S = 165.0  # no round starts that the previous one says would end past this

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
}

PER_LAYER = (
    "gaussian.Gaussian.calls",
    "gaussian.Gaussian.self_s",
    "gaussian.log_inner.calls",
    "gaussian.log_inner.self_s",
    "gaussian.chirp_stft_modulus.calls",
    "gaussian.chirp_stft_modulus.self_s",
    "gaussian.stft_closed.self_s",
    "gaussian.log_stft_modulus.calls",
    "groups.multiply.calls",
    "groups.multiply.self_s",
    "groups.quotient_multiply.calls",
    "groups.quotient_multiply.self_s",
    "representations.apply_rep.calls",
    "representations.apply_rep.self_s",
    "representations.homomorphism_check.self_s",
    "representations.unitarity_check.self_s",
    "coorbit.coorbit_norm_log.self_s",
    "coorbit.fit_log_quadratic.calls",
    "coorbit.fit_log_quadratic.self_s",
    "coorbit.LogQuadratic.conditioned.calls",
    "coorbit.LogQuadratic.total.self_s",
    "coorbit.modulation_norm_log.self_s",
    "coorbit.evals_per_fit",
    "coorbit.fits_per_node",
    "frames.locate.self_s",
    "frames.tiling_check.self_s",
    "frames.lattice_points_in_box.self_s",
    "frames.frame_bounds_estimate.self_s",
    "numerics.dft_stft.calls",
    "numerics.dft_stft.self_s",
    "cli.parse_config.self_s",
    "cli.run.self_s",
    "setup.import_s",
    "setup.import_scipy_s",
    "trace.overhead_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_s"):
        return "s"
    return "ratio"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark coorbit-lab end to end and per layer.")
    parser.add_argument("--workload", required=True, choices=("norm-engine", "orbit-scans", "cli-checks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_package(root: str):
    """Import coorbit_lab from the checkout's src; None when the checkout has no package."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "coorbit_lab", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import coorbit_lab

    if not os.path.abspath(coorbit_lab.__file__).startswith(src + os.sep):
        return None
    return coorbit_lab


def machine(root: str) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


def import_times(root: str, out_dir: str) -> tuple[float, float]:
    """Cumulative import time of coorbit_lab and of scipy.linalg, from python -X importtime."""
    from workloads import run_child

    res = run_child([sys.executable, "-X", "importtime", "-c", "import coorbit_lab"], root, os.path.join(out_dir, "importtime"))
    cumulative = {}
    for line in res.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return cumulative.get("coorbit_lab", 0.0), cumulative.get("scipy.linalg", 0.0)


def layer_metrics(summary: dict, overhead_s: float, import_s: float, import_scipy_s: float) -> dict:
    spans = summary["spans"]
    nested = summary["nested"]

    def agg(name, key):
        return spans.get(name, {}).get(key, 0)

    fits = agg("coorbit.fit_log_quadratic", "calls")
    engine_fits = nested.get("coorbit.fit_log_quadratic in coorbit.coorbit_norm_log", 0)
    probe_fits = nested.get("coorbit.fit_log_quadratic in coorbit._probe_center", 0)
    evals = nested.get("gaussian.log_inner in coorbit.fit_log_quadratic", 0)
    derived = {
        "coorbit.evals_per_fit": evals / fits if fits else 0.0,
        # the engine fits once per coupled mesh node; every other fit is the probe's
        "coorbit.fits_per_node": engine_fits / (engine_fits - probe_fits) if engine_fits > probe_fits else 0.0,
        "setup.import_s": import_s,
        "setup.import_scipy_s": import_scipy_s,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric in PER_LAYER:
        if metric in derived:
            value = derived[metric]
        else:
            span, _, key = metric.rpartition(".")
            value = agg(span, key)
        out[metric] = {"value": value, "unit": unit_of(metric)}
    return out


def timed_rounds(workload, inputs, seconds: int, t_process: float):
    from workloads import Round

    rounds = []
    t_start = perf_counter()
    while True:
        rnd = Round()
        t0 = perf_counter()
        workload.round(inputs, rnd)
        rnd.wall_s = perf_counter() - t0
        rounds.append(rnd)
        now = perf_counter()
        if now - t_start >= seconds or (now - t_process) + rnd.wall_s > RUN_LIMIT_S:
            return rounds


def traced_rounds(workload, inputs, out_dir: str):
    """One untraced round, then one traced; cli-checks traces the second pass of one round."""
    from tracer import Tracer, merge_summaries
    from workloads import Round

    if workload.name == "cli-checks":
        rnd = Round()
        workload.round(inputs, rnd, traced=True)
        return [rnd], merge_summaries(rnd.trace_summaries), rnd.traced_wall_s - rnd.wall_s
    plain, traced = Round(), Round()
    t0 = perf_counter()
    workload.round(inputs, plain)
    plain.wall_s = perf_counter() - t0
    tracer = Tracer()
    with tracer.installed():
        t0 = perf_counter()
        workload.round(inputs, traced)
        traced.wall_s = perf_counter() - t0
    traced.samples.clear()  # figures come from untraced operations only
    tracer.dump(os.path.join(out_dir, "spans.npz"))
    return [plain, traced], tracer.summary(), traced.wall_s - plain.wall_s


def main(argv=None) -> int:
    t_process = perf_counter()
    args = parse_args(argv)
    root = os.getcwd()
    if load_package(root) is None:
        print("perfbench: no src/coorbit_lab here; run from the root of a coorbit-lab checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, run_child

    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    metrics: dict = {}
    if args.trace:
        import_s, import_scipy_s = import_times(root, out_dir)
        inputs = workload.build(args.seed, out_dir)
        rounds, summary, overhead_s = traced_rounds(workload, inputs, out_dir)
        metrics = layer_metrics(summary, overhead_s, import_s, import_scipy_s)
    else:
        setup_times = []
        for i in range(SETUP_REPEATS):
            probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), args.workload, str(args.seed), out_dir]
            res = run_child(probe, root, os.path.join(out_dir, f"setup-{i}"))
            if res.code != 0:
                print(f"perfbench: set-up failed (exit {res.code})\n{res.stderr[-3000:]}", file=sys.stderr)
                return 1
            setup_times.append(res.seconds)
        inputs = workload.build(args.seed, out_dir)
        rounds = timed_rounds(workload, inputs, args.seconds, t_process)

    samples: dict = {}
    for rnd in rounds:
        for fig, values in rnd.samples.items():
            samples.setdefault(fig, []).extend(values)
    # load from elsewhere on a shared machine only ever adds time, so each
    # figure is the fastest of its samples, which are spread through the run
    figures = {fig: min(samples[fig]) for fig in workload.figures if fig in samples}
    problems = [p for rnd in rounds for p in rnd.problems]
    missing = [fig for fig in workload.figures if fig not in figures]
    if missing:
        problems.append(f"no successful operation for {', '.join(missing)}")

    if not args.trace:
        if workload.name == "cli-checks":
            peak_kb = max(rnd.child_maxrss_kb for rnd in rounds)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_kb / 1024.0,
            "round_s": statistics.median(rnd.wall_s for rnd in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    attempted = sum(sum(rnd.attempted.values()) for rnd in rounds)
    failed = sum(sum(rnd.failed.values()) for rnd in rounds)
    operations = {}
    for rnd in rounds:
        for kind, n in rnd.attempted.items():
            ops = operations.setdefault(kind, {"attempted": 0, "failed": 0})
            ops["attempted"] += n
            ops["failed"] += rnd.failed[kind]
    failures = [f for rnd in rounds for f in rnd.failures]
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    record_path = os.path.join(HERE, "out", f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(root),
        "rounds": len(rounds),
        "round_wall_s": [rnd.wall_s for rnd in rounds],
        "figures": {fig: {"value": v, "unit": "s"} for fig, v in figures.items()},
        "samples": samples,
        "operations": operations,
        "failures": failures,
        "problems": problems,
        "result": result,
    }
    if not args.trace:
        record["setup_samples_s"] = setup_times
    else:
        record["trace_summary"] = summary
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for msg in failures:
        print(f"failed operation: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"incorrect output: {msg}", file=sys.stderr)
    print(f"coorbit-lab benchmark: {args.workload}, seed {args.seed}, {len(rounds)} round(s), trace {args.trace}")
    for fig, value in figures.items():
        print(f"  {fig:<28} {value:.6f} s")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    for kind, ops in operations.items():
        print(f"  operations {kind:<26} attempted {ops['attempted']:>4}  failed {ops['failed']}")
    print(f"  record {os.path.relpath(record_path, root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
