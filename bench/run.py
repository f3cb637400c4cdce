"""Benchmark of paramres gate calibration, end to end and by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload cal_cz20 --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: a single caller starts
the next operation only after the previous one returned, until
``--seconds`` have passed (at least one operation).  Every operation's
physics is checked before its time counts.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates traced and untraced
operations and prints the per-layer metrics of the traced ones.  The
last line of standard output is one JSON object; the environment, every
operation and, when traced, every span go to ``.bench_out/``.  Metric
names and units come from ``BENCHMARK.json``.  See ``bench/README.md``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
#: Fresh-process set-ups timed before and after the timed loop, so that
#: the median covers the whole run rather than its first seconds.
SETUP_REPEATS = (7, 6)
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import paramres
from paramres.device import device_params, load_bundled_device
device_params(load_bundled_device())
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(repeats):
    """Seconds for import + bundled device + device_params, fresh processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(inherited_threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_inherited": inherited_threads,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def run_one(workload, tracer):
    """One operation: time it, then check its physics."""
    record = {"traced": tracer is not None, "wall_s": None, "physics": None,
              "misses": [], "error": None}
    t0 = time.perf_counter()
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            result = workload.run()
            record["wall_s"] = time.perf_counter() - t0
            record["cpu_s"] = time.process_time() - c0
        record["physics"] = workload.physics(result)
        checks = workload.checks(record["physics"])
        record["margin"] = min(1.0 - err / limit for _, err, limit in checks)
        record["misses"] = [f"{name}={err!r} > {limit!r}"
                            for name, err, limit in checks if not err <= limit]
    except Exception:  # a failed operation is counted, not fatal
        record["wall_s"] = record["wall_s"] or time.perf_counter() - t0
        record["error"] = traceback.format_exc()
    record["ok"] = record["error"] is None and not record["misses"]
    return record


def run_loop(workload, seconds, trace, tracing):
    """Closed loop until ``seconds`` pass; traced runs alternate modes."""
    records, layer_rows, spans = [], [], []
    names = tracing.layer_functions()
    t_end = time.perf_counter() + seconds
    while True:
        traced = trace and len(records) % 2 == 0
        tracer = tracing.Tracer() if traced else None
        record = run_one(workload, tracer)
        records.append(record)
        if tracer is not None:
            layer_rows.append(tracing.layer_metrics(tracer.spans, names))
            spans.append(tracer.spans)
        if time.perf_counter() >= t_end and (not trace or len(records) >= 2):
            return records, layer_rows, spans


def end_to_end_metrics(records, setup_samples, peak_rss_mb):
    passed = [r["wall_s"] for r in records if r["ok"] and not r["traced"]]
    timed = passed or [r["wall_s"] for r in records if not r["traced"]]
    margins = [r["margin"] for r in records if r.get("margin") is not None]
    return {
        "wall_s": statistics.median(timed),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "pass_frac": sum(r["ok"] for r in records) / len(records),
        "accept_margin": min(margins) if margins else -1.0,
    }


def per_layer_metrics(records, layer_rows):
    keys = layer_rows[0].keys()
    out = {k: statistics.fmean(row[k] for row in layer_rows) for k in keys}
    traced = [r["wall_s"] for r in records if r["traced"]]
    plain = [r["wall_s"] for r in records if not r["traced"]]
    out["trace.op_s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def _physics_consistent(records):
    """Every operation, traced or not, gave bit-identical physics."""
    blobs = {json.dumps(r["physics"], sort_keys=True) for r in records}
    return len(blobs) == 1 and None not in (r["physics"] for r in records)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "paramres" / "__init__.py").is_file():
        print(f"error: no paramres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    # One thread per process: BLAS reads these when numpy loads, so they
    # are set before anything imports numpy.
    inherited = {v: os.environ.get(v) for v in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(inherited)
    setup_samples = [] if args.trace else measure_setup(SETUP_REPEATS[0])
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    workloads.warm_up()
    records, layer_rows, spans = run_loop(workload, args.seconds,
                                          bool(args.trace), tracing)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup_samples += measure_setup(SETUP_REPEATS[1])

    if args.trace:
        values, wanted = per_layer_metrics(records, layer_rows), spec["per_layer"]
    else:
        values = end_to_end_metrics(records, setup_samples, peak_rss_mb)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = sum(not r["ok"] for r in records)
    result = {"correct": failed == 0 and _physics_consistent(records),
              "attempted": len(records), "failed": failed, "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "inputs": workload.inputs,
                   "setup_s_samples": setup_samples, "operations": records,
                   "layer_metrics": values if args.trace else None,
                   "result": result, "spans": spans}, fh)
    for r in records:
        if not r["ok"]:
            print(f"failed operation: {r['error'] or r['misses']}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print("physics " + json.dumps(records[0]["physics"], sort_keys=True))
    print(f"operations {len(records)}: wall_s "
          + " ".join(f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}"
                     for r in records))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
