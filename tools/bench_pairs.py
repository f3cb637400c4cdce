"""Compare two checkouts on the paramres benchmark in alternating pairs of runs.

    python tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --pairs N --seconds S [--out FILE]

Pair i runs ``python3 bench/run.py --workload W --seed i --seconds S
--trace 0`` once in each checkout, one process at a time; the parent goes
first in odd pairs and the change first in even pairs.  Each run's
metrics are read from the last line of its output, a JSON object.  For
every end-to-end metric of the change's BENCHMARK.json the tool prints
the median and quartiles of each side, the number of pairs in which
the change reads better, and whether a gain claim on that metric holds:
the change reads better in at least 9 of 10 pairs and its median beats
the parent's by more than the parent's interquartile range.  Two values
that agree to TIE_RTOL relative are a tie: such a pair counts for
neither side, and such a median gain holds no claim.  ``--workload``
may be given more than once.  With ``--out`` the result is written as
JSON in the layout of the BENCH_<n>.json files.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Relative tolerance within which two values of a metric are a tie.
TIE_RTOL = 1e-9

PROTOCOL = (
    "Pair i uses seed i on both sides; the parent runs first in odd pairs and "
    "the change first in even pairs. Runs are sequential, one process at a "
    "time. 'runs' lists the values in pair order; 'change_better_pairs' counts "
    "pairs in which the change reads better; 'median_gain' is the parent's "
    "median minus the change's, signed so that a gain is positive; "
    "'claim_holds' is true when the change is better in at least 9 of 10 "
    "pairs and 'median_gain' exceeds the parent's IQR. Values that agree to "
    f"{TIE_RTOL:g} relative are a tie: neither better in a pair nor a median gain.")


def side_summary(runs):
    """Median, inclusive quartiles and interquartile range of a list of runs."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": list(runs)}


def _better(a, b, sign):
    """Whether a reads better than b by more than TIE_RTOL; sign is 1 when
    lower is better and -1 when higher is."""
    return sign * (a - b) < 0.0 and abs(a - b) > TIE_RTOL * max(abs(a), abs(b))


def summarize(parent_runs, change_runs, unit, better):
    """One metric of one workload over pairs of runs, as BENCH_<n>.json holds it.

    parent_runs[i] and change_runs[i] come from pair i; better is "lower"
    or "higher".
    """
    if len(parent_runs) != len(change_runs) or len(parent_runs) < 2:
        raise ValueError("need two or more pairs of runs, one value per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(_better(c, p, sign) for p, c in zip(parent_runs, change_runs))
    parent, change = side_summary(parent_runs), side_summary(change_runs)
    gain = sign * (parent["median"] - change["median"])
    return {"unit": unit, "better": better, "pairs": len(parent_runs),
            "parent": parent, "change": change, "change_better_pairs": wins,
            "median_gain": gain,
            "claim_holds": (10 * wins >= 9 * len(parent_runs) and gain > parent["iqr"]
                            and _better(change["median"], parent["median"], sign))}


def run_bench(root, workload, seed, seconds):
    """(metrics, environment) of one bench/run.py process in the checkout root."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise RuntimeError(f"{root}: workload {workload} seed {seed} is not "
                           f"correct: {lines[-1]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {k: v["value"] for k, v in result["metrics"].items()}, env


def compare(parent, change, workload, pairs, seconds, metrics):
    """Run the pairs of one workload; returns (summaries by metric, environments)."""
    runs = {"parent": [], "change": []}
    envs = {}
    for i in range(1, pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            values, envs[side] = run_bench({"parent": parent, "change": change}[side],
                                           workload, i, seconds)
            runs[side].append(values)
        print(f"{workload} pair {i}: " + " ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.6g}->"
            f"{runs['change'][-1][m['name']]:.6g}" for m in metrics), file=sys.stderr)
    return {m["name"]: summarize([r[m["name"]] for r in runs["parent"]],
                                 [r[m["name"]] for r in runs["change"]],
                                 m["unit"], m["better"])
            for m in metrics}, envs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))

    workloads = {}
    for workload in args.workload:
        result, envs = compare(args.parent, args.change, workload, args.pairs,
                               args.seconds, spec["end_to_end"])
        workloads[workload] = result
        for name, s in result.items():
            print(f"{workload} {name}: parent {s['parent']['median']:.6g} "
                  f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}]  change "
                  f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}, "
                  f"{s['change']['q3']:.6g}]  change_better_pairs "
                  f"{s['change_better_pairs']}/{s['pairs']}  claim "
                  f"{'holds' if s['claim_holds'] else 'fails'}")
    machine = dict(envs["change"])
    doc = {
        "command": ("python3 bench/run.py --workload <workload> --seed <pair> "
                    f"--seconds {args.seconds:g} --trace 0"),
        "protocol": PROTOCOL,
        "parent_commit": envs["parent"].get("git_commit"),
        "change_commit": machine.pop("git_commit", None),
        "machine": machine,
        "workloads": workloads,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
