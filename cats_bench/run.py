#!/usr/bin/env python3
"""Builds and runs the LFCA tree benchmark (cats_bench).

One run:

    python3 cats_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric the run measured, by name with its unit, and then, as
the last line of stdout, one JSON object {"correct", "attempted", "failed",
"metrics"} holding the metrics BENCHMARK.json declares: the end-to-end ones
with --trace 0, the per-layer ones with --trace 1.

The suite, with no --workload:

    python3 cats_bench/run.py [--runs 5] [--seed 1] [--seconds 10]

runs every workload --runs times untraced (seeds seed, seed+1, ...) and once
traced, each run in a fresh process, prints the median and quartiles of
every metric, and writes <build>/results/suite-seed<N>.json for compare.py.

--smoke runs every workload for 0.2 s and checks that every declared metric
is present with its unit and that no operation failed.

The binary is built in $CARGO_TARGET_DIR (default .bench_build) under the
repository root, in the tier-1 configuration (RelWithDebInfo, CATS_OBS=ON,
CATS_POOL=ON).  Build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
from compare import quartiles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WARMUP_S = 2
SETUPS = 3

# End-to-end metrics that only the workloads issuing the operation report.
# BENCHMARK.json lists only metrics every workload reports, so these are
# declared here; the suite and compare.py treat them like the declared ones.
# range_p99_ns is printed but not compared: its run-to-run spread (0.28 of
# its median over 10 seeds) is wider than any bound the suite could hold.
WORKLOAD_SPECIFIC = {
    "lookup_p50_ns": {"unit": "ns", "better": "lower", "bound": 0.25},
    "lookup_p99_ns": {"unit": "ns", "better": "lower", "bound": 0.25},
    "range_p50_ns": {"unit": "ns", "better": "lower", "bound": 0.25},
    "range_items_per_us": {"unit": "items/us", "better": "higher",
                           "bound": 0.25},
}
# Operations that broke the map contract, over operations attempted: any
# value above 0 is a regression.
FAILED_SHARE = {"unit": "ratio", "better": "lower", "bound": 0.0}


class BenchError(Exception):
    pass


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the driver; returns the binary's path."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "cats_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            raise BenchError(f"build step {' '.join(cmd)} exited "
                             f"{done.returncode}")
    return out / "cats_bench"


def start(binary, workload, seed, seconds, trace, warmup=WARMUP_S,
          setups=SETUPS, trace_out=None):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--warmup={warmup}", f"--setups={setups}",
           f"--trace={1 if trace else 0}"]
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)


def finish(proc):
    """Waits for a started run and returns its JSON document."""
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{proc.args[1]}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{proc.args[1]}: exited {proc.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"{proc.args[1]}: unreadable output: {e}")


def run_one(binary, workload, seed, seconds, trace, **kw):
    return finish(start(binary, workload, seed, seconds, trace, **kw))


def declared(bench, trace):
    return bench["per_layer" if trace else "end_to_end"]


def check_declared(doc, metrics):
    """Raises unless every metric in `metrics` is in the run with its unit."""
    for m in metrics:
        got = doc["metrics"].get(m["name"])
        if got is None:
            raise BenchError(f"{doc['workload']}: metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            raise BenchError(f"{doc['workload']}: metric {m['name']} in "
                             f"{got['unit']}, declared {m['unit']}")


def correct(doc):
    return doc["failed"] == 0 and all(doc["checks"].values())


def print_metrics(doc):
    print(f"== {doc['workload']} seed={doc['seed']} trace={doc['trace']}: "
          f"{doc['attempted']} operations checked, {doc['failed']} failed, "
          f"checks {doc['checks']}")
    for name, m in doc["metrics"].items():
        n = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}{n}")


def results_dir():
    path = build_dir() / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def single(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    binary = build()
    out = results_dir()
    trace_out = out / f"trace-{args.workload}.json" if args.trace else None
    doc = run_one(binary, args.workload, args.seed, args.seconds, args.trace,
                  trace_out=trace_out)
    metrics = declared(bench, args.trace)
    check_declared(doc, metrics)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(doc, indent=1) + "\n")
    print_metrics(doc)
    print(json.dumps({
        "correct": correct(doc),
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": doc["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in metrics},
    }))


def suite(args, bench):
    binary = build()
    out = results_dir()
    e2e = {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
           for m in bench["end_to_end"]}
    e2e.update(WORKLOAD_SPECIFIC)
    e2e["failed_ops_share"] = FAILED_SHARE
    result = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
              "metrics": e2e, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        runs = []
        for i in range(args.runs):
            doc = run_one(binary, name, args.seed + i, args.seconds, False)
            check_declared(doc, bench["end_to_end"])
            runs.append(doc)
        traced = run_one(binary, name, args.seed, args.seconds, True,
                         trace_out=out / f"trace-{name}.json")
        check_declared(traced, bench["per_layer"])
        values = {}
        samples = {}
        for doc in runs:
            for metric, m in doc["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                if "samples" in m:
                    samples.setdefault(metric, []).append(m["samples"])
            values.setdefault("failed_ops_share", []).append(
                doc["failed"] / doc["attempted"])
        result["workloads"][name] = {
            "values": values, "samples": samples,
            "correct": all(correct(d) for d in runs + [traced]),
            "per_layer": {m["name"]: traced["metrics"][m["name"]]
                          for m in bench["per_layer"]},
        }
        print(f"== {name}: {args.runs} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}, {args.seconds} s each; "
              f"every check {'passed' if result['workloads'][name]['correct'] else 'FAILED'}")
        print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s}  unit")
        for metric, vals in values.items():
            q1, med, q3 = quartiles(vals)
            n = samples.get(metric)
            extra = f"  (n={min(n)}..{max(n)})" if n else ""
            unit = e2e[metric]["unit"] if metric in e2e else \
                runs[0]["metrics"][metric]["unit"]
            print(f"{metric:40s} {med:12.6g} {q1:12.6g} {q3:12.6g}  {unit}{extra}")
        print(f"-- per-layer, traced run (seed {args.seed})")
        for metric, m in result["workloads"][name]["per_layer"].items():
            print(f"{metric:40s} {m['value']:12.6g}  {m['unit']}")
        sys.stdout.flush()
    path = out / f"suite-seed{args.seed}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"results written to {path}")
    failed = [w for w, r in result["workloads"].items() if not r["correct"]]
    if failed:
        raise BenchError(f"checks failed on {failed}")


def smoke(args, bench):
    """Every workload briefly and at once: metrics present, nothing failed."""
    binary = Path(args.binary) if args.binary else build()
    procs = [start(binary, w["name"], 1, 0.2, True, warmup=0.05, setups=1)
             for w in bench["workloads"]]
    try:
        docs = [finish(p) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    for doc in docs:
        check_declared(doc, bench["end_to_end"] + bench["per_layer"])
        if not correct(doc):
            raise BenchError(f"{doc['workload']}: {doc['failed']} failed "
                             f"operations, checks {doc['checks']}")
        print(f"{doc['workload']}: {len(doc['metrics'])} metrics, "
              f"{doc['attempted']} operations checked, none failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", help="with --smoke: a built cats_bench")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.runs < 1:
        p.error("--seed must be >= 0, --seconds > 0 and --runs >= 1")
    try:
        bench = load_benchmark()
        if args.smoke:
            smoke(args, bench)
        elif args.workload:
            single(args, bench)
        else:
            suite(args, bench)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
