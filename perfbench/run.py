"""isoshare benchmark: run one workload, or all of them, and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload search-deep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, trace 0

Each workload runs in fresh interpreters with `src/` on PYTHONPATH, so no
lazy table or set-up cost leaks from one workload into another. With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, from an
untraced closed loop of one client that runs ops until their steps have
taken `--seconds` (default: `run_seconds` of BENCHMARK.json), with every
timing normalized to a reference host speed (calibrate.py); with
`--trace 1` they are the per-layer ones, from a fixed number of traced
ops (layers.py) plus seeded probes, and `--seconds` does not apply. The
last line of stdout is one JSON object; the lines before it are a
human-readable report. The exit code is 1 if any op failed or gave a
wrong result, and 2 if the isoshare sources are missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

# Fresh set-ups per run; setup_s is their median.
SETUP_RUNS = {"search-deep": 5, "decode-wide": 5, "cli-cold": 15}
# Ops per traced run: about ten seconds of traced work each.
TRACE_OPS = {"search-deep": 2, "decode-wide": 4, "cli-cold": 2}
WORKER_TIMEOUT_S = 170


def tail(values):
    """Highest percentile with at least ten samples above it, and its rank.

    With fewer than 21 samples no percentile at or above the median has
    ten beyond it, and the median is reported.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def worker(name, seed, mode, env, workdir, **opts):
    extra = [f"--{k}={v}" for k, v in opts.items()]
    argv = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), mode,
            "--workdir", workdir] + extra
    argv += ["--t0", str(time.monotonic_ns())]
    done = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name}: worker {mode} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(result, setups):
    """Gated metrics, and reported-only ones (tails, single-workload steps)."""
    samples = result["samples"]
    n = result["ops"]
    setup_s = [s["setup_s"] * calibrate.REFERENCE_MS / s["calibration_ms"] for s in setups]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", len(setups)),
        "ops_per_s": (n / result["norm_elapsed_s"], "1/s", n),
        "setup_rss_mb": (statistics.median(s["setup_rss_kb"] for s in setups) / 1024, "MB",
                         len(setups)),
    }
    info = {}
    for step in ("deal", "recover", "reject", "burst_recover", "check"):
        if step in samples:
            info[f"{step}_ms.p50"] = (statistics.median(samples[step]), "ms", n)
    for step in ("deal", "recover", "burst_recover"):
        if step in samples:
            value, pct = tail(samples[step])
            info[f"{step}_ms.tail"] = (value, "ms", f"{n}, p{pct:.0f}")
    info["peak_rss_mb"] = (result["peak_rss_kb"] / 1024, "MB", 1)
    # The host's speed during the run, and the figures before normalization.
    info["calibration_ms"] = (statistics.median(result["calibration_ms"]), "ms",
                              len(result["calibration_ms"]))
    info["setup_s.unnormalized"] = (statistics.median(s["setup_s"] for s in setups), "s",
                                    len(setups))
    info["ops_per_s.unnormalized"] = (n / result["elapsed_s"], "1/s", n)
    return metrics, info


def run_workload(name, seed, seconds, trace, env, scratch):
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    try:
        if trace:
            result = worker(name, seed, "trace", env, workdir, ops=TRACE_OPS[name])
            metrics = {k: (v["value"], v["unit"], result["ops"])
                       for k, v in result["metrics"].items()}
            return result, metrics, {}, result["verdicts"]
        setups = [worker(name, seed, "setup", env, workdir)
                  for _ in range(SETUP_RUNS[name] - 1)]
        result = worker(name, seed, "run", env, workdir, seconds=seconds)
        setups.append(result["setup"])
        metrics, info = end_to_end(result, setups)
        return result, metrics, info, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def header(seed):
    commit = "n/a"
    if os.path.isdir(".git"):
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return (f"# isoshare benchmark: python {sys.version.split()[0]}, commit {commit}, "
            f"nproc {os.cpu_count()}, seed {seed}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "isoshare", "__init__.py")):
        sys.stderr.write("run from the repository root: src/isoshare is missing\n")
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    # One CPU for this process and every process it starts, so that the
    # calibration samples time the CPU the measured code runs on: the
    # vCPUs of a shared host differ in speed, and which is faster changes
    # from second to second. The workloads are single-threaded.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(src, "isoshare"), HERE],
                   env=env, check=True)
    os.makedirs(".perfbench-work", exist_ok=True)
    scratch = tempfile.mkdtemp(dir=".perfbench-work")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    print(header(args.seed))
    outputs = {}
    try:
        for name in names:
            result, metrics, info, verdicts = run_workload(
                name, args.seed, seconds, args.trace, env, scratch)
            missing = [m["name"] for m in wanted
                       if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]]
            if missing:
                raise SystemExit(f"{name}: metrics missing or in another unit: {missing}")
            attempted = result["attempted"]
            print(f"## {name}: {attempted} ops attempted, {result['failed']} failed, "
                  f"error_rate {result['failed'] / attempted:.4f}")
            for error in result["errors"]:
                print(f"   error: {error}")
            for metric, (value, unit, count) in {**metrics, **info}.items():
                print(f"   {metric:44s} {value:14.6g} {unit:6s} n={count}")
            for verdict in verdicts:
                print(f"   prediction: {verdict}")
            if args.trace:
                digest = hashlib.sha256(json.dumps(result["keys"]).encode()).hexdigest()
                print(f"   recovered chains sha256 {digest}")
            outputs[name] = {
                "correct": result["failed"] == 0,
                "attempted": attempted,
                "failed": result["failed"],
                "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                            for m in wanted},
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not os.listdir(".perfbench-work"):
            os.rmdir(".perfbench-work")
    print(json.dumps(outputs[names[0]] if len(names) == 1 else outputs))
    return 0 if all(o["correct"] for o in outputs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
