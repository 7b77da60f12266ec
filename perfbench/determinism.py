"""Check that traced runs are deterministic per seed.

Usage, from the repository root:

    python3 perfbench/determinism.py [--seed N] [--workload NAME ...]

For each workload it makes two traced runs (run.py --trace 1) with the
same seed and one with the next seed. The two same-seed runs must agree on
every count metric and on the recovered chains; the other seed must give
other recovered chains, i.e. other inputs. Exit code 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def traced(name, seed):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if "recovered chains sha256" in line)
    metrics = json.loads(lines[-1])["metrics"]
    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")}
    return counts, digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(workloads.NAMES))
    args = parser.parse_args()
    ok = True
    for name in args.workload:
        first, again, other = (traced(name, s) for s in (args.seed, args.seed, args.seed + 1))
        differing = sorted(k for k in first[0] if first[0][k] != again[0][k])
        checks = {
            f"counts repeat exactly ({len(first[0])} metrics)": not differing,
            "recovered chains repeat": first[1] == again[1],
            f"seed {args.seed + 1} gives other inputs": first[1] != other[1],
        }
        for what, passed in checks.items():
            print(f"{name}: {what}: {'yes' if passed else 'NO'}")
        if differing:
            print(f"{name}: differing counts: {differing}")
        ok = ok and all(checks.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
