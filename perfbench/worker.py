"""One workload in one fresh interpreter.

Usage: worker.py WORKLOAD SEED MODE --t0 NS --workdir DIR [--seconds S] [--ops K]

MODE is one of
  setup  stop after set-up and report its time, its peak resident memory
         and a calibration time (calibrate.py) taken just after it;
  run    closed loop, one client: untraced ops back to back until their
         steps have taken S seconds, with a calibration sample between
         steps;
  trace  ops 0..K-1 untraced, then the same ops twice with the call tracer
         on, then the probes; report the per-layer metrics (see layers.py).

`--t0` is the parent's monotonic clock just before it started this
interpreter, so setup_s covers interpreter start, the imports, the
parameter and code build and the first validate_params (for cli-cold: a
fresh `import isoshare.cli`). Each step's time is normalized with the
calibration samples just before and just after it (Normalizer). The last
line of stdout is one JSON object.
"""

import argparse
import json
import os
import resource
import time

import calibrate
import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int, default=1)
    args = parser.parse_args()
    if args.mode == "run" and args.seconds is None:
        parser.error("run needs --seconds")
    env = dict(os.environ)
    if args.workload == workloads.CLI:
        import isoshare.cli  # noqa: F401  (the cold import is the set-up users pay)

        workload = workloads.CliWorkload(args.seed, args.workdir, env)
    else:
        workload = workloads.LibraryWorkload(args.workload, args.seed)
    setup = {
        "setup_s": (time.monotonic_ns() - args.t0) / 1e9,
        "setup_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    setup["calibration_ms"] = calibrate.calibration_ms(15)

    if args.mode == "setup":
        result = setup
    elif args.mode == "run":
        result = run(workload, args.seconds)
        result["setup"] = setup
    else:
        import layers

        result = layers.trace(workload, args.ops, env, args.workdir)
    print(json.dumps(result))


class Normalizer:
    """Step times scaled to the reference host speed (calibrate.py).

    Takes a calibration sample before the first step and after every step;
    a step's factor is REFERENCE_MS over the mean of the samples just
    before and just after it. The host's speed changes within seconds, so
    the samples must be that close to the step they scale.
    """

    def __init__(self):
        self.calibration = [calibrate.calibration_ms()]
        self.ms = {}
        self.raw_s = self.norm_s = 0.0

    def __call__(self, step, ms):
        self.calibration.append(calibrate.calibration_ms())
        factor = 2 * calibrate.REFERENCE_MS / (self.calibration[-2] + self.calibration[-1])
        self.ms.setdefault(step, []).append(ms * factor)
        self.raw_s += ms / 1e3
        self.norm_s += ms * factor / 1e3


def run(workload, seconds):
    """Ops until their steps' raw time reaches `seconds`; normalized step times in ms."""
    steps = Normalizer()
    spans = workloads.Spans(after=steps)
    failures = []
    ops = 0
    start = time.perf_counter()
    # The wall-clock cap ends a run whose ops fail early in their first
    # step, so that their timed steps would take long to add up.
    while steps.raw_s < seconds and time.perf_counter() - start < 2 * seconds:
        errors, _ = workloads.run_op(workload, ops, spans)
        if errors:
            failures.append(f"op {ops}: {'; '.join(errors)}")
        ops += 1
    cli = isinstance(workload, workloads.CliWorkload)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    return {
        "ops": ops,
        "attempted": ops,
        "failed": len(failures),
        "errors": failures[:5],
        "elapsed_s": steps.raw_s,
        "norm_elapsed_s": steps.norm_s,
        "calibration_ms": steps.calibration,
        "samples": steps.ms,
        "peak_rss_kb": usage.ru_maxrss,
    }


if __name__ == "__main__":
    main()
