"""The benchmark's workloads: their parameters, the inputs each op gets
from the seed, what one op does, and how its output is checked.

Every workload runs p = 431, E0: y^2 = x^3 + x, ell = 3 and torsion order
N = 16. An op is one deal followed by recoveries from coalitions of its
shares, so each op starts from a fresh secret.

- search-deep: demo code [75,40] (BinaryExpandedCode(4, 6)), n = 3, t = 2,
  gamma = 25, e_iso = 6. Recovery enumerates all 972 walks, so nearly all
  of its time is the isogeny search; the erasure decode is about 1%.
- decode-wide: BinaryExpandedCode(5, 16) = [186,80], n = 31, t = 24,
  gamma = 6, e_iso = 1 (4 walks). Coalitions of t..n shares, sizes taken
  in turn, leave 0 to 42 bits erased; they are recovered at bit level (a GF(2) solve) and by
  burst recovery (a GF(32) solve). The ambiguous coalition has
  ceil(k/gamma) - 1 = 13 shares, so the decoder does most of the work.
- cli-cold: the README demo config (e_iso = 2) through
  `python -m isoshare.cli`, one fresh process per command, so every
  command pays interpreter start, the cold supersingularity check, the
  code build, parsing and file I/O.

In every workload the ambiguous coalition has ceil(k/gamma) - 1 shares:
fewer known bits than the code's dimension, so decoding must end in
NotEnoughShares.
"""

import itertools
import os
import random
import subprocess
import sys
import time

P = 431
ELL = 3
TORSION = 16
SECURITY_BITS = 8

LIBRARY = {
    "search-deep": dict(r=4, d=6, n=3, t=2, gamma=25, e_iso=6, rotate=True, burst=False),
    "decode-wide": dict(r=5, d=16, n=31, t=24, gamma=6, e_iso=1, rotate=False, burst=True),
}
CLI = "cli-cold"
NAMES = tuple(LIBRARY) + (CLI,)

DEMO_CONFIG = """\
p = 431
a = 1
b = 0
n = 3
t = 2
gamma = 25
lambda = 8
N = 16
ell_iso = 3
e_iso = 2
code.kind = binary-expanded-rs
code.r = 4
code.d = 6
seed = demo
"""
DEMO_N, DEMO_T = 3, 2


class LibraryWorkload:
    """Deal, recover and reject through the isoshare library in-process."""

    def __init__(self, name, seed):
        from isoshare.codes import BinaryExpandedCode
        from isoshare.curves import CurveSpec
        from isoshare.fields import fp2_from_int
        from isoshare.scheme import SchemeParams, validate_params

        spec = LIBRARY[name]
        self.name, self.seed, self.spec = name, seed, spec
        self.e0 = CurveSpec(fp2_from_int(1, P), fp2_from_int(0, P), P)
        code = BinaryExpandedCode(spec["r"], spec["d"])
        self.params = SchemeParams(
            n=spec["n"], t=spec["t"], gamma=spec["gamma"], curve=self.e0,
            torsion_order=TORSION, ell_iso=ELL, e_iso=spec["e_iso"], code=code,
            security_bits=SECURITY_BITS,
        )
        report = validate_params(self.params)
        if not report.ok:
            raise SystemExit(f"{name}: invalid parameters: {report.violations}")
        self.reject_size = -(-code.dimension // spec["gamma"]) - 1
        if spec["rotate"]:
            self.rotation = list(itertools.combinations(range(spec["n"]), spec["t"]))

    def inputs(self, i):
        """Walk seed, point seed, coalition and ambiguous coalition of op i."""
        n, t = self.spec["n"], self.spec["t"]
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        walk_seed, point_seed = rng.getrandbits(64), rng.getrandbits(64)
        if self.spec["rotate"]:
            coalition = self.rotation[(self.seed + i) % len(self.rotation)]
        else:
            # Sizes cycle through t..n, so every run sees the same mix of
            # erasure counts; the members are drawn from the seed.
            size = t + (self.seed + i) % (n - t + 1)
            coalition = sorted(rng.sample(range(n), size))
        reject = sorted(rng.sample(range(n), self.reject_size))
        return walk_seed, point_seed, coalition, reject

    def op(self, i, span):
        """Run op i; return (errors, recovered chain's sort_key)."""
        from isoshare.curves import random_point_of_order
        from isoshare.errors import NotEnoughShares
        from isoshare.isogeny import evaluate_chain, random_walk
        from isoshare.scheme import burst_recover, recover_isogeny_path, share_isogeny_path

        params, e0 = self.params, self.e0
        walk_seed, point_seed, coalition, reject = self.inputs(i)
        with span("deal"):
            secret = random_walk(e0, ELL, params.e_iso, walk_seed)
            point = random_point_of_order(e0, TORSION, point_seed)
            deal = share_isogeny_path(secret, point, params)
        shares = [deal.shares[j] for j in coalition]
        with span("recover"):
            result = recover_isogeny_path(shares, params, deal.e1)
        chain = result.chain
        errors = []
        if chain.codomain != deal.e1:
            errors.append("recovered codomain is not E1")
        if chain.degree != ELL ** params.e_iso:
            errors.append(f"recovered degree {chain.degree}")
        if result.point != point:
            errors.append("recovered point is not the dealt P")
        if evaluate_chain(chain, point) != evaluate_chain(secret, point):
            errors.append("recovered chain does not map P to I(P)")
        if self.spec["burst"]:
            with span("burst_recover"):
                alt = burst_recover(shares, params, deal.e1)
            if alt.chain.sort_key() != chain.sort_key():
                errors.append("burst and bit-level recovery disagree")
        with span("reject"):
            try:
                recover_isogeny_path([deal.shares[j] for j in reject], params, deal.e1)
                rejected = False
            except NotEnoughShares:
                rejected = True
        if not rejected:
            errors.append(f"{len(reject)}-share coalition was not rejected")
        return errors, repr(chain.sort_key())


class CliWorkload:
    """Deal, check, recover and reject through fresh `isoshare` processes.

    Once `trace_dir` is set, each command runs in cli_child.py with the
    call tracer on `trace_modules`, and the paths of the tracer dumps
    collect in `dumps`.
    """

    def __init__(self, seed, workdir, env):
        self.seed, self.env = seed, env
        self.trace_dir = None
        self.trace_modules = "all"
        self.config = os.path.join(workdir, "demo.cfg")
        self.out = os.path.join(workdir, "deal")
        with open(self.config, "w") as fh:
            fh.write(DEMO_CONFIG)
        self.rotation = list(itertools.combinations(range(DEMO_N), DEMO_T))
        self.dumps = []

    def run(self, phase, args):
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "isoshare.cli"] + args
        else:
            dump = os.path.join(self.trace_dir, f"{len(self.dumps)}.json")
            self.dumps.append(dump)
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
            argv = [sys.executable, child, dump, phase, self.trace_modules] + args
        return subprocess.run(argv, env=self.env, capture_output=True, text=True, timeout=120)

    def share(self, j):
        return os.path.join(self.out, f"share_{j}.isoshare")

    def op(self, i, span):
        """Run op i; return (errors, the recover command's output)."""
        share = self.share
        public = os.path.join(self.out, "public.isoshare")
        coalition = self.rotation[(self.seed + i) % len(self.rotation)]
        errors = []
        with span("deal"):
            deal = self.run("deal", ["deal", "-c", self.config, "-o", self.out,
                                     "--seed", f"{self.seed}-{i}"])
        if deal.returncode != 0 or f"dealt: {DEMO_N}" not in deal.stdout:
            return [f"deal exited {deal.returncode}: {deal.stderr.strip()}"], ""
        with span("check"):
            check = self.run("check", ["check", "-c", self.config])
        if check.returncode != 0 or "valid: yes" not in check.stdout.splitlines():
            errors.append(f"check exited {check.returncode} without 'valid: yes'")
        with span("recover"):
            rec = self.run("recover", ["recover", "-p", public] + [share(j) for j in coalition])
        printed = dict(line.split(": ", 1) for line in rec.stdout.splitlines() if ": " in line)
        with open(public) as fh:
            fields = dict(line.split(" ", 1) for line in fh.read().splitlines()[1:])
        if rec.returncode != 0:
            errors.append(f"recover exited {rec.returncode}: {rec.stderr.strip()}")
        elif (printed.get("codomain_a"), printed.get("codomain_b")) != (fields["e1_a"], fields["e1_b"]):
            errors.append("recover did not print the public E1")
        with span("reject"):
            rej = self.run("reject", ["recover", "-p", public, share(coalition[0])])
        if rej.returncode != 4:
            errors.append(f"one-share recover exited {rej.returncode}, expected 4")
        return errors, rec.stdout


def run_op(workload, i, spans):
    """Op i; an op that raises counts as failed, and the loop goes on."""
    try:
        return workload.op(i, spans)
    except Exception as ex:  # benchmark boundary: record the failure and continue
        return [f"{type(ex).__name__}: {ex}"], None


class Spans:
    """Times named steps of an op in ms.

    Each step is charged to a tracer phase if `tracer` is given, and
    `after(step, ms)` is called when it ends if `after` is given.
    """

    def __init__(self, tracer=None, after=None):
        self.ms = {}
        self.tracer = tracer
        self.after = after

    def __call__(self, name):
        return _Span(self, name)


class _Span:
    def __init__(self, spans, name):
        self.spans, self.name = spans, name
        self.phase = spans.tracer.phase(name) if spans.tracer else None

    def __enter__(self):
        if self.phase:
            self.phase.__enter__()
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        elapsed = (time.perf_counter() - self.start) * 1e3
        self.spans.ms.setdefault(self.name, []).append(elapsed)
        if self.phase:
            self.phase.__exit__(*exc)
        if self.spans.after:
            self.spans.after(self.name, elapsed)
        return False
