"""Seeded micro-benchmarks of single layers, on fixed inputs.

They reproduce the per-operation table of the ROADMAP Baseline and run
the same way on every workload. Each reports the median over batches of
the time per call. `python probes.py cold` prints the in-process time of
the first `is_supersingular(E0)` in a fresh interpreter, in ms.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
from workloads import DEMO_CONFIG, P

clock = time.perf_counter_ns
BATCHES = 7


def _per_call(run, reps, scale):
    """Median over batches of run(reps)'s time per call, in ns / scale."""
    samples = []
    for _ in range(BATCHES):
        start = clock()
        run(reps)
        samples.append((clock() - start) / reps / scale)
    return statistics.median(samples)


def micro():
    from isoshare.codes import BinaryExpandedCode, contract_binary
    from isoshare.curves import CurveSpec, point_add, random_point, scalar_mul
    from isoshare.fields import GF2, Fp2, fp2_from_int, fp2_sqrt
    from isoshare.isogeny import ell_torsion_subgroups, velu_step

    rng = random.Random(20241128)
    e0 = CurveSpec(fp2_from_int(1, P), fp2_from_int(0, P), P)
    x = Fp2(rng.randrange(1, P), rng.randrange(1, P), P)
    y = Fp2(rng.randrange(1, P), rng.randrange(1, P), P)
    squares = [Fp2(rng.randrange(P), rng.randrange(P), P) ** 2 for _ in range(64)]
    pt, qt = random_point(e0, rng), random_point(e0, rng)
    kernel = ell_torsion_subgroups(e0, 3)[0]
    step = velu_step(e0, kernel, 3)
    code = BinaryExpandedCode(4, 6)
    cw = code.encode([GF2(rng.getrandbits(1)) for _ in range(code.dimension)])
    # Share 2 of the demo deal erased: the 25 parity bits, as in the ROADMAP
    # Baseline. Erasing share 0 or 1 (message bits) costs about 5x more.
    word = list(cw[:50]) + [None] * 25

    def mul(n):
        for _ in range(n):
            x * y

    def inv(n):
        for _ in range(n):
            x.inverse()

    def sqrt(n):
        for i in range(n):
            fp2_sqrt(squares[i & 63])

    def add(n):
        for _ in range(n):
            point_add(e0, pt, qt)

    def smul(n):
        for _ in range(n):
            scalar_mul(e0, 431, pt)

    def torsion(n):
        for _ in range(n):
            ell_torsion_subgroups(e0, 3)

    def velu(n):
        for _ in range(n):
            velu_step(e0, kernel, 3)

    def evaluate(n):
        for _ in range(n):
            step.evaluate(pt)

    def build(r, d):
        def run(n):
            for _ in range(n):
                BinaryExpandedCode(r, d)
        return run

    def bit_decode(n):
        for _ in range(n):
            code.erasure_decode(word)

    def symbol_decode(n):
        for _ in range(n):
            code.base.erasure_decode(contract_binary(code.base, word))

    return {
        "fields.fp2_mul_ns": (_per_call(mul, 4000, 1), "ns"),
        "fields.fp2_inv_ns": (_per_call(inv, 2000, 1), "ns"),
        "fields.fp2_sqrt_us": (_per_call(sqrt, 256, 1e3), "us"),
        "curves.point_add_us": (_per_call(add, 200, 1e3), "us"),
        "curves.scalar_mul_431_us": (_per_call(smul, 10, 1e3), "us"),
        "isogeny.torsion_subgroups_ms": (_per_call(torsion, 5, 1e6), "ms"),
        "isogeny.velu_step_us": (_per_call(velu, 50, 1e3), "us"),
        "isogeny.evaluate_us": (_per_call(evaluate, 100, 1e3), "us"),
        "codes.build_4_6_ms": (_per_call(build(4, 6), 1, 1e6), "ms"),
        "codes.build_5_16_ms": (_per_call(build(5, 16), 1, 1e6), "ms"),
        "codes.decode_75_40_bit_ms": (_per_call(bit_decode, 5, 1e6), "ms"),
        "codes.decode_75_40_symbol_ms": (_per_call(symbol_decode, 20, 1e6), "ms"),
    }


def cold_supersingular(env, runs=3):
    """First is_supersingular(E0) in a fresh interpreter, in ms; median of `runs`."""
    samples = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "cold"], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def _cli_commands(tmp, seed):
    """The demo config in `tmp`, and the deal, check and recover command lines."""
    config, out = os.path.join(tmp, "demo.cfg"), os.path.join(tmp, "deal")
    with open(config, "w") as fh:
        fh.write(DEMO_CONFIG)
    return {
        "deal": ["deal", "-c", config, "-o", out, "--seed", seed],
        "check": ["check", "-c", config],
        "recover": ["recover", "-p", os.path.join(out, "public.isoshare"),
                    os.path.join(out, "share_0.isoshare"),
                    os.path.join(out, "share_2.isoshare")],
    }


def _traced_command(env, tmp, name, args, modules):
    """Run one CLI command under the tracer; its wall ms and phase statistics."""
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
    dump = os.path.join(tmp, f"{name}.json")
    start = clock()
    subprocess.run([sys.executable, child, dump, name, modules] + args, env=env,
                   capture_output=True, timeout=120, check=True)
    wall_ms = (clock() - start) / 1e6
    with open(dump) as fh:
        return wall_ms, json.load(fh)["phases"][name]


def cli_self(env, scratch):
    """cli module self time of deal, check and recover on the demo config.

    Each command runs in a fresh process with the tracer on every module
    except `fields`: the cli module's self time does not depend on it, and
    leaving the field operators unwrapped keeps the probe short.
    """
    modules = ",".join(m for m in tracer.MODULES if m != "fields")
    result = {}
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, args in _cli_commands(tmp, "probe").items():
            _, stats = _traced_command(env, tmp, name, args, modules)
            self_ns = sum(rec[2] for key, rec in stats.items() if key.startswith("cli."))
            result[f"cli.cmd_{name}.self_ms"] = (self_ns / 1e6, "ms")
    return result


def cold_check_share(env, scratch):
    """Share of the deal and check process wall time spent in validate_params.

    Only `scheme` is traced, so the cold is_supersingular inside
    validate_params runs at full speed, in the same process the share is
    taken of.
    """
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        commands = _cli_commands(tmp, "probe")
        shares = {}
        for name in ("deal", "check"):
            wall_ms, stats = _traced_command(env, tmp, name, commands[name], "scheme")
            shares[name] = 100.0 * stats["scheme.validate_params"][1] / 1e6 / wall_ms
        return shares


if __name__ == "__main__" and sys.argv[1:] == ["cold"]:
    from isoshare.curves import CurveSpec, is_supersingular
    from isoshare.fields import fp2_from_int

    e0 = CurveSpec(fp2_from_int(1, P), fp2_from_int(0, P), P)
    start = clock()
    is_supersingular(e0)
    print((clock() - start) / 1e6)
