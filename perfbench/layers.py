"""Per-layer metrics of one workload, from traced runs plus the probes.

The same K ops run three times: untraced; with every public function of
the isoshare modules wrapped (tracer.py), for the per-function metrics;
and with every module but `fields` wrapped, for the layer shares
(`share.*`), so the field arithmetic runs at full speed and its time
counts toward the layer that calls it. The traced ops must recover the
same chains as the untraced ones. Counts are per op (per recovery for the
search counters), so they repeat exactly for a seed; times are self time
(time in the function minus time in traced callees) unless named `.ms`,
which is inclusive time per call.
"""

import json
import os
import statistics

import probes
import tracer
import workloads

SEARCH = ("fields", "curves", "isogeny")
DECODE = ("codes", "linalg")
SHARE_MODULES = tuple(m for m in tracer.MODULES if m != "fields")

# (metric, phase, stats key, what) with phase None = all phases of the op.
# what: calls = calls per phase entry; self = self ms per phase entry;
# ms = inclusive ms per call; erased = mean unknowns per decode call.
TABLE = [
    ("fields.fp2_mul.calls", "recover", "fields.Fp2.__mul__", "calls"),
    ("fields.fp2_inv.calls", "recover", "fields.Fp2.inverse", "calls"),
    ("curves.point_add.calls", "recover", "curves.point_add", "calls"),
    ("curves.point_add.self_ms", "recover", "curves.point_add", "self"),
    ("curves.is_on_curve.calls", "recover", "curves.is_on_curve", "calls"),
    ("curves.scalar_mul.calls", "recover", "curves.scalar_mul", "calls"),
    ("curves.scalar_mul.self_ms", "recover", "curves.scalar_mul", "self"),
    ("isogeny.ell_torsion_subgroups.calls", "recover", "isogeny.ell_torsion_subgroups", "calls"),
    ("isogeny.ell_torsion_subgroups.self_ms", "recover", "isogeny.ell_torsion_subgroups", "self"),
    ("isogeny.velu_step.calls", "recover", "isogeny.velu_step", "calls"),
    ("isogeny.velu_step.self_ms", "recover", "isogeny.velu_step", "self"),
    ("isogeny.evaluate.calls", "recover", "isogeny.IsogenyStep.evaluate", "calls"),
    ("isogeny.evaluate.self_ms", "recover", "isogeny.IsogenyStep.evaluate", "self"),
    ("isogeny.isomorphism_scales.calls", "recover", "isogeny.isomorphism_scales", "calls"),
    ("isogeny.recover_isogeny.ms", None, "isogeny.recover_isogeny", "ms"),
    ("isogeny.random_walk.ms", None, "isogeny.random_walk", "ms"),
    ("codec.encode_point.ms", None, "codec.encode_point", "ms"),
    ("codec.decode_point.ms", None, "codec.decode_point", "ms"),
    ("codes.erasure_decode.gf2.ms", None, "codes.erasure_decode.gf2", "ms"),
    ("codes.erasure_decode.gf2.erased", None, "codes.erasure_decode.gf2", "erased"),
    ("codes.erasure_decode.gf2r.calls", None, "codes.erasure_decode.gf2r", "calls"),
    ("codes.contract_binary.calls", None, "codes.contract_binary", "calls"),
    ("codes.encode.ms", None, "codes.LinearCode.encode", "ms"),
    ("linalg.rref.calls", None, "linalg.rref", "calls"),
    ("linalg.rref.self_ms", None, "linalg.rref", "self"),
    ("linalg.solve.ms", None, "linalg.solve", "ms"),
    ("scheme.validate_params.ms", None, "scheme.validate_params", "ms"),
    ("scheme.share_isogeny_path.self_ms", "deal", "scheme.share_isogeny_path", "self"),
    ("scheme.recover_isogeny_path.self_ms", "recover", "scheme.recover_isogeny_path", "self"),
    ("scheme.burst_recover.calls", None, "scheme.burst_recover", "calls"),
]
UNITS = {"calls": "count", "self": "ms", "ms": "ms", "erased": "count"}


def _all_phases(phases):
    """Statistics of every step of the op together (phase "" is outside the op)."""
    merged = {}
    for name, stats in phases.items():
        if name:
            tracer.add_stats(merged, stats)
    return merged


def _module_self_ns(stats, modules):
    return sum(rec[2] for key, rec in stats.items() if key.split(".")[0] in modules)


def _distinct_j(curve_sets):
    """Mean number of distinct j-invariants among the curves of each entry."""
    from isoshare.curves import CurveSpec, j_invariant
    from isoshare.fields import Fp2

    counts = []
    for curves in curve_sets:
        js = {j_invariant(CurveSpec(Fp2(a0, a1, p), Fp2(b0, b1, p), p)).key()
              for p, a0, a1, b0, b1 in curves}
        counts.append(len(js))
    return statistics.mean(counts)


def derive(dump, ops):
    """Per-layer metrics from a tracer dump of `ops` traced ops."""
    phases = dump["phases"]
    every = _all_phases(phases)
    metrics = {}
    for name, phase, key, what in TABLE:
        stats = every if phase is None else phases[phase]
        entries = ops if phase is None else stats["@wall"][0]
        calls, incl, self_ns = stats.get(key, (0, 0, 0))
        if what == "calls":
            value = calls / entries
        elif what == "self":
            value = self_ns / 1e6 / entries
        elif what == "ms":
            value = incl / 1e6 / calls
        else:
            value = stats[key + ".erased"][0] / calls
        metrics[name] = (value, UNITS[what])
    distinct = _distinct_j(dump["curve_sets"]["recover"])
    metrics["isogeny.ell_torsion_subgroups.distinct_j"] = (distinct, "count")
    metrics["isogeny.torsion_calls_per_j"] = (
        metrics["isogeny.ell_torsion_subgroups.calls"][0] / distinct, "ratio")
    return metrics


def shares(dump):
    """Layer shares of the steps, from a run with `fields` left unwrapped."""
    phases = dump["phases"]

    def share(phase, modules):
        stats = phases[phase]
        return 100.0 * _module_self_ns(stats, modules) / stats["@wall"][1]

    reject = phases["reject"]
    return {
        "share.recover.search_pct": (share("recover", SEARCH), "%"),
        "share.recover.decode_pct": (share("recover", DECODE), "%"),
        "share.reject.decode_pct": (share("reject", DECODE), "%"),
        "share.reject.erasure_decode_pct": (
            100.0 * reject["codes.erasure_decode.gf2"][1] / reject["@wall"][1], "%"),
    }


def _traced_pass(workload, ops, modules, keys, errors, workdir):
    """Ops 0..ops-1 with `modules` traced; return the tracer dump and the spans."""
    label = "all" if modules == tracer.MODULES else "shares"
    if isinstance(workload, workloads.CliWorkload):
        workload.trace_dir = os.path.join(workdir, f"trace-{label}")
        workload.trace_modules = ",".join(modules)
        workload.dumps = []
        os.makedirs(workload.trace_dir)
        active = None
    else:
        active = tracer.Tracer(modules).install()
    spans = workloads.Spans(active)
    for i in range(ops):
        errs, key = workloads.run_op(workload, i, spans)
        if key != keys[i]:
            errs.append("traced op recovered another chain than the untraced op")
        errors += [f"traced op {i} ({label}): {'; '.join(errs)}"] if errs else []
    if active is not None:
        active.uninstall()
        return active.dump(), spans
    dump = {"phases": {}, "curve_sets": {}}
    for path in workload.dumps:
        with open(path) as fh:
            tracer.merge(dump, json.load(fh))
    return dump, spans


def trace(workload, ops, env, workdir):
    """Run ops 0..ops-1 untraced and traced; return per-layer metrics and checks."""
    plain, errors, keys = workloads.Spans(), [], []
    for i in range(ops):
        errs, key = workloads.run_op(workload, i, plain)
        errors += [f"op {i}: {'; '.join(errs)}"] if errs else []
        keys.append(key)
    dump, traced = _traced_pass(workload, ops, tracer.MODULES, keys, errors, workdir)
    metrics = derive(dump, ops)
    share_dump, _ = _traced_pass(workload, ops, SHARE_MODULES, keys, errors, workdir)
    metrics.update(shares(share_dump))

    base = "deal" if isinstance(workload, workloads.CliWorkload) else "recover"
    plain_ms = statistics.median(plain.ms[base])
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced.ms[base]) / plain_ms - 1), "%")
    metrics.update(probes.micro())
    cold = probes.cold_supersingular(env)
    metrics["curves.is_supersingular.cold_ms"] = (cold, "ms")
    metrics.update(probes.cli_self(env, workdir))

    verdicts = _verdicts(workload, metrics, env, workdir)
    return {
        "ops": ops,
        "attempted": 3 * ops,
        "failed": len(errors),
        "errors": errors[:5],
        "keys": keys,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "verdicts": verdicts,
    }


def _verdicts(workload, metrics, env, workdir):
    """Each workload's predicted layer shares, with the measured share either way."""
    def line(text, measured, ok):
        return f"{text}: measured {measured} -> {'confirmed' if ok else 'refuted'}"

    if isinstance(workload, workloads.CliWorkload):
        shares = probes.cold_check_share(env, workdir)
        return [line(f"cold check (validate_params) >= 70% of the {cmd} process wall",
                     f"{pct:.1f}%", pct >= 70) for cmd, pct in shares.items()]
    if workload.name == "search-deep":
        search = metrics["share.recover.search_pct"][0]
        decode = metrics["share.recover.decode_pct"][0]
        return [line("isogeny+curves+fields >= 90% of recovery", f"{search:.1f}%", search >= 90),
                line("codes+linalg <= 2% of recovery", f"{decode:.2f}%", decode <= 2)]
    decode = metrics["share.reject.decode_pct"][0]
    inclusive = metrics["share.reject.erasure_decode_pct"][0]
    return [line("codes+linalg >= 80% of reject", f"{decode:.1f}%", decode >= 80)
            + f" (erasure_decode inclusive: {inclusive:.1f}%)"]
