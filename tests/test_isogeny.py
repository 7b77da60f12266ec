import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cube_table,
    enumerated_meet,
    exhaustive_walks,
    fp2_scales,
    iso_key,
    smallest_matching_walk,
    torsion_subgroups,
    translation_codomain,
    translation_image,
)

from isoshare import isogeny
from isoshare.codec import encode_point
from isoshare.curves import (
    CurvePoint,
    CurveSpec,
    is_on_curve,
    j_invariant,
    point_add,
    point_order,
    random_point,
    random_point_of_order,
    scalar_mul,
)
from isoshare.errors import (
    BadKernel,
    NoIsogenyFound,
    NoSuchOrder,
    NotOnCurve,
    SingularCurve,
)
from isoshare.fields import Fp2, fp2_from_int
from isoshare.isogeny import (
    IsogenyChain,
    IsogenyStep,
    _cube_roots,
    _Edge,
    _invariant,
    _meet,
    _multiples,
    _torsion_cache,
    _scales,
    _walks,
    ell_torsion_subgroups,
    evaluate_chain,
    random_walk,
    recover_isogeny,
    velu_step,
)


# p = 10,079 has about 840 supersingular j-invariants, so the j-invariants
# the walks out of a target reach at each depth are a small share of them
# and prune most children, where at p = 431 (37) they soon hold them all.
P_LARGE = 10079


@pytest.fixture(scope="module")
def e0_large():
    return CurveSpec(fp2_from_int(1, P_LARGE), fp2_from_int(0, P_LARGE), P_LARGE)


def _some_kernel(e, ell, seed="k"):
    gen = random_point_of_order(e, ell, seed)
    return gen


def test_step_kills_exactly_its_kernel(e0):
    kernel = _some_kernel(e0, 3)
    step = velu_step(e0, kernel, 3)
    assert step.evaluate(CurvePoint()) == CurvePoint()
    assert step.evaluate(kernel) == CurvePoint()
    assert step.evaluate(scalar_mul(e0, 2, kernel)) == CurvePoint()
    other = random_point_of_order(e0, 16, "q")
    assert not step.evaluate(other).is_infinity


def test_step_images_lie_on_codomain(e0):
    for ell, seed in ((2, "a"), (3, "b")):
        kernel = _some_kernel(e0, ell, seed)
        step = velu_step(e0, kernel, ell)
        for order, pseed in ((16, "p1"), (27, "p2")):
            q = random_point_of_order(e0, order, pseed)
            assert is_on_curve(step.codomain, step.evaluate(q))


def test_step_is_a_homomorphism(e0):
    kernel = _some_kernel(e0, 3)
    step = velu_step(e0, kernel, 3)
    q1 = random_point_of_order(e0, 16, "h1")
    q2 = random_point_of_order(e0, 27, "h2")
    lhs = step.evaluate(point_add(e0, q1, q2))
    rhs = point_add(step.codomain, step.evaluate(q1), step.evaluate(q2))
    assert lhs == rhs


def test_step_preserves_coprime_order(e0):
    kernel = _some_kernel(e0, 3)
    step = velu_step(e0, kernel, 3)
    q = random_point_of_order(e0, 16, "o")
    assert point_order(step.codomain, step.evaluate(q)) == 16


def test_kernel_order_validated(e0):
    q16 = random_point_of_order(e0, 16, "bad")
    with pytest.raises(BadKernel):
        velu_step(e0, q16, 3)
    with pytest.raises(BadKernel):
        velu_step(e0, CurvePoint(), 3)
    q3 = _some_kernel(e0, 3)
    with pytest.raises(BadKernel):
        velu_step(e0, q3, 4)  # composite degree


def test_kernel_order_check_is_exact(e0):
    # Every order d | p+1 but 1 and ell is refused, among them 6, 9 and 27
    # for ell = 3 and 4 for ell = 2 at p = 431, and 10, 14 and 35 for
    # ell = 5 and 7 at p = 419; every generator the search uses is accepted.
    e419 = CurveSpec(fp2_from_int(1, 419), fp2_from_int(0, 419), 419)
    for curve, ells in ((e0, (2, 3)), (e419, (5, 7))):
        n = curve.p + 1
        for ell in ells:
            for d in range(2, n + 1):
                if n % d == 0 and d != ell:
                    with pytest.raises(BadKernel):
                        velu_step(curve, random_point_of_order(curve, d, f"ord-{d}"), ell)
            for gen in ell_torsion_subgroups(curve, ell):
                assert velu_step(curve, gen, ell).evaluate(gen) == CurvePoint()


@pytest.mark.parametrize(
    "p, ell",
    [(419, 2), (419, 3), (419, 5), (419, 7), (431, 2), (431, 3), (10079, 5), (10079, 7)],
)
def test_pair_sums_match_the_translation_sum(p, ell):
    # The steps sum one point of each pair {Q, -Q} in Velu's rational form;
    # the translation sum over all ell-1 kernel points is the reference.
    start = CurveSpec(fp2_from_int(1, p), fp2_from_int(0, p), p)
    u, v = Fp2(5, 7, p), Fp2(3, 11, p)
    for curve in (start, random_walk(start, ell, 2, f"pairs-{ell}").codomain):
        gens = ell_torsion_subgroups(curve, ell)
        points = [random_point(curve, random.Random(f"pairs-{i}")) for i in range(8)]
        for gen in gens:
            by_additions = [gen]
            for _ in range(ell - 2):
                by_additions.append(point_add(curve, by_additions[-1], gen))
            assert _multiples(curve, gen.xy, ell) == [q.xy for q in by_additions]
            step = velu_step(curve, gen, ell)
            # Rescaling composes: u then v is u * v.
            twice, once = step.with_scale(u).with_scale(v), step.with_scale(u * v)
            assert (twice.scale, twice.codomain) == (once.scale, once.codomain)
            for scaled in (step, step.with_scale(u), twice):
                assert scaled.codomain == translation_codomain(scaled)
                for q in scaled.kernel_points:
                    assert scaled.evaluate(q) == CurvePoint()
                for pt in points + gens:
                    assert scaled.evaluate(pt) == translation_image(scaled, pt), (gen, pt)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BAD_KERNEL_SCRIPT = """
import random
from isoshare.curves import CurveSpec, random_point
from isoshare.errors import BadKernel
from isoshare.fields import fp2_from_int
from isoshare.isogeny import velu_step
p = 2**31 - 1
e = CurveSpec(fp2_from_int(1, p), fp2_from_int(0, p), p)
try:
    velu_step(e, random_point(e, random.Random(1)), 3)
except BadKernel:
    print("BadKernel")
"""


def test_bad_kernel_refused_in_bounded_time():
    # A random point of y^2 = x^3 + x over p = 2^31 - 1 has an order near
    # 2^31, so listing <K> until it returns to O would not end in time.
    proc = subprocess.run(
        [sys.executable, "-c", BAD_KERNEL_SCRIPT],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.stdout.split() == ["BadKernel"], proc.stderr


# Every public entry point that takes a point, given the point (1, 1), which
# is not on E0 (1 != 1 + 1), and the error it must raise.  `step` is a
# 3-isogeny out of E0 and `good` a point of E0.  The empty chain and e = 0
# leave no inner call that could refuse the point in the entry's place.
BOUNDARY_CHECKS = {
    "point_add": (lambda e0, bad, good, step: point_add(e0, good, bad), NotOnCurve),
    "scalar_mul": (lambda e0, bad, good, step: scalar_mul(e0, 3, bad), NotOnCurve),
    "point_order": (lambda e0, bad, good, step: point_order(e0, bad), NotOnCurve),
    "IsogenyStep-kernel": (
        lambda e0, bad, good, step: IsogenyStep(e0, bad, 3), BadKernel),
    # (1, 0) doubles to O by the chord-and-tangent formulas, so only the
    # curve-equation check refuses it as a kernel of degree 2.
    "IsogenyStep-kernel-y0": (
        lambda e0, bad, good, step: IsogenyStep(
            e0, CurvePoint(bad.x, fp2_from_int(0, e0.p)), 2),
        BadKernel),
    "IsogenyStep.evaluate": (
        lambda e0, bad, good, step: step.evaluate(bad), NotOnCurve),
    "evaluate_chain": (
        lambda e0, bad, good, step: evaluate_chain(IsogenyChain(e0), bad), NotOnCurve),
    "recover_isogeny-point": (
        lambda e0, bad, good, step: recover_isogeny(e0, e0, bad, good, 3, 0), NotOnCurve),
    "recover_isogeny-image": (
        lambda e0, bad, good, step: recover_isogeny(e0, e0, good, bad, 3, 0), NotOnCurve),
    "encode_point": (lambda e0, bad, good, step: encode_point(e0, bad, 64), NotOnCurve),
}


@pytest.mark.parametrize("entry", list(BOUNDARY_CHECKS))
def test_public_entry_points_refuse_a_foreign_point(e0, entry):
    call, error = BOUNDARY_CHECKS[entry]
    bad = CurvePoint(fp2_from_int(1, e0.p), fp2_from_int(1, e0.p))
    assert not is_on_curve(e0, bad)
    good = random_point_of_order(e0, 16, "boundary")
    step = velu_step(e0, _some_kernel(e0, 3), 3)
    with pytest.raises(error):
        call(e0, bad, good, step)


def test_empty_chain_is_identity(e0):
    chain = IsogenyChain(e0)
    assert chain.degree == 1
    assert chain.codomain == e0
    q = random_point_of_order(e0, 16, "id")
    assert evaluate_chain(chain, q) == q


def test_chain_matches_manual_composition(e0):
    walk = random_walk(e0, 3, 2, "compose")
    q = random_point_of_order(e0, 16, "cq")
    manual = walk.steps[1].evaluate(walk.steps[0].evaluate(q))
    assert evaluate_chain(walk, q) == manual


def test_torsion_subgroup_enumeration(e0):
    for ell in (2, 3):
        gens = ell_torsion_subgroups(e0, ell)
        assert len(gens) == ell + 1
        spans = [frozenset(scalar_mul(e0, i, g) for i in range(ell)) for g in gens]
        assert len(set(spans)) == ell + 1
        for g in gens:
            assert point_order(e0, g) == ell
    # 5 does not divide p+1 = 432; 4 divides it but is not prime.
    for ell in (5, 4):
        with pytest.raises(NoSuchOrder):
            ell_torsion_subgroups(e0, ell)


def _one_model_per_j(e0, ell, depth):
    """First model of each j-invariant that ell-walks of length <= depth reach."""
    models = {j_invariant(e0).key(): e0}
    frontier = [e0]
    for _ in range(depth):
        reached = []
        for e in frontier:
            for kernel in ell_torsion_subgroups(e, ell):
                codomain = velu_step(e, kernel, ell).codomain
                if models.setdefault(j_invariant(codomain).key(), codomain) is codomain:
                    reached.append(codomain)
        frontier = reached
    return models


def _scaled(e, u):
    u2 = u * u
    return CurveSpec(u2 * u2 * e.a, u2 * u2 * u2 * e.b, e.p)


def test_transported_torsion_matches_sampling(e0):
    models = _one_model_per_j(e0, 3, 6)
    p = e0.p
    # p = 431 has 37 supersingular j-invariants; 3-walks reach them all.
    assert len(models) == 37
    assert fp2_from_int(0, p).key() in models
    assert fp2_from_int(1728, p).key() in models
    scales = [Fp2(1, 1, p), Fp2(5, 7, p), Fp2(2, 0, p), Fp2(0, 3, p)]
    for ell in (2, 3):
        for rep in models.values():
            for u in scales:
                model = _scaled(rep, u)
                assert fp2_scales(rep, model)
                _torsion_cache.clear()
                sampled = ell_torsion_subgroups(model, ell)
                _torsion_cache.clear()
                ell_torsion_subgroups(rep, ell)
                transported = ell_torsion_subgroups(model, ell)
                assert _torsion_cache[(p, ell, j_invariant(model).key())][0].model is rep
                assert transported == sampled, (ell, model)
            assert ell_torsion_subgroups(rep, ell) == torsion_subgroups(rep, ell)


def test_twist_of_cached_j_still_refused(e0):
    p = e0.p
    twist = CurveSpec(Fp2(2, 1, p), fp2_from_int(0, p), p)
    assert j_invariant(twist) == j_invariant(e0)
    assert fp2_scales(e0, twist) == []
    _torsion_cache.clear()
    ell_torsion_subgroups(e0, 3)
    with pytest.raises(NoSuchOrder):
        ell_torsion_subgroups(twist, 3)


def test_chain_checks_each_link(e0):
    step = velu_step(e0, _some_kernel(e0, 3), 3)
    chain = IsogenyChain(e0, [step])
    assert chain.steps == (step,) and chain.codomain == step.codomain
    # A broken link involves no point, so it is not NotOnCurve.
    with pytest.raises(ValueError) as refused:
        IsogenyChain(e0, [step, step])
    assert not isinstance(refused.value, NotOnCurve)


def test_random_walk_shape_and_determinism(e0):
    assert len(random_walk(e0, 3, 0, "z")) == 0
    with pytest.raises(ValueError):
        random_walk(e0, 3, -2, "s")
    walk = random_walk(e0, 3, 3, "w")
    assert walk.degree == 27
    assert len(walk.steps) == 3
    again = random_walk(e0, 3, 3, "w")
    assert walk.sort_key() == again.sort_key()
    keys = {random_walk(e0, 3, 3, f"w{i}").sort_key() for i in range(10)}
    assert len(keys) > 1


def test_walk_never_backtracks(e0):
    # If a step were followed by its dual, the composite would be
    # multiplication by ell and would kill every ell-torsion subgroup of the
    # first domain.  A genuine two-step walk kills exactly the first kernel.
    for ell, seed in ((2, "nb2"), (3, "nb3")):
        for trial in range(5):
            walk = random_walk(e0, ell, 4, f"{seed}-{trial}")
            for first, second in zip(walk.steps, walk.steps[1:]):
                killed = [
                    g
                    for g in ell_torsion_subgroups(first.domain, ell)
                    if second.evaluate(first.evaluate(g)).is_infinity
                ]
                assert len(killed) == 1
                assert killed[0] in first.kernel_points or any(
                    q == killed[0] for q in first.kernel_points
                )


def test_isomorphism_scales_roundtrip(e0):
    walk = random_walk(e0, 3, 1, "iso")
    e1 = walk.codomain
    scales = fp2_scales(e1, e1)
    assert scales, "identity isomorphism must be found"
    one = [u for u in scales if u.c0 == 1 and u.c1 == 0]
    assert one
    assert fp2_scales(e0, e0)  # j = 1728 branch


def test_isomorphism_scales_j0():
    p = 431
    e = CurveSpec(fp2_from_int(0, p), fp2_from_int(1, p), p)
    scales = fp2_scales(e, e)
    # The automorphisms of y^2 = x^3 + 1 are the six u with u^6 = 1.
    assert len(scales) == 6
    assert scales == sorted(scales, key=Fp2.key)
    assert all(u**6 == fp2_from_int(1, p) for u in scales)
    u = Fp2(5, 7, p)
    twisted = CurveSpec(fp2_from_int(0, p), u**6, p)
    assert u in fp2_scales(e, twisted)


@pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
def test_isomorphism_scales_match_brute_force(p):
    """Against every u in GF(p^2)*, from a generic, a j = 1728 and (p > 3;
    at p = 3 every a = 0 model is singular) a j = 0 model onto all their
    models (c^2 a, c^3 b), copies and quadratic twists, and (c a, c b),
    which holds the quartic and sextic twists and other j-invariants."""
    units = [Fp2(c0, c1, p) for c0 in range(p) for c1 in range(p) if c0 or c1]
    zero, one = fp2_from_int(0, p), fp2_from_int(1, p)
    models = [CurveSpec(Fp2(1, 1, p), one, p), CurveSpec(one, zero, p)]
    if p > 3:
        models.append(CurveSpec(zero, one, p))
        assert [m.j for m in models[1:]] == [fp2_from_int(1728, p), zero]
        assert models[0].j not in (zero, fp2_from_int(1728, p))
    targets = {}
    for m in models:
        for c in units:
            for a, b in ((c * c * m.a, c * c * c * m.b), (c * m.a, c * m.b)):
                try:
                    target = CurveSpec(a, b, p)
                except SingularCurve:
                    continue
                targets[target.key()] = target
    for src in models:
        brute: dict[tuple, list] = {}
        for u in units:
            u2 = u * u
            image = (p, (u2 * u2 * src.a).key(), (u2 * u2 * u2 * src.b).key())
            brute.setdefault(image, []).append(u.key())
        found = twists = 0
        for key, dst in targets.items():
            scales = [u.key() for u in fp2_scales(src, dst)]
            assert scales == sorted(brute.get(key, [])), (src, dst)
            found += bool(scales)
            twists += not scales and dst.j == src.j
        assert found and twists, src


# p = 3: cubing is a bijection; 19 and 71: the 3-Sylow subgroup of
# GF(p^2)* has order 9; 23 = 11 (mod 12): it has order 3.
@pytest.mark.parametrize("p", [3, 19, 23, 71])
def test_cube_roots_match_brute_force(p):
    table = cube_table(p)
    for c0 in range(p):
        for c1 in range(p):
            c = Fp2(c0, c1, p)
            assert _cube_roots(c.key(), p) == [v.key() for v in table.get(c.key(), [])], c


def test_nonsupersingular_curve_refused_in_bounded_time():
    p = 431
    ordinary = CurveSpec(fp2_from_int(1, p), Fp2(0, 1, p), p)
    with pytest.raises(NoSuchOrder):
        random_walk(ordinary, 3, 2, "walk")
    # Its cofactored points may have orders with primes other than 3, so
    # stripping factors of 3 must stop instead of spinning.
    with pytest.raises(NoSuchOrder):
        ell_torsion_subgroups(ordinary, 3)


def test_recovery_refuses_a_nonsupersingular_start(e0):
    # The search's shortcut for a target whose E[ell] is not rational holds
    # only for a supersingular start and an ell | p+1, so any other start
    # or ell is refused first, here with a target that has no rational
    # E[3] either.
    p = e0.p
    ordinary = CurveSpec(fp2_from_int(1, p), Fp2(0, 1, p), p)
    pt = random_point(ordinary, random.Random(1))
    start = time.perf_counter()
    for e in (0, 2, 6):
        with pytest.raises(NoSuchOrder):
            recover_isogeny(ordinary, ordinary, pt, pt, 3, e)
    assert time.perf_counter() - start < 1.0
    q = random_point_of_order(e0, 16, "r0")
    with pytest.raises(NoSuchOrder):
        recover_isogeny(e0, e0, q, q, 5, 2)


def test_recover_identity_chain(e0):
    q = random_point_of_order(e0, 16, "r0")
    chain = recover_isogeny(e0, e0, q, q, 3, 0)
    assert len(chain) == 0
    with pytest.raises(NoIsogenyFound):
        recover_isogeny(e0, e0, q, scalar_mul(e0, 3, q), 3, 0)
    # A negative length has no walk (and must not start an endless search).
    with pytest.raises(NoIsogenyFound):
        recover_isogeny(e0, e0, q, q, 3, -1)


def test_recover_roundtrip_small(e0):
    for ell, e, n, seed in ((3, 2, 16, "rr1"), (2, 3, 27, "rr2")):
        secret = random_walk(e0, ell, e, seed)
        q = random_point_of_order(e0, n, seed + "p")
        image = evaluate_chain(secret, q)
        found = recover_isogeny(e0, secret.codomain, q, image, ell, e)
        assert found.codomain == secret.codomain
        assert evaluate_chain(found, q) == image
        assert found.degree == ell**e
        assert j_invariant(found.codomain) == j_invariant(secret.codomain)


def test_recover_negative(e0):
    secret = random_walk(e0, 3, 2, "neg")
    q = random_point_of_order(e0, 16, "negp")
    wrong_image = point_add(
        secret.codomain,
        evaluate_chain(secret, q),
        random_point_of_order(secret.codomain, 2, "tweak"),
    )
    with pytest.raises(NoIsogenyFound):
        recover_isogeny(e0, secret.codomain, q, wrong_image, 3, 2)


def test_recover_is_deterministic(e0):
    secret = random_walk(e0, 3, 2, "det")
    q = random_point_of_order(e0, 16, "detp")
    image = evaluate_chain(secret, q)
    a = recover_isogeny(e0, secret.codomain, q, image, 3, 2)
    b = recover_isogeny(e0, secret.codomain, q, image, 3, 2)
    assert a.sort_key() == b.sort_key()


def _pruning_targets(e0):
    """(e, the walks of length e out of E0, targets) for e = 1..5: the
    codomains of the first, middle and last walk, and, where a walk ends
    on j = 0 or 1728 (the j-invariants with extra automorphisms), its
    codomain and another model of that j, once for each of them and e."""
    p = e0.p
    special = {fp2_from_int(j, p).key() for j in (0, 1728)}
    tested_special = set()
    cases = []
    for e in (1, 2, 3, 4, 5):
        walks = list(exhaustive_walks(e0, 3, e))
        targets = [w.codomain for w in (walks[0], walks[len(walks) // 2], walks[-1])]
        for walk in walks:
            j_key = j_invariant(walk.codomain).key()
            if j_key in special and (e, j_key) not in tested_special:
                tested_special.add((e, j_key))
                targets += [walk.codomain, _scaled(walk.codomain, Fp2(5, 7, p))]
        cases.append((e, walks, targets))
    assert {j_key for _, j_key in tested_special} == special
    return cases


def test_pruned_walks_are_the_oracle_walks_ending_at_the_target(e0):
    for e, walks, targets in _pruning_targets(e0):
        oracle = [w.sort_key() for w in walks]
        for target in targets:
            j = j_invariant(target)
            expected = [w.sort_key() for w in walks if j_invariant(w.codomain) == j]
            assert expected
            # With point and image O, the meet keeps every walk whose depth-a
            # curve a b-walk out of the target reaches, so it prunes by j alone.
            meet = _meet(target, 3, e // 2, CurvePoint())
            pruned = [w.sort_key() for w in _walks(e0, 3, e, CurvePoint(), meet)]
            assert pruned == expected, (e, target)
            # The walks come in strictly increasing key order, so recovery's
            # first match is its smallest.
            assert all(a < b for keys in (pruned, oracle) for a, b in zip(keys, keys[1:]))


def test_cached_meet_is_the_enumerated_meet(e0):
    # _meet keeps one tree of b-walks per cache entry and carries only the
    # x of the image down it, to the leaves of each j asked for; the
    # reference enumerates every b-walk with its full image on each call
    # and keys it by division.  Each target of the pruning test, at ell = 2
    # and 3 and b = 0..3, with image O, a random point and a point of order
    # ell, which some first steps kill.  The cache is cleared per ell, so
    # the first model of each j builds its trees, and another model (a
    # target reached twice, or a scaled one) reads them.  Every j of the
    # last layer is asked for, some twice, and a j the walks miss has no
    # keys.
    targets = {t.key(): t for _, _, ts in _pruning_targets(e0) for t in ts}
    for ell in (2, 3):
        _torsion_cache.clear()
        for target in targets.values():
            images = [CurvePoint(), random_point(target, random.Random("meet")),
                      random_point_of_order(target, ell, "meet-ell")]
            for b in (0, 1, 2, 3):
                for image in images:
                    layers, keys = _meet(target, ell, b, image)
                    expected_layers, expected_keys = enumerated_meet(target, ell, b, image)
                    assert [set(layer) for layer in layers] == expected_layers
                    if not b:
                        assert keys is expected_keys is None
                        continue
                    for j in sorted(layers[b]) + sorted(layers[b])[:2]:
                        assert keys(j) == expected_keys[j], (ell, b, j)
                    assert keys((-1, -1)) == set()


def test_meet_on_another_model_builds_nothing(e0, monkeypatch):
    # The walks out of a target depend on its j's cache entry alone: once
    # one model's meet has built them, another model of that j only carries
    # its image, with no Velu step and no children listed, and finds the
    # same keys for every j, as the keys are isomorphism invariants.
    target = random_walk(e0, 3, 4, "other-model").codomain
    u = Fp2(5, 7, e0.p)
    image = random_point(target, random.Random("other-model"))
    _torsion_cache.clear()
    layers, keys = _meet(target, 3, 3, image)
    built = _counting_steps(monkeypatch)
    listed = []
    children = isogeny._Vertex.children
    monkeypatch.setattr(isogeny._Vertex, "children",
                        lambda *args: listed.append(1) or children(*args))
    other_layers, other_keys = _meet(_scaled(target, u), 3, 3, _moved(image, u))
    assert other_layers == layers
    assert all(other_keys(j) == keys(j) for j in layers[3])
    assert not built and not listed


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from([(431, 2), (431, 3), (419, 7)]), kernel=st.integers(0, 7),
       seed=st.integers(0, 2**32 - 1), u=st.tuples(st.integers(1, 418), st.integers(0, 418)))
def test_x_image_is_the_x_of_the_image(case, kernel, seed, u):
    # Velu's X reads x alone: the image of a random point's x alone is the
    # x of its full image, and both send each kernel point, +-Q, and O to O;
    # on a step and on that step rescaled by u, with one kernel pair
    # (ell = 2, 3) and with three (ell = 7).
    p, ell = case
    curve = CurveSpec(fp2_from_int(1, p), fp2_from_int(0, p), p)
    gens = ell_torsion_subgroups(curve, ell)
    step = velu_step(curve, gens[kernel % len(gens)], ell)
    pt = random_point(curve, random.Random(seed)).xy
    for scaled in (step, step._scaled(u)):
        assert scaled._image(pt[:2]) == scaled._image(pt)[:2]
        for q in scaled.kernel_points:
            assert scaled._image(q.xy[:2]) == scaled._image(q.xy) == ()
        assert scaled._image(()) == ()


def _counting_steps(monkeypatch):
    """A list that grows by one for each Velu step computed from here on
    (a rescaled copy of a step computes none)."""
    built = []
    velu = IsogenyStep._velu

    def counting(self, *args):
        built.append(1)
        return velu(self, *args)

    monkeypatch.setattr(IsogenyStep, "_velu", counting)
    return built


def test_twist_target_is_never_matched(e0, e0_large, monkeypatch):
    # Models of j = 1728 with no isomorphism over GF(p^2) from E0 (a'/a is
    # not a fourth power), whose E[3] is not rational.
    for start, twist_a in ((e0, Fp2(2, 1, e0.p)), (e0_large, Fp2(1, 4, P_LARGE))):
        twist = CurveSpec(twist_a, fp2_from_int(0, start.p), start.p)
        assert not fp2_scales(start, twist)
        q = random_point_of_order(start, 16, "twistp")
        image = random_point(twist, random.Random(1))
        # No walk leaves the twist, and every curve isogenous to E0 has
        # E = (Z/(p+1))^2, so no chain can end on it: the search ends
        # before it builds a single step, unless e = 1 leaves no walk out
        # of the twist to take.
        with pytest.raises(NoSuchOrder):
            _meet(twist, 3, 1, CurvePoint())
        # Nor does it keep a tree of walks for the twist.
        assert not isogeny._vertex(twist, 3)[0].trees
        built = _counting_steps(monkeypatch)
        for e in (1, 2, 5):
            with pytest.raises(NoIsogenyFound):
                recover_isogeny(start, twist, q, image, 3, e)
            assert e == 1 or not built
            built.clear()
        monkeypatch.undo()


def _moved(pt, u):
    """The image of pt under (x, y) -> (u^2 x, u^3 y)."""
    if pt.is_infinity:
        return CurvePoint()
    return CurvePoint(u * u * pt.x, u * u * u * pt.y)


def test_iso_invariant_is_kept_by_isomorphisms(e0):
    # A key reads the codomain of its edge's step through the invariant
    # factor it keeps on the edge.  On steps into j = 1728, j = 0 (y^2 =
    # x^3 + 1 has a 3-isogeny to itself) and a generic j, the key of a
    # point's x is the division reference's, and it is kept by every
    # automorphism and by the isomorphisms onto other models, which rescale
    # the step: each edge below has its own factor made on first use.
    p = e0.p
    zero = fp2_from_int(0, p)
    j0 = CurveSpec(zero, fp2_from_int(1, p), p)
    to_1728 = velu_step(e0, CurvePoint(zero, zero), 2)
    to_0 = next(step for step in (velu_step(j0, g, 3) for g in ell_torsion_subgroups(j0, 3))
                if j_invariant(step.codomain) == zero)
    generic = velu_step(e0, ell_torsion_subgroups(e0, 3)[0], 3)
    assert j_invariant(to_1728.codomain) == fp2_from_int(1728, p)
    assert j_invariant(generic.codomain) not in (zero, fp2_from_int(1728, p))

    for step, automorphisms in ((to_1728, 4), (to_0, 6), (generic, 2)):
        curve = step.codomain
        assert len(fp2_scales(curve, curve)) == automorphisms
        keys = set()
        for i in range(6):
            pt = random_point(curve, random.Random(i))
            key = _Edge(step).key(pt.xy[:2])
            assert key == iso_key(curve, pt)
            keys.add(key)
            # Every automorphism, and the isomorphisms onto other models.
            for u in fp2_scales(curve, curve) + [Fp2(5, 7, p), Fp2(0, 3, p)]:
                moved = _Edge(step.with_scale(u))
                assert moved.key(_moved(pt, u).xy[:2]) == key, (curve, u)
                assert moved.invariant == _invariant(_scaled(curve, u))
        assert len(keys) > 1
        assert _Edge(step).key(CurvePoint().xy) == ()


def test_recovery_is_the_brute_force_smallest_walk(e0):
    # Secrets from the unpruned enumeration: the first, middle and last walk,
    # and for j = 0 and 1728 the first walk that ends there and the first
    # whose curve at the meet depth a = e - e // 2 has that j.  Each is
    # recovered from points of order 4 (many ties) and 16, onto its own
    # codomain and onto another model of it.  Walks out of E0 (j = 1728)
    # reach j = 0 or 1728 again only after 5 steps, so walks out of
    # y^2 = x^3 + 1 (j = 0, which has a 3-isogeny to itself) meet there.
    p = e0.p
    j0 = CurveSpec(fp2_from_int(0, p), fp2_from_int(1, p), p)
    special = [fp2_from_int(j, p) for j in (0, 1728)]
    u = Fp2(5, 7, p)
    ends, meets = set(), set()
    for start, longest in ((e0, 6), (j0, 4)):
        for e in range(1, longest + 1):
            walks = list(exhaustive_walks(start, 3, e))
            secrets = [walks[0], walks[len(walks) // 2], walks[-1]]
            if e == 6:
                secrets = secrets[:1]
            for j in special:
                for depth, seen in ((e, ends), (e - e // 2, meets)):
                    walk = next(
                        (w for w in walks if j_invariant(w.steps[depth - 1].codomain) == j),
                        None,
                    )
                    if walk is not None and (depth == e or e > 1):
                        seen.add(j.key())
                        secrets.append(walk)
            for order in (4, 16) if e < 6 else (16,):
                q = random_point_of_order(start, order, f"oracle-{order}")
                for secret in secrets:
                    image = evaluate_chain(secret, q)
                    for target, target_image in (
                        (secret.codomain, image),
                        (_scaled(secret.codomain, u), _moved(image, u)),
                    ):
                        expected = smallest_matching_walk(
                            start, target, q, target_image, 3, e
                        )
                        assert expected is not None
                        found = recover_isogeny(start, target, q, target_image, 3, e)
                        assert found.sort_key() == expected, (e, order, secret.sort_key())
                        assert found.codomain == target
                        assert evaluate_chain(found, q) == target_image
    assert ends == {j.key() for j in special}
    assert meets


def test_recovery_is_the_brute_force_smallest_walk_at_larger_p(e0_large):
    u = Fp2(5, 7, P_LARGE)
    for e in range(1, 6):
        secret = random_walk(e0_large, 3, e, f"large-{e}")
        for order in (4, 16):
            q = random_point_of_order(e0_large, order, f"large-{order}")
            image = evaluate_chain(secret, q)
            for target, target_image in (
                (secret.codomain, image),
                (_scaled(secret.codomain, u), _moved(image, u)),
            ):
                expected = smallest_matching_walk(e0_large, target, q, target_image, 3, e)
                assert expected is not None
                found = recover_isogeny(e0_large, target, q, target_image, 3, e)
                assert found.sort_key() == expected, (e, order)
                assert found.codomain == target
                assert evaluate_chain(found, q) == target_image


# Literal keys, so that a change to how E[ell] is found or how the search is
# pruned cannot move the answer unnoticed.  In each case a chain other than
# the secret maps the point the same way, so the lexicographic tie-break
# decides the answer.
PINNED_RECOVERIES = [
    (
        3, 4, "pin3-4-0",
        ((170, 0, 0, 122), (148, 288, 200, 330), (366, 356, 149, 372)),
        ((170, 0, 0, 122), (148, 143, 200, 101), (366, 75, 149, 59)),
    ),
    (
        4, 16, "pin4-16-3",
        ((261, 0, 122, 0), (217, 0, 75, 0), (144, 367, 85, 377), (184, 78, 164, 391)),
        ((170, 0, 0, 122), (214, 0, 0, 75), (287, 367, 54, 346), (247, 78, 40, 267)),
    ),
    (
        5, 8, "pin5-8-1",
        ((0, 426, 102, 102), (358, 258, 101, 81), (151, 40, 184, 181),
         (430, 192, 69, 206), (53, 114, 114, 173)),
        ((0, 426, 102, 102), (358, 258, 101, 81), (150, 74, 209, 167),
         (8, 357, 11, 227), (82, 6, 194, 222)),
    ),
    (
        6, 4, "pin6-4-0",
        ((261, 0, 122, 0), (283, 143, 101, 200), (65, 75, 59, 149),
         (256, 14, 81, 168), (72, 408, 68, 157), (161, 376, 56, 292)),
        ((0, 426, 102, 102), (358, 258, 101, 81), (151, 40, 184, 181),
         (430, 192, 69, 206), (53, 114, 114, 173), (15, 387, 200, 256)),
    ),
    (
        6, 16, "pin6-16-11",
        ((261, 0, 122, 0), (217, 0, 75, 0), (363, 0, 40, 0),
         (165, 318, 140, 281), (384, 397, 71, 199), (166, 49, 186, 340)),
        ((170, 0, 0, 122), (148, 288, 200, 330), (329, 130, 38, 38),
         (401, 302, 88, 155), (134, 161, 43, 410), (203, 228, 18, 349)),
    ),
    (
        7, 4, "pin7-4-0",
        ((261, 0, 122, 0), (283, 143, 101, 200), (65, 75, 59, 149),
         (31, 14, 113, 258), (218, 424, 17, 284), (229, 45, 154, 126),
         (101, 14, 138, 209)),
        ((0, 5, 102, 329), (0, 100, 81, 350), (280, 235, 2, 237),
         (195, 288, 153, 95), (219, 312, 179, 341), (304, 65, 118, 106),
         (197, 346, 17, 199)),
    ),
    (
        7, 16, "pin7-16-3",
        ((170, 0, 0, 122), (214, 0, 0, 75), (68, 0, 0, 40), (103, 0, 0, 67),
         (263, 113, 132, 336), (129, 328, 207, 428), (426, 343, 175, 89)),
        ((170, 0, 0, 122), (148, 288, 200, 330), (180, 378, 92, 238),
         (94, 144, 67, 263), (404, 283, 44, 387), (335, 3, 133, 190),
         (18, 93, 200, 359)),
    ),
    (
        8, 4, "pin8-4-0",
        ((170, 0, 0, 122), (148, 143, 200, 101), (329, 301, 38, 393),
         (352, 157, 99, 178), (145, 371, 75, 6), (321, 233, 58, 10),
         (104, 383, 161, 425), (324, 44, 58, 413)),
        ((0, 5, 102, 329), (0, 100, 81, 350), (0, 261, 164, 267),
         (0, 183, 24, 407), (0, 329, 128, 303), (0, 48, 173, 258),
         (116, 173, 25, 54), (282, 173, 114, 202)),
    ),
    (
        8, 16, "pin8-16-0",
        ((0, 426, 102, 102), (358, 258, 101, 81), (342, 229, 179, 115),
         (372, 186, 153, 35), (315, 278, 164, 125), (239, 155, 188, 326),
         (394, 195, 145, 223), (293, 417, 17, 196)),
        ((0, 5, 102, 329), (0, 100, 81, 350), (151, 235, 194, 429),
         (176, 292, 72, 397), (10, 69, 92, 173), (307, 99, 34, 97),
         (57, 23, 134, 39), (110, 131, 54, 306)),
    ),
]


@pytest.mark.parametrize("e, order, seed, secret_key, recovered_key", PINNED_RECOVERIES)
def test_recovery_returns_pinned_smallest_chain(e0, e, order, seed, secret_key, recovered_key):
    secret = random_walk(e0, 3, e, seed)
    assert secret.sort_key() == secret_key
    q = random_point_of_order(e0, order, seed + "p")
    found = recover_isogeny(e0, secret.codomain, q, evaluate_chain(secret, q), 3, e)
    assert found.sort_key() == recovered_key


@pytest.mark.parametrize("e, order, seed", [(8, 4, "pin8-4-0"), (6, 4, "pin6-4-0")])
def test_recovery_stops_at_its_first_match(e0, e, order, seed, monkeypatch):
    # The walks come in increasing key order, so the first match is the
    # answer and no later walk is drawn.
    yielded = []
    walks = isogeny._walks

    def recording(*args):
        for chain in walks(*args):
            if len(chain) == e:
                yielded.append(chain.sort_key())
            yield chain

    monkeypatch.setattr(isogeny, "_walks", recording)
    secret = random_walk(e0, 3, e, seed)
    q = random_point_of_order(e0, order, seed + "p")
    found = recover_isogeny(e0, secret.codomain, q, evaluate_chain(secret, q), 3, e)
    assert yielded[-1] == found.sort_key()


def test_meet_in_the_middle_bounds_the_search_work(e0, e0_large, monkeypatch):
    # A search pruned by j-distance alone, from a cold cache of the j-graph,
    # builds 3,060 steps for the e = 8 recovery at p = 431; a breadth-first
    # pass over the j-graph before the meet built 658 for the e = 6
    # recovery at p = 10,079.  Draining every walk for the smallest match
    # and re-running Velu to rescale it built 438 and 114; stopping at the
    # first match, rescaled without Velu, built 203 and 113, a step at
    # every child.  On a cleared cache, building each graph edge once and
    # the steps of each yielded chain off its representative models builds
    # 108 and 87.  Each bound is that count plus 10%.
    for start, e, seed, bound in ((e0, 8, "count8", 118), (e0_large, 6, "cold6", 95)):
        secret = random_walk(start, 3, e, seed)
        q = random_point_of_order(start, 16, seed + "p")
        image = evaluate_chain(secret, q)
        _torsion_cache.clear()
        built = _counting_steps(monkeypatch)
        found = recover_isogeny(start, secret.codomain, q, image, 3, e)
        monkeypatch.undo()
        assert evaluate_chain(found, q) == image
        assert len(built) <= bound, (e, len(built))


def test_search_work_is_bounded(e0, monkeypatch):
    # A warm e = 6 recovery at p = 431.  Summing all ell-1 translates of the
    # kernel, each with its own inversion, and a scalar_mul by ell^b for each
    # child at the meet took 26 scalar_muls; the carried [ell^b]P takes 1.
    # The search's work is its Velu steps, not Fp2 products: with its
    # kernels on (c0, c1) ints it multiplies no Fp2 objects (it took 309
    # products before).  A step at every child built 74 steps; walking the
    # cached edges, it builds only the steps of the one chain it yields that
    # leave a model other than their j's representative, here 5.  The
    # bound is that count plus 10%.
    secret = random_walk(e0, 3, 6, "work-6")
    q = random_point_of_order(e0, 16, "work-6p")
    image = evaluate_chain(secret, q)
    _torsion_cache.clear()
    recover_isogeny(e0, secret.codomain, q, image, 3, 6)
    smuls = []

    def counting_smul(*args):
        smuls.append(1)
        return scalar_mul(*args)

    built = _counting_steps(monkeypatch)
    monkeypatch.setattr(isogeny, "scalar_mul", counting_smul)
    found = recover_isogeny(e0, secret.codomain, q, image, 3, 6)
    monkeypatch.undo()
    assert evaluate_chain(found, q) == image
    assert len(smuls) == 1
    assert len(built) <= 5, len(built)


def test_search_images_and_keys_are_bounded(e0, monkeypatch):
    # Warm e = 6 recoveries at p = 431 over 20 seeded deals.  Imaging the
    # image's x down the whole tree of 3-walks out of the target and keying
    # all 36 leaves, and keying each child at the meet by division, took a
    # mean of 71.85 x-only images and 45.7 keys a recovery; imaging only
    # along the paths to the leaves of the j the search asks about takes
    # 39.0 and 18.75.  Each bound is that mean plus 10%.
    deals = []
    for i in range(20):
        secret = random_walk(e0, 3, 6, f"mean-{i}")
        q = random_point_of_order(e0, 16, f"mean-{i}p")
        deals.append((secret.codomain, q, evaluate_chain(secret, q)))
    for e1, q, image in deals:
        recover_isogeny(e0, e1, q, image, 3, 6)
    images, keys = [], []
    image_fn, key_fn = IsogenyStep._image, _Edge.key
    monkeypatch.setattr(IsogenyStep, "_image",
                        lambda self, xy: images.append(len(xy) == 2) or image_fn(self, xy))
    monkeypatch.setattr(_Edge, "key", lambda *args: keys.append(1) or key_fn(*args))
    for e1, q, image in deals:
        recover_isogeny(e0, e1, q, image, 3, 6)
    monkeypatch.undo()
    assert sum(images) / len(deals) <= 43, sum(images) / len(deals)
    assert len(keys) / len(deals) <= 21, len(keys) / len(deals)


def test_memoized_child_orders_are_fresh_sorts(e0):
    # _Vertex.children keeps each node's order on its vertex per (s, dual).
    # After seeded recoveries and walks, each kept order is the one a fresh
    # sort gives: the subgroups by their smallest point on psi_s(R), less
    # the one holding dual.  Walks reach psi_s(R) at s or at -s, the same
    # curve; a vertex reached at s is asked at -s too, and keeps the same
    # order.
    p = e0.p
    _torsion_cache.clear()
    for e in (2, 4, 6):
        for i in range(4):
            secret = random_walk(e0, 3, e, f"orders-{e}-{i}")
            q = random_point_of_order(e0, 16, f"orders-{e}-{i}p")
            recover_isogeny(e0, secret.codomain, q, evaluate_chain(secret, q), 3, e)
    vertices = [vertex for vertices in _torsion_cache.values() for vertex in vertices]
    vertex, (s, dual) = next((vertex, node) for vertex in vertices
                             for node in vertex.orders if node[0] != (1, 0))
    minus = (-s[0] % p, -s[1] % p)
    assert vertex.children(minus, dual) == vertex.orders[s, dual]
    assert (minus, dual) in vertex.orders
    kept = 0
    for vertex in vertices:
        for (s, dual), order in vertex.orders.items():
            u = Fp2(*s, p)
            smallest = [min(_moved(CurvePoint(Fp2(*q[:2], p), Fp2(*q[2:], p)), u).key()
                            for q in pts) for pts in vertex.subgroups]
            assert order == [k for k in sorted(range(4), key=smallest.__getitem__)
                             if dual not in vertex.subgroups[k]], (s, dual)
            kept += 1
    assert kept > len(_torsion_cache)


def test_warm_recovery_builds_no_fp2(e0, monkeypatch):
    # Curves, points and scales inside the search are ints, so a warm
    # recovery builds no Fp2 at any depth; on Fp2 objects, these two built
    # 510 (e = 4) and 1,265 (e = 6).
    built = {}
    init = Fp2.__init__

    def counting(self, *args):
        built[e] += 1
        init(self, *args)

    for e in (4, 6):
        secret = random_walk(e0, 3, e, f"work-{e}")
        q = random_point_of_order(e0, 16, f"work-{e}p")
        image = evaluate_chain(secret, q)
        recover_isogeny(e0, secret.codomain, q, image, 3, e)
        built[e] = 0
        monkeypatch.setattr(Fp2, "__init__", counting)
        found = recover_isogeny(e0, secret.codomain, q, image, 3, e)
        monkeypatch.undo()
        assert evaluate_chain(found, q) == image
    assert built == {4: 0, 6: 0}


def test_search_steps_sum_the_listed_subgroup_points(monkeypatch):
    # Each step of the search sums the points that ell_torsion_subgroups
    # listed for its kernel, so a warm e = 1 recovery at ell = 7 makes no
    # group addition; relisting each kernel's multiples made 2 per step.
    p = 419
    start = CurveSpec(fp2_from_int(1, p), fp2_from_int(0, p), p)
    secret = random_walk(start, 7, 1, "listed")
    q = random_point_of_order(start, 4, "listedp")
    image = evaluate_chain(secret, q)
    recover_isogeny(start, secret.codomain, q, image, 7, 1)
    adds = []
    add = isogeny._add
    monkeypatch.setattr(isogeny, "_add", lambda *args: adds.append(args) or add(*args))
    found = recover_isogeny(start, secret.codomain, q, image, 7, 1)
    monkeypatch.undo()
    assert evaluate_chain(found, q) == image
    assert not adds


@pytest.mark.parametrize("p", [431, P_LARGE])
def test_edge_search_matches_the_oracle_cold_and_warm(p):
    # The search walks cached edges: each is computed out of the first
    # model of its j looked up, and a node is that model and a scale.  Its
    # answer must be the oracle's smallest match whichever model of a j the
    # cache holds: starts at j = 1728 (E0) and j = 0, targets at j = 0 and
    # 1728 where a walk ends there and the first and last walk, each as the
    # model the walk reaches and as a scaled one.  Each target is recovered
    # once on a cleared cache and once on the warm cache that the other
    # model's recovery left, which holds another model of its j.
    u = Fp2(5, 7, p)
    special = {fp2_from_int(j, p).key() for j in (0, 1728)}
    ends = set()
    starts = [CurveSpec(fp2_from_int(1, p), fp2_from_int(0, p), p),
              CurveSpec(fp2_from_int(0, p), fp2_from_int(1, p), p)]
    for start in starts:
        for e in range(1, 6):
            walks = list(exhaustive_walks(start, 3, e))
            secrets = [walks[0], walks[-1]]
            for j_key in special:
                walk = next((w for w in walks if j_invariant(w.codomain).key() == j_key), None)
                if walk is not None:
                    ends.add(j_key)
                    secrets.append(walk)
            q = random_point_of_order(start, 16, f"edges-{p}-{e}")
            for secret in secrets:
                image = evaluate_chain(secret, q)
                cases = [(secret.codomain, image), (_scaled(secret.codomain, u), _moved(image, u))]
                expected = [smallest_matching_walk(start, target, q, target_image, 3, e)
                            for target, target_image in cases]
                assert None not in expected
                for order in ((0, 1), (1, 0)):
                    _torsion_cache.clear()
                    for k in order:
                        target, target_image = cases[k]
                        found = recover_isogeny(start, target, q, target_image, 3, e)
                        assert found.sort_key() == expected[k], (p, e, secret.sort_key(), k)
                        assert found.codomain == target
                        assert evaluate_chain(found, q) == target_image
    assert ends == special


def _vertices(p, ell):
    """The vertices in the torsion cache for (p, ell), twists of a j
    included."""
    return [vertex for key, vertices in _torsion_cache.items() if key[:2] == (p, ell)
            for vertex in vertices]


def _cached_edges(p, ell):
    """Vertices and filled edges in the torsion cache for (p, ell)."""
    vertices = _vertices(p, ell)
    return len(vertices), sum(edge is not None for v in vertices for edge in v.edges)


@pytest.mark.parametrize("ell", [2, 3])
def test_cached_edges_are_bounded_by_the_graph(e0, ell):
    # p = 431 has 37 supersingular j-invariants, so the ell-isogeny graph
    # has 37 vertices and (ell+1)*37 edges: however many recoveries run, the
    # cache holds at most that many entries and edges.
    _torsion_cache.clear()
    for k in range(40):
        e = 1 + k % 7
        secret = random_walk(e0, ell, e, f"bound-{ell}-{k}")
        q = random_point_of_order(e0, 16 if ell == 3 else 27, f"bound-{ell}-{k}p")
        image = evaluate_chain(secret, q)
        found = recover_isogeny(e0, secret.codomain, q, image, ell, e)
        assert evaluate_chain(found, q) == image
    entries, edges = _cached_edges(e0.p, ell)
    assert entries <= 37
    assert 0 < edges <= (ell + 1) * 37, edges


@pytest.mark.parametrize("p, ell", [(431, 2), (431, 3), (P_LARGE, 3)])
def test_cache_records_keep_their_invariants(p, ell):
    # After seeded recoveries, and a twist of E0's j looked up, every vertex
    # and filled edge of the cache holds what the search reads off it.
    start = CurveSpec(fp2_from_int(1, p), fp2_from_int(0, p), p)
    twist = CurveSpec(Fp2(2, 1, p) if p == 431 else Fp2(1, 4, p), fp2_from_int(0, p), p)
    _torsion_cache.clear()
    for k in range(8):
        e = 2 + k % 4
        secret = random_walk(start, ell, e, f"records-{p}-{ell}-{k}")
        q = random_point_of_order(start, 16 if ell == 3 else 27, f"records-{p}-{ell}-{k}p")
        recover_isogeny(start, secret.codomain, q, evaluate_chain(secret, q), ell, e)
    isogeny._vertex(twist, ell)
    assert len(_torsion_cache[p, ell, twist.jkey]) == 2
    resolved = keyed = leaves = 0
    for (_, _, j), vertices in _torsion_cache.items():
        assert all(not _scales(v.model, w.model) for v in vertices for w in vertices if v is not w)
        for vertex in vertices:
            assert vertex.model.jkey == j and vertex.ell == ell
            assert len(vertex.orders) <= isogeny._ORDERS_KEPT
            for edge in filter(None, vertex.edges):
                assert edge.velu.domain is vertex.model
                if edge.target is not None:
                    target, resolved = edge.target.model, resolved + 1
                    assert edge.step.codomain == target
                    assert edge.velu.codomain == _scaled(target, Fp2(*edge.scale, p))
                    dual = CurvePoint(Fp2(*edge.dual[:2], p), Fp2(*edge.dual[2:], p))
                    assert is_on_curve(target, dual) and scalar_mul(target, ell, dual).is_infinity
                if edge.invariant is not None:
                    keyed += 1
                    assert edge.invariant == _invariant(edge.velu.codomain)
            for layers, levels in vertex.trees.values():
                for layer, level in zip(layers[1:], levels):
                    listed = [(k, id(edge)) for ends in layer.values() for k, edge in ends]
                    assert sorted(listed) == sorted((k, id(edge)) for k, edge in level)
                    for leaf_j, ends in layer.items():
                        assert all(edge.velu.codomain.jkey == leaf_j for _, edge in ends)
                    leaves += len(listed)
    assert resolved and keyed and leaves


def test_kept_child_orders_are_capped(e0, monkeypatch):
    # Distinct walks out of a start reach a vertex at distinct scales, so
    # the child orders are not bounded by the graph: _Vertex.children keeps
    # at most _ORDERS_KEPT a vertex and drops them all when full.  With the
    # cap at 3, no vertex holds more, and the seeded recoveries return the
    # chains they return under the default cap.
    deals = []
    for k in range(12):
        e = 2 + k % 5
        secret = random_walk(e0, 3, e, f"cap-{k}")
        q = random_point_of_order(e0, 16, f"cap-{k}p")
        deals.append((secret.codomain, q, evaluate_chain(secret, q), 3, e))
    _torsion_cache.clear()
    expected = [recover_isogeny(e0, *deal).sort_key() for deal in deals]
    assert max(_kept_orders(e0.p)) > 3
    _torsion_cache.clear()
    monkeypatch.setattr(isogeny, "_ORDERS_KEPT", 3)
    for deal, key in zip(deals, expected):
        assert recover_isogeny(e0, *deal).sort_key() == key
        assert max(_kept_orders(e0.p)) <= 3


def _kept_orders(p):
    """The number of child orders each vertex for (p, 3) keeps."""
    return [len(vertex.orders) for vertex in _vertices(p, 3)]
