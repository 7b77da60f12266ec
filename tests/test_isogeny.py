import pytest
from oracles import cube_table

from isoshare.curves import (
    INFINITY,
    CurveSpec,
    is_on_curve,
    j_invariant,
    point_add,
    point_order,
    random_point_of_order,
    scalar_mul,
)
from isoshare.errors import BadKernel, NoIsogenyFound, NoSuchOrder
from isoshare.fields import Fp2, fp2_from_int
from isoshare.isogeny import (
    IsogenyChain,
    _cube_roots,
    ell_torsion_subgroups,
    evaluate_chain,
    isomorphism_scales,
    random_walk,
    recover_isogeny,
    velu_step,
)


def _some_kernel(e, ell, seed="k"):
    gen = random_point_of_order(e, ell, seed)
    return gen


def test_step_kills_exactly_its_kernel(e0):
    kernel = _some_kernel(e0, 3)
    step = velu_step(e0, kernel, 3)
    assert step.evaluate(INFINITY) == INFINITY
    assert step.evaluate(kernel) == INFINITY
    assert step.evaluate(scalar_mul(e0, 2, kernel)) == INFINITY
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
        velu_step(e0, INFINITY, 3)
    q3 = _some_kernel(e0, 3)
    with pytest.raises(BadKernel):
        velu_step(e0, q3, 4)  # composite degree


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


def test_random_walk_shape_and_determinism(e0):
    assert len(random_walk(e0, 3, 0, "z")) == 0
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
    scales = isomorphism_scales(e1, e1)
    assert scales, "identity isomorphism must be found"
    one = [u for u in scales if u.c0 == 1 and u.c1 == 0]
    assert one
    assert isomorphism_scales(e0, e0)  # j = 1728 branch


def test_isomorphism_scales_j0():
    p = 431
    e = CurveSpec(fp2_from_int(0, p), fp2_from_int(1, p), p)
    scales = isomorphism_scales(e, e)
    # The automorphisms of y^2 = x^3 + 1 are the six u with u^6 = 1.
    assert len(scales) == 6
    assert scales == sorted(scales, key=Fp2.key)
    assert all(u**6 == fp2_from_int(1, p) for u in scales)
    u = Fp2(5, 7, p)
    twisted = CurveSpec(fp2_from_int(0, p), u**6, p)
    assert u in isomorphism_scales(e, twisted)


# p = 3: cubing is a bijection; 19 and 71: the 3-Sylow subgroup of
# GF(p^2)* has order 9; 23 = 11 (mod 12): it has order 3.
@pytest.mark.parametrize("p", [3, 19, 23, 71])
def test_cube_roots_match_brute_force(p):
    table = cube_table(p)
    for c0 in range(p):
        for c1 in range(p):
            c = Fp2(c0, c1, p)
            assert _cube_roots(c) == table.get(c.key(), []), c


def test_nonsupersingular_curve_refused_in_bounded_time():
    p = 431
    ordinary = CurveSpec(fp2_from_int(1, p), Fp2(0, 1, p), p)
    with pytest.raises(NoSuchOrder):
        random_walk(ordinary, 3, 2, "walk")
    # Its cofactored points may have orders with primes other than 3, so
    # stripping factors of 3 must stop instead of spinning.
    with pytest.raises(NoSuchOrder):
        ell_torsion_subgroups(ordinary, 3)


def test_recover_identity_chain(e0):
    q = random_point_of_order(e0, 16, "r0")
    chain = recover_isogeny(e0, e0, q, q, 3, 0)
    assert len(chain) == 0
    with pytest.raises(NoIsogenyFound):
        recover_isogeny(e0, e0, q, scalar_mul(e0, 3, q), 3, 0)


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
