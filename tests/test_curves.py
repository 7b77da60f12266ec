import hashlib
import random
import signal
from contextlib import contextmanager

import pytest
from oracles import chord_tangent_add, count_points, fp2_j_invariant, point_neg

from isoshare import curves
from isoshare.curves import (
    CurvePoint,
    CurveSpec,
    is_on_curve,
    is_supersingular,
    j_invariant,
    point_add,
    point_order,
    random_point,
    random_point_of_order,
    scalar_mul,
)
from isoshare.errors import NoSuchOrder, NotOnCurve, SingularCurve
from isoshare.fields import Fp2, factorize, fp2_from_int

P = 431


def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        CurveSpec(fp2_from_int(0, P), fp2_from_int(0, P), P)


def test_group_identity_and_inverse(e0):
    rng = random.Random(10)
    for _ in range(20):
        q = random_point(e0, rng)
        assert point_add(e0, q, CurvePoint()) == q
        assert point_add(e0, q, point_neg(q)) == CurvePoint()


def test_group_associativity_random(e0):
    rng = random.Random(11)
    for _ in range(20):
        a = random_point(e0, rng)
        b = random_point(e0, rng)
        c = random_point(e0, rng)
        left = point_add(e0, point_add(e0, a, b), c)
        right = point_add(e0, a, point_add(e0, b, c))
        assert left == right


def test_doubling_matches_repeated_addition(e0):
    rng = random.Random(12)
    for _ in range(20):
        q = random_point(e0, rng)
        assert scalar_mul(e0, 2, q) == point_add(e0, q, q)


def test_group_exponent_divides_p_plus_one(e0):
    rng = random.Random(13)
    for _ in range(20):
        q = random_point(e0, rng)
        assert scalar_mul(e0, P + 1, q).is_infinity


def test_point_add_rejects_foreign_points(e0):
    bogus = CurvePoint(fp2_from_int(1, P), fp2_from_int(1, P))
    assert not is_on_curve(e0, bogus)
    with pytest.raises(NotOnCurve):
        point_add(e0, bogus, CurvePoint())


def test_point_order_basics(e0):
    assert point_order(e0, CurvePoint()) == 1
    # (0, 0) lies on y^2 = x^3 + x and has y = 0, so it is two-torsion.
    two_torsion = CurvePoint(fp2_from_int(0, P), fp2_from_int(0, P))
    assert point_order(e0, two_torsion) == 2


def test_point_order_exact(e0):
    rng = random.Random(14)
    for _ in range(10):
        q = random_point(e0, rng)
        m = point_order(e0, q)
        assert scalar_mul(e0, m, q).is_infinity
        for prime in factorize(m):
            assert not scalar_mul(e0, m // prime, q).is_infinity


def _brute_force_points(p):
    """(e, rng, points): y^2 = x^3 + x over GF(p^2), six random points and
    their multiples that drop each prime power of p + 1 in turn, and the
    rng that drew them."""
    e = CurveSpec(fp2_from_int(1, p), fp2_from_int(0, p), p)
    rng = random.Random(f"order-{p}")
    points = []
    for _ in range(6):
        q = random_point(e, rng)
        points += [scalar_mul(e, d, q) for d in (1, 2, 3, 4, 5, 6, 8, 9, 27, 30, 144)
                   if (p + 1) % d == 0]
    return e, rng, points


@pytest.mark.parametrize("p", [P, 59])
def test_point_order_matches_brute_force(p):
    # p + 1 = 432 = 2^4 * 3^3 and 60 = 2^2 * 3 * 5: the order of each point
    # is the first n with nP = O, found by adding P to itself.
    e, rng, points = _brute_force_points(p)
    for pt in points:
        n, acc = 1, pt
        while not acc.is_infinity:
            acc, n = point_add(e, acc, pt), n + 1
        assert point_order(e, pt) == n, (p, pt)
    # On a curve whose group exponent does not divide p + 1, a point with
    # (p + 1) P != O lies on its curve, and is refused as having no order
    # the exponent of a supersingular curve allows.
    ordinary = CurveSpec(fp2_from_int(1, p), Fp2(1, 1, p), p)
    pt = next(pt for pt in (random_point(ordinary, rng) for _ in range(100))
              if not scalar_mul(ordinary, p + 1, pt).is_infinity)
    with pytest.raises(NoSuchOrder):
        point_order(ordinary, pt)


@pytest.mark.parametrize("p", [P, 59])
def test_has_order_is_the_exact_order(p):
    # The deal's one exact-order test, nP = O and (n/q)P != O for each
    # prime q | n, agrees with point_order on every point of the brute-force
    # test, for each n dividing p + 1 and for some that do not.
    e, _, points = _brute_force_points(p)
    candidates = [n for n in range(1, p + 2) if (p + 1) % n == 0] + [7, 11, 2 * (p + 1)]
    for pt in points:
        order = point_order(e, pt)
        for n in candidates:
            assert curves._has_order(e, pt.xy, n) == (order == n), (p, pt, n)


def test_random_point_of_order(e0):
    assert random_point_of_order(e0, 1, "s") == CurvePoint()
    q = random_point_of_order(e0, 16, "s")
    assert point_order(e0, q) == 16
    # Same seed, same point.
    assert random_point_of_order(e0, 16, "s") == q
    with pytest.raises(NoSuchOrder):
        random_point_of_order(e0, 5, "s")  # 5 does not divide 432
    with pytest.raises(NoSuchOrder):
        random_point_of_order(e0, 0, "s")
    # On a curve that is not supersingular, a candidate Q = ((p+1)/n) R
    # with nQ != O ends the search, where an exact-order test alone could
    # draw candidates forever; n = 1 included.
    ordinary = CurveSpec(fp2_from_int(1, P), Fp2(1, 1, P), P)
    for n in (1, 4, 16, 27):
        with pytest.raises(NoSuchOrder):
            random_point_of_order(ordinary, n, "s")


def test_j_invariant_special_values(e0):
    assert j_invariant(e0) == fp2_from_int(1728, P)
    e_j0 = CurveSpec(fp2_from_int(0, P), fp2_from_int(1, P), P)
    assert j_invariant(e_j0) == fp2_from_int(0, P)


def test_j_invariant_twist_invariance(e0):
    rng = random.Random(15)
    for _ in range(10):
        u = Fp2(rng.randrange(1, P), rng.randrange(P), P)
        if not u:
            continue
        u2 = u * u
        u4 = u2 * u2
        twisted = CurveSpec(u4 * e0.a, u4 * u2 * e0.b, P)
        assert j_invariant(twisted) == j_invariant(e0)


def test_count_points_supersingular(e0):
    assert count_points(e0) == (P + 1) ** 2
    assert is_supersingular(e0)


def test_ordinary_curve_detected():
    # Scan a few curves; most over GF(p^2) are ordinary.
    found = None
    for c0 in range(1, 6):
        e = CurveSpec(Fp2(c0, 1, P), fp2_from_int(1, P), P)
        if not is_supersingular(e):
            found = e
            break
    assert found is not None
    assert count_points(found) != (P + 1) ** 2


# The int-coordinate kernels are checked against the Fp2-object oracles at
# these primes, on curves of j = 1728, j = 0 and a generic j.
KERNEL_PRIMES = (419, 431, 10079)


def _kernel_curves(p):
    """(curve, a point with y = 0 on it) for y^2 = x^3 + x, y^2 = x^3 + 1 and
    a curve of generic j built around the root x = 2 + 7i of its cubic."""
    zero, one = fp2_from_int(0, p), fp2_from_int(1, p)
    a, root = Fp2(3, 5, p), Fp2(2, 7, p)
    return [
        (CurveSpec(one, zero, p), CurvePoint(zero, zero)),
        (CurveSpec(zero, one, p), CurvePoint(-one, zero)),
        (CurveSpec(a, -(root * root * root + a * root), p), CurvePoint(root, zero)),
    ]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_group_law_matches_the_fp2_oracle(p):
    rng = random.Random(f"add-{p}")
    for e, two_torsion in _kernel_curves(p):
        assert is_on_curve(e, two_torsion)
        pts = [random_point(e, rng) for _ in range(12)]
        pairs = [(CurvePoint(), CurvePoint()), (two_torsion, two_torsion)] + list(zip(pts, pts[1:]))
        for q in pts:
            pairs += [(CurvePoint(), q), (q, CurvePoint()), (q, point_neg(q)), (q, q),
                      (two_torsion, q), (q, two_torsion)]
        for p1, p2 in pairs:
            expected = chord_tangent_add(e, p1, p2)
            assert curves._add(e, p1.xy, p2.xy) == expected.xy, (e, p1, p2)
            assert point_add(e, p1, p2) == expected, (e, p1, p2)
        assert curves._add(e, two_torsion.xy, two_torsion.xy) == CurvePoint().xy


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_j_invariant_matches_the_fp2_oracle(p):
    rng = random.Random(f"j-{p}")
    special = [e for e, _ in _kernel_curves(p)]
    assert j_invariant(special[0]) == fp2_from_int(1728, p)
    assert j_invariant(special[1]) == fp2_from_int(0, p)
    assert j_invariant(special[2]) not in (fp2_from_int(0, p), fp2_from_int(1728, p))
    values = [Fp2(rng.randrange(p), rng.randrange(p), p) for _ in range(6)]
    for e in special + list(_curves(p, values)):
        assert j_invariant(e) == fp2_j_invariant(e), e


# sha256 of the repr and key() lines below, recorded when curves and points
# still held Fp2 objects: the int representation must print and key alike.
BOUNDARY_LINES_SHA256 = "44dc4948f1d706fd3369d074ec0ae824b739ed8e110147213aa4cbd35cd4b2f5"


def test_fp2_boundary_round_trips():
    lines = []
    for p in KERNEL_PRIMES:
        rng = random.Random(f"boundary-{p}")
        u = Fp2(5, 7, p)
        for e, two_torsion in _kernel_curves(p):
            # Each curve as built and as another model of its j.
            for a, b in ((e.a, e.b), (u**4 * e.a, u**6 * e.b)):
                curve = CurveSpec(a, b, p)
                assert (curve.a, curve.b, curve.j) == (a, b, fp2_j_invariant(curve))
                twin = CurveSpec(a, b, p)
                assert curve == twin and hash(curve) == hash(twin) == hash(curve.key())
                assert (curve == e) == ((a, b) == (e.a, e.b))
                lines.append(f"{curve!r} {curve.key()}")
                pts = [CurvePoint(), random_point(curve, rng), random_point(curve, rng)]
                if (a, b) == (e.a, e.b):
                    pts.append(two_torsion)
                for pt in pts:
                    x, y = pt.x, pt.y
                    copy = CurvePoint(x, y)
                    assert (copy.x, copy.y) == (x, y) and is_on_curve(curve, copy)
                    assert copy == pt and hash(copy) == hash(pt) == hash(pt.key())
                    assert (pt == pts[1]) == (pt is pts[1]) and pt != x
                    lines.append(f"{pt!r} {pt.key()}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == BOUNDARY_LINES_SHA256


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_singular_curves_are_refused_exactly(p):
    # x^3 - 3c^2 x + 2c^3 = (x - c)^2 (x + 2c) is singular for every c.
    rng = random.Random(f"disc-{p}")
    for _ in range(10):
        c = Fp2(rng.randrange(p), rng.randrange(p), p)
        with pytest.raises(SingularCurve):
            CurveSpec(fp2_from_int(-3, p) * c * c, fp2_from_int(2, p) * c * c * c, p)
    values = [Fp2(rng.randrange(p), rng.randrange(p), p) for _ in range(5)]
    for a in values + [fp2_from_int(0, p)]:
        for b in values + [fp2_from_int(0, p)]:
            if fp2_from_int(4, p) * a * a * a + fp2_from_int(27, p) * b * b:
                assert CurveSpec(a, b, p).key() == (p, a.key(), b.key())
            else:
                with pytest.raises(SingularCurve):
                    CurveSpec(a, b, p)


def _curves(p, values):
    """Every nonsingular y^2 = x^3 + a*x + b with a, b drawn from values."""
    for a in values:
        for b in values:
            try:
                yield CurveSpec(a, b, p)
            except SingularCurve:
                continue


@pytest.mark.parametrize("p", [7, 11, 19, 23, 31, 43])
def test_is_supersingular_matches_point_count(p):
    values = [Fp2(c0, c1, p) for c0 in (0, 1, 2, 3, p - 1) for c1 in (0, 1, 2)]
    verdicts = []
    for e in _curves(p, values):
        verdicts.append(is_supersingular(e))
        assert verdicts[-1] == (count_points(e) == (p + 1) ** 2), e
    # The grid holds both kinds of curve: j = 1728 over GF(p) is supersingular.
    assert any(verdicts) and not all(verdicts)


@contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_is_supersingular_every_curve_over_p_3():
    # Over GF(9) a curve can have #E = 4 or 8 while its exponent divides
    # p+1 = 4, so no sampled point refutes it; the verdict must still end.
    values = [Fp2(c0, c1, 3) for c0 in range(3) for c1 in range(3)]
    counts = set()
    for e in _curves(3, values):
        with _time_limit(1):
            verdict = is_supersingular(e)
        counts.add(count_points(e))
        assert verdict == (count_points(e) == 16), e
    assert {4, 16} <= counts


def test_is_supersingular_repeats_across_fresh_caches(monkeypatch):
    values = [Fp2(c0, c1, 19) for c0 in (0, 1, 5) for c1 in (0, 1)]
    grid = list(_curves(19, values)) + [CurveSpec(fp2_from_int(1, P), fp2_from_int(0, P), P)]
    first = [is_supersingular(e) for e in grid]
    for _ in range(2):
        monkeypatch.setattr(curves, "_supersingular_cache", {})
        assert [is_supersingular(e) for e in grid] == first



def test_scalar_mul_refuses_a_negative_scalar(e0):
    q = random_point(e0, random.Random(14))
    with pytest.raises(ValueError, match="nonnegative"):
        scalar_mul(e0, -1, q)
