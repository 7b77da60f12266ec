"""Supersingular short-Weierstrass curves over GF(p^2) and their points.

The group of a supersingular curve over GF(p^2) is (Z/(p+1))^2, so the
exponent is p+1; order computations strip prime factors from p+1.
"""

import random

from .errors import NoSuchOrder, NotOnCurve, SingularCurve
from .fields import Fp2, check_field_prime, factorize, fp2_from_int, fp2_sqrt


class CurveSpec:
    """y^2 = x^3 + a*x + b over GF(p^2); rejects singular coefficients."""

    __slots__ = ("a", "b", "p")

    def __init__(self, a: Fp2, b: Fp2, p: int):
        check_field_prime(p)
        self.a = a
        self.b = b
        self.p = p
        four = fp2_from_int(4, p)
        twenty_seven = fp2_from_int(27, p)
        if not (four * a * a * a + twenty_seven * b * b):
            raise SingularCurve(f"4a^3 + 27b^2 = 0 for a={a}, b={b}")

    def key(self):
        return (self.p, self.a.key(), self.b.key())

    def __eq__(self, other):
        return isinstance(other, CurveSpec) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def rhs(self, x: Fp2) -> Fp2:
        return x * x * x + self.a * x + self.b

    def __repr__(self):
        return f"CurveSpec(a={self.a}, b={self.b}, p={self.p})"


class CurvePoint:
    """Affine point or the identity O."""

    __slots__ = ("x", "y")

    def __init__(self, x: Fp2 | None = None, y: Fp2 | None = None):
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def key(self):
        if self.is_infinity:
            return ()
        return (self.x.c0, self.x.c1, self.y.c0, self.y.c1)

    def __eq__(self, other):
        return isinstance(other, CurvePoint) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.is_infinity:
            return "CurvePoint(O)"
        return f"CurvePoint(x={self.x}, y={self.y})"


INFINITY = CurvePoint()


def is_on_curve(e: CurveSpec, pt: CurvePoint) -> bool:
    if pt.is_infinity:
        return True
    return pt.y * pt.y == e.rhs(pt.x)


def _require_on_curve(e: CurveSpec, pt: CurvePoint) -> None:
    if not is_on_curve(e, pt):
        raise NotOnCurve(f"{pt} not on {e}")


def point_add(e: CurveSpec, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    _require_on_curve(e, p1)
    _require_on_curve(e, p2)
    return _add(e, p1, p2)


def _add(e: CurveSpec, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    """The group law, unchecked: for points derived from checked ones."""
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    if p1.x == p2.x:
        if p1.y != p2.y or not p1.y:
            return INFINITY
        # Tangent line at a doubling.
        three = fp2_from_int(3, e.p)
        two = fp2_from_int(2, e.p)
        slope = (three * p1.x * p1.x + e.a) / (two * p1.y)
    else:
        slope = (p2.y - p1.y) / (p2.x - p1.x)
    x3 = slope * slope - p1.x - p2.x
    y3 = slope * (p1.x - x3) - p1.y
    return CurvePoint(x3, y3)


def scalar_mul(e: CurveSpec, k: int, pt: CurvePoint) -> CurvePoint:
    if k < 0:
        raise ValueError("scalar must be nonnegative")
    _require_on_curve(e, pt)
    result = INFINITY
    addend = pt
    while k:
        if k & 1:
            result = _add(e, result, addend)
        addend = _add(e, addend, addend)
        k >>= 1
    return result


def point_order(e: CurveSpec, pt: CurvePoint) -> int:
    """Exact multiplicative order, stripping prime factors from p+1."""
    _require_on_curve(e, pt)
    m = e.p + 1
    if not scalar_mul(e, m, pt).is_infinity:
        raise NotOnCurve("point order does not divide p+1; curve not supersingular?")
    for q in factorize(m):
        while m % q == 0 and scalar_mul(e, m // q, pt).is_infinity:
            m //= q
    return m


def random_point(e: CurveSpec, rng: random.Random) -> CurvePoint:
    """A uniformly sampled affine point (deterministic given rng state)."""
    p = e.p
    while True:
        x = Fp2(rng.randrange(p), rng.randrange(p), p)
        root = fp2_sqrt(e.rhs(x))
        if root is None:
            continue
        if root and rng.getrandbits(1):
            root = -root
        return CurvePoint(x, root)


def random_point_of_order(e: CurveSpec, n: int, seed) -> CurvePoint:
    """A point of exact order n, deterministic per seed."""
    if n < 1:
        raise NoSuchOrder("order must be positive")
    if (e.p + 1) % n != 0:
        raise NoSuchOrder(f"{n} does not divide p+1 = {e.p + 1}")
    if n == 1:
        return INFINITY
    rng = random.Random(seed)
    cofactor = (e.p + 1) // n
    while True:
        candidate = scalar_mul(e, cofactor, random_point(e, rng))
        if candidate.is_infinity:
            continue
        if point_order(e, candidate) == n:
            return candidate


def j_invariant(e: CurveSpec) -> Fp2:
    p = e.p
    a3 = fp2_from_int(4, p) * e.a * e.a * e.a
    return fp2_from_int(1728, p) * a3 / (a3 + fp2_from_int(27, p) * e.b * e.b)


_supersingular_cache: dict[tuple, bool] = {}


def is_supersingular(e: CurveSpec) -> bool:
    """True iff #E(GF(p^2)) = (p+1)^2; exact for every p, cached per curve.

    The verdict is a group-structure certificate over points drawn from a
    fixed-seed RNG.  A point P with (p+1)P != O proves False, since
    #E = (p+1)^2 forces E = (Z/(p+1))^2.  For each prime power q^f || p+1,
    two samples whose ((p+1)/q)-multiples R, R' span E[q] give points
    A1, A2 of order q^f for which (x, y) -> x*A1 + y*A2 is injective on
    (Z/q^f)^2, so q^(2f) | #E.  Once every q is certified, (p+1)^2 | #E,
    and Hasse's bound #E <= (p+1)^2 forces equality.  The loop ends: for
    p >= 7 an exponent dividing p+1 already forces #E = (p+1)^2, because
    every smaller divisor of (p+1)^2 lies below Hasse's floor (p-1)^2.
    At p = 3, where it does not, the nine x-values are counted instead.
    """
    key = e.key()
    if key not in _supersingular_cache:
        _supersingular_cache[key] = _certify_supersingular(e)
    return _supersingular_cache[key]


def _certify_supersingular(e: CurveSpec) -> bool:
    p = e.p
    if p == 3:
        # Hasse's floor (p-1)^2 = 4 admits #E = 4 or 8 with an exponent
        # dividing p+1 = 4, which no sample could refute.
        roots = [fp2_sqrt(e.rhs(Fp2(c0, c1, p))) for c0 in range(p) for c1 in range(p)]
        return 1 + sum(2 if r else 1 for r in roots if r is not None) == (p + 1) ** 2
    m = p + 1
    rng = random.Random(0x5517)
    # Prime q of p+1 -> the span <R> of its first nonzero R, or None.
    spans: dict[int, set | None] = dict.fromkeys(factorize(m))
    while spans:
        pt = random_point(e, rng)
        if not scalar_mul(e, m, pt).is_infinity:
            return False
        for q, span in list(spans.items()):
            r = scalar_mul(e, m // q, pt)
            if r.is_infinity:
                continue
            if span is None:
                spans[q] = {scalar_mul(e, i, r) for i in range(q)}
            elif r not in span:
                del spans[q]
    return True
