"""Supersingular short-Weierstrass curves over GF(p^2) and their points.

The group of a supersingular curve over GF(p^2) is (Z/(p+1))^2, so the
exponent is p+1; order computations strip prime factors from p+1.  The
group law, and the j-invariant a curve computes once with its singularity
test, run on the (c0, c1) int coordinates of their Fp2 inputs: sums stay
unreduced, each output coordinate is reduced once, and a quotient n/d is
n * conj(d) / |d|^2 with one pow(|d|^2, -1, p).
"""

import random

from .errors import NoSuchOrder, NotOnCurve, SingularCurve
from .fields import Fp2, check_field_prime, factorize, fp2_sqrt


class CurveSpec:
    """y^2 = x^3 + a*x + b over GF(p^2); rejects singular coefficients.

    Carries its j-invariant j = 1728 * 4a^3 / (4a^3 + 27b^2), whose
    denominator is the singularity test's."""

    __slots__ = ("a", "b", "p", "j")

    def __init__(self, a: Fp2, b: Fp2, p: int):
        check_field_prime(p)
        self.a = a
        self.b = b
        self.p = p
        a0, a1, b0, b1 = a.c0, a.c1, b.c0, b.c1
        s0, s1 = a0 * a0 - a1 * a1, 2 * a0 * a1
        n0, n1 = 4 * (s0 * a0 - s1 * a1) % p, 4 * (s0 * a1 + s1 * a0) % p
        d0, d1 = (n0 + 27 * (b0 * b0 - b1 * b1)) % p, (n1 + 54 * b0 * b1) % p
        norm = (d0 * d0 + d1 * d1) % p
        if not norm:
            raise SingularCurve(f"4a^3 + 27b^2 = 0 for a={a}, b={b}")
        k = 1728 * pow(norm, -1, p)
        self.j = Fp2((n0 * d0 + n1 * d1) * k, (n1 * d0 - n0 * d1) * k, p)

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
    if p1.x is None:
        return p2
    if p2.x is None:
        return p1
    p = e.p
    x0, x1, y0, y1 = p1.x.c0, p1.x.c1, p1.y.c0, p1.y.c1
    z0, z1 = p2.x.c0, p2.x.c1
    if x0 == z0 and x1 == z1:
        if y0 != p2.y.c0 or y1 != p2.y.c1 or not (y0 or y1):
            return INFINITY
        # Tangent line at a doubling: slope (3x^2 + a) / 2y.
        n0, n1 = 3 * (x0 * x0 - x1 * x1) + e.a.c0, 6 * x0 * x1 + e.a.c1
        d0, d1 = y0 + y0, y1 + y1
    else:
        n0, n1 = p2.y.c0 - y0, p2.y.c1 - y1
        d0, d1 = z0 - x0, z1 - x1
    k = pow((d0 * d0 + d1 * d1) % p, -1, p)
    s0 = (n0 * d0 + n1 * d1) * k % p
    s1 = (n1 * d0 - n0 * d1) * k % p
    x3_0 = (s0 * s0 - s1 * s1 - x0 - z0) % p
    x3_1 = (2 * s0 * s1 - x1 - z1) % p
    t0, t1 = x0 - x3_0, x1 - x3_1
    return CurvePoint(
        Fp2(x3_0, x3_1, p), Fp2(s0 * t0 - s1 * t1 - y0, s0 * t1 + s1 * t0 - y1, p)
    )


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
    """1728 * 4a^3 / (4a^3 + 27b^2), as the curve computed it."""
    return e.j


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
