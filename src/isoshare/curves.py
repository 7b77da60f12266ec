"""Supersingular short-Weierstrass curves over GF(p^2) and their points.

The group of a supersingular curve over GF(p^2) is (Z/(p+1))^2, so the
exponent is p+1; order computations strip prime factors from p+1.

Curves and points hold the reduced (c0, c1) ints of each GF(p^2) element;
the public constructors convert their Fp2 arguments once, and .a, .b, .j,
.x and .y build an Fp2 on each read.  The group law runs on a point's xy
tuple (x0, x1, y0, y1), () for O, which is also its key(): sums stay
unreduced, each output is reduced once, and n/d is n * conj(d) / |d|^2.
"""

import random

from .errors import NoSuchOrder, NotOnCurve, SingularCurve
from .fields import Fp2, _sqrt, check_field_prime, factorize


class CurveSpec:
    """y^2 = x^3 + a*x + b over GF(p^2); rejects singular coefficients.

    Carries its j-invariant j = 1728 * 4a^3 / (4a^3 + 27b^2), whose
    denominator is the singularity test's.  akey, bkey and jkey are the
    (c0, c1) pairs of a, b and j."""

    __slots__ = ("p", "akey", "bkey", "jkey")

    def __init__(self, a: Fp2, b: Fp2, p: int):
        check_field_prime(p)
        self._set(p, a.key(), b.key())

    def _set(self, p, akey, bkey) -> "CurveSpec":
        """__init__ on reduced pairs, for a p already checked."""
        self.p, self.akey, self.bkey = p, akey, bkey
        (a0, a1), (b0, b1) = akey, bkey
        s0, s1 = a0 * a0 - a1 * a1, 2 * a0 * a1
        n0, n1 = 4 * (s0 * a0 - s1 * a1) % p, 4 * (s0 * a1 + s1 * a0) % p
        d0, d1 = (n0 + 27 * (b0 * b0 - b1 * b1)) % p, (n1 + 54 * b0 * b1) % p
        norm = (d0 * d0 + d1 * d1) % p
        if not norm:
            raise SingularCurve(f"4a^3 + 27b^2 = 0 for a={self.a}, b={self.b}")
        k = 1728 * pow(norm, -1, p)
        self.jkey = (n0 * d0 + n1 * d1) * k % p, (n1 * d0 - n0 * d1) * k % p
        return self

    a = property(lambda self: Fp2(*self.akey, self.p))
    b = property(lambda self: Fp2(*self.bkey, self.p))
    j = property(lambda self: Fp2(*self.jkey, self.p))

    def key(self):
        return (self.p, self.akey, self.bkey)

    def __eq__(self, other):
        return isinstance(other, CurveSpec) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def rhs(self, x: Fp2) -> Fp2:
        return Fp2(*self._rhs(x.c0, x.c1), self.p)

    def _rhs(self, x0, x1) -> tuple[int, int]:
        """x^3 + a*x + b as a reduced pair."""
        (a0, a1), (b0, b1), p = self.akey, self.bkey, self.p
        s0, s1 = x0 * x0 - x1 * x1 + a0, 2 * x0 * x1 + a1
        return (s0 * x0 - s1 * x1 + b0) % p, (s0 * x1 + s1 * x0 + b1) % p

    def __repr__(self):
        return f"CurveSpec(a={self.a}, b={self.b}, p={self.p})"


class CurvePoint:
    """Affine point or the identity O, as its xy tuple (see the module
    docstring) and the p of its coordinates."""

    __slots__ = ("xy", "p")

    def __init__(self, x: Fp2 | None = None, y: Fp2 | None = None):
        self.xy = () if x is None else (x.c0, x.c1, y.c0, y.c1)
        self.p = None if x is None else x.p

    x = property(lambda self: Fp2(*self.xy[:2], self.p) if self.xy else None)
    y = property(lambda self: Fp2(*self.xy[2:], self.p) if self.xy else None)

    is_infinity = property(lambda self: not self.xy)

    def key(self):
        return self.xy

    def __eq__(self, other):
        return isinstance(other, CurvePoint) and self.xy == other.xy

    def __hash__(self):
        return hash(self.xy)

    def __repr__(self):
        return f"CurvePoint(x={self.x}, y={self.y})" if self.xy else "CurvePoint(O)"


def _point(xy, p: int) -> CurvePoint:
    """The CurvePoint of an xy tuple with coordinates mod p."""
    pt = object.__new__(CurvePoint)
    pt.xy, pt.p = xy, p
    return pt


def is_on_curve(e: CurveSpec, pt: CurvePoint) -> bool:
    if pt.is_infinity:
        return True
    x0, x1, y0, y1 = pt.xy
    return ((y0 * y0 - y1 * y1) % e.p, 2 * y0 * y1 % e.p) == e._rhs(x0, x1)


def _checked(e: CurveSpec, pt: CurvePoint):
    """pt's xy tuple, once pt is found on e."""
    if not is_on_curve(e, pt):
        raise NotOnCurve(f"{pt} not on {e}")
    return pt.xy


def point_add(e: CurveSpec, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    return _point(_add(e, _checked(e, p1), _checked(e, p2)), e.p)


def _add(e: CurveSpec, p1, p2):
    """The group law on xy tuples, unchecked: for points derived from
    checked ones."""
    if not p1:
        return p2
    if not p2:
        return p1
    p = e.p
    x0, x1, y0, y1 = p1
    z0, z1, w0, w1 = p2
    if x0 == z0 and x1 == z1:
        if y0 != w0 or y1 != w1 or not (y0 or y1):
            return ()
        # Tangent line at a doubling: slope (3x^2 + a) / 2y.
        a0, a1 = e.akey
        n0, n1 = 3 * (x0 * x0 - x1 * x1) + a0, 6 * x0 * x1 + a1
        d0, d1 = y0 + y0, y1 + y1
    else:
        n0, n1 = w0 - y0, w1 - y1
        d0, d1 = z0 - x0, z1 - x1
    k = pow((d0 * d0 + d1 * d1) % p, -1, p)
    s0 = (n0 * d0 + n1 * d1) * k % p
    s1 = (n1 * d0 - n0 * d1) * k % p
    x3_0 = (s0 * s0 - s1 * s1 - x0 - z0) % p
    x3_1 = (2 * s0 * s1 - x1 - z1) % p
    t0, t1 = x0 - x3_0, x1 - x3_1
    return x3_0, x3_1, (s0 * t0 - s1 * t1 - y0) % p, (s0 * t1 + s1 * t0 - y1) % p


def scalar_mul(e: CurveSpec, k: int, pt: CurvePoint) -> CurvePoint:
    if k < 0:
        raise ValueError("scalar must be nonnegative")
    return _point(_times(e, k, _checked(e, pt)), e.p)


def _times(e: CurveSpec, k: int, xy):
    """scalar_mul on an xy tuple, unchecked, by double and add from the top
    bit of k down, so no doubling is left over after the last bit."""
    result = ()
    for bit in bin(k)[2:]:
        result = _add(e, result, result)
        if bit == "1":
            result = _add(e, result, xy)
    return result


def point_order(e: CurveSpec, pt: CurvePoint) -> int:
    """Exact multiplicative order: for each prime power q^f || p+1, the
    number of times q must multiply R = ((p+1)/q^f) P to reach O.  A point
    whose R needs more than f of them has (p+1) P != O, so its curve is
    not supersingular, and it is refused with NoSuchOrder."""
    xy = _checked(e, pt)
    m, order = e.p + 1, 1
    for q, f in factorize(m).items():
        r = _times(e, m // q**f, xy)
        while r:
            if not f:
                raise NoSuchOrder(f"the order of {pt} does not divide p+1 = {m}")
            r, order, f = _times(e, q, r), order * q, f - 1
    return order


def random_point(e: CurveSpec, rng: random.Random) -> CurvePoint:
    """A uniformly sampled affine point (deterministic given rng state)."""
    p = e.p
    while True:
        x0, x1 = rng.randrange(p), rng.randrange(p)
        root = _sqrt(e._rhs(x0, x1), p)
        if root is None:
            continue
        if root != (0, 0) and rng.getrandbits(1):
            root = (-root[0] % p, -root[1] % p)
        return _point((x0, x1) + root, p)


def _has_order(e: CurveSpec, xy, n: int) -> bool:
    """Whether the xy tuple, unchecked, has exact order n: n | p+1 (which
    the order of a point on a supersingular curve divides), nP = O, and
    (n/q)P != O for each prime q | n."""
    return not (e.p + 1) % n and not _times(e, n, xy) and all(
        _times(e, n // q, xy) for q in factorize(n))


def random_point_of_order(e: CurveSpec, n: int, seed) -> CurvePoint:
    """A point of exact order n, deterministic per seed (see _of_order)."""
    if n < 1 or (e.p + 1) % n:
        raise NoSuchOrder(f"{n} is not a positive divisor of p+1 = {e.p + 1}")
    return _point(_of_order(e, n, random.Random(seed)), e.p)


def _of_order(e: CurveSpec, n: int, rng: random.Random):
    """The xy tuple of a point of exact order n, n | p+1: ((p+1)/n) R for
    random points R drawn from rng until one has it, by _has_order's test
    with n factored once.  A candidate with nP != O, which no
    supersingular curve has, ends the search with NoSuchOrder."""
    primes = factorize(n)
    while True:
        xy = _times(e, (e.p + 1) // n, random_point(e, rng).xy)
        if _times(e, n, xy):
            raise NoSuchOrder(f"{e} has points whose order does not divide p+1")
        if all(_times(e, n // q, xy) for q in primes):
            return xy


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
        roots = [_sqrt(e._rhs(c0, c1), p) for c0 in range(p) for c1 in range(p)]
        return 1 + sum(1 + any(r) for r in roots if r is not None) == (p + 1) ** 2
    m = p + 1
    rng = random.Random(0x5517)
    # Prime q of p+1 -> the span <R> of its first nonzero R, or None.
    spans: dict[int, set | None] = dict.fromkeys(factorize(m))
    while spans:
        pt = random_point(e, rng).xy
        if _times(e, m, pt):
            return False
        for q, span in list(spans.items()):
            r = _times(e, m // q, pt)
            if not r:
                continue
            if span is None:
                spans[q] = {_times(e, i, r) for i in range(q)}
            elif r not in span:
                del spans[q]
    return True
