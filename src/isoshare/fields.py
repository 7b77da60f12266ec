"""Exact arithmetic over GF(p^2) = GF(p)(i) and GF(2^r), and the integer
primality and factorization under them.

GF(p^2) is GF(p) adjoined i with i^2 = -1, which forces p = 3 (mod 4).  The
package computes on (c0, c1) int pairs (_mul, _inv, _pow, _sqrt); Fp2 is the
value type users build and read.  GF(2^r) computes on ints too, modulo a
fixed primitive polynomial per degree, so its generator tau = x (1 for
r = 1) is the same in every run."""

import math


# Primitive polynomials over GF(2), bit i = coefficient of x^i.
# One fixed choice per degree; tests verify tau has full multiplicative order.
PRIMITIVE_POLY = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# for every n below MILLER_RABIN_LIMIT (Sorenson and Webster, 2015).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Exact for every n < MILLER_RABIN_LIMIT (about 3.3e24); above that it
    raises ValueError rather than return a probabilistic verdict.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"{n} is not below {MILLER_RABIN_LIMIT}, the bound up to which "
            "primality is decided exactly"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization in increasing order ({} for n < 2).

    Small primes go by trial division and the rest by Pollard's rho; every
    factor is confirmed by is_prime.
    """
    if n < 2:
        return {}
    fs: dict[int, int] = {}
    for q in _SMALL_PRIMES:
        while n % q == 0:
            fs[q] = fs.get(q, 0) + 1
            n //= q
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            fs[m] = fs.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            pending += [d, m // d]
    return dict(sorted(fs.items()))


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n (Pollard's rho, Floyd cycles)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d
        c += 1


# Moduli check_field_prime has accepted, so each p pays for one test.
_field_primes: set[int] = set()


def check_field_prime(p: int) -> None:
    """Reject moduli where GF(p)(i) with i^2 = -1 is not a field."""
    if p in _field_primes:
        return
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 4 != 3:
        raise ValueError(f"p = {p} must be 3 (mod 4)")
    _field_primes.add(p)


def sqrt_mod_p(u: int, p: int):
    """Square root in GF(p) for p = 3 (mod 4), or None if u is a non-square."""
    u %= p
    if u == 0:
        return 0
    r = pow(u, (p + 1) // 4, p)
    return r if r * r % p == u else None


class Fp2:
    """An element c0 + c1*i of GF(p^2) with i^2 = -1, as users build and
    read it; the package computes on its key() pair (see _mul)."""

    __slots__ = ("c0", "c1", "p")

    def __init__(self, c0: int, c1: int, p: int):
        self.p = p
        self.c0 = c0 % p
        self.c1 = c1 % p

    def __add__(self, other):
        return Fp2(self.c0 + other.c0, self.c1 + other.c1, self.p)

    def __sub__(self, other):
        return Fp2(self.c0 - other.c0, self.c1 - other.c1, self.p)

    def __mul__(self, other):
        return Fp2(*_mul(self.key(), other.key(), self.p), self.p)

    def __neg__(self):
        return Fp2(-self.c0, -self.c1, self.p)

    def __pow__(self, e: int):
        return Fp2(*_pow(self.key(), e, self.p), self.p)

    def inverse(self):
        return Fp2(*_inv(self.key(), self.p), self.p)

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return isinstance(other, Fp2) and self.key() == other.key() and self.p == other.p

    def __hash__(self):
        return hash((self.c0, self.c1, self.p))

    def __bool__(self):
        return self.c0 != 0 or self.c1 != 0

    def key(self):
        """Integer pair for deterministic orderings."""
        return (self.c0, self.c1)

    def __repr__(self):
        return f"Fp2({self.c0} + {self.c1}*i mod {self.p})"


def fp2_from_int(c0: int, p: int) -> Fp2:
    return Fp2(c0, 0, p)


# GF(p^2) on (c0, c1) int pairs, each result reduced mod p.
def _mul(x, y, p: int) -> tuple[int, int]:
    return (x[0] * y[0] - x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p


def _inv(x, p: int) -> tuple[int, int]:
    """1/x = conj(x) / |x|^2, with one pow(|x|^2, -1, p)."""
    n = (x[0] * x[0] + x[1] * x[1]) % p
    if not n:
        raise ZeroDivisionError("inverse of zero in GF(p^2)")
    k = pow(n, -1, p)
    return x[0] * k % p, -x[1] * k % p


def _div(x, y, p: int) -> tuple[int, int]:
    return _mul(x, _inv(y, p), p)


def _pow(x, e: int, p: int) -> tuple[int, int]:
    if e < 0:
        x, e = _inv(x, p), -e
    result = (1, 0)
    while e:
        if e & 1:
            result = _mul(result, x, p)
        x = _mul(x, x, p)
        e >>= 1
    return result


def _sqrt(a, p: int):
    """Canonical square root of the reduced pair a in GF(p^2), or None if
    a is a non-square: of the two roots, the one whose (c1, c0) pair is
    lexicographically smaller, so callers get a deterministic sign."""
    c0, c1 = a
    if not c1:
        s = sqrt_mod_p(c0, p)
        # A non-residue c0 has -c0 a residue, and (t*i)^2 = -t^2.
        root = (s, 0) if s is not None else (0, sqrt_mod_p(-c0, p))
    else:
        # Norm must be a residue for a to be a square.
        s = sqrt_mod_p(c0 * c0 + c1 * c1, p)
        if s is None:
            return None
        half = (p + 1) // 2
        x = sqrt_mod_p((c0 + s) * half, p)
        if x is None:
            x = sqrt_mod_p((c0 - s) * half, p)
        if not x:
            return None
        root = (x, c1 * half * pow(x, -1, p) % p)
    if _mul(root, root, p) != (c0, c1):
        return None
    other = (-root[0] % p, -root[1] % p)
    return other if (other[1], other[0]) < (root[1], root[0]) else root


def fp2_sqrt(a: Fp2):
    """_sqrt on an Fp2: the canonical root as an Fp2, or None."""
    root = _sqrt(a.key(), a.p)
    return None if root is None else Fp2(*root, a.p)


class BinaryField:
    """GF(2^r) in polynomial basis with a fixed primitive polynomial.  Its
    elements are the ints 0 .. 2^r - 1, bit b the coefficient of x^b."""

    def __init__(self, r: int):
        if r not in PRIMITIVE_POLY:
            raise ValueError(f"no primitive polynomial on file for r = {r}")
        self.r = r
        self.poly = PRIMITIVE_POLY[r]
        self.size = 1 << r

    def __call__(self, val: int) -> int:
        """val itself, once checked to be an element."""
        if type(val) not in (int, bool) or not 0 <= val < self.size:
            raise ValueError(f"value {val!r} outside GF(2^{self.r})")
        return val

    def mul(self, a: int, b: int) -> int:
        """a * b mod poly, for an element a and any polynomial b (so
        mul(1, 2) is x mod poly): the carry-less product, reducing each
        shift of a by poly as it reaches x^r."""
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & self.size:
                a ^= self.poly
        return acc

    def __repr__(self):
        return f"BinaryField(r={self.r}, poly={bin(self.poly)})"


GF2 = BinaryField(1)
