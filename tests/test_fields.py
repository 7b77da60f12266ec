import random

import pytest
from oracles import ElementField, symbol_bits

from isoshare.fields import (
    MILLER_RABIN_LIMIT,
    PRIMITIVE_POLY,
    BinaryField,
    Fp2,
    check_field_prime,
    factorize,
    is_prime,
    fp2_sqrt,
    fp2_from_int,
)


def test_i_squared_is_minus_one():
    i = Fp2(0, 1, 431)
    assert i * i == Fp2(430, 0, 431)


def test_fp2_inverse_random():
    rng = random.Random(1)
    for _ in range(50):
        a = Fp2(rng.randrange(431), rng.randrange(431), 431)
        if not a:
            continue
        assert a * a.inverse() == fp2_from_int(1, 431)


def test_fp2_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        Fp2(0, 0, 431).inverse()


def _power(f, x, e):
    """x^e in the int field f, by e multiplications."""
    acc = 1
    for _ in range(e):
        acc = f.mul(acc, x)
    return acc


def test_gf8_tau_cubed():
    # Reduce x^3 mod x^3 + x + 1 by hand: x^3 = x + 1.
    f = BinaryField(3)
    assert _power(f, 0b10, 3) == 0b10 ^ 0b01


@pytest.mark.parametrize("r", range(1, 7))
def test_binary_field_mul_matches_oracle(r):
    # Every product of GF(2^r), r <= 6, against the oracle's elements, whose
    # product is the full carry-less product reduced afterwards.
    f, ref = BinaryField(r), ElementField(r)
    for a in range(f.size):
        for b in range(f.size):
            assert f.mul(a, b) == (ref(a) * ref(b)).val, (a, b)


def test_binary_field_elements_are_ints():
    # An element of GF(2^r) is the int itself: the field checks it and hands
    # it back, and builds no object for it.
    for r in (1, 3, 8):
        f = BinaryField(r)
        for v in range(f.size):
            got = f(v)
            assert type(got) is int and got == v
        for bad in (-1, f.size, 1 << 20, 1.0, "1", None):
            with pytest.raises(ValueError):
                f(bad)


def test_field_axioms_random():
    rng = random.Random(2)
    f = BinaryField(5)
    for _ in range(50):
        a = Fp2(rng.randrange(431), rng.randrange(431), 431)
        b = Fp2(rng.randrange(431), rng.randrange(431), 431)
        c = Fp2(rng.randrange(431), rng.randrange(431), 431)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        x = f(rng.randrange(32))
        y = f(rng.randrange(32))
        z = f(rng.randrange(32))
        assert f.mul(x ^ y, z) == f.mul(x, z) ^ f.mul(y, z)
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, y) == f.mul(y, x)
        if x:
            # x^(q - 2) is the inverse of x.
            assert f.mul(x, _power(f, x, f.size - 2)) == 1


@pytest.mark.parametrize("r", range(1, 9))
def test_tau_has_full_order(r):
    # tau = x reduced mod the field's polynomial, 1 for r = 1.
    f = BinaryField(r)
    tau = f.mul(1, 2)
    assert tau == (2 if r > 1 else 1)
    order = f.size - 1
    acc = 1
    seen = set()
    for _ in range(order):
        acc = f.mul(acc, tau)
        seen.add(acc)
    assert acc == 1
    assert len(seen) == order


def test_primitive_poly_table_degrees():
    for r, poly in PRIMITIVE_POLY.items():
        assert poly.bit_length() == r + 1


def _from_bits(bits, field):
    return field(sum(b << i for i, b in enumerate(bits)))


def test_bit_expansion_bijective_r4():
    f = BinaryField(4)
    seen = set()
    for el in range(f.size):
        bits = symbol_bits(el, f.r)
        assert len(bits) == 4
        assert _from_bits(bits, f) == el
        seen.add(bits)
    assert len(seen) == 16


def test_bit_expansion_conventions():
    f = BinaryField(4)
    assert symbol_bits(0, 4) == (0, 0, 0, 0)
    assert symbol_bits(1, 4) == (1, 0, 0, 0)
    assert symbol_bits(2, 4) == (0, 1, 0, 0)
    tau5 = _power(f, 2, 5)
    assert _from_bits(symbol_bits(tau5, 4), f) == tau5


def test_fp2_sqrt_zero():
    assert fp2_sqrt(Fp2(0, 0, 431)) == Fp2(0, 0, 431)


def test_fp2_sqrt_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        s = Fp2(rng.randrange(431), rng.randrange(431), 431)
        a = s * s
        root = fp2_sqrt(a)
        assert root is not None
        assert root * root == a


def test_fp2_sqrt_canonical_sign():
    rng = random.Random(4)
    for _ in range(50):
        s = Fp2(rng.randrange(431), rng.randrange(431), 431)
        if not s:
            continue
        root = fp2_sqrt(s * s)
        other = -root
        assert (root.c1, root.c0) <= (other.c1, other.c0)


def test_fp2_sqrt_nonsquare():
    # Independent oracle: Euler criterion a^((p^2-1)/2) = -1 for non-squares.
    p = 431
    exponent = (p * p - 1) // 2
    minus_one = Fp2(p - 1, 0, p)
    found = 0
    for c0 in range(p):
        a = Fp2(c0, 3, p)
        if a**exponent == minus_one:
            assert fp2_sqrt(a) is None
            found += 1
            if found >= 5:
                break
    assert found == 5


def test_square_count_exhaustive_small():
    p = 43
    squares = set()
    for c0 in range(p):
        for c1 in range(p):
            el = Fp2(c0, c1, p)
            squares.add((el * el).key())
    assert len(squares) == (p * p + 1) // 2


def test_check_field_prime():
    check_field_prime(431)
    with pytest.raises(ValueError):
        check_field_prime(433)  # 1 mod 4
    with pytest.raises(ValueError):
        check_field_prime(435)  # composite


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(10000):
        assert is_prime(n) == trial(n), n


def test_is_prime_large_and_strong_pseudoprimes():
    assert is_prime(2**61 - 1)
    assert is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) * (2**19 - 1))
    # Composites that pass Miller-Rabin to every prime base up to 7, 23 and
    # 37 in turn; the 13 bases used here still reject each of them.
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)


def test_is_prime_refuses_beyond_exact_range():
    # The limit is itself a composite that passes all 13 bases.
    big = MILLER_RABIN_LIMIT
    with pytest.raises(ValueError, match="decided exactly"):
        is_prime(big)
    with pytest.raises(ValueError, match="decided exactly"):
        check_field_prime(big)
    assert not is_prime(MILLER_RABIN_LIMIT + 1)  # even: exact at any size


def _trial_division(n):
    fs = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs[d] = fs.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fs[n] = fs.get(n, 0) + 1
    return fs


def test_factorize_matches_trial_division():
    for n in range(5000):
        assert factorize(n) == _trial_division(n), n
    # Factors past the trial-division primes go to Pollard's rho.
    big = {43: 2, 47: 3, 1000003: 1, 2147483647: 1}
    n = 1
    for q, f in big.items():
        n *= q**f
    assert factorize(n) == big
    assert factorize(2**61) == {2: 61}
    assert factorize(2**61 - 1) == {2**61 - 1: 1}


def test_binary_field_without_a_primitive_polynomial_is_refused():
    assert 17 not in PRIMITIVE_POLY
    with pytest.raises(ValueError, match="r = 17"):
        BinaryField(17)
