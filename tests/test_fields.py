import random

import pytest
from oracles import element_to_bits

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


def test_gf8_tau_cubed():
    # Reduce x^3 mod x^3 + x + 1 by hand: x^3 = x + 1.
    f = BinaryField(3)
    assert f.tau**3 == f.tau + f.one


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
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        if x:
            assert x * x.inverse() == f.one


@pytest.mark.parametrize("r", range(1, 9))
def test_tau_has_full_order(r):
    f = BinaryField(r)
    order = f.size - 1
    acc = f.one
    seen = set()
    for _ in range(order):
        acc = acc * f.tau
        seen.add(acc.val)
    assert acc == f.one
    assert len(seen) == order


def test_primitive_poly_table_degrees():
    for r, poly in PRIMITIVE_POLY.items():
        assert poly.bit_length() == r + 1


def _from_bits(bits, field):
    return field(sum(b << i for i, b in enumerate(bits)))


def test_bit_expansion_bijective_r4():
    f = BinaryField(4)
    seen = set()
    for el in f.elements():
        bits = element_to_bits(el)
        assert len(bits) == 4
        assert _from_bits(bits, f) == el
        seen.add(bits)
    assert len(seen) == 16


def test_bit_expansion_conventions():
    f = BinaryField(4)
    assert element_to_bits(f.zero) == (0, 0, 0, 0)
    assert element_to_bits(f.one) == (1, 0, 0, 0)
    assert _from_bits(element_to_bits(f.tau**5), f) == f.tau**5


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
