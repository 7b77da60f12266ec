import random

import pytest

from isoshare.codec import (
    bits_to_int,
    component_bits,
    decode_point,
    encode_point,
    int_to_bits,
    min_encoding_length,
)
from isoshare.curves import CurvePoint, random_point
from isoshare.errors import (
    IdentityNotEncodable,
    InvalidEncoding,
    LengthTooSmall,
)
from isoshare.fields import Fp2, fp2_sqrt

P = 431


def test_widths():
    assert component_bits(431) == 9
    assert min_encoding_length(431) == 19


def test_int_bit_helpers():
    assert int_to_bits(5, 4) == (0, 1, 0, 1)
    assert bits_to_int((0, 1, 0, 1)) == 5
    with pytest.raises(ValueError):
        int_to_bits(16, 4)


def test_roundtrip_random_points(e0):
    rng = random.Random(20)
    for _ in range(200):
        q = random_point(e0, rng)
        enc = encode_point(e0, q, 19)
        assert len(enc) == 19
        assert decode_point(e0, enc) == q


def test_roundtrip_with_padding(e0):
    rng = random.Random(21)
    for _ in range(50):
        q = random_point(e0, rng)
        enc = encode_point(e0, q, 25)
        assert len(enc) == 25
        assert enc[19:] == (0,) * 6
        assert decode_point(e0, enc) == q


def test_injectivity_sampled(e0):
    rng = random.Random(22)
    seen = {}
    for _ in range(300):
        q = random_point(e0, rng)
        enc = encode_point(e0, q, 19)
        if enc in seen:
            assert seen[enc] == q
        seen[enc] = q
    assert len(seen) >= 250


def test_identity_not_encodable(e0):
    with pytest.raises(IdentityNotEncodable):
        encode_point(e0, CurvePoint(), 19)


def test_length_too_small(e0):
    rng = random.Random(23)
    q = random_point(e0, rng)
    with pytest.raises(LengthTooSmall):
        encode_point(e0, q, 1)
    with pytest.raises(LengthTooSmall):
        encode_point(e0, q, 18)


def test_decode_rejects_nonzero_padding(e0):
    rng = random.Random(24)
    q = random_point(e0, rng)
    bits = list(encode_point(e0, q, 25))
    bits[-1] = 1
    with pytest.raises(InvalidEncoding):
        decode_point(e0, tuple(bits))


def test_decode_rejects_out_of_range_component(e0):
    # c0 = 511 >= 431 with c1 = 0.
    bits = (1,) + int_to_bits(511, 9) + (0,) * 9
    with pytest.raises(InvalidEncoding):
        decode_point(e0, tuple(bits))


def test_decode_rejects_nonsquare_abscissa(e0):
    hit = 0
    for c0 in range(P):
        x = Fp2(c0, 3, P)
        if fp2_sqrt(e0.rhs(x)) is None:
            bits = (1,) + int_to_bits(c0, 9) + int_to_bits(3, 9)
            with pytest.raises(InvalidEncoding):
                decode_point(e0, tuple(bits))
            hit += 1
            if hit == 5:
                break
    assert hit == 5


def test_decode_rejects_entries_other_than_bits(e0):
    # A float equals its bit but is no int: it cannot be shifted into place.
    q = random_point(e0, random.Random(26))
    for bad in (2, -1, "1", 1.0, 0.0, [1]):
        bits = list(encode_point(e0, q, 25))
        bits[3] = bad
        with pytest.raises(InvalidEncoding):
            decode_point(e0, tuple(bits))


def test_decode_rejects_short_encoding(e0):
    with pytest.raises(InvalidEncoding):
        decode_point(e0, (0,) * 10)


def test_sign_bit_distinguishes_negatives(e0):
    rng = random.Random(25)
    for _ in range(50):
        q = random_point(e0, rng)
        if not q.y:
            continue
        neg = type(q)(q.x, -q.y)
        e_pos = encode_point(e0, q, 19)
        e_neg = encode_point(e0, neg, 19)
        assert e_pos[1:] == e_neg[1:]
        assert e_pos[0] != e_neg[0]


def test_int_bit_helpers_match_the_per_bit_reference():
    # The helpers convert through one string of digits; the per-bit loops
    # are the reference, widths 0 and 1 and bools as bits included.
    rng = random.Random(27)
    for width in [*range(20), 63, 64, 65, 186, 441]:
        for value in {0, (1 << width) - 1, rng.getrandbits(width)}:
            bits = tuple(value >> (width - 1 - i) & 1 for i in range(width))
            assert int_to_bits(value, width) == bits
            assert bits_to_int(bits) == bits_to_int(list(map(bool, bits))) == value
    with pytest.raises(ValueError):
        int_to_bits(-1, 4)


def test_decode_rejects_sign_bit_0_on_a_two_torsion_abscissa(e0):
    # (0, 0) has y = 0, so its one encoding carries sign bit 1.
    two_torsion = CurvePoint(Fp2(0, 0, P), Fp2(0, 0, P))
    bits = encode_point(e0, two_torsion, 19)
    assert bits[0] == 1 and decode_point(e0, bits) == two_torsion
    with pytest.raises(InvalidEncoding, match="two-torsion"):
        decode_point(e0, (0,) + bits[1:])
