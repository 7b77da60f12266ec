"""Deterministic invertible point encoding: sign bit + x coordinate.

Layout of an encoding of length L:
    [1 sign bit] [x.c0, big-endian] [x.c1, big-endian] [zero padding]
where each prime-field component occupies ceil(log2 p) bits.  The sign bit
is 1 iff y is the canonical square root of x^3 + a x + b, so decoding is
unambiguous.  Padding must be zero, making corruption detectable.
"""

from .curves import CurvePoint, CurveSpec, is_on_curve
from .errors import (
    IdentityNotEncodable,
    InvalidEncoding,
    LengthTooSmall,
    NotOnCurve,
)
from .fields import Fp2, fp2_sqrt


def component_bits(p: int) -> int:
    """Width of one GF(p) component: ceil(log2 p)."""
    return (p - 1).bit_length()


def min_encoding_length(p: int) -> int:
    """Smallest L the layout can use: sign + two components."""
    return 2 * component_bits(p) + 1


def int_to_bits(value: int, width: int) -> tuple[int, ...]:
    """Fixed-width big-endian bit vector."""
    if value < 0 or value >> width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def bits_to_int(bits) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def encode_point(e: CurveSpec, pt: CurvePoint, length: int) -> tuple[int, ...]:
    if pt.is_infinity:
        raise IdentityNotEncodable("the identity has no affine encoding")
    if not is_on_curve(e, pt):
        raise NotOnCurve(f"{pt} not on {e}")
    width = component_bits(e.p)
    needed = min_encoding_length(e.p)
    if length < needed:
        raise LengthTooSmall(f"L = {length} < {needed} for p = {e.p}")
    canonical = fp2_sqrt(e.rhs(pt.x))
    sign = 1 if pt.y == canonical else 0
    return (
        (sign,)
        + int_to_bits(pt.x.c0, width)
        + int_to_bits(pt.x.c1, width)
        + (0,) * (length - needed)
    )


def decode_point(e: CurveSpec, bits) -> CurvePoint:
    width = component_bits(e.p)
    needed = min_encoding_length(e.p)
    if any(b not in (0, 1) for b in bits):
        raise InvalidEncoding("bits must be 0 or 1")
    if len(bits) < needed:
        raise InvalidEncoding(f"encoding shorter than {needed} bits")
    if any(bits[needed:]):
        raise InvalidEncoding("nonzero padding")
    sign = bits[0]
    c0 = bits_to_int(bits[1 : 1 + width])
    c1 = bits_to_int(bits[1 + width : 1 + 2 * width])
    if c0 >= e.p or c1 >= e.p:
        raise InvalidEncoding("coordinate component out of range")
    x = Fp2(c0, c1, e.p)
    canonical = fp2_sqrt(e.rhs(x))
    if canonical is None:
        raise InvalidEncoding("x is not the abscissa of a curve point")
    if not canonical and sign == 0:
        # y = 0 points only ever encode with sign 1.
        raise InvalidEncoding("invalid sign bit for a two-torsion abscissa")
    y = canonical if sign else -canonical
    return CurvePoint(x, y)
