"""Deterministic invertible point encoding: sign bit + x coordinate.

Layout of an encoding of length L:
    [1 sign bit] [x.c0, big-endian] [x.c1, big-endian] [zero padding]
where each prime-field component occupies ceil(log2 p) bits.  The sign bit
is 1 iff y is the canonical square root of x^3 + a x + b, so decoding is
unambiguous.  Padding must be zero, making corruption detectable.

int_to_bits and bits_to_int are the package's one conversion between a
sequence of bits, MSB first, and an int; the codes, the share files and
this layout all use them.  Only LinearCode._pack packs otherwise, as the
one packer of words that hold ERASED or r-bit symbols.
"""

from .curves import CurvePoint, CurveSpec, _checked, _point
from .errors import IdentityNotEncodable, InvalidEncoding, LengthTooSmall
from .fields import GF2, _sqrt


def component_bits(p: int) -> int:
    """Width of one GF(p) component: ceil(log2 p)."""
    return (p - 1).bit_length()


def min_encoding_length(p: int) -> int:
    """Smallest L the layout can use: sign + two components."""
    return 2 * component_bits(p) + 1


# Swaps each binary digit with the byte of its bit, b"0" with 0 and b"1"
# with 1, so the helpers below convert through one string of digits.
_BITS = bytes.maketrans(b"01\x00\x01", b"\x00\x01" b"01")


def int_to_bits(value: int, width: int) -> tuple[int, ...]:
    """Fixed-width big-endian bit vector: MSB first."""
    if value < 0 or value >> width:
        raise ValueError(f"{value} does not fit in {width} bits")
    # A leading 1 keeps the width's leading zeros, and width 0, in bin's digits.
    return tuple(bin(value | 1 << width)[3:].encode().translate(_BITS))


def bits_to_int(bits) -> int:
    """Inverse of int_to_bits: the int of a sequence of bits, MSB first
    (0 for none)."""
    return int(b"0" + bytes(bits).translate(_BITS), 2)


def encode_point(e: CurveSpec, pt: CurvePoint, length: int) -> tuple[int, ...]:
    if pt.is_infinity:
        raise IdentityNotEncodable("the identity has no affine encoding")
    x0, x1, y0, y1 = _checked(e, pt)
    width = component_bits(e.p)
    needed = min_encoding_length(e.p)
    if length < needed:
        raise LengthTooSmall(f"L = {length} < {needed} for p = {e.p}")
    sign = 1 if (y0, y1) == _sqrt(e._rhs(x0, x1), e.p) else 0
    bits = int_to_bits(x0, width) + int_to_bits(x1, width)
    return (sign,) + bits + (0,) * (length - needed)


def decode_point(e: CurveSpec, bits) -> CurvePoint:
    width = component_bits(e.p)
    needed = min_encoding_length(e.p)
    if not GF2._are_elements(bits):
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
    y = _sqrt(e._rhs(c0, c1), e.p)
    if y is None:
        raise InvalidEncoding("x is not the abscissa of a curve point")
    if y == (0, 0) and sign == 0:
        # y = 0 points only ever encode with sign 1.
        raise InvalidEncoding("invalid sign bit for a two-torsion abscissa")
    if not sign:
        y = (-y[0] % e.p, -y[1] % e.p)
    return _point((c0, c1) + y, e.p)
