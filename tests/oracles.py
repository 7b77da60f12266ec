"""Brute-force oracles, quadratic in p: desk-scale reference answers for
the closed-form arithmetic in isoshare."""

import functools

from isoshare.curves import CurveSpec
from isoshare.fields import Fp2


def _elements(p: int):
    return (Fp2(c0, c1, p) for c0 in range(p) for c1 in range(p))


@functools.cache
def _squares_and_cubes(p: int):
    squares = frozenset((el * el).key() for el in _elements(p))
    return squares, [(x, x * x * x) for x in _elements(p)]


def count_points(e: CurveSpec) -> int:
    """#E(GF(p^2)) by exhaustion over every x, with the point at infinity."""
    squares, cubes = _squares_and_cubes(e.p)
    total = 1
    for x, x3 in cubes:
        rhs = x3 + e.a * x + e.b
        if not rhs:
            total += 1
        elif rhs.key() in squares:
            total += 2
    return total


def cube_table(p: int) -> dict[tuple, list[Fp2]]:
    """Every cube of GF(p^2), keyed by its (c0, c1) pair, to its sorted roots."""
    table: dict[tuple, list[Fp2]] = {}
    for v in _elements(p):
        table.setdefault((v * v * v).key(), []).append(v)
    return table
