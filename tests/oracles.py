"""Brute-force oracles, quadratic in p: desk-scale reference answers for
the closed-form arithmetic in isoshare."""

import functools

from isoshare.curves import (
    INFINITY,
    CurvePoint,
    CurveSpec,
    point_add,
    random_point_of_order,
    scalar_mul,
)
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


def torsion_subgroups(e: CurveSpec, ell: int) -> list[CurvePoint]:
    """Smallest point of each cyclic subgroup of E[ell], sorted, by listing
    E[ell] = {a*P + b*Q} from two independent points P, Q of order ell."""
    p1 = random_point_of_order(e, ell, "oracle-0")
    span = {scalar_mul(e, i, p1) for i in range(ell)}
    attempt = 1
    while (p2 := random_point_of_order(e, ell, f"oracle-{attempt}")) in span:
        attempt += 1
    subgroups = set()
    for a in range(ell):
        for b in range(ell):
            r = point_add(e, scalar_mul(e, a, p1), scalar_mul(e, b, p2))
            if r != INFINITY:
                subgroups.add(frozenset(scalar_mul(e, i, r) for i in range(1, ell)))
    assert len(subgroups) == ell + 1
    return sorted((min(s, key=CurvePoint.key) for s in subgroups), key=CurvePoint.key)
