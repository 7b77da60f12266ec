"""Reference answers for the tests: brute-force oracles, quadratic in p,
for the closed-form arithmetic in isoshare; the unpruned walk enumeration
of the recovery search, and the smallest matching walk among it, against
which the pruned search is checked; the chord-and-tangent law and the
j-invariant on Fp2 objects, against which the int-coordinate kernels in
isoshare.curves are checked; Velu's formulas in translation-sum form, with
that law, against which the steps' pair sums and rational images are checked;
codeword enumeration and minimum distance by brute force; GF(2^r) element
objects whose product is a full carry-less product reduced afterwards by
long division, against which BinaryField's int multiply is checked, and
the RS generator polynomial as a product of element polynomials, against
which rs_generator_poly is checked; dense field-element Gaussian elimination
and the codes' generator rows built from those elements alone, against
which the packed construction and elimination of every code's binary image
are checked; the paper's symbol-level burst decode over GF(2^r) elements,
against which recovery's block-erased bit-level decode is checked; and
helpers only the tests use."""

import functools

from isoshare.codes import ERASED, LinearCode

from isoshare.curves import (
    INFINITY,
    CurvePoint,
    CurveSpec,
    j_invariant,
    point_add,
    random_point_of_order,
    scalar_mul,
)
from isoshare.errors import Ambiguous, Inconsistent, IsoshareError
from isoshare.fields import PRIMITIVE_POLY, Fp2, fp2_from_int
from isoshare.isogeny import (
    IsogenyChain,
    _canonical_generator,
    _other_subgroup_point,
    ell_torsion_subgroups,
    evaluate_chain,
    isomorphism_scales,
    velu_step,
)


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


def chord_tangent_add(e: CurveSpec, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    """P1 + P2 by the chord-and-tangent law, computed on Fp2 objects."""
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    if p1.x == p2.x:
        if p1.y != p2.y or not p1.y:
            return INFINITY
        # Tangent line at a doubling.
        three = fp2_from_int(3, e.p)
        two = fp2_from_int(2, e.p)
        slope = (three * p1.x * p1.x + e.a) / (two * p1.y)
    else:
        slope = (p2.y - p1.y) / (p2.x - p1.x)
    x3 = slope * slope - p1.x - p2.x
    y3 = slope * (p1.x - x3) - p1.y
    return CurvePoint(x3, y3)


def fp2_j_invariant(e: CurveSpec) -> Fp2:
    """1728 * 4a^3 / (4a^3 + 27b^2), computed on Fp2 objects."""
    p = e.p
    a3 = fp2_from_int(4, p) * e.a * e.a * e.a
    return fp2_from_int(1728, p) * a3 / (a3 + fp2_from_int(27, p) * e.b * e.b)


def translation_codomain(step) -> CurveSpec:
    """The codomain of step from kernel sums over all ell-1 nonzero kernel
    points Q: (a - 5t, b - 7w), t = sum g_x(Q), w = sum(2 y_Q^2 + x_Q g_x(Q)),
    g_x(Q) = 3 x_Q^2 + a, then scaled by (u^4, u^6)."""
    e, p = step.domain, step.domain.p
    t = w = Fp2(0, 0, p)
    for q in step.kernel_points:
        gx = fp2_from_int(3, p) * q.x * q.x + e.a
        t = t + gx
        w = w + fp2_from_int(2, p) * q.y * q.y + q.x * gx
    u2 = step.scale * step.scale
    return CurveSpec(
        u2 * u2 * (e.a - fp2_from_int(5, p) * t),
        u2 * u2 * u2 * (e.b - fp2_from_int(7, p) * w),
        p,
    )


def translation_image(step, pt: CurvePoint) -> CurvePoint:
    """step's image of pt as pt plus, over the nonzero kernel points Q,
    (x(P + Q) - x(Q), y(P + Q) - y(Q)), the sums by chord_tangent_add; then
    scaled by (u^2, u^3)."""
    if pt.is_infinity or pt in step.kernel_points:
        return INFINITY
    x, y = pt.x, pt.y
    for q in step.kernel_points:
        shifted = chord_tangent_add(step.domain, pt, q)
        x = x + shifted.x - q.x
        y = y + shifted.y - q.y
    u = step.scale
    return CurvePoint(u * u * x, u * u * u * y)


def exhaustive_walks(e0: CurveSpec, ell: int, e: int):
    """All non-backtracking length-e walks, kernels in canonical sorted order."""
    stack = [(IsogenyChain(e0), None)]
    while stack:
        chain, forbidden = stack.pop()
        if len(chain) == e:
            yield chain
            continue
        current = chain.codomain
        subgroups = ell_torsion_subgroups(current, ell)
        for kernel in reversed(subgroups):
            if forbidden is not None and kernel.key() == forbidden:
                continue
            step = velu_step(current, kernel, ell)
            aux = _other_subgroup_point(subgroups, kernel)
            next_forbidden = _canonical_generator(
                step.codomain, step.evaluate(aux).key(), ell
            )
            stack.append((chain.extended(step), next_forbidden))


@functools.cache
def _walk_images(e0: CurveSpec, ell: int, e: int, point: CurvePoint):
    return [(w, evaluate_chain(w, point)) for w in exhaustive_walks(e0, ell, e)]


def smallest_matching_walk(e0, e1, point, image, ell: int, e: int):
    """recover_isogeny by brute force: the smallest sort_key among all
    non-backtracking length-e walks whose codomain some isomorphism
    (x, y) -> (u^2 x, u^3 y) maps onto e1 and their image of point onto
    image; None if no walk does."""
    found = []
    for walk, mapped in _walk_images(e0, ell, e, point):
        if j_invariant(walk.codomain) != j_invariant(e1):
            continue
        for u in isomorphism_scales(walk.codomain, e1):
            if mapped.is_infinity:
                moved = INFINITY
            else:
                moved = CurvePoint(u * u * mapped.x, u * u * u * mapped.y)
            if moved == image:
                found.append(walk.sort_key())
    return min(found, default=None)


def point_neg(pt: CurvePoint) -> CurvePoint:
    """-P: (x, y) -> (x, -y)."""
    if pt.is_infinity:
        return INFINITY
    return CurvePoint(pt.x, -pt.y)


def _carryless_mul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


class ElementField:
    """GF(2^r) modulo PRIMITIVE_POLY[r], its elements BinaryFieldElement
    objects: the reference for isoshare.fields.BinaryField, whose elements
    are ints."""

    def __init__(self, r: int):
        self.r = r
        self.poly = PRIMITIVE_POLY[r]
        self.size = 1 << r
        self.zero = BinaryFieldElement(0, self)
        self.one = BinaryFieldElement(1, self)
        # tau = x for r >= 2; GF(2) has only the trivial generator 1.
        self.tau = BinaryFieldElement(2 if r >= 2 else 1, self)

    def __call__(self, val: int) -> "BinaryFieldElement":
        if not 0 <= val < self.size:
            raise ValueError(f"value {val} outside GF(2^{self.r})")
        return BinaryFieldElement(val, self)

    def reduce(self, val: int) -> int:
        """val mod poly, by long division."""
        r, poly = self.r, self.poly
        while val.bit_length() > r:
            val ^= poly << (val.bit_length() - r - 1)
        return val

    def elements(self):
        return [BinaryFieldElement(v, self) for v in range(self.size)]


class BinaryFieldElement:
    """An element of an ElementField, coefficients packed as bits of an int."""

    __slots__ = ("val", "field")

    def __init__(self, val: int, field: ElementField):
        self.val = val
        self.field = field

    def __add__(self, other):
        return BinaryFieldElement(self.val ^ other.val, self.field)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        return BinaryFieldElement(
            self.field.reduce(_carryless_mul(self.val, other.val)), self.field
        )

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        if self.val == 0:
            raise ZeroDivisionError("inverse of zero in GF(2^r)")
        return self ** (self.field.size - 2)

    def __eq__(self, other):
        return (
            isinstance(other, BinaryFieldElement)
            and self.val == other.val
            and self.field.r == other.field.r
        )

    def __hash__(self):
        return hash((self.val, self.field.r))

    def __bool__(self):
        return self.val != 0

    def __int__(self):
        return self.val

    def __repr__(self):
        return f"GF(2^{self.field.r}):{self.val:#x}"


ELEMENT_GF2 = ElementField(1)


def poly_mul(a, b):
    """Product of element coefficient lists (lowest degree first)."""
    field = a[0].field
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def generator_poly(r: int, d: int, m: int = 0):
    """rs_generator_poly(r, d, m) as elements: the product of the
    x + tau^(m+j), j = 1 .. d-1, by poly_mul."""
    field = ElementField(r)
    g = [field.one]
    for j in range(1, d):
        g = poly_mul(g, [field.tau ** (m + j), field.one])
    return g


def poly_divmod(num, den):
    """Quotient and remainder of coefficient lists (lowest degree first)."""
    field = num[0].field
    num = list(num)
    q = [field.zero] * max(1, len(num) - len(den) + 1)
    inv_lead = den[-1].inverse()
    for shift in range(len(num) - len(den), -1, -1):
        coeff = num[shift + len(den) - 1] * inv_lead
        q[shift] = coeff
        for i, dcoeff in enumerate(den):
            num[shift + i] = num[shift + i] - coeff * dcoeff
    rem = num[: len(den) - 1] or [field.zero]
    return q, rem


class TooLarge(IsoshareError, ValueError):
    """Brute-force search space exceeds the safety guard."""


_BRUTE_FORCE_GUARD = 1 << 20


def consistent_count(code: LinearCode, word) -> int:
    """Number of codewords agreeing with `word` off its erasures."""
    try:
        code.erasure_decode(word)
        return 1
    except Ambiguous as amb:
        return amb.count
    except Inconsistent:
        return 0


def burst_symbol_span(burst_len: int, symbol_bits: int) -> int:
    """Max adjacent symbols a burst of consecutive bits can touch."""
    if burst_len < 1 or symbol_bits < 1:
        raise ValueError("lengths must be positive")
    return (burst_len - 1 + symbol_bits - 1) // symbol_bits + 1


def enumerate_codewords(code: LinearCode):
    """All codewords; guarded against oversize enumerations."""
    total = code.field.size ** code.dimension
    if total > _BRUTE_FORCE_GUARD:
        raise TooLarge(f"{total} codewords exceeds the enumeration guard")
    msg = [0] * code.dimension
    for _ in range(total):
        yield code.encode(msg)
        for i in range(code.dimension):
            msg[i] += 1
            if msg[i] < code.field.size:
                break
            msg[i] = 0


def min_distance_bruteforce(code: LinearCode) -> int:
    """Minimum nonzero-codeword weight by full enumeration."""
    best = None
    for cw in enumerate_codewords(code):
        weight = sum(1 for s in cw if s)
        if weight and (best is None or weight < best):
            best = weight
    if best is None:
        raise ValueError("the zero code has no minimum distance")
    return best


def rref(rows, ncols, pivot_order=None):
    """Reduced row echelon form of rows of field elements.

    pivot_order fixes the column preference when choosing pivots; columns
    not listed are tried afterwards in natural order.  Returns the reduced
    rows (zero rows dropped) and the pivot column of each.
    """
    cols = list(range(ncols) if pivot_order is None else pivot_order)
    chosen = set(cols)
    cols += [c for c in range(ncols) if c not in chosen]
    rows = [list(r) for r in rows]
    pivots = []
    top = 0
    for col in cols:
        pivot_row = None
        for i in range(top, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
        inv = rows[top][col].inverse()
        rows[top] = [x * inv for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
        top += 1
        if top == len(rows):
            break
    return rows[:top], pivots


def nullspace(rows, ncols, field):
    """Basis of {x : rows . x = 0} as a list of vectors."""
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def solve(rows, rhs, ncols, field):
    """Solve rows . x = rhs.

    Returns (solution, num_free) where solution has free variables set to
    zero, or (None, 0) when the system is inconsistent.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug, ncols + 1, pivot_order=range(ncols))
    # A pivot in the augmented column means 0 = nonzero.
    if ncols in pivots:
        return None, 0
    solution = [field.zero] * ncols
    for row, pc in zip(reduced, pivots):
        solution[pc] = row[-1]
    return solution, ncols - len(pivots)


def generic_build(field, rows, info_positions=None):
    """(generator, info_positions, parity) of a code over `field`, as
    LinearCode builds them, through rref and nullspace on field elements."""
    length = len(rows[0])
    if info_positions is None:
        reduced, pivots = rref(rows, length)
        reduced = [row for _, row in sorted(zip(pivots, reduced))]
        pivots = sorted(pivots)
    else:
        reduced, pivots = rref(rows, length, pivot_order=info_positions)
    generator = [tuple(r) for r in reduced]
    parity = [tuple(h) for h in nullspace(generator, length, field)]
    return generator, tuple(pivots), parity


def generic_erasure_outcome(field, generator, parity, word):
    """What erasure decoding must give, through solve on field elements:
    ("unique", codeword), ("ambiguous", count) or ("inconsistent", None),
    inconsistency winning over ambiguity.

    Of two equivalent systems it solves the one with fewer unknowns: the
    erased symbols against the parity checks (-x = x in characteristic 2),
    or the message symbols against the known symbols.
    """
    unknown = [j for j, s in enumerate(word) if s is ERASED]
    known = [j for j, s in enumerate(word) if s is not ERASED]
    if generator and len(unknown) > len(generator):
        rows = [[g[j] for g in generator] for j in known]
        rhs = [word[j] for j in known]
        solution, free = solve(rows, rhs, len(generator), field)
        filled = [
            sum((m * g for m, g in zip(solution, col)), field.zero)
            for col in zip(*generator)
        ] if solution is not None else []
    else:
        rows = [[h[j] for j in unknown] for h in parity]
        rhs = [sum((h[j] * word[j] for j in known), field.zero) for h in parity]
        solution, free = solve(rows, rhs, len(unknown), field)
        filled = list(word)
        for j, value in zip(unknown, solution or ()):
            filled[j] = value
    if solution is None:
        return ("inconsistent", None)
    if free:
        return ("ambiguous", field.size**free)
    return ("unique", tuple(filled))


def erasure_outcome(code: LinearCode, word):
    """code.erasure_decode's answer in the form generic_erasure_outcome gives."""
    try:
        return ("unique", code.erasure_decode(word))
    except Ambiguous as amb:
        return ("ambiguous", amb.count)
    except Inconsistent:
        return ("inconsistent", None)


def rs_rows(r: int, d: int, m: int = 0):
    """ReedSolomonCode(r, d, m)'s generator rows as field elements: the
    shifts x^i * g(x) of generator_poly's g."""
    g = generator_poly(r, d, m)
    field = g[0].field
    length, k = field.size - 1, field.size - d
    return [[field.zero] * i + g + [field.zero] * (length - len(g) - i) for i in range(k)]


def hyperoval_rows(r: int):
    """hyperoval_code(r)'s generator rows as field elements: 1, alpha and
    alpha^2 over every alpha, and the two points at infinity."""
    field = ElementField(r)
    alphas = field.elements()
    return [
        [field.one] * field.size + [field.zero, field.zero],
        alphas + [field.one, field.zero],
        [a * a for a in alphas] + [field.zero, field.one],
    ]


def symbol_bits(v: int, r: int) -> tuple[int, ...]:
    """Coefficient vector of the GF(2^r) symbol int v in the polynomial
    basis, x^0 first."""
    return tuple(v >> i & 1 for i in range(r))


def expand_binary(base, cw):
    """Binary image of an RS codeword of symbol ints, as int bits: per
    symbol, its r coefficient bits followed by one overall parity bit."""
    out = []
    for sym in cw:
        bits = symbol_bits(sym, base.r)
        out.extend(bits)
        out.append(sum(bits) & 1)
    return tuple(out)


def expansion_rows(base):
    """The generator rows, as GF(2) elements, of the binary expansion of
    the RS code `base`: the expansion of base's encoding of each unit
    message x^b at symbol j."""
    rows = []
    for j in range(base.dimension):
        for b in range(base.r):
            msg = [0] * base.dimension
            msg[j] = 1 << b
            rows.append([ELEMENT_GF2(bit) for bit in expand_binary(base, base.encode(msg))])
    return rows


@functools.cache
def _rs_generic(r: int, d: int, m: int):
    return generic_build(ElementField(r), rs_rows(r, d, m), range(2**r - d))


def burst_decode(code, word):
    """The paper's symbol-level burst decode of a word of the
    BinaryExpandedCode `code`: each (r+1)-bit block becomes an RS symbol,
    erased where a bit is erased or the block's parity fails; the base RS
    code is erasure-decoded by the element-wise solve over GF(2^r); the
    message bits are the coefficient bits of the RS message symbols.
    ("unique", message bits), ("ambiguous", count) or ("inconsistent",
    None); more erased symbols than d - 1 are ambiguous, as the base code
    is MDS."""
    base, r = code.base, code.r
    field = ElementField(r)
    symbols = []
    for i in range(0, len(word), r + 1):
        block = word[i : i + r + 1]
        if any(b is ERASED for b in block) or sum(block) & 1:
            symbols.append(ERASED)
        else:
            symbols.append(field(sum(b << j for j, b in enumerate(block[:r]))))
    generator, _, parity = _rs_generic(r, base.d, base.m)
    kind, value = generic_erasure_outcome(field, generator, parity, symbols)
    if kind == "unique":
        value = tuple(value[j].val >> b & 1 for j in range(base.dimension) for b in range(r))
    return kind, value
