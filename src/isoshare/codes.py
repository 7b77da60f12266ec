"""Linear codes over GF(2) and GF(2^r): Reed-Solomon codes, their binary
subfield codes and binary expansions, and erasure decoding.

Erasure decoding solves the parity-check system restricted to the erased
coordinates, so it works uniformly for every code here and succeeds on any
pattern that pins the codeword down uniquely, not just the worst-case
d - 1 bound.
"""

from . import linalg
from .errors import (
    Ambiguous,
    BadDistance,
    Inconsistent,
    LengthMismatch,
    NotACodeword,
)
from .fields import GF2, BinaryField, element_from_bits, element_to_bits

ERASED = None


def poly_mul(a, b):
    """Product of coefficient lists (lowest degree first)."""
    field = a[0].field
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def rs_generator_poly(r: int, d: int, m: int = 0):
    """Generator polynomial prod_{j=1}^{d-1} (x + tau^(m+j)) over GF(2^r)."""
    field = BinaryField(r)
    if not 2 <= d <= field.size - 1:
        raise BadDistance(f"need 2 <= d <= {field.size - 1}, got {d}")
    g = [field.one]
    for j in range(1, d):
        g = poly_mul(g, [field.tau ** (m + j), field.one])
    return g


_BITS = (GF2.zero, GF2.one)


def _pack(word):
    """A GF(2) word as an int: bit j is set where word[j] is nonzero."""
    return sum(1 << j for j, s in enumerate(word) if s)


def _unpack(bits, length):
    """Inverse of _pack: the GF(2) elements of the low `length` bits."""
    return tuple(_BITS[c == "1"] for c in reversed(f"{bits:0{length}b}"))


def _dot(row, vec, field):
    acc = field.zero
    for a, b in zip(row, vec):
        if a and b:
            acc = acc + a * b
    return acc


class LinearCode:
    """A linear code given by a generator matrix, held in systematic form.

    Message symbols are carried verbatim at `info_positions` (the first k
    coordinates unless the construction dictates otherwise).
    """

    def __init__(self, field, rows, info_positions=None, kind="generic",
                 design_distance=None):
        rows = [list(r) for r in rows]
        length = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != length:
                raise ValueError("ragged generator matrix")
        # GF(2) rows are held packed as ints, bit j for column j, and
        # eliminated by XOR; GF(2^r) rows go through the generic linalg.
        self._binary = field == GF2
        order = None if info_positions is None else list(info_positions)
        rows = [_pack(r) for r in rows] if self._binary else rows
        reduced, pivots = linalg.rref(rows, length, pivot_order=order)
        if order is not None and (pivots, len(reduced)) != (order, len(rows)):
            raise ValueError("info positions are not an information set")
        self.field = field
        self.length = length
        self.info_positions = tuple(pivots)
        self.dimension = len(reduced)
        self.kind = kind
        self.design_distance = design_distance
        if self._binary:
            self._gen_bits = reduced
            self._par_bits = linalg._xor_nullspace(reduced, length)
            self.generator = [_unpack(g, length) for g in reduced]
            self.parity = [_unpack(h, length) for h in self._par_bits]
        else:
            self.generator = [tuple(r) for r in reduced]
            self.parity = list(map(tuple, linalg.nullspace(reduced, length, field)))

    def encode(self, msg):
        """Systematic encoding of a length-k message."""
        msg = list(msg)
        if len(msg) != self.dimension:
            raise LengthMismatch(
                f"message length {len(msg)} != dimension {self.dimension}"
            )
        if self._binary:
            bits = 0
            for coeff, row in zip(msg, self._gen_bits):
                bits ^= row if coeff else 0
            return _unpack(bits, self.length)
        cw = [self.field.zero] * self.length
        for coeff, row in zip(msg, self.generator):
            if coeff:
                cw = [c + coeff * g if g else c for c, g in zip(cw, row)]
        return tuple(cw)

    def contains(self, cw) -> bool:
        if self._binary:
            bits = _pack(cw)
            return not any((h & bits).bit_count() & 1 for h in self._par_bits)
        return all(not _dot(h, cw, self.field) for h in self.parity)

    def extract(self, cw):
        """Inverse of encode; rejects vectors outside the code."""
        cw = tuple(cw)
        if len(cw) != self.length or not self.contains(cw):
            raise NotACodeword("vector fails the parity checks")
        return tuple(cw[j] for j in self.info_positions)

    def erasure_decode(self, word):
        """The unique codeword agreeing with `word` off its ERASED slots."""
        word = list(word)
        if len(word) != self.length:
            raise LengthMismatch(f"word length {len(word)} != {self.length}")
        unknown = [j for j, s in enumerate(word) if s is ERASED]
        if self._binary:
            # Parity rows cut to the erased bits, with the parity of their known
            # part as rhs; the solve counts the known (all-zero) columns as free.
            erased, known = _pack(s is ERASED for s in word), _pack(word)
            rows = [h & erased for h in self._par_bits]
            rhs = [(h & known).bit_count() & 1 for h in self._par_bits]
            solution, free = linalg.solve(rows, rhs, self.length, self.field)
            free -= self.length - len(unknown)
            if solution is not None:
                solution = [solution[j] for j in unknown]
        else:
            # _dot skips the ERASED (falsy) slots, leaving the known part.
            rows = [[h[j] for j in unknown] for h in self.parity]
            rhs = [-_dot(h, word, self.field) for h in self.parity]
            solution, free = linalg.solve(rows, rhs, len(unknown), self.field)
        if solution is None:
            raise Inconsistent("known symbols violate the parity checks")
        if free:
            raise Ambiguous(self.field.size ** free)
        filled = list(word)
        for j, value in zip(unknown, solution):
            filled[j] = value
        return tuple(filled)

    def __repr__(self):
        return (
            f"LinearCode([{self.length}, {self.dimension}] over "
            f"GF({self.field.size}), kind={self.kind!r})"
        )


class ReedSolomonCode(LinearCode):
    """Cyclic RS code of length 2^r - 1 and dimension 2^r - d over GF(2^r)."""

    def __init__(self, r: int, d: int, m: int = 0):
        g = rs_generator_poly(r, d, m)
        field = g[0].field
        length = field.size - 1
        k = field.size - d
        rows = []
        for i in range(k):
            row = [field.zero] * length
            for j, coeff in enumerate(g):
                row[i + j] = coeff
            rows.append(row)
        super().__init__(
            field,
            rows,
            info_positions=range(k),
            kind="reed-solomon",
            design_distance=d,
        )
        self.r = r
        self.d = d
        self.m = m
        self.generator_poly = tuple(g)


def hyperoval_code(r: int) -> LinearCode:
    """The [2^r + 2, 3, 2^r] triply-extended RS (hyperoval) code."""
    if r < 2:
        raise ValueError("hyperoval codes need r >= 2")
    field = BinaryField(r)
    alphas = list(field.elements())
    row0 = [field.one] * field.size + [field.zero, field.zero]
    row1 = [a for a in alphas] + [field.one, field.zero]
    row2 = [a * a for a in alphas] + [field.zero, field.one]
    return LinearCode(
        field,
        [row0, row1, row2],
        info_positions=range(3),
        kind="hyperoval",
        design_distance=field.size,
    )


def subfield_code(code: LinearCode) -> LinearCode:
    """Binary subfield code: the intersection of `code` with {0,1}^length.

    Each GF(2^r) parity constraint splits into r binary constraints on the
    coefficient bits; the nullspace over GF(2) generates the subfield code.
    """
    r = code.field.r
    rows = [_pack(c.val >> b & 1 for c in h) for h in code.parity for b in range(r)]
    gen = [_unpack(g, code.length) for g in linalg._xor_nullspace(rows, code.length)]
    return LinearCode(GF2, gen, kind="subfield", design_distance=code.design_distance)


def expand_binary(base: ReedSolomonCode, cw):
    """Binary image of an RS codeword: per symbol, its r coefficient bits
    followed by one overall parity bit."""
    out = []
    for sym in cw:
        bits = element_to_bits(sym)
        out.extend(_BITS[b] for b in bits)
        out.append(_BITS[sum(bits) & 1])
    return tuple(out)


def contract_binary(base: ReedSolomonCode, word):
    """Collapse a binary word with erasures back to RS symbols.

    A block with any erased bit, or a failing parity check, becomes an
    erased symbol; clean blocks collapse through the coefficient map.
    """
    r = base.r
    block = r + 1
    word = list(word)
    if len(word) != block * base.length:
        raise LengthMismatch(
            f"binary word length {len(word)} != {block * base.length}"
        )
    symbols = []
    for i in range(base.length):
        chunk = word[i * block : (i + 1) * block]
        if any(b is ERASED for b in chunk) or sum(map(int, chunk)) & 1:
            symbols.append(ERASED)
        else:
            symbols.append(element_from_bits(map(int, chunk[:r]), base.field))
    return symbols


class BinaryExpandedCode(LinearCode):
    """Binary expansion of an RS code with one parity bit per symbol block.

    Parameters [(r+1)(2^r - 1), r*(2^r - d)] with minimum distance at least
    2d.  Message bits sit in the data-bit slots of the first k_rs blocks.
    """

    def __init__(self, r: int, d: int, m: int = 0):
        base = ReedSolomonCode(r, d, m)
        info = [(r + 1) * j + b for j in range(base.dimension) for b in range(r)]
        # Message bit r*j + b is coefficient b of RS message symbol j.
        rows = []
        for j in range(base.dimension):
            for b in range(r):
                symbols = [base.field.zero] * base.dimension
                symbols[j] = base.field(1 << b)
                rows.append(expand_binary(base, base.encode(symbols)))
        super().__init__(GF2, rows, info_positions=info, kind="binary-expanded-rs",
                         design_distance=2 * d)
        self.base = base
        self.r = r

    def block_symbol_spans(self, block_bits: int, n_blocks: int) -> list[int]:
        """RS symbols hit by each of n_blocks consecutive share blocks."""
        block = self.r + 1
        spans = []
        for i in range(n_blocks):
            start = i * block_bits
            end = start + block_bits - 1
            spans.append(end // block - start // block + 1)
        return spans
