"""Linear codes over GF(2) and GF(2^r): Reed-Solomon codes, their binary
subfield codes and binary expansions, and erasure decoding.

A word is a sequence of symbols, each an int in 0 .. 2^r - 1 whose bit b
is its coefficient of x^b, with ERASED where a symbol is unknown.  Every
code is built, held and eliminated as its binary image: a row is an int
whose bits r*j .. r*j + r - 1 are symbol j, and each constructor hands
LinearCode its generator rows in that form.  No constructor names its
information positions: the elimination (isoshare.linalg) takes its pivots
in natural column order, so they are the earliest coordinates that form
an information set, the first k symbols of an RS code and the data bits of
the first k blocks of its binary expansion.  Each parity check has exactly
one bit off the information positions, its own check bit.  Erasure
decoding sets aside the checks whose own bit is erased, solves the rest
for the erased information bits alone (the same elimination, which stops
early), then fills in each erased check bit by the parity of its check.
It works uniformly for every code here and succeeds on any pattern that
pins the codeword down uniquely, not just the worst-case d - 1 bound.

A coalition too small to rebuild the codeword is refused without the
solve when the code declares itself MDS over blocks of s bits as
`_mds = (s, k_sym)`: only BinaryExpandedCode does, with s = r + 1 (an RS
symbol's r data bits and their parity bit) and k_sym the RS dimension.
If every erased bit lies in a wholly erased block, every other block has
even parity, and fewer than k_sym blocks are known, then each known block
is a valid RS symbol, and any k_sym symbols of an MDS code form an
information set (McEliece-Sarwate, CACM 1981): the known symbols,
whatever their values, extend to exactly 2^(r (k_sym - known)) codewords,
the count the solve would find.  Any other word (a partly erased block,
an odd-parity block, k_sym or more known blocks) goes to the solve, so
Inconsistent is raised wherever the solve raises it.

The paper's burst decoding runs at bit level too: once
erase_damaged_blocks has erased the damaged blocks of a binary-expanded
word, its decode succeeds, fails or counts solutions exactly as the base
RS code's decode of the contracted symbols (contract_binary) would.
"""

from . import linalg
from .codec import bits_to_int, int_to_bits
from .errors import (
    Ambiguous,
    BadDistance,
    Inconsistent,
    LengthMismatch,
    NotACodeword,
)
from .fields import GF2, BinaryField

ERASED = None
# _pack's erased mask from its digit string.
_ERASED_DIGITS = str.maketrans("1x", "01")


def rs_generator_poly(r: int, d: int, m: int = 0) -> list[int]:
    """Generator polynomial prod_{j=1}^{d-1} (x + tau^(m+j)) over GF(2^r),
    its coefficients lowest degree first, where tau = x reduced mod the
    field's polynomial (1 for r = 1)."""
    field = BinaryField(r)
    if not 2 <= d <= field.size - 1:
        raise BadDistance(f"need 2 <= d <= {field.size - 1}, got {d}")
    mul = field.mul
    tau = mul(1, 2)
    # tau^m, its exponent taken mod the order of tau.
    root = 1
    for _ in range(m % (field.size - 1)):
        root = mul(root, tau)
    g = [1]
    for _ in range(1, d):
        root = mul(root, tau)
        # (x + root) * g = x * g + root * g.
        g.insert(0, 0)
        for i in range(len(g) - 1):
            g[i] ^= mul(root, g[i + 1])
    return g


class LinearCode:
    """A linear code given by a generator matrix, held in systematic form.

    Message symbols are carried verbatim at `info_positions`, the earliest
    coordinates that form an information set: the pivots of the generator's
    elimination in natural column order.  Any k coordinates of an MDS code,
    such as an RS code, form one, so there they are the first k.

    Words are sequences of symbol ints, ERASED where unknown (see the module
    docstring); rows are the code's binary image, an int whose bits
    r*j .. r*j + r - 1 are symbol j.  A GF(2^r)-linear code is GF(2)-linear
    on these bits, and GF(2) is r = 1.
    """

    def __init__(self, field, length, rows, kind="generic", design_distance=None):
        r = field.r
        self.field = field
        self.length = length
        self.kind = kind
        self.design_distance = design_distance
        # Row g over GF(2^r) spans g, x*g, ..., x^(r-1)*g over GF(2).  x*g
        # shifts every symbol up one bit and reduces each that overflowed
        # (its top bit, in `top`) by x^r = `low`.
        top = ((1 << r * length) - 1) // (field.size - 1) << r - 1
        low = field.poly ^ field.size
        image = []
        for bits in rows:
            if bits >> r * length:
                raise ValueError(f"generator row has bits beyond its {length} symbols")
            image.append(bits)
            for _ in range(r - 1):
                over = bits & top
                bits = (bits ^ over) << 1 ^ (over >> r - 1) * low
                image.append(bits)
        # Pivots come r at a time, the r bits of one information position:
        # the code's words cut to their first j symbols form a GF(2^r)-space,
        # so symbol j adds r bits to its binary dimension or none.
        reduced, pivots = linalg.rref(image)
        self.info_positions = tuple(pc // r for pc in pivots[::r])
        self.dimension = len(reduced) // r
        # Per message symbol, the image of each multiple of its generator row,
        # indexed by the multiplier's value: encoding is one lookup a symbol.
        self._multiples = []
        for i in range(0, len(reduced), r):
            table = [0]
            for g in reduced[i : i + r]:
                table += [t ^ g for t in table]
            self._multiples.append(table)
        # The checks on the image, in closed form from the systematic rows:
        # each has one bit off the pivots, its own check bit.
        self._par_bits = linalg.nullspace(reduced, pivots, r * length)
        self._info_bits = sum(1 << pc for pc in pivots)
        # _pack's digits of each symbol, and (s, k_sym) for a code that is
        # MDS over blocks of s bits (see the module docstring), else None.
        self._digits = {v: format(v, f"0{r}b") for v in range(field.size)} | {ERASED: "x" * r}
        self._mds = None

    def _pack(self, word, erased=False):
        """A word as two ints, symbol j at bits r*j on: its known bits, each
        ERASED (allowed only where `erased`) as 0, and the mask of its
        erased bits.  Both are read from one string of binary digits, the
        symbols high to low, each ERASED an "x".  A symbol outside the field
        would carry into its neighbour's bits, so it is refused."""
        if not self.field._are_elements(word, erased):
            raise ValueError(f"symbols must be ints in 0..{self.field.size - 1}")
        digits = "".join(map(self._digits.__getitem__, reversed(word)))
        return int(digits.replace("x", "0"), 2), int(digits.translate(_ERASED_DIGITS), 2)

    def _unpack(self, bits):
        """Inverse of _pack's known bits, as a tuple of `length` symbols: a
        binary word is the binary digits of `bits` read from the low end."""
        r, mask = self.field.r, self.field.size - 1
        if r == 1:
            return int_to_bits(bits, self.length)[::-1]
        return tuple(bits >> i & mask for i in range(0, r * self.length, r))

    def encode(self, msg):
        """Systematic encoding of a length-k message of symbol ints."""
        msg = list(msg)
        if len(msg) != self.dimension:
            raise LengthMismatch(
                f"message length {len(msg)} != dimension {self.dimension}"
            )
        if not self.field._are_elements(msg):
            raise ValueError(f"symbols must be ints in 0..{self.field.size - 1}")
        bits = 0
        for coeff, table in zip(msg, self._multiples):
            bits ^= table[coeff]
        return self._unpack(bits)

    def contains(self, cw) -> bool:
        """Whether the sequence `cw` is a codeword: `length` symbols that
        pass every parity check."""
        if len(cw) != self.length:
            return False
        bits = self._pack(cw)[0]
        return not any((h & bits).bit_count() & 1 for h in self._par_bits)

    def extract(self, cw):
        """Inverse of encode; rejects vectors outside the code."""
        cw = tuple(cw)
        if not self.contains(cw):
            raise NotACodeword("vector fails the parity checks")
        return tuple(cw[j] for j in self.info_positions)

    def erasure_decode(self, word):
        """The unique codeword agreeing with `word` off its ERASED slots.

        A check whose own bit is erased only defines that bit, so it is set
        aside; the other checks, cut to the erased information bits with the
        parity of their known part as rhs, are the system solved.  Its
        solutions and the full system's are in one-to-one correspondence, so
        it is consistent exactly when the full one is, with as many free
        bits.  The checks set aside then fill in their own bits by parity.
        """
        word = list(word)
        if len(word) != self.length:
            raise LengthMismatch(f"word length {len(word)} != {self.length}")
        ncols = self.field.r * self.length
        known, erased = self._pack(word, erased=True)
        if self._mds:
            # Per block, at its lowest bit: whether it is wholly erased
            # (`whole`) and the parity of its bits (`odd`); see the module
            # docstring for why this count is exact.
            s, k_sym = self._mds
            whole, odd, lows = erased, known, ((1 << ncols) - 1) // ((1 << s) - 1)
            for i in range(1, s):
                whole &= erased >> i
                odd ^= known >> i
            whole &= lows
            found = self.length // s - whole.bit_count()
            if found < k_sym and not odd & lows and erased == whole * ((1 << s) - 1):
                raise Ambiguous(2 ** ((s - 1) * (k_sym - found)))
        unknown = erased & self._info_bits
        erased_checks = erased ^ unknown
        rows, rhs, deferred = [], [], []
        for h in self._par_bits:
            if h & erased_checks:
                deferred.append(h)
            else:
                rows.append(h & unknown)
                rhs.append((h & known).bit_count() & 1)
        solution, free = linalg.solve(rows, rhs, ncols)
        if solution is None:
            raise Inconsistent("known symbols violate the parity checks")
        # The solve counts every column off `unknown` as free.  The solutions
        # are a GF(2^r)-affine space: 2^free is size^(free/r).
        free -= ncols - unknown.bit_count()
        if free:
            raise Ambiguous(2**free)
        bits = known | solution
        for h in deferred:
            if (h & bits).bit_count() & 1:
                bits |= h & erased_checks
        return self._unpack(bits)

    def __repr__(self):
        return (
            f"LinearCode([{self.length}, {self.dimension}] over "
            f"GF({self.field.size}), kind={self.kind!r})"
        )


class ReedSolomonCode(LinearCode):
    """Cyclic RS code of length 2^r - 1 and dimension 2^r - d over GF(2^r)."""

    def __init__(self, r: int, d: int, m: int = 0):
        field = BinaryField(r)
        k = field.size - d
        # Row i is x^i * g(x): the packed g shifted up i symbols.
        packed = sum(coeff << r * j for j, coeff in enumerate(rs_generator_poly(r, d, m)))
        super().__init__(
            field,
            field.size - 1,
            [packed << r * i for i in range(k)],
            kind="reed-solomon",
            design_distance=d,
        )
        self.r = r
        self.d = d
        self.m = m


def hyperoval_code(r: int) -> LinearCode:
    """The [2^r + 2, 3, 2^r] triply-extended RS (hyperoval) code."""
    if r < 2:
        raise ValueError("hyperoval codes need r >= 2")
    field = BinaryField(r)
    size = field.size
    # Rows 1, alpha and alpha^2 over every alpha (symbol j is alpha = j),
    # then the two points at infinity.
    rows = [
        sum(1 << r * a for a in range(size)),
        sum(a << r * a for a in range(size)) | 1 << r * size,
        sum(field.mul(a, a) << r * a for a in range(size)) | 1 << r * (size + 1),
    ]
    return LinearCode(field, size + 2, rows, kind="hyperoval", design_distance=size)


def subfield_code(code: LinearCode) -> LinearCode:
    """Binary subfield code: the intersection of `code` with {0,1}^length.

    A word whose symbols are all 0 or 1 has image bits only at r*j, so each
    check on the code's image, cut to those bits, is one binary check on
    the word; the nullspace over GF(2) of the cut checks generates the
    subfield code.
    """
    n, r = code.length, code.field.r
    rows = [sum((h >> r * j & 1) << j for j in range(n)) for h in code._par_bits]
    gen = linalg.nullspace(*linalg.rref(rows), n)
    return LinearCode(GF2, n, gen, kind="subfield",
                      design_distance=code.design_distance)


def erase_damaged_blocks(word: list, r: int) -> None:
    """Erase, in place, every (r+1)-bit block of a binary-expanded word
    that holds an erased bit or fails its parity: the blocks that do not
    pin down their RS symbol."""
    block = r + 1
    for i in range(0, len(word), block):
        chunk = word[i : i + block]
        if ERASED in chunk or sum(chunk) & 1:
            word[i : i + block] = [ERASED] * block


def contract_binary(base: ReedSolomonCode, word):
    """Collapse a binary word with erasures back to RS symbols: a block
    erase_damaged_blocks erases becomes an erased symbol, and any other
    block the symbol of its r data bits."""
    r = base.r
    block = r + 1
    word = list(word)
    if len(word) != block * base.length:
        raise LengthMismatch(
            f"binary word length {len(word)} != {block * base.length}"
        )
    if not GF2._are_elements(word, erased=True):
        raise ValueError("bits must be ints 0 or 1, or ERASED")
    erase_damaged_blocks(word, r)
    return [ERASED if word[i] is ERASED else bits_to_int(word[i : i + r][::-1])
            for i in range(0, len(word), block)]


class BinaryExpandedCode(LinearCode):
    """Binary expansion of an RS code with one parity bit per symbol block.

    Parameters [(r+1)(2^r - 1), r*(2^r - d)] with minimum distance at least
    2d.  Message bits sit in the data-bit slots of the first k_rs blocks.
    """

    def __init__(self, r: int, d: int, m: int = 0):
        base = ReedSolomonCode(r, d, m)
        # Message bit r*j + b is coefficient b of RS message symbol j: its
        # row is the base image of x^b at symbol j, each r-bit symbol
        # followed by its parity bit.
        with_parity = [s | (s.bit_count() & 1) << r for s in range(base.field.size)]
        mask = base.field.size - 1
        rows = []
        for table in base._multiples:
            for b in range(r):
                bits = table[1 << b]
                rows.append(sum(with_parity[bits >> r * i & mask] << (r + 1) * i
                                for i in range(base.length)))
        super().__init__(GF2, (r + 1) * base.length, rows, kind="binary-expanded-rs",
                         design_distance=2 * d)
        self.base = base
        self.r = r
        self._mds = (r + 1, base.dimension)

    def block_symbol_spans(self, block_bits: int, n_blocks: int) -> list[int]:
        """RS symbols hit by each of n_blocks consecutive share blocks."""
        block = self.r + 1
        starts = range(0, n_blocks * block_bits, block_bits)
        return [(start + block_bits - 1) // block - start // block + 1 for start in starts]
