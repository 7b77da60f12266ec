"""Linear algebra over GF(2) on rows packed as ints, bit j for column j,
by XOR.  A GF(2^r) code eliminates on its binary image (see
isoshare.codes), so this one path serves every code.  All is exact.

One elimination serves rref, which builds the codes, and solve, which
erasure decoding calls for every word: a XOR basis keyed by each row's
lowest set bit, which stops taking rows once every column of their support
has a pivot.  Its keys are the lowest bits of the row space, the pivots a
column scan in natural order finds.
"""


def _basis(rows, columns):
    """{lowest bit: row} for the rows of the iterator `rows`.

    Each row is reduced against the basis and joins it under its own lowest
    bit unless it reaches zero.  `columns` is the number of columns in the
    rows' support: once the basis has that many rows, each of them has a
    pivot, and the rest of `rows` is left unread.
    """
    basis = {}
    for row in rows:
        while row:
            low = row & -row
            pivot = basis.get(low)
            if pivot is None:
                basis[low] = row
                if len(basis) == columns:
                    return basis
                break
            row ^= pivot
    return basis


def _support(rows):
    support = 0
    for row in rows:
        support |= row
    return support


def rref(rows):
    """Reduced row echelon form of packed rows, pivots in natural column
    order: the reduced rows (zero rows dropped) and the pivot column of
    each, in increasing pivot order.

    Each basis row holds its pivot and bits above it only, so clearing the
    other pivots in decreasing pivot order XORs in rows already reduced,
    and each XOR clears one pivot bit and sets no other.
    """
    basis = _basis(iter(rows), _support(rows).bit_count())
    lows = sorted(basis, reverse=True)
    pivot_bits = sum(lows)
    reduced = {}
    for low in lows:
        row = basis[low]
        above = row & pivot_bits ^ low
        while above:
            bit = above & -above
            row ^= reduced[bit]
            above ^= bit
        reduced[low] = row
    lows.reverse()
    return [reduced[low] for low in lows], [low.bit_length() - 1 for low in lows]


def nullspace(reduced, pivots, ncols):
    """Basis of {x : rows . x = 0}, packed, from the rows' rref: for each
    column c off the pivots, x[c] = 1 and x[pivot_i] = reduced_i[c]."""
    pivot_set = set(pivots)
    return [1 << c | sum((row >> c & 1) << pc for row, pc in zip(reduced, pivots))
            for c in range(ncols) if c not in pivot_set]


def solve(rows, rhs, ncols):
    """Solve rows . x = rhs for packed rows and 0/1 rhs.

    The rows, each with its rhs at bit ncols, go into the basis; a row
    that reduces to the rhs bit alone joins it as 0 = 1.  Back-substitution
    in decreasing pivot order, the rhs bit set in the running solution,
    gives the solution with the free variables zero, and the rows the basis
    left unread are checked against it by parity.

    Returns (x, num_free) with x packed, or (None, 0) when the system is
    inconsistent.
    """
    top = 1 << ncols
    augmented = (row | top if b else row for row, b in zip(rows, rhs))
    basis = _basis(augmented, _support(rows).bit_count())
    if top in basis:
        return None, 0
    solution = top
    for low in sorted(basis, reverse=True):
        # The row's other bits lie above its pivot: solved, or free at zero.
        if (basis[low] & solution).bit_count() & 1:
            solution |= low
    for row in augmented:
        if (row & solution).bit_count() & 1:
            return None, 0
    return solution ^ top, ncols - len(basis)
