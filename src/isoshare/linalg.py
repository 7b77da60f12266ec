"""Linear algebra over GF(2) on rows packed as ints, bit j for column j,
by XOR.  A GF(2^r) code eliminates on its binary image (see
isoshare.codes), so this one path serves every code.  All is exact.

rref and nullspace build the codes; solve, which erasure decoding calls
for every word, keeps a XOR basis keyed by each row's lowest bit and stops
reducing rows once every column it can reach has a pivot.
"""


def rref(rows, ncols, pivot_order=None):
    """Reduced row echelon form of packed rows.

    pivot_order fixes the column preference when choosing pivots; columns
    not listed are tried afterwards in natural order.  Returns the reduced
    rows (zero rows dropped) and the pivot column of each, in the order the
    pivots were found.  Columns outside every row's support are skipped
    without a scan.  The pivot is the first remaining row holding the
    column's bit; it leaves the remaining rows, and is XORed into those
    after it and into the reduced rows that hold the bit.  Rows that reach
    zero are dropped, and the scan ends when no row remains.
    """
    cols = list(range(ncols) if pivot_order is None else pivot_order)
    chosen = set(cols)
    cols += [c for c in range(ncols) if c not in chosen]
    rows = [r for r in rows if r]
    support = 0
    for row in rows:
        support |= row
    reduced, pivots = [], []
    for col in cols:
        if not rows:
            break
        bit = 1 << col
        if not support & bit:
            continue
        for i, row in enumerate(rows):
            if row & bit:
                break
        else:
            continue
        pivot = rows.pop(i)
        # The rows before i do not hold the bit.
        rows[i:] = [x for r in rows[i:] if (x := r ^ pivot if r & bit else r)]
        for k, r in enumerate(reduced):
            if r & bit:
                reduced[k] = r ^ pivot
        reduced.append(pivot)
        pivots.append(col)
    return reduced, pivots


def nullspace(reduced, pivots, ncols):
    """Basis of {x : rows . x = 0}, packed, from the rows' rref: for each
    column c off the pivots, x[c] = 1 and x[pivot_i] = reduced_i[c]."""
    pivot_set = set(pivots)
    return [1 << c | sum((row >> c & 1) << pc for row, pc in zip(reduced, pivots))
            for c in range(ncols) if c not in pivot_set]


def solve(rows, rhs, ncols):
    """Solve rows . x = rhs for packed rows and 0/1 rhs.

    Each row, its rhs at bit ncols, is reduced against a XOR basis keyed by
    lowest set bit and joins it under its own lowest bit; a row that
    reduces to the rhs bit alone reads 0 = 1.  Once every column in the
    rows' support has a basis row, the rows not yet reduced are only
    checked, by parity, against the solution.  The basis's lowest bits are
    the lowest bits of the row space, the pivots rref finds in natural
    column order, so back-substitution in decreasing pivot order gives the
    solution with the free variables zero.

    Returns (x, num_free) with x packed, or (None, 0) when the system is
    inconsistent.
    """
    top = 1 << ncols
    support = 0
    for row in rows:
        support |= row
    columns = support.bit_count()
    basis = {}
    pairs = iter(zip(rows, rhs))
    for row, b in pairs:
        row |= b << ncols
        while row:
            low = row & -row
            pivot = basis.get(low)
            if pivot is None:
                break
            row ^= pivot
        if row == top:
            return None, 0
        if row:
            basis[low] = row
            if len(basis) == columns:
                break
    solution = 0
    for low in sorted(basis, reverse=True):
        # The row's other bits lie above its pivot: solved, or free at zero.
        row = basis[low]
        if ((row & solution).bit_count() ^ row >> ncols) & 1:
            solution |= low
    for row, b in pairs:
        if (row & solution).bit_count() & 1 != b:
            return None, 0
    return solution, ncols - len(basis)
