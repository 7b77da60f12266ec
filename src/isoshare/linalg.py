"""Dense Gaussian elimination over an arbitrary field.

Matrices are lists of row lists whose entries support +, -, *, inverse()
and truthiness (falsy = zero).  rref and solve also take GF(2) rows packed
as ints, bit j for column j, and eliminate them by XOR.  All is exact.
"""


def rref(rows, ncols, pivot_order=None):
    """Reduced row echelon form.

    pivot_order fixes the column preference when choosing pivots; columns
    not listed are tried afterwards in natural order.  Returns the reduced
    rows (zero rows dropped) and the pivot column of each.
    """
    cols = list(range(ncols) if pivot_order is None else pivot_order)
    chosen = set(cols)
    cols += [c for c in range(ncols) if c not in chosen]
    if rows and isinstance(rows[0], int):
        return _xor_rref(rows, cols)
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
    zero, or (None, 0) when the system is inconsistent.  Packed GF(2) rows
    take 0/1 ints as rhs.
    """
    packed = bool(rows) and isinstance(rows[0], int)
    aug = [r | b << ncols if packed else list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug, ncols + 1, pivot_order=range(ncols))
    # A pivot in the augmented column means 0 = nonzero.
    if ncols in pivots:
        return None, 0
    solution = [field.zero] * ncols
    for row, pc in zip(reduced, pivots):
        solution[pc] = (field.zero, field.one)[row >> ncols] if packed else row[-1]
    return solution, ncols - len(pivots)


def _xor_rref(rows, cols):
    """rref of packed GF(2) rows, pivoting on `cols` in that order; columns
    outside every row's support are skipped without a scan."""
    support = 0
    for row in rows:
        support |= row
    reduced, pivots = [], []
    for col in cols:
        bit = 1 << col
        pivot = next((r for r in rows if r & bit), 0) if support & bit else 0
        if pivot:
            rows = [r ^ pivot if r & bit else r for r in rows]
            reduced = [r ^ pivot if r & bit else r for r in reduced] + [pivot]
            pivots.append(col)
    return reduced, pivots


def _xor_nullspace(rows, ncols):
    """nullspace over GF(2) on packed rows: the same basis, packed."""
    reduced, pivots = _xor_rref(rows, range(ncols))
    return [1 << fc | sum((row >> fc & 1) << pc for row, pc in zip(reduced, pivots))
            for fc in range(ncols) if fc not in pivots]
