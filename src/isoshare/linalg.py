"""Dense Gaussian elimination over an arbitrary field.

Matrices are lists of row lists whose entries support +, -, *, inverse()
and truthiness (falsy = zero).  Everything here is exact.
"""


def rref(rows, ncols, pivot_order=None):
    """Reduced row echelon form.

    pivot_order fixes the column preference when choosing pivots; columns
    not listed are tried afterwards in natural order.  Returns the reduced
    rows (zero rows dropped) and the pivot column of each.
    """
    rows = [list(r) for r in rows]
    if pivot_order is None:
        cols = list(range(ncols))
    else:
        rest = [c for c in range(ncols) if c not in set(pivot_order)]
        cols = list(pivot_order) + rest
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
