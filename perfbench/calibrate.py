"""A fixed pure-Python loop that measures how fast the host runs right now.

On a shared machine the same interpreter code runs faster or slower from
one second to the next. The benchmark times this loop around each
measured step and scales its timings to a reference host speed:

    normalized time = measured time * REFERENCE_MS / calibration ms

The loop uses none of isoshare's code, so a change to the program cannot
move it; it does what isoshare's hot paths do (small objects with
`__slots__`, operator methods, int arithmetic modulo a small prime, list
comprehensions over rows), so host slowdowns hit it as they hit the
program. A round takes about 3-8 ms on the machine the bounds were set
on. `python3 calibrate.py` prints the median of 15 rounds in ms.
"""

import time

# The reference host speed: a normalized timing is the time the step would
# take on a host where one round of the loop takes this long. It is a
# round figure between the fast and slow periods of the machine the bounds
# were set on (README.md, "Noise on a shared machine").
REFERENCE_MS = 4.0
Q = 431


class _Elt:
    """An element of GF(Q^2) = GF(Q)[i]/(i^2 + 1)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other):
        return _Elt((self.a + other.a) % Q, (self.b + other.b) % Q)

    def __sub__(self, other):
        return _Elt((self.a - other.a) % Q, (self.b - other.b) % Q)

    def __mul__(self, other):
        a, b, c, d = self.a, self.b, other.a, other.b
        return _Elt((a * c - b * d) % Q, (a * d + b * c) % Q)

    def __bool__(self):
        return bool(self.a or self.b)


def _round():
    """One round of arithmetic: a multiplication chain and a row elimination."""
    x, y = _Elt(3, 7), _Elt(5, 11)
    for _ in range(400):
        x = x * y + x
    rows = [[_Elt((i * 7 + j) % Q, (i + j * 3) % Q) for j in range(24)] for i in range(12)]
    for top in range(len(rows)):
        pivot = rows[top]
        for i in range(len(rows)):
            if i != top and rows[i][top]:
                f = rows[i][top]
                rows[i] = [u - f * v for u, v in zip(rows[i], pivot)]
    return x, rows


def calibration_ms(samples=1):
    """Median over `samples` (an odd number) of the time of one round, in ms."""
    times = []
    for _ in range(samples):
        start = time.perf_counter_ns()
        _round()
        times.append((time.perf_counter_ns() - start) / 1e6)
    return sorted(times)[samples // 2]


if __name__ == "__main__":
    print(calibration_ms(15))
