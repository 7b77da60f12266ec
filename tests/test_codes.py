import copy
import itertools
import random

import pytest
from oracles import (
    ELEMENT_GF2,
    ElementField,
    TooLarge,
    burst_decode,
    burst_symbol_span,
    consistent_count,
    enumerate_codewords,
    erasure_outcome,
    expand_binary,
    expansion_rows,
    generic_build,
    generator_poly,
    generic_erasure_outcome,
    hyperoval_rows,
    min_distance_bruteforce,
    nullspace,
    poly_divmod,
    poly_mul,
    rref,
    rs_rows,
    solve,
)

from isoshare import linalg
from isoshare.cli import MAX_CODE_R

from isoshare.codes import (
    ERASED,
    BinaryExpandedCode,
    LinearCode,
    ReedSolomonCode,
    contract_binary,
    erase_damaged_blocks,
    hyperoval_code,
    rs_generator_poly,
    subfield_code,
)
from isoshare.errors import (
    Ambiguous,
    BadDistance,
    Inconsistent,
    LengthMismatch,
    NotACodeword,
)
from isoshare.fields import GF2, BinaryField


def _weight(cw):
    return sum(1 for s in cw if s)


def test_generator_poly_smallest_case():
    # d = 2: g(x) = x + tau.
    assert rs_generator_poly(3, 2) == [0b10, 1]


def test_generator_poly_degree_and_roots():
    f = ElementField(4)
    for d in range(2, 8):
        g = [f(c) for c in rs_generator_poly(4, d)]
        assert len(g) == d
        for j in range(1, d):
            root = f.tau**j
            acc = f.zero
            for i, coeff in enumerate(g):
                acc = acc + coeff * root**i
            assert not acc


def test_generator_poly_divides_cycle():
    # g must divide x^(2^r - 1) - 1 for the code to be cyclic.
    f = ElementField(3)
    g = [f(c) for c in rs_generator_poly(3, 5)]
    cycle = [f.one] + [f.zero] * 6 + [f.one]
    _, rem = poly_divmod(cycle, g)
    assert all(not c for c in rem)


def test_generator_poly_distance_bounds():
    with pytest.raises(BadDistance):
        rs_generator_poly(3, 1)
    with pytest.raises(BadDistance):
        rs_generator_poly(3, 8)


def test_generator_poly_matches_oracle():
    # The int generator, every valid (r, d) up to r = 6 and m = 0, 1, 2,
    # against the oracle's product of element polynomials.
    for r in range(2, 7):
        for d in range(2, 2**r):
            for m in (0, 1, 2):
                expected = [c.val for c in generator_poly(r, d, m)]
                assert rs_generator_poly(r, d, m) == expected, (r, d, m)


@pytest.mark.parametrize("m", [-3, 0, 12, 10**18])
def test_any_int_m_builds_the_code_of_m_mod_the_order_of_tau(m):
    # tau has order 2^r - 1, so m only matters mod 15 at r = 4; a huge m
    # costs no more than a small one, and the code keeps m as given.
    g = rs_generator_poly(4, 6, m)
    assert g == [c.val for c in generator_poly(4, 6, m)]
    assert g == rs_generator_poly(4, 6, m % 15)
    code, reduced = BinaryExpandedCode(4, 6, m), BinaryExpandedCode(4, 6, m % 15)
    assert code.base.m == m
    assert (code._multiples, code._par_bits) == (reduced._multiples, reduced._par_bits)


def test_poly_mul_known_product():
    f = ElementField(3)
    # (x + 1)(x + 1) = x^2 + 1 over GF(2^r).
    prod = poly_mul([f.one, f.one], [f.one, f.one])
    assert prod == [f.one, f.zero, f.one]


def test_rs_parameters():
    code = ReedSolomonCode(3, 5)
    assert (code.length, code.dimension) == (7, 3)
    assert code.info_positions == tuple(range(3))
    code16 = ReedSolomonCode(4, 6)
    assert (code16.length, code16.dimension) == (15, 10)


def test_rs_systematic_and_linear():
    code = ReedSolomonCode(3, 5)
    f = code.field
    rng = random.Random(30)
    for _ in range(20):
        m1 = [f(rng.randrange(8)) for _ in range(3)]
        m2 = [f(rng.randrange(8)) for _ in range(3)]
        c1 = code.encode(m1)
        c2 = code.encode(m2)
        assert tuple(c1[j] for j in code.info_positions) == tuple(m1)
        assert code.encode([a ^ b for a, b in zip(m1, m2)]) == tuple(
            a ^ b for a, b in zip(c1, c2)
        )
        assert code.extract(c1) == tuple(m1)
    with pytest.raises(LengthMismatch):
        code.encode([0] * 4)


def test_rs_minimum_distance_is_design_distance():
    code = ReedSolomonCode(3, 5)
    weights = [_weight(cw) for cw in enumerate_codewords(code)]
    assert min(w for w in weights if w) == 5
    assert len(weights) == 512


def test_extract_rejects_noncodewords():
    code = ReedSolomonCode(3, 5)
    cw = list(code.encode([2, 1, 0]))
    cw[0] ^= 1
    with pytest.raises(NotACodeword):
        code.extract(cw)


def test_words_of_another_length_are_no_codewords():
    # Packing zero-fills a short word and the checks read no bit past the
    # code, so the length is checked first.
    binary = BinaryExpandedCode(4, 6)
    cw = list(binary.encode([1] * binary.dimension))
    rs = ReedSolomonCode(4, 6)
    rs_cw = list(rs.encode(list(range(rs.dimension))))
    assert binary.contains(cw) and rs.contains(rs_cw)
    for code, word in ((binary, []), (binary, cw + [0, 0, 0]), (binary, cw + [1, 1, 0]),
                       (rs, rs_cw + [0]), (rs, rs_cw[:-1])):
        assert not code.contains(word), (code, len(word))
        with pytest.raises(NotACodeword):
            code.extract(word)


def test_symbols_outside_the_field_are_refused():
    # Packed, a symbol of 2^r or more would carry into the next symbol's
    # bits, and encode would read a negative one from the end of a table;
    # encode takes a float, a string or ERASED for no symbol either, and an
    # unhashable value is refused, not raised on.  Only the decoder takes
    # ERASED: contains and extract would read it as 0.
    code = ReedSolomonCode(3, 5)
    cw = list(code.encode([3, 1, 0]))
    for bad in (-1, 8, "1", [1]):
        with pytest.raises(ValueError):
            code.erasure_decode([bad] + cw[1:])
        with pytest.raises(ValueError):
            code.contains([bad] + cw[1:])
    for bad in (-1, 8, 1.5, "7", None, [1]):
        with pytest.raises(ValueError):
            code.encode([bad, 1, 0])
    zero = list(code.encode([0, 0, 0]))
    with pytest.raises(ValueError):
        code.contains([ERASED] + zero[1:])
    with pytest.raises(ValueError):
        code.extract([ERASED] + zero[1:])
    binary = BinaryExpandedCode(4, 6)
    word = list(binary.encode([0] * binary.dimension))
    word[0] = 2
    with pytest.raises(ValueError):
        binary.erasure_decode(word)


def test_float_symbols_are_refused():
    # 1.0 and 0.0 equal symbols of the field but are no ints: packed, 1.0
    # cannot be shifted into place and 0.0 would read as an absent bit.
    code = ReedSolomonCode(3, 5)
    cw = list(code.encode([3, 1, 0]))
    for bad in (1.0, 0.0):
        with pytest.raises(ValueError):
            code.erasure_decode([bad] + cw[1:])
        with pytest.raises(ValueError):
            code.contains([bad] + cw[1:])
    binary = BinaryExpandedCode(4, 6)
    word = [bool(b) for b in binary.encode([1] * binary.dimension)]
    assert binary.erasure_decode(word) == tuple(map(int, word))
    word[0] = float(word[0])
    with pytest.raises(ValueError):
        binary.erasure_decode(word)


def test_erasure_decode_unique():
    code = ReedSolomonCode(3, 5)
    f = code.field
    rng = random.Random(31)
    for _ in range(30):
        msg = [f(rng.randrange(8)) for _ in range(3)]
        cw = code.encode(msg)
        erased = rng.sample(range(7), 4)
        word = [ERASED if j in erased else cw[j] for j in range(7)]
        assert code.erasure_decode(word) == cw
    # Zero erasures: a codeword decodes to itself.
    cw = code.encode([1, 2, 0])
    assert code.erasure_decode(list(cw)) == cw


def test_erasure_decode_ambiguous_count():
    code = ReedSolomonCode(3, 5)
    cw = code.encode([1, 0, 2])
    word = [ERASED] * 5 + list(cw[5:])
    with pytest.raises(Ambiguous) as exc:
        code.erasure_decode(word)
    assert exc.value.count == 8
    assert consistent_count(code, word) == 8


def test_erasure_decode_inconsistent():
    code = ReedSolomonCode(3, 5)
    cw = list(code.encode([1, 0, 2]))
    cw[6] ^= 1
    with pytest.raises(Inconsistent):
        code.erasure_decode(cw)
    word = [ERASED, ERASED] + cw[2:]
    with pytest.raises(Inconsistent):
        code.erasure_decode(word)
    assert consistent_count(code, word) == 0


def test_hyperoval_parameters():
    code = hyperoval_code(3)
    assert (code.length, code.dimension) == (10, 3)
    assert min_distance_bruteforce(code) == 8
    # Singleton-type bound met with equality for d = n - k + 1... here the
    # hyperoval construction gives d = 2^r exactly.
    assert code.design_distance == 8


def test_subfield_code_two_way_agreement():
    big = hyperoval_code(3)
    small = subfield_code(big)
    assert small.field is GF2
    binary_big = {
        tuple(int(s) for s in cw)
        for cw in enumerate_codewords(big)
        if all(int(s) in (0, 1) for s in cw)
    }
    binary_small = {
        tuple(int(s) for s in cw) for cw in enumerate_codewords(small)
    }
    assert binary_small == binary_big


def test_subfield_of_full_space():
    f = BinaryField(3)
    full = LinearCode(f, 4, [1 << 3 * i for i in range(4)])
    small = subfield_code(full)
    assert small.dimension == 4  # every binary vector survives


def test_expand_contract_roundtrip():
    base = ReedSolomonCode(4, 6)
    f = base.field
    rng = random.Random(32)
    for _ in range(10):
        cw = base.encode([f(rng.randrange(16)) for _ in range(10)])
        bits = expand_binary(base, cw)
        assert len(bits) == 75
        # Per-block parity is even by construction.
        for i in range(15):
            block = bits[i * 5 : (i + 1) * 5]
            assert sum(int(b) for b in block) % 2 == 0
        assert contract_binary(base, bits) == list(cw)


def test_contract_erases_damaged_blocks():
    base = ReedSolomonCode(4, 6)
    cw = base.encode([1] + [0] * 9)
    bits = list(expand_binary(base, cw))
    bits[3] = ERASED  # erased bit in block 0
    bits[7] ^= 1  # parity violation in block 1
    symbols = contract_binary(base, bits)
    assert symbols[0] is ERASED
    assert symbols[1] is ERASED
    assert symbols[2:] == list(cw[2:])
    with pytest.raises(LengthMismatch):
        contract_binary(base, bits[:-1])
    # A bit of 2 would read as a symbol bit, and 1.0 or [1] is no bit.
    for bad in (2, 1.0, [1]):
        with pytest.raises(ValueError):
            contract_binary(base, [bad] + bits[1:])


@pytest.mark.parametrize("r, d, gamma", [
    pytest.param(5, 16, 6, id="186-80-6"),
    pytest.param(4, 6, 25, id="75-40-25"),
    pytest.param(4, 5, 5, id="75-44-5"),
    pytest.param(4, 6, 3, id="75-40-3-misaligned"),
])
def test_block_erased_decode_matches_burst_oracle(r, d, gamma):
    """Recovery's one decoder, erase_damaged_blocks and then the bit-level
    erasure_decode, gives the outcome, the message and the Ambiguous count
    of the paper's symbol-level burst decode, on seeded share coalitions
    with 0-2 known bits flipped, the second half the time in the first's
    block, where the parity bit cannot see the pair."""
    code = BinaryExpandedCode(r, d)
    n, block = code.length // gamma, r + 1
    rng = random.Random(48 + gamma)
    kinds = set()
    for trial in range(40):
        cw = code.encode([rng.getrandbits(1) for _ in range(code.dimension)])
        coalition = set(rng.sample(range(n), rng.randint(1, n)))
        word = [s if j // gamma in coalition else ERASED for j, s in enumerate(cw)]
        known = [j for j, s in enumerate(word) if s is not ERASED]
        flips = rng.sample(known, rng.randint(0, 2))
        if len(flips) == 2 and rng.getrandbits(1):
            start = flips[0] - flips[0] % block
            flips[1] = rng.choice([j for j in known if start <= j < start + block])
        for j in set(flips):
            word[j] ^= 1
        expected = burst_decode(code, word)
        erase_damaged_blocks(word, r)
        kind, value = erasure_outcome(code, word)
        if kind == "unique":
            value = tuple(value[j] for j in code.info_positions)
        assert (kind, value) == expected, trial
        kinds.add(kind)
    assert kinds == {"unique", "ambiguous", "inconsistent"}


def test_binary_expanded_parameters():
    code = BinaryExpandedCode(4, 6)
    assert (code.length, code.dimension) == (75, 40)
    assert code.design_distance == 12
    assert code.info_positions == tuple(
        5 * j + b for j in range(10) for b in range(4)
    )


def test_natural_pivots_give_the_declared_information_sets():
    """Every code the CLI can build carries its message at the data bits of
    the first k blocks, its RS base at its first k symbols; the hyperoval
    code carries it at its first three coordinates."""
    for r in range(2, MAX_CODE_R + 1):
        for d in range(2, 2**r):
            code = BinaryExpandedCode(r, d)
            k = code.base.dimension
            assert code.base.info_positions == tuple(range(k)), (r, d)
            assert code.info_positions == tuple(
                (r + 1) * j + b for j in range(k) for b in range(r)), (r, d)
        assert hyperoval_code(r).info_positions == (0, 1, 2), r


def test_binary_expanded_words_are_expansions():
    code = BinaryExpandedCode(3, 5)
    base = code.base
    rng = random.Random(33)
    for _ in range(10):
        msg = [GF2(rng.randrange(2)) for _ in range(code.dimension)]
        cw = code.encode(msg)
        symbols = contract_binary(base, list(cw))
        assert ERASED not in symbols
        assert base.contains(symbols)
        assert expand_binary(base, symbols) == cw


def test_block_symbol_spans():
    code = BinaryExpandedCode(4, 6)
    # gamma = 25 blocks are symbol-aligned: each spans exactly 5 symbols.
    assert code.block_symbol_spans(25, 3) == [5, 5, 5]
    # gamma = 15 blocks are aligned too (15 = 3 * 5): 3 symbols each.
    assert code.block_symbol_spans(15, 5) == [3, 3, 3, 3, 3]
    # gamma = 7 blocks straddle symbol boundaries.
    assert code.block_symbol_spans(7, 4) == [2, 2, 3, 2]


def test_burst_symbol_span_formula():
    assert burst_symbol_span(1, 4) == 1
    assert burst_symbol_span(5, 4) == 2
    assert burst_symbol_span(9, 4) == 3
    with pytest.raises(ValueError):
        burst_symbol_span(0, 4)


def test_burst_symbol_span_matches_sliding_window():
    for symbol_bits in range(1, 8):
        for burst in range(1, 20):
            worst = 0
            for offset in range(symbol_bits):
                first = offset // symbol_bits
                last = (offset + burst - 1) // symbol_bits
                worst = max(worst, last - first + 1)
            assert burst_symbol_span(burst, symbol_bits) == worst


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        list(enumerate_codewords(ReedSolomonCode(4, 2)))


def test_min_distance_bruteforce_known_codes():
    repetition = LinearCode(GF2, 5, [0b11111])
    assert min_distance_bruteforce(repetition) == 5
    full = LinearCode(GF2, 3, [0b001, 0b010, 0b100])
    assert min_distance_bruteforce(full) == 1


def test_rows_beyond_the_length_are_refused():
    """A row with a bit at r*length or above names a symbol the code does
    not have."""
    f = BinaryField(3)
    LinearCode(f, 2, [0b111_111])
    for bad in (1 << 6, 0b1_000_001, -1):
        with pytest.raises(ValueError):
            LinearCode(f, 2, [0b001, bad])
    with pytest.raises(ValueError):
        LinearCode(GF2, 3, [0b1000])


# Every code is built from packed rows and runs linalg's packed XOR
# elimination on its binary image; the element rows and the element-wise
# elimination in tests/oracles.py are the oracle for both.


def _packed(row):
    return sum(1 << j for j, s in enumerate(row) if s)


def _generator(code):
    """The code's systematic generator rows: its encodings of the unit
    messages."""
    return [code.encode([int(j == i) for j in range(code.dimension)])
            for i in range(code.dimension)]


def _ints(rows):
    """Rows of field elements as tuples of their ints."""
    return [tuple(map(int, row)) for row in rows]


def _random_rows(rng, nrows, ncols, rank):
    """nrows random GF(2) rows spanning at most `rank` dimensions."""
    basis = [[ELEMENT_GF2(rng.getrandbits(1)) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = [ELEMENT_GF2.zero] * ncols
        for b in basis:
            if rng.getrandbits(1):
                row = [x + y for x, y in zip(row, b)]
        rows.append(row)
    return rows


def test_xor_rref_matches_generic_rref():
    rng = random.Random(40)
    for trial in range(60):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 14)
        rows = _random_rows(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        reduced, pivots = rref(rows, ncols)
        packed, xor_pivots = linalg.rref([_packed(r) for r in rows])
        assert xor_pivots == pivots, trial
        assert packed == [_packed(r) for r in reduced], trial
        basis = nullspace(rows, ncols, ELEMENT_GF2)
        packed = linalg.nullspace(*linalg.rref([_packed(r) for r in rows]), ncols)
        assert packed == [_packed(v) for v in basis], trial


def test_xor_rref_matches_generic_rref_on_random_packed_systems():
    # Packed rows as the decoders hand them over: zero and repeated rows,
    # and more rows than columns, so rows reach zero and the basis stops
    # taking rows early.
    rng = random.Random(41)
    for trial in range(200):
        nrows, ncols = rng.randint(0, 30), rng.randint(1, 20)
        rows = [rng.getrandbits(ncols) if rng.random() < 0.8 else 0 for _ in range(nrows)]
        rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))] if rows else []
        elements = [[ELEMENT_GF2(r >> j & 1) for j in range(ncols)] for r in rows]
        reduced, pivots = rref(elements, ncols)
        packed, xor_pivots = linalg.rref(rows)
        assert xor_pivots == pivots, trial
        assert packed == [_packed(r) for r in reduced], trial


def _parity(bits):
    return bits.bit_count() & 1


def _generic_solve(rows, rhs, ncols):
    """The element-wise solve of packed rows, its solution packed."""
    x, free = solve([[ELEMENT_GF2(r >> j & 1) for j in range(ncols)] for r in rows],
                    [ELEMENT_GF2(b) for b in rhs], ncols, ELEMENT_GF2)
    return (None if x is None else _packed(x)), free


def test_solve_matches_generic_solve_on_random_packed_systems():
    # No rows, zero rows, repeated rows and systems short of full rank, each
    # consistent and with one rhs flipped: the same solution, free bits zero,
    # and the same free count.
    rng = random.Random(45)
    assert linalg.solve([], [], 7) == _generic_solve([], [], 7) == (0, 7)
    outcomes = set()
    for trial in range(300):
        ncols = rng.randint(1, 16)
        basis = [rng.getrandbits(ncols) for _ in range(rng.randint(0, ncols))]
        rows = []
        for _ in range(rng.randint(0, 24)):
            row = 0
            for b in basis:
                row ^= b * rng.getrandbits(1)
            rows.append(row)
        rows += [0] * rng.randint(0, 2)
        rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))] if rows else []
        rng.shuffle(rows)
        x = rng.getrandbits(ncols)
        rhs = [_parity(row & x) for row in rows]
        systems = [rhs]
        if rows:
            flipped = list(rhs)
            flipped[rng.randrange(len(rows))] ^= 1
            systems.append(flipped)
        support = 0
        for row in rows:
            support |= row
        for b in systems:
            got = linalg.solve(rows, b, ncols)
            assert got == _generic_solve(rows, b, ncols), trial
            # Full rank on the support leaves only the columns off it free.
            outcomes.add("inconsistent" if got[0] is None else
                         "full" if got[1] == ncols - support.bit_count() else "short")
    assert outcomes == {"full", "short", "inconsistent"}


def test_solve_checks_the_rows_after_full_rank():
    # One row per column of the support reaches full rank on it, so the
    # later rows are only checked against the solution; one that disagrees
    # still makes the system inconsistent.
    rng = random.Random(46)
    for trial in range(100):
        ncols = rng.randint(1, 16)
        support = rng.getrandbits(ncols) or 1
        cols = [c for c in range(ncols) if support >> c & 1]
        head = [1 << c | rng.getrandbits(ncols) & support & -(2 << c) for c in cols]
        rng.shuffle(head)
        tail = []
        for _ in range(rng.randint(1, 6)):
            row = 0
            while not row:
                for h in head:
                    row ^= h * rng.getrandbits(1)
            tail.append(row)
        rows = head + tail
        x = rng.getrandbits(ncols)
        rhs = [_parity(row & x) for row in rows]
        expected = (x & support, ncols - len(cols))
        assert linalg.solve(rows, rhs, ncols) == _generic_solve(rows, rhs, ncols) == expected
        rhs[len(head) + rng.randrange(len(tail))] ^= 1
        assert linalg.solve(rows, rhs, ncols) == _generic_solve(rows, rhs, ncols) == (None, 0)


def test_decode_solves_only_for_erased_information_bits(monkeypatch):
    # A 13-share coalition of the [186,80] code (gamma = 6), as perfbench's
    # decode-wide rejects, and a 24-share one.  The 13 shares know 13 of
    # the 31 blocks, fewer than k_rs = 16, so the MDS count refuses them
    # with no solve at all; the 24-share solve gets one row per check whose
    # own bit is known, at most, and no column but the erased information
    # bits.
    code = BinaryExpandedCode(5, 16)
    info = set(code.info_positions)
    systems = []
    solve_packed = linalg.solve

    def recording(rows, rhs, ncols):
        systems.append(list(rows))
        return solve_packed(rows, rhs, ncols)

    monkeypatch.setattr(linalg, "solve", recording)
    rng = random.Random(47)
    cw = code.encode([GF2(rng.getrandbits(1)) for _ in range(code.dimension)])
    for size in (13, 24):
        coalition = set(rng.sample(range(31), size))
        word = [s if j // 6 in coalition else ERASED for j, s in enumerate(cw)]
        erased = {j for j, s in enumerate(word) if s is ERASED}
        if size == 13:
            with pytest.raises(Ambiguous) as exc:
                code.erasure_decode(word)
            assert exc.value.count == 2 ** (5 * (16 - 13))
            assert systems == []
            continue
        assert code.erasure_decode(word) == cw
        (rows,) = systems
        known_checks = code.length - len(info) - len(erased - info)
        assert len(rows) <= known_checks, size
        support = 0
        for row in rows:
            support |= row
        assert support & ~sum(1 << j for j in erased & info) == 0, size


@pytest.mark.parametrize("r, distances", [
    pytest.param(2, (2, 3), id="2"),
    pytest.param(3, (2, 4, 6), id="3"),
    pytest.param(4, (3, 6, 11), id="4"),
    pytest.param(5, (4, 16, 25), id="5"),
])
def test_mds_count_matches_the_solve(monkeypatch, r, distances):
    # A word whose erasures are whole blocks, whose other blocks have even
    # parity and which knows fewer than k_rs blocks is refused by the MDS
    # count, with no solve; any other word goes to the solve.  Each outcome
    # must equal the plain solve's (the same code with no MDS declaration),
    # so a count taken at k_rs - 1 or k_rs + 1 fails here.
    solves = []
    solve_packed = linalg.solve

    def counting(rows, rhs, ncols):
        solves.append(ncols)
        return solve_packed(rows, rhs, ncols)

    monkeypatch.setattr(linalg, "solve", counting)
    rng = random.Random(53 + r)
    block = r + 1
    certified = 0
    for d in distances:
        code = BinaryExpandedCode(r, d)
        plain = copy.copy(code)
        plain._mds = None
        n, k = code.base.length, code.base.dimension
        for known in range(n + 1):
            for _ in range(3):
                cw = code.encode([rng.getrandbits(1) for _ in range(code.dimension)])
                kept = rng.sample(range(n), known)
                clean = [s if j // block in kept else ERASED for j, s in enumerate(cw)]
                words = {"clean": clean}
                if kept:
                    # One flipped bit (odd parity), two flipped bits in the
                    # same block (parity kept), one more erased bit.
                    start = rng.choice(kept) * block
                    one, two = rng.sample(range(start, start + block), 2)
                    odd, partial = list(clean), list(clean)
                    odd[one] ^= 1
                    even = list(odd)
                    even[two] ^= 1
                    partial[one] = ERASED
                    words.update(odd=odd, even=even, partial=partial)
                for kind, word in words.items():
                    solves.clear()
                    outcome = erasure_outcome(code, word)
                    took = not solves
                    assert outcome == erasure_outcome(plain, word), (d, known, word)
                    assert took == (known < k and kind in ("clean", "even")), (d, known, kind)
                    certified += took
                assert erasure_outcome(code, clean) == (
                    ("ambiguous", 2 ** (r * (k - known))) if known < k else ("unique", cw))
    assert certified


def _check_decodes(code, generic, words):
    """Packed decoding agrees with the generic solve on every word, given
    the generic build's generator and parity; the kind of each outcome."""
    field = ElementField(code.field.r)
    kinds = []
    for word in words:
        outcome = erasure_outcome(code, word)
        elements = [ERASED if s is ERASED else field(s) for s in word]
        kind, value = generic_erasure_outcome(field, *generic, elements)
        if kind == "unique":
            value = tuple(map(int, value))
        assert outcome == (kind, value)
        kinds.append(outcome[0])
    return tuple(kinds)


def _damaged(rng, cw, erased):
    """cw with its `erased` slots ERASED and, if any symbol is left, one
    known symbol changed by adding 1."""
    word = [ERASED if j in erased else s for j, s in enumerate(cw)]
    known = [j for j in range(len(cw)) if j not in erased]
    if known:
        word[rng.choice(known)] ^= 1
    return word


def test_random_binary_codes_match_generic():
    rng = random.Random(41)
    pairs = set()
    for trial in range(40):
        length = rng.randint(2, 16)
        rows = _random_rows(rng, rng.randint(1, length), length, rng.randint(1, length))
        code = LinearCode(GF2, length, [_packed(row) for row in rows])
        generator, info, parity = generic_build(ELEMENT_GF2, rows)
        assert (_generator(code), code.info_positions) == (_ints(generator), info), trial
        cw = code.encode([GF2(rng.getrandbits(1)) for _ in range(code.dimension)])
        for _ in range(6):
            erased = set(rng.sample(range(length), rng.randint(0, length)))
            clean = [ERASED if j in erased else s for j, s in enumerate(cw)]
            pairs.add(_check_decodes(
                code, (generator, parity), [clean, _damaged(rng, cw, erased)]
            ))
    # Clean words decode or are ambiguous; damaged ones are inconsistent
    # even where the same erasures leave free bits.
    assert {clean for clean, _ in pairs} == {"unique", "ambiguous"}
    assert ("ambiguous", "inconsistent") in pairs
    assert ("unique", "inconsistent") in pairs


@pytest.mark.parametrize("r, d, m, n, gamma", [
    pytest.param(4, 6, 0, 3, 25, id="4-6-3-25"),
    pytest.param(4, 6, 1, 3, 25, id="4-6-3-25-m1"),
    pytest.param(4, 6, 2, 3, 25, id="4-6-3-25-m2"),
    pytest.param(5, 16, 0, 31, 6, id="5-16-31-6"),
])
def test_share_coalitions_match_generic(r, d, m, n, gamma):
    """The demo [75,40] code and its m = 1, 2 variants, every coalition of
    their 3 shares, and the [186,80] code, one seeded coalition of each
    size 1..31, decode as the generic solve does; the code is built as the
    generic rref builds it from the element rows.  Each coalition's word is
    also decoded with one known bit flipped, for every third size of the
    [186,80] code (the generic solve takes ~0.3 s a word there)."""
    code = BinaryExpandedCode(r, d, m)
    generator, info, parity = generic_build(
        ELEMENT_GF2, expansion_rows(ReedSolomonCode(r, d, m)), code.info_positions
    )
    assert (_generator(code), code.info_positions) == (_ints(generator), info)
    rng = random.Random(42 + r)
    cw = code.encode([GF2(rng.getrandbits(1)) for _ in range(code.dimension)])
    if n == 3:
        coalitions = [c for size in range(4) for c in itertools.combinations(range(3), size)]
    else:
        coalitions = [rng.sample(range(n), size) for size in range(1, n + 1)]
    kinds = set()
    for coalition in coalitions:
        erased = {j for j in range(len(cw)) if j // gamma not in coalition}
        words = [[ERASED if j in erased else s for j, s in enumerate(cw)]]
        if n == 3 or len(coalition) % 3 == 0:
            words.append(_damaged(rng, cw, erased))
        kinds.update(_check_decodes(code, (generator, parity), words))
    assert kinds == {"unique", "ambiguous", "inconsistent"}


def test_subfield_code_matches_generic():
    """subfield_code(hyperoval_code(3..5)) has the generator that the
    element-wise nullspace of the big code's generic checks, split into
    bits, gives, and decodes seeded erasure patterns as the element-wise
    solve does."""
    rng = random.Random(44)
    for r in (3, 4, 5):
        big = hyperoval_code(r)
        _, _, big_parity = generic_build(ElementField(r), hyperoval_rows(r), range(3))
        binary_rows = [
            [ELEMENT_GF2(coeff.val >> b & 1) for coeff in h]
            for h in big_parity for b in range(r)
        ]
        rows = nullspace(binary_rows, big.length, ELEMENT_GF2)
        small = subfield_code(big)
        generator, info, parity = generic_build(ELEMENT_GF2, rows)
        assert (_generator(small), small.info_positions) == (_ints(generator), info)
        for _ in range(8):
            cw = small.encode([GF2(rng.getrandbits(1)) for _ in info])
            erased = set(rng.sample(range(small.length), rng.randint(0, small.length)))
            clean = [ERASED if j in erased else s for j, s in enumerate(cw)]
            _check_decodes(small, (generator, parity), [clean, _damaged(rng, cw, erased)])


def test_gf2r_codes_match_generic():
    """Every RS(3, d), RS(4, 6), RS(5, 16), hyperoval_code(3..5) and
    RS(5, 16) with m = 3 is built as the element-wise rref and nullspace
    over GF(2^r) build it from the element rows, and decodes seeded erasure
    patterns, each clean and with one known symbol changed, as the
    element-wise solve does."""
    cases = [(ReedSolomonCode(3, d), rs_rows(3, d)) for d in range(2, 8)]
    cases += [(ReedSolomonCode(4, 6), rs_rows(4, 6)),
              (ReedSolomonCode(5, 16), rs_rows(5, 16))]
    cases += [(hyperoval_code(r), hyperoval_rows(r)) for r in (3, 4, 5)]
    cases += [(ReedSolomonCode(5, 16, 3), rs_rows(5, 16, 3))]
    rng = random.Random(43)
    kinds = set()
    for code, rows in cases:
        field = code.field
        generator, info, parity = generic_build(ElementField(field.r), rows, range(len(rows)))
        assert (_generator(code), code.info_positions) == (_ints(generator), info), code
        for _ in range(8):
            cw = code.encode([field(rng.randrange(field.size)) for _ in info])
            erased = set(rng.sample(range(code.length), rng.randint(0, code.length)))
            clean = [ERASED if j in erased else s for j, s in enumerate(cw)]
            pair = _check_decodes(
                code, (generator, parity), [clean, _damaged(rng, cw, erased)]
            )
            kinds.update(pair)
    assert kinds == {"unique", "ambiguous", "inconsistent"}


def test_erasure_decode_refuses_a_word_of_the_wrong_length():
    code = ReedSolomonCode(3, 5)
    for length in (code.length - 1, code.length + 1):
        with pytest.raises(LengthMismatch):
            code.erasure_decode([ERASED] * length)


def test_hyperoval_code_needs_r_at_least_2():
    with pytest.raises(ValueError, match="r >= 2"):
        hyperoval_code(1)
