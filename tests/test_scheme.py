import itertools
import pickle

import pytest

from isoshare.codes import BinaryExpandedCode, LinearCode, hyperoval_code
from isoshare.curves import random_point_of_order
from isoshare.errors import (
    DuplicateShare,
    Inconsistent,
    InvalidParams,
    LengthMismatch,
    NotEnoughShares,
)
from isoshare.fields import GF2
from isoshare.isogeny import evaluate_chain, random_walk
from isoshare.scheme import (
    SchemeParams,
    Share,
    admissible_t_interval,
    attack_cost_bits,
    burst_recover,
    distribute_bits,
    recover_isogeny_path,
    share_isogeny_path,
    validate_params,
)

N_TORSION = 16


def _params(e0, n, t, gamma, d, e_iso=2, security_bits=8, torsion_order=N_TORSION,
            ell_iso=3):
    return SchemeParams(
        n=n,
        t=t,
        gamma=gamma,
        curve=e0,
        torsion_order=torsion_order,
        ell_iso=ell_iso,
        e_iso=e_iso,
        code=BinaryExpandedCode(4, d),
        security_bits=security_bits,
    )


def _deal(e0, params, seed="deal"):
    secret = random_walk(e0, params.ell_iso, params.e_iso, seed)
    point = random_point_of_order(e0, params.torsion_order, seed + "-pt")
    return secret, point, share_isogeny_path(secret, point, params)


def test_admissible_interval_examples():
    assert admissible_t_interval(8, 64, 128, 128) == (2, 7)
    assert admissible_t_interval(114, 9, 3, 128) == (1, 100)
    # Desk-scale: n=3, gamma=25, k=40, lambda=8.
    assert admissible_t_interval(3, 25, 40, 8) == (2, 3)


def test_interval_shrinks_with_security():
    for lam in range(1, 257, 8):
        lo, hi = admissible_t_interval(8, 64, 128, lam)
        lo2, hi2 = admissible_t_interval(8, 64, 128, lam + 8)
        assert lo2 == lo
        assert hi2 <= hi


def test_attack_cost(e0):
    params = _params(e0, 3, 2, 25, 6)
    assert attack_cost_bits(params, 3) == 0
    assert attack_cost_bits(params, 1) == 50
    assert attack_cost_bits(params, 0) == 75
    with pytest.raises(ValueError):
        attack_cost_bits(params, 4)


def test_distribute_bits():
    shares = distribute_bits((0, 1, 0, 1, 1, 1), 2, 3)
    assert [s.bits for s in shares] == [(0, 1), (0, 1), (1, 1)]
    assert [s.index for s in shares] == [0, 1, 2]
    with pytest.raises(LengthMismatch):
        distribute_bits((0, 1), 2, 3)


def test_validate_accepts_worked_instances(e0):
    assert validate_params(_params(e0, 3, 2, 25, 6)).ok
    assert validate_params(_params(e0, 5, 4, 15, 4)).ok


def test_validate_rejects_bad_threshold(e0):
    report = validate_params(_params(e0, 3, 4, 25, 6))
    assert not report.ok
    report = validate_params(_params(e0, 3, 1, 25, 6))
    assert not report.ok  # t below ceil(k/gamma) = 2


def test_validate_rejects_wrong_length(e0):
    report = validate_params(_params(e0, 5, 3, 25, 6))  # 125 != 75
    assert not report.ok


def test_validate_rejects_non_coprime_torsion(e0):
    params = SchemeParams(
        n=3, t=2, gamma=25, curve=e0, torsion_order=27, ell_iso=3, e_iso=2,
        code=BinaryExpandedCode(4, 6), security_bits=8,
    )
    report = validate_params(params)
    assert any("coprime" in v for v in report.violations)


@pytest.mark.parametrize("e_iso, flagged", [(0, False), (1, True), (10**8, True)])
def test_coprimality_decided_by_ell(e0, e_iso, flagged):
    # Degree 3^e_iso against N = 27: coprime only for the degree-1 chain.
    params = SchemeParams(
        n=3, t=2, gamma=25, curve=e0, torsion_order=27, ell_iso=3, e_iso=e_iso,
        code=BinaryExpandedCode(4, 6), security_bits=8,
    )
    report = validate_params(params)
    assert any("coprime" in v for v in report.violations) == flagged


@pytest.mark.parametrize("field, value", [("gamma", 0), ("torsion_order", 0), ("e_iso", -1)])
def test_params_the_arithmetic_cannot_use_are_refused(e0, field, value):
    with pytest.raises(InvalidParams):
        _params(e0, **{"n": 3, "t": 2, "gamma": 25, "d": 6, field: value})


def test_records_are_read_only_value_objects(e0):
    code = BinaryExpandedCode(4, 6)
    params = SchemeParams(3, 2, 25, e0, N_TORSION, 3, 2, code)
    twin = SchemeParams(n=3, t=2, gamma=25, curve=e0, torsion_order=N_TORSION,
                        ell_iso=3, e_iso=2, code=code)
    assert params == twin and hash(params) == hash(twin)
    assert params.security_bits == 128
    assert "security_bits=128" in repr(params)
    with pytest.raises(AttributeError):
        params.n = 4
    with pytest.raises(InvalidParams):
        SchemeParams(3, 2, 0, e0, N_TORSION, 3, 2, code)
    bits = (0, 1, 1)
    assert Share(0, bits) == Share(index=0, bits=bits)
    assert Share(0, bits) != Share(1, bits)
    assert Share(0, bits) != (0, bits)
    assert repr(Share(0, bits)) == "Share(index=0, bits=(0, 1, 1))"
    assert pickle.loads(pickle.dumps(Share(0, bits))) == Share(0, bits)


@pytest.mark.parametrize("ell", [1, 4, 5])
def test_validate_rejects_ell_not_a_prime_dividing_p_plus_1(e0, ell):
    report = validate_params(_params(e0, 3, 2, 25, 6, ell_iso=ell))
    assert any(f"ell = {ell} " in v for v in report.violations)


def test_erasure_capability_of_a_code_that_is_not_binary_expanded(e0):
    # The [10, 3, 8] hyperoval code over GF(8) has no block structure, so
    # its design distance decides: 8 - 1 >= gamma * (n - t) erased symbols
    # holds for 2 * 3 and fails for 2 * 4.
    for t, flagged in ((2, False), (1, True)):
        params = SchemeParams(
            n=5, t=t, gamma=2, curve=e0, torsion_order=N_TORSION, ell_iso=3, e_iso=2,
            code=hyperoval_code(3), security_bits=8,
        )
        report = validate_params(params)
        assert any("cannot correct" in v for v in report.violations) == flagged


def test_validate_warns_on_squarefree_torsion(e0):
    params = SchemeParams(
        n=3, t=2, gamma=25, curve=e0, torsion_order=6, ell_iso=5, e_iso=1,
        code=BinaryExpandedCode(4, 6), security_bits=8,
    )
    report = validate_params(params)
    assert report.warnings


def test_deal_shapes(e0):
    params = _params(e0, 3, 2, 25, 6)
    secret, point, deal = _deal(e0, params)
    assert len(deal.shares) == 3
    assert all(len(s.bits) == 25 for s in deal.shares)
    assert deal.e1 == secret.codomain


def test_deal_rejects_invalid_params(e0):
    params = _params(e0, 3, 4, 25, 6)
    with pytest.raises(InvalidParams):
        _deal(e0, params)


def test_deal_rejects_mismatched_secret(e0):
    params = _params(e0, 3, 2, 25, 6)
    wrong_degree = random_walk(e0, 3, 3, "x")
    point = random_point_of_order(e0, 16, "x-pt")
    with pytest.raises(InvalidParams):
        share_isogeny_path(wrong_degree, point, params)
    secret = random_walk(e0, 3, 2, "x")
    bad_point = random_point_of_order(e0, 8, "x-pt2")
    with pytest.raises(InvalidParams):
        share_isogeny_path(secret, bad_point, params)


def test_threshold_recovery_all_subsets(e0):
    params = _params(e0, 3, 2, 25, 6)
    secret, point, deal = _deal(e0, params)
    image = evaluate_chain(secret, point)
    for subset in itertools.combinations(deal.shares, 2):
        result = recover_isogeny_path(list(subset), params, deal.e1)
        assert result.point == point
        assert result.image == image
        assert result.chain.codomain == deal.e1
        assert evaluate_chain(result.chain, point) == image


def test_sub_threshold_fails(e0):
    params = _params(e0, 3, 2, 25, 6)
    _, _, deal = _deal(e0, params)
    for share in deal.shares:
        with pytest.raises(NotEnoughShares):
            recover_isogeny_path([share], params, deal.e1)


def test_full_share_set_recovers(e0):
    params = _params(e0, 3, 3, 25, 6)
    secret, point, deal = _deal(e0, params)
    result = recover_isogeny_path(list(deal.shares), params, deal.e1)
    assert evaluate_chain(result.chain, point) == evaluate_chain(secret, point)


def test_duplicate_and_bad_shares_rejected(e0):
    params = _params(e0, 3, 2, 25, 6)
    _, _, deal = _deal(e0, params)
    s0 = deal.shares[0]
    with pytest.raises(DuplicateShare):
        recover_isogeny_path([s0, s0], params, deal.e1)
    with pytest.raises(InvalidParams):
        recover_isogeny_path([Share(7, s0.bits)], params, deal.e1)
    with pytest.raises(LengthMismatch):
        recover_isogeny_path([Share(0, s0.bits[:-1])], params, deal.e1)


def test_share_bits_other_than_0_or_1_are_refused(e0):
    # A share bit is one bit of the code word: a 2 would carry into the
    # next bit of the packed word, and a -1, a "1" or a [1] is no bit at all.
    params = _params(e0, 3, 2, 25, 6)
    _, _, deal = _deal(e0, params)
    s0, s1 = deal.shares[:2]
    for bad in (2, -1, "1", [1]):
        bits = s0.bits[:3] + (bad,) + s0.bits[4:]
        with pytest.raises(InvalidParams, match="share 0"):
            recover_isogeny_path([Share(0, bits), s1], params, deal.e1)
        # The one-pass check still names the share that holds the bad bit.
        with pytest.raises(InvalidParams, match="share 1 has a bit"):
            recover_isogeny_path([s0, Share(1, bits)], params, deal.e1)


def test_float_share_bits_are_refused(e0):
    # A float bit equals 0 or 1 but cannot be packed into the code word.
    params = _params(e0, 3, 2, 25, 6)
    _, _, deal = _deal(e0, params)
    s0, s1 = deal.shares[:2]
    plain = recover_isogeny_path([s0, s1], params, deal.e1)
    booleans = recover_isogeny_path([Share(0, tuple(map(bool, s0.bits))), s1],
                                    params, deal.e1)
    assert booleans.chain.sort_key() == plain.chain.sort_key()
    with pytest.raises(InvalidParams, match="share 0"):
        recover_isogeny_path([Share(0, tuple(map(float, s0.bits))), s1], params, deal.e1)


def test_corrupted_share_detected(e0):
    params = _params(e0, 3, 2, 25, 6)
    _, _, deal = _deal(e0, params)
    bits = list(deal.shares[0].bits)
    bits[0] ^= 1
    with pytest.raises(Inconsistent):
        recover_isogeny_path(
            [Share(0, tuple(bits)), deal.shares[1]], params, deal.e1
        )


def test_burst_recovery_agrees_with_plain(e0):
    params = SchemeParams(
        n=15, t=13, gamma=5, curve=e0, torsion_order=16, ell_iso=3, e_iso=2,
        code=BinaryExpandedCode(4, 5), security_bits=8,
    )
    secret, point, deal = _deal(e0, params, seed="burst")
    image = evaluate_chain(secret, point)
    subset = [deal.shares[i] for i in range(13)]
    via_burst = burst_recover(subset, params, deal.e1)
    via_plain = recover_isogeny_path(subset, params, deal.e1)
    assert via_burst.point == via_plain.point == point
    assert via_burst.image == via_plain.image == image
    assert via_burst.chain.sort_key() == via_plain.chain.sort_key()


def test_burst_recovery_guards(e0):
    params = _params(e0, 3, 2, 25, 6)
    _, _, deal = _deal(e0, params)
    # gamma = 25 violates the narrow-share condition r > gamma - 2.
    with pytest.raises(InvalidParams):
        burst_recover(list(deal.shares[:2]), params, deal.e1)


@pytest.mark.parametrize("index", [1.5, "1", None])
def test_share_index_that_is_not_an_int_is_refused(e0, index):
    # A float index would pass the range check and match no block, and a
    # str or None would end in a bare TypeError.
    params = _params(e0, 3, 2, 25, 6)
    _, _, deal = _deal(e0, params)
    s0, s1 = deal.shares[:2]
    with pytest.raises(InvalidParams, match=f"share index {index!r} is not an int"):
        recover_isogeny_path([s0, s1, Share(index, deal.shares[2].bits)], params, deal.e1)


def test_validate_rejects_a_single_participant(e0):
    report = validate_params(_params(e0, 1, 1, 75, 6))
    assert "need at least 2 participants, got n = 1" in report.violations


def test_validation_report_is_a_read_only_record(e0):
    report = validate_params(_params(e0, 3, 4, 25, 6))
    assert type(report.violations) is tuple and type(report.warnings) is tuple
    assert report.t_interval == (2, 3) and not report.ok
    assert report == validate_params(_params(e0, 3, 4, 25, 6))
    assert hash(report) == hash(validate_params(_params(e0, 3, 4, 25, 6)))
    with pytest.raises(AttributeError):
        report.t_interval = None


def test_deal_rejects_a_secret_off_the_scheme_curve(e0):
    params = _params(e0, 3, 2, 25, 6)
    elsewhere = random_walk(e0, 3, 1, "elsewhere").codomain
    secret = random_walk(elsewhere, 3, 2, "x")
    point = random_point_of_order(e0, N_TORSION, "x-pt")
    with pytest.raises(InvalidParams, match="does not start on the scheme curve"):
        share_isogeny_path(secret, point, params)


def test_code_without_blocks_or_design_distance(e0):
    # Neither binary-expanded nor carrying a design distance: validation
    # cannot vouch for its erasure capability, and burst recovery refuses it.
    code = LinearCode(GF2, 6, [0b000011, 0b001100])
    params = SchemeParams(n=3, t=2, gamma=2, curve=e0, torsion_order=N_TORSION,
                          ell_iso=3, e_iso=2, code=code, security_bits=2)
    report = validate_params(params)
    assert any("cannot correct 2 erased bits" in v for v in report.violations)
    with pytest.raises(InvalidParams, match="binary-expanded RS code"):
        burst_recover([], params, e0)
