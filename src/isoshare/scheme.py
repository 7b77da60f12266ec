"""The (n, t)-threshold scheme over an isogeny secret.

A dealer encodes the torsion pair (P, I(P)) of a secret isogeny chain I
into a codeword of a binary erasure-correcting code and hands each of the
n participants one gamma-bit block.  Any t participants rebuild the
codeword (missing blocks are erasures), decode the two points, and call
the isogeny-recovery oracle to get the chain back.  Where the paper's
burst conditions hold, recovery decodes as the paper's symbol-level burst
decoder does, at bit level: a block of r data bits and their parity bit
that is not intact is erased whole, as the RS symbol it stands for.
"""

import math

from .codec import decode_point, encode_point, min_encoding_length
from .codes import ERASED, BinaryExpandedCode, erase_damaged_blocks
from .curves import CurvePoint, CurveSpec, _checked, _has_order, is_supersingular
from .errors import (
    Ambiguous,
    DuplicateShare,
    InvalidParams,
    LengthMismatch,
    NoSuchOrder,
    NotEnoughShares,
)
from .fields import GF2, factorize
from .isogeny import IsogenyChain, evaluate_chain, recover_isogeny, require_rational_ell


class _Record:
    """A read-only record of its __slots__: a compiled __init__ takes them by
    position or keyword (defaults from `_defaults`) and runs the subclass's
    `_check`, if any; ==, hash and repr go field by field.  Compiled, the
    __init__ builds a record as fast as a hand-written one would."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in cls._defaults else n
                           for n in cls.__slots__)
        body = "".join(f"    _set(self, {n!r}, {n})\n" for n in cls.__slots__)
        body += "    self._check()\n" if hasattr(cls, "_check") else ""
        scope = {"_set": object.__setattr__, "_defaults": cls._defaults}
        exec(f"def __init__(self, {params}):\n{body}", scope)
        cls.__init__ = scope["__init__"]

    def _fields(self):
        return tuple(getattr(self, n) for n in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # copy and pickle through __init__, not __setattr__
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class SchemeParams(_Record):
    """Public parameters of one threshold deal."""

    __slots__ = ("n", "t", "gamma", "curve", "torsion_order", "ell_iso", "e_iso",
                 "code", "security_bits")
    _defaults = {"security_bits": 128}

    def _check(self):
        # Values the arithmetic cannot run on at all; everything else is
        # reported by validate_params.
        if self.gamma < 1:
            raise InvalidParams(f"gamma = {self.gamma} must be positive")
        if self.torsion_order < 1:
            raise InvalidParams(f"torsion order {self.torsion_order} must be positive")
        if self.e_iso < 0:
            raise InvalidParams(f"e_iso = {self.e_iso} must be nonnegative")

    @property
    def isogeny_degree(self) -> int:
        return self.ell_iso**self.e_iso


class Share(_Record):
    """Participant `index`'s block: a tuple of gamma code `bits`, each 0 or 1."""
    __slots__ = ("index", "bits")


class DealResult(_Record):
    """The `shares` of a deal, its curves `e0` and `e1` = I(E0), and its `params`."""
    __slots__ = ("shares", "e0", "e1", "params")


class RecoveryResult(_Record):
    """The recovered IsogenyChain `chain` and the decoded pair `point`, `image`."""
    __slots__ = ("chain", "point", "image")


class ValidationReport(_Record):
    """What validate_params found: tuples of `violations` and `warnings`, one
    message each, and `t_interval`, the inclusive [t_min, t_max]."""
    __slots__ = ("violations", "warnings", "t_interval")

    @property
    def ok(self) -> bool:
        return not self.violations


def admissible_t_interval(n: int, gamma: int, k: int, security_bits: int = 128):
    """Inclusive [t_min, t_max]: ceil(k/gamma) <= t <= floor(n - lambda/gamma + 1)."""
    lower = -(-k // gamma)
    upper = n + 1 + (-security_bits // gamma)
    return lower, upper


def attack_cost_bits(params: SchemeParams, shares_held: int) -> int:
    """Brute-force exponent facing a coalition holding `shares_held` shares."""
    if not 0 <= shares_held <= params.n:
        raise ValueError("shares held must be in [0, n]")
    return params.gamma * (params.n - shares_held)


def _erasure_capability_ok(params: SchemeParams) -> bool:
    """Can the code fill in n - t missing gamma-bit blocks?"""
    missing = params.n - params.t
    if missing == 0:
        return True
    code = params.code
    if isinstance(code, BinaryExpandedCode):
        # Whole-block erasures hit a bounded run of symbols per block; the
        # worst case is the `missing` largest spans all erased at once.
        spans = sorted(code.block_symbol_spans(params.gamma, params.n))
        return sum(spans[-missing:]) <= code.base.d - 1
    if code.design_distance is not None:
        return code.design_distance - 1 >= params.gamma * missing
    return False


def validate_params(params: SchemeParams) -> ValidationReport:
    violations, warnings = [], []
    n, t, gamma = params.n, params.t, params.gamma
    k = params.code.dimension
    lower, upper = admissible_t_interval(n, gamma, k, params.security_bits)
    if n < 2:
        violations.append(f"need at least 2 participants, got n = {n}")
    if not 1 <= t <= n:
        violations.append(f"threshold t = {t} outside [1, {n}]")
    if params.code.length != gamma * n:
        violations.append(f"code length {params.code.length} != gamma*n = {gamma * n}")
    if t < lower:
        violations.append(f"t = {t} < ceil(k/gamma) = {lower}")
    if t > upper:
        violations.append(f"t = {t} > n - {params.security_bits}/gamma + 1 = {upper}")
    if not _erasure_capability_ok(params):
        violations.append(
            f"code cannot correct {gamma * (n - t)} erased bits from "
            f"{n - t} missing blocks"
        )
    # The degree ell^e is coprime to N iff ell is, unless e = 0 (degree 1).
    if params.e_iso >= 1 and math.gcd(params.torsion_order, params.ell_iso) != 1:
        violations.append(
            f"torsion order {params.torsion_order} not coprime to isogeny "
            f"degree {params.ell_iso}^{params.e_iso}"
        )
    if (params.curve.p + 1) % params.torsion_order != 0:
        violations.append(f"torsion order {params.torsion_order} does not divide p+1")
    elif all(e == 1 for e in factorize(params.torsion_order).values()):
        warnings.append(
            "torsion order has no nontrivial square factor; the polynomial "
            "recovery algorithm this oracle stands in for needs one"
        )
    try:
        require_rational_ell(params.curve.p, params.ell_iso)
    except NoSuchOrder as ex:
        violations.append(str(ex))
    if k % 2 != 0 or k // 2 < min_encoding_length(params.curve.p):
        violations.append(
            f"code dimension {k} cannot carry two point encodings of "
            f">= {min_encoding_length(params.curve.p)} bits each"
        )
    if not is_supersingular(params.curve):
        violations.append("starting curve is not supersingular")
    return ValidationReport(tuple(violations), tuple(warnings), (lower, upper))


def burst_violations(params: SchemeParams) -> dict[str, str]:
    """Why burst recovery is not sure to succeed, keyed "code", "width" or
    "distance"; empty when it is.

    Width r > gamma - 2 keeps each missing block within a short run of RS
    symbols, and distance d >= 2(n - t) + 1 lets the base code fill the
    runs of all n - t missing blocks.
    """
    code = params.code
    if not isinstance(code, BinaryExpandedCode):
        return {"code": "burst recovery needs a binary-expanded RS code"}
    violations = {}
    floor = params.gamma - 2
    if code.r <= floor:
        violations["width"] = f"symbol width r = {code.r} must exceed gamma - 2 = {floor}"
    need = 2 * (params.n - params.t) + 1
    if code.base.d < need:
        violations["distance"] = f"base distance {code.base.d} < 2(n - t) + 1 = {need}"
    return violations


def distribute_bits(bits, gamma: int, n: int) -> tuple[Share, ...]:
    """Block partition: share i carries bits [i*gamma, (i+1)*gamma)."""
    bits = tuple(bits)
    if len(bits) != gamma * n:
        raise LengthMismatch(f"expected {gamma * n} bits, got {len(bits)}")
    return tuple(Share(i, bits[i * gamma : (i + 1) * gamma]) for i in range(n))


def share_isogeny_path(
    secret: IsogenyChain, point: CurvePoint, params: SchemeParams, force: bool = False
) -> DealResult:
    """Deal the secret chain: encode (P, I(P)), spread the codeword."""
    report = validate_params(params)
    if not report.ok and not force:
        raise InvalidParams("; ".join(report.violations))
    if secret.domain != params.curve:
        raise InvalidParams("secret chain does not start on the scheme curve")
    if secret.degree != params.isogeny_degree:
        raise InvalidParams(
            f"chain degree {secret.degree} != ell^e = {params.isogeny_degree}"
        )
    if not _has_order(params.curve, _checked(params.curve, point), params.torsion_order):
        raise InvalidParams("torsion point does not have the declared order")
    e1 = secret.codomain
    image = evaluate_chain(secret, point)
    half = params.code.dimension // 2
    s_p = encode_point(params.curve, point, half)
    s_q = encode_point(e1, image, half)
    codeword = params.code.encode(s_p + s_q)
    return DealResult(
        shares=distribute_bits(codeword, params.gamma, params.n),
        e0=params.curve,
        e1=e1,
        params=params,
    )


def _check_shares(shares, params: SchemeParams) -> dict[int, tuple[int, ...]]:
    by_index: dict[int, tuple[int, ...]] = {}
    for share in shares:
        # A float index would pass the range check and match no block.
        if not isinstance(share.index, int):
            raise InvalidParams(f"share index {share.index!r} is not an int")
        if not 0 <= share.index < params.n:
            raise InvalidParams(f"share index {share.index} outside [0, {params.n})")
        if share.index in by_index:
            raise DuplicateShare(f"two shares carry index {share.index}")
        if len(share.bits) != params.gamma:
            raise LengthMismatch(
                f"share {share.index} has {len(share.bits)} bits, "
                f"expected {params.gamma}"
            )
        by_index[share.index] = tuple(share.bits)
    # One check over every bit; only a failure looks for the share at fault.
    if not GF2._are_elements([bit for bits in by_index.values() for bit in bits]):
        index = next(i for i, bits in by_index.items() if not GF2._are_elements(bits))
        raise InvalidParams(f"share {index} has a bit other than the int 0 or 1")
    return by_index


def recover_isogeny_path(shares, params: SchemeParams, e1: CurveSpec) -> RecoveryResult:
    """Rebuild the codeword from >= t shares and recover the secret chain.

    Under the burst conditions (burst_violations empty) every block that
    erase_damaged_blocks names is erased first, so a share with a flipped
    bit costs an RS symbol instead of making the word inconsistent.
    """
    by_index = _check_shares(shares, params)
    missing = (ERASED,) * params.gamma
    word = [b for i in range(params.n) for b in by_index.get(i, missing)]
    if not burst_violations(params):
        erase_damaged_blocks(word, params.code.r)
    try:
        codeword = params.code.erasure_decode(word)
    except Ambiguous as amb:
        raise NotEnoughShares(
            f"{amb.count} codewords fit the {len(by_index)} known blocks"
        ) from amb
    # A decoded word is a codeword: read its message, no checks re-run.
    message_bits = tuple(codeword[j] for j in params.code.info_positions)
    half = params.code.dimension // 2
    point = decode_point(params.curve, message_bits[:half])
    image = decode_point(e1, message_bits[half:])
    chain = recover_isogeny(
        params.curve, e1, point, image, params.ell_iso, params.e_iso
    )
    return RecoveryResult(chain=chain, point=point, image=image)


def burst_recover(shares, params: SchemeParams, e1: CurveSpec) -> RecoveryResult:
    """recover_isogeny_path, for params that meet the burst conditions
    only: InvalidParams names the ones they break."""
    violations = burst_violations(params)
    if violations:
        raise InvalidParams("; ".join(violations.values()))
    return recover_isogeny_path(shares, params, e1)
