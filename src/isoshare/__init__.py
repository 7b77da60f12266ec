"""Threshold sharing of a secret supersingular isogeny path.

The dealer encodes a torsion point and its image under the secret isogeny
into a binary erasure-correcting codeword, hands each participant one
block of bits, and any t participants can decode the codeword, rebuild
both points, and recover the isogeny chain with an exact (meet-in-the-
middle) torsion-point recovery search.
"""

from .codes import (
    BinaryExpandedCode,
    LinearCode,
    ReedSolomonCode,
    hyperoval_code,
    subfield_code,
)
from .codec import decode_point, encode_point
from .curves import (
    CurvePoint,
    CurveSpec,
    INFINITY,
    is_supersingular,
    j_invariant,
    point_add,
    point_order,
    random_point_of_order,
    scalar_mul,
)
from .fields import BinaryField, BinaryFieldElement, Fp2, fp2_sqrt
from .isogeny import (
    IsogenyChain,
    IsogenyStep,
    evaluate_chain,
    random_walk,
    recover_isogeny,
)
from .scheme import (
    DealResult,
    RecoveryResult,
    SchemeParams,
    Share,
    admissible_t_interval,
    attack_cost_bits,
    distribute_bits,
    recover_isogeny_path,
    share_isogeny_path,
    validate_params,
)

# The package-level API.  Helpers such as velu_step, contract_binary or
# burst_recover stay importable from their own modules.
__all__ = [
    "BinaryExpandedCode", "LinearCode", "ReedSolomonCode", "hyperoval_code",
    "subfield_code",
    "decode_point", "encode_point",
    "CurvePoint", "CurveSpec", "INFINITY", "is_supersingular", "j_invariant",
    "point_add", "point_order", "random_point_of_order", "scalar_mul",
    "BinaryField", "BinaryFieldElement", "Fp2", "fp2_sqrt",
    "IsogenyChain", "IsogenyStep", "evaluate_chain", "random_walk",
    "recover_isogeny",
    "DealResult", "RecoveryResult", "SchemeParams", "Share",
    "admissible_t_interval", "attack_cost_bits",
    "distribute_bits", "recover_isogeny_path", "share_isogeny_path",
    "validate_params",
]
__version__ = "0.1.0"
