"""Command-line surface: deal shares to files, recover from share files,
and audit parameters.

Exit codes: 0 ok, 2 malformed command line or invalid config, params, input
file or share set, 3 I/O failure, 4 not enough shares, 5 digest mismatch,
6 corrupted share or codeword.  The commands raise library errors as they
come; main maps each through ERROR_EXITS.  The command line is read from
one table, COMMANDS, without argparse, whose import and first parse cost a
cold process some 4 ms.
"""

import os
import sys
from types import SimpleNamespace

# CPython's builtin sha256, as random.py takes sha512: hashlib's OpenSSL
# set-up costs a cold process some 3 ms.  Same digests.
try:
    sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:  # a CPython built without its own sha256
    from hashlib import sha256

from .codec import bits_to_int, int_to_bits
from .codes import BinaryExpandedCode
from .curves import CurveSpec, j_invariant, random_point_of_order
from .errors import (
    Inconsistent,
    InvalidEncoding,
    IsoshareError,
    NoIsogenyFound,
    NotACodeword,
    NotEnoughShares,
)
from .fields import Fp2, check_field_prime
from .isogeny import random_walk
from .scheme import (
    SchemeParams,
    Share,
    attack_cost_bits,
    burst_violations,
    recover_isogeny_path,
    share_isogeny_path,
    validate_params,
)

SHARE_MAGIC = "ISOSHARE 1"
PUBLIC_MAGIC = "ISOSHARE-PUBLIC 1"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_NOT_ENOUGH = 4
EXIT_DIGEST = 5
EXIT_CORRUPT = 6

# The exit code of each library error that reaches main; any other
# IsoshareError is invalid input, EXIT_INVALID.
ERROR_EXITS = {
    NotEnoughShares: EXIT_NOT_ENOUGH,
    Inconsistent: EXIT_CORRUPT,
    NotACodeword: EXIT_CORRUPT,
    InvalidEncoding: EXIT_CORRUPT,
    NoIsogenyFound: EXIT_CORRUPT,
}

# The largest e_iso a config or public file may name.  The recovery search
# meets in the middle, but its work still grows exponentially in e_iso: a
# cold demo `recover`, a whole fresh process, takes 0.10 s at 9 and at 10
# (median of 21, CPython 3.11, shared Xeon vCPU, where a bare interpreter
# starts in 0.05-0.06 s), so an unbounded e_iso would deal a secret that no
# coalition recovers in bounded time.
MAX_E_ISO = 10

# The largest ell_iso a config or public file may name.  `deal` lists all
# ell^2 points of E[ell]: cold, at e_iso = 1 (CPython 3.11, Xeon vCPU), a
# whole `deal` of the [186,80] code at p = 9,623 takes 0.35-0.53 s at
# ell = 401 and a `recover` from 24 shares 0.45-0.67 s; its one-step walk
# alone takes 0.31 s at ell = 401, 0.50 s at 601 and 1.7 s at 1,009.
# The two ceilings alone still let ell and e_iso grow together, so the
# search's work, at most (ell+1)*ell^(e_iso-1) walks of O(ell) Velu steps, is
# bounded by its value at ell = 3 and e_iso = MAX_E_ISO: (ell+1)*ell^e_iso <= 4*3^MAX_E_ISO.
MAX_ELL_ISO = 401

# The largest code.r a config or public file may name.  A cold code build
# grows about 4-6x per step of r (CPython 3.11, Xeon vCPU): 0.02 s at r = 6,
# 0.07-0.09 s at r = 7 and 0.44-0.46 s at r = 8 for BinaryExpandedCode(r, 6),
# most of it reading the checks off the systematic rows (linalg.nullspace)
# and assembling the expanded rows, each some r * 4^r steps.
MAX_CODE_R = 6

# Config keys that may be left out, with their values.
CONFIG_DEFAULTS = {"lambda": "128", "code.m": "0"}
HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def bits_to_hex(bits) -> str:
    """MSB-first nibble packing, zero fill in the final nibble."""
    bits = tuple(bits)
    digits = -(-len(bits) // 4)
    return format(bits_to_int(bits) << -len(bits) % 4, f"0{digits}x") if bits else ""


def hex_to_bits(text: str, nbits: int) -> tuple[int, ...]:
    digits = -(-nbits // 4)
    if len(text) != digits or not HEX_DIGITS.issuperset(text):
        raise ValueError(f"expected {digits} hex digits")
    bits = int_to_bits(int(text or "0", 16), 4 * digits)
    if any(bits[nbits:]):
        raise ValueError("nonzero fill bits")
    return bits[:nbits]


def read_lines(path: str) -> list[str]:
    """The lines of an input file; unreadable is exit 3, not UTF-8 exit 2."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as ex:
        raise CliError(EXIT_IO, f"cannot read {path}: {ex}") from ex
    except UnicodeDecodeError as ex:
        raise CliError(EXIT_INVALID, f"{path}: not UTF-8 text: {ex}") from ex


def parse_config(path: str) -> dict[str, str]:
    config = dict(CONFIG_DEFAULTS)
    for lineno, line in enumerate(read_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(EXIT_INVALID, f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _fp2(text: str, p: int) -> Fp2:
    """`c0,c1` or `c0` alone as an element of GF(p^2)."""
    c0, comma, c1 = text.partition(",")
    return Fp2(int(c0), int(c1) if comma else 0, p)


def _fp2_str(el: Fp2) -> str:
    return f"{el.c0},{el.c1}"


def build_params(fields: dict[str, str], source: str) -> SchemeParams:
    """The scheme parameters named by a config or a public file.

    Refuses, as invalid, a code.r above MAX_CODE_R before the code is built,
    an n above the code length (n * gamma = length has no solution with
    gamma >= 1, and `check` would print n + 1 cost lines), an e_iso
    above MAX_E_ISO (the recovery search's work grows exponentially in
    e_iso), an ell_iso above MAX_ELL_ISO (E[ell] has ell^2 points) and a
    pair whose search work bound (ell+1)*ell^e_iso exceeds that of ell = 3
    at MAX_E_ISO.
    """
    try:
        if int(fields["code.r"]) > MAX_CODE_R:
            raise ValueError(f"code.r = {fields['code.r']} exceeds {MAX_CODE_R}")
        if fields["code.kind"] != "binary-expanded-rs":
            raise ValueError(f"unknown code.kind {fields['code.kind']!r}")
        p = int(fields["p"])
        check_field_prime(p)
        params = SchemeParams(
            n=int(fields["n"]),
            t=int(fields["t"]),
            gamma=int(fields["gamma"]),
            curve=CurveSpec(_fp2(fields["a"], p), _fp2(fields["b"], p), p),
            torsion_order=int(fields["N"]),
            ell_iso=int(fields["ell_iso"]),
            e_iso=int(fields["e_iso"]),
            code=BinaryExpandedCode(
                int(fields["code.r"]), int(fields["code.d"]), int(fields["code.m"])),
            security_bits=int(fields["lambda"]),
        )
        if params.n > params.code.length:
            raise ValueError(
                f"n = {params.n} exceeds the code length {params.code.length}")
        if params.e_iso > MAX_E_ISO:
            raise ValueError(f"e_iso = {params.e_iso} exceeds {MAX_E_ISO}")
        if params.ell_iso > MAX_ELL_ISO:
            raise ValueError(f"ell_iso = {params.ell_iso} exceeds {MAX_ELL_ISO}")
        work = (params.ell_iso + 1) * params.ell_iso**params.e_iso
        if work > 4 * 3**MAX_E_ISO:
            raise ValueError(
                f"ell_iso = {params.ell_iso} with e_iso = {params.e_iso}: the "
                f"search's (ell+1)*ell^e_iso = {work} exceeds 4*3^{MAX_E_ISO}")
    except (KeyError, ValueError, IsoshareError) as ex:
        raise CliError(EXIT_INVALID, f"{source}: bad parameters: {ex}") from ex
    return params


def _context_lines(params: SchemeParams, e1: CurveSpec) -> list[str]:
    """The public context, one `key value` line a field, in the order dealt."""
    curve, code = params.curve, params.code
    return [f"p {curve.p}", f"a {_fp2_str(curve.a)}", f"b {_fp2_str(curve.b)}",
            f"e1_a {_fp2_str(e1.a)}", f"e1_b {_fp2_str(e1.b)}", f"n {params.n}",
            f"t {params.t}", f"gamma {params.gamma}", f"lambda {params.security_bits}",
            f"N {params.torsion_order}", f"ell_iso {params.ell_iso}",
            f"e_iso {params.e_iso}", f"code.kind {code.kind}", f"code.r {code.r}",
            f"code.d {code.base.d}", f"code.m {code.base.m}"]


def context_digest(lines: list[str]) -> str:
    return sha256("\n".join(lines).encode()).hexdigest()


def _atomic_write(path: str, lines: list[str]) -> None:
    """Write `lines`, each ended by a newline, to `path` through
    `path`.tmp, removing the temp file on failure."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except OSError as ex:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise CliError(EXIT_IO, f"cannot write {path}: {ex}") from ex


def _parse_kv_file(path: str, magic: str) -> tuple[dict[str, str], list[str]]:
    """The `key value` fields of a share or public file, and its lines."""
    lines = read_lines(path)
    if not lines or lines[0] != magic:
        raise CliError(EXIT_INVALID, f"{path}: missing {magic!r} header")
    pairs = (line.partition(" ") for line in lines[1:] if line.strip())
    return {key: value.strip() for key, _, value in pairs}, lines


def _print_findings(report) -> None:
    """A validation report's warnings, then its violations, one a line."""
    for kind, findings in (("warning", report.warnings), ("violation", report.violations)):
        for finding in findings:
            print(f"{kind}: {finding}")


def cmd_deal(args) -> int:
    config = parse_config(args.config)
    params = build_params(config, args.config)
    report = validate_params(params)
    _print_findings(report)
    if not report.ok and not args.force:
        raise CliError(EXIT_INVALID, "parameter validation failed")
    seed = args.seed or config.get("seed", "0")
    walk_seed = context_digest([f"{seed}/walk"])
    point_seed = context_digest([f"{seed}/point"])
    secret = random_walk(params.curve, params.ell_iso, params.e_iso, walk_seed)
    point = random_point_of_order(params.curve, params.torsion_order, point_seed)
    deal = share_isogeny_path(secret, point, params, force=args.force)
    context = _context_lines(params, deal.e1)
    digest = context_digest(context)
    try:
        os.makedirs(args.output, exist_ok=True)
    except OSError as ex:
        raise CliError(EXIT_IO, f"cannot create {args.output}: {ex}") from ex
    public_path = os.path.join(args.output, "public.isoshare")
    _atomic_write(public_path, [PUBLIC_MAGIC, f"digest {digest}"] + context)
    for share in deal.shares:
        body = [SHARE_MAGIC, f"digest {digest}", f"index {share.index}",
                f"gamma {params.gamma}", f"bits {bits_to_hex(share.bits)}"]
        _atomic_write(os.path.join(args.output, f"share_{share.index}.isoshare"), body)
    print(f"dealt: {params.n}")
    print(f"output: {args.output}")
    print(f"digest: {digest}")
    return EXIT_OK


def load_public(path: str):
    fields, lines = _parse_kv_file(path, PUBLIC_MAGIC)
    # The digest covers the context lines after the header and digest lines
    # as written, so a tampered file is refused before anything is built.
    digest = fields.get("digest", "")
    if context_digest([line for line in lines[2:] if line.strip()]) != digest:
        raise CliError(EXIT_DIGEST, "public file digest does not match its contents")
    params = build_params(fields, path)
    p = params.curve.p
    try:
        e1 = CurveSpec(_fp2(fields["e1_a"], p), _fp2(fields["e1_b"], p), p)
    except (KeyError, ValueError, IsoshareError) as ex:
        raise CliError(EXIT_INVALID, f"{path}: bad E1: {ex}") from ex
    return params, e1, digest


def load_share(path: str, digest: str, gamma: int) -> Share:
    fields, _ = _parse_kv_file(path, SHARE_MAGIC)
    if fields.get("digest", "") != digest:
        raise CliError(EXIT_DIGEST, f"{path}: digest does not match public context")
    try:
        index = int(fields["index"])
        share_gamma = int(fields["gamma"])
        if share_gamma != gamma:
            raise ValueError(f"share gamma {share_gamma} != {gamma}")
        bits = hex_to_bits(fields["bits"], gamma)
    except (KeyError, ValueError) as ex:
        raise CliError(EXIT_INVALID, f"{path}: {ex}") from ex
    return Share(index, bits)


def cmd_recover(args) -> int:
    params, e1, digest = load_public(args.public)
    shares = [load_share(path, digest, params.gamma) for path in args.shares]
    result = recover_isogeny_path(shares, params, e1)
    print(f"degree: {result.chain.degree}")
    print(f"steps: {len(result.chain.steps)}")
    for i, step in enumerate(result.chain.steps):
        print(f"step_{i}_kernel_x: {_fp2_str(step.kernel.x)}")
        print(f"step_{i}_kernel_y: {_fp2_str(step.kernel.y)}")
        print(f"step_{i}_j: {_fp2_str(j_invariant(step.codomain))}")
    print(f"codomain_a: {_fp2_str(result.chain.codomain.a)}")
    print(f"codomain_b: {_fp2_str(result.chain.codomain.b)}")
    for name, pt in (("point", result.point), ("image", result.image)):
        print(f"{name}_x: {_fp2_str(pt.x)}")
        print(f"{name}_y: {_fp2_str(pt.y)}")
    return EXIT_OK


def cmd_check(args) -> int:
    params = build_params(parse_config(args.config), args.config)
    report = validate_params(params)
    lower, upper = report.t_interval
    if lower > upper:
        print("t_interval: none")
    else:
        print(f"t_interval: [{lower}, {upper}]")
    for s in range(params.n + 1):
        print(f"cost_bits_s{s}: {attack_cost_bits(params, s)}")
    burst = burst_violations(params)
    for condition in ("width", "distance"):
        print(f"burst_{condition}_condition: "
              f"{'violated' if condition in burst else 'ok'}")
    _print_findings(report)
    print(f"valid: {'yes' if report.ok else 'no'}")
    return EXIT_OK


USAGE = """usage: isoshare deal -c CONFIG -o OUTPUT [--seed SEED] [--force]
       isoshare check -c CONFIG
       isoshare recover -p PUBLIC SHARE [SHARE ...]"""

# Each command's function, options (one field's spellings joined by "/";
# --force the one that takes no value) and required fields.  Only recover
# requires `shares`, and only it takes operands, its share files.
COMMANDS = {
    "deal": (cmd_deal, "-c/--config -o/--output --seed --force", ("config", "output")),
    "check": (cmd_check, "-c/--config", ("config",)),
    "recover": (cmd_recover, "-p/--public", ("public", "shares")),
}


def _is_option(word: str) -> bool:
    """Whether a word is read as an option, not as a value or operand: a
    dash not followed by a number, as in argparse."""
    return word[:1] == "-" and not word[1:].replace(".", "", 1).isdigit()


def parse_args(argv: list[str]):
    """The command's function and its fields, from argv without the program
    name.  An option's value is the next word, which may not be empty or
    an option.  A usage error is CliError(EXIT_INVALID) carrying USAGE."""
    def refuse(message):
        return CliError(EXIT_INVALID, f"{message}\n{USAGE}")
    if not argv or argv[0] not in COMMANDS:
        raise refuse(f"unknown command {argv[0]!r}" if argv else "no command given")
    func, options, required = COMMANDS[argv[0]]
    fields = {word: group.rpartition("-")[2] for group in options.split()
              for word in group.split("/")}
    args = SimpleNamespace(seed=None, force=False, shares=[])
    words = iter(argv[1:])
    for word in words:
        name = fields.get(word)
        if name == "force":
            args.force = True
        elif name:
            value = next(words, "")
            if not value or _is_option(value):
                raise refuse(f"{word} needs a value")
            setattr(args, name, value)
        elif _is_option(word) or "shares" not in required:
            raise refuse(f"{argv[0]}: unrecognized argument {word!r}")
        else:
            args.shares.append(word)
    for name in required:
        if not getattr(args, name, None):
            raise refuse(f"{argv[0]}: missing {name}")
    return func, args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return EXIT_OK
    try:
        func, args = parse_args(argv)
        return func(args)
    except CliError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return ex.code
    except IsoshareError as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return ERROR_EXITS.get(type(ex), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
