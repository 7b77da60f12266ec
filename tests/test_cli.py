import contextlib
import filecmp
import hashlib
import importlib.util
import io
import itertools
import os
import signal
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoshare.cli
from isoshare.cli import (
    EXIT_CORRUPT,
    EXIT_DIGEST,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NOT_ENOUGH,
    EXIT_OK,
    MAX_CODE_R,
    MAX_E_ISO,
    MAX_ELL_ISO,
    USAGE,
    bits_to_hex,
    context_digest,
    hex_to_bits,
    load_public,
    load_share,
    main,
)
from isoshare.errors import (
    DuplicateShare,
    Inconsistent,
    InvalidEncoding,
    InvalidParams,
    LengthMismatch,
    NoIsogenyFound,
    NoSuchOrder,
    NotACodeword,
    NotEnoughShares,
    NotOnCurve,
)
from isoshare.fields import is_prime
from isoshare.isogeny import random_walk
from isoshare.scheme import recover_isogeny_path

CONFIG = """\
# desk-scale demo deal
p = 431
a = 1
b = 0
n = 3
t = 2
gamma = 25
lambda = 8
N = 16
ell_iso = 3
e_iso = 2
code.kind = binary-expanded-rs
code.r = 4
code.d = 6
seed = demo
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(CONFIG)
    return str(path)


def _deal(config_path, outdir, *extra):
    return main(["deal", "-c", config_path, "-o", outdir, *extra])


def test_hex_packing_roundtrip():
    bits = (1, 0, 1, 1, 0, 0, 1, 0, 1)
    text = bits_to_hex(bits)
    assert len(text) == 3  # ceil(9/4) nibbles
    assert hex_to_bits(text, 9) == bits
    with pytest.raises(ValueError):
        hex_to_bits("fff", 9)  # nonzero fill bits
    with pytest.raises(ValueError):
        hex_to_bits("zz", 8)
    with pytest.raises(ValueError):
        hex_to_bits("01", 7)  # nonzero fill bit in the final nibble
    for text in ("+f", "0x", " f", "\u0661\u0662"):  # not hex digits
        with pytest.raises(ValueError):
            hex_to_bits(text, 8)


def test_check_reports_interval_and_costs(config_path, capsys):
    assert main(["check", "-c", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "t_interval: [2, 3]" in out
    assert "cost_bits_s1: 50" in out
    assert "cost_bits_s3: 0" in out
    assert "valid: yes" in out
    # gamma = 25 is far above the symbol width, so burst mode is off.
    assert "burst_width_condition: violated" in out
    assert "burst_distance_condition: ok" in out


def test_check_flags_bad_threshold(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace("t = 2", "t = 1"))
    assert main(["check", "-c", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "valid: no" in out
    assert "violation:" in out


def test_n_and_e_iso_ceilings(tmp_path, capsys):
    path = tmp_path / "edge.cfg"
    # The demo code has length 75: n = 75 passes the boundary (and `check`
    # reports it invalid, as gamma * n != 75); n = 76 is refused.  The
    # code.r = MAX_CODE_R code passes too, and is invalid for gamma * n.
    # ell_iso = MAX_ELL_ISO passes at e_iso = 1, and is invalid as it does
    # not divide p + 1 = 432; at e_iso = 2 the search's work is refused, and
    # the next prime is refused.
    above = next(q for q in itertools.count(MAX_ELL_ISO + 1) if is_prime(q))
    for old, new, expected in (
        ("e_iso = 2", f"e_iso = {MAX_E_ISO}", EXIT_OK),
        ("e_iso = 2", f"e_iso = {MAX_E_ISO + 1}", EXIT_INVALID),
        ("ell_iso = 3\ne_iso = 2", f"ell_iso = {MAX_ELL_ISO}\ne_iso = 1", EXIT_OK),
        ("ell_iso = 3", f"ell_iso = {MAX_ELL_ISO}", EXIT_INVALID),
        ("ell_iso = 3", f"ell_iso = {above}", EXIT_INVALID),
        ("n = 3", "n = 75", EXIT_OK),
        ("n = 3", "n = 76", EXIT_INVALID),
        ("code.r = 4", f"code.r = {MAX_CODE_R}", EXIT_OK),
        ("code.r = 4", f"code.r = {MAX_CODE_R + 1}", EXIT_INVALID),
    ):
        path.write_text(CONFIG.replace(old, new))
        assert main(["check", "-c", str(path)]) == expected, new
    out = capsys.readouterr().out
    assert out.count("valid: yes") == 1 and out.count("valid: no") == 3


def test_deal_then_recover_roundtrip(config_path, tmp_path, capsys):
    outdir = str(tmp_path / "deal")
    assert _deal(config_path, outdir) == EXIT_OK
    capsys.readouterr()
    public = os.path.join(outdir, "public.isoshare")
    shares = [os.path.join(outdir, f"share_{i}.isoshare") for i in range(3)]
    assert main(["recover", "-p", public, shares[0], shares[2]]) == EXIT_OK
    out = capsys.readouterr().out
    assert "degree: 9" in out
    assert "steps: 2" in out
    assert "point_x:" in out and "image_y:" in out


# The decode-wide benchmark's parameters: a [186,80] code whose 6-bit
# blocks meet both burst conditions, so recovery erases every damaged
# 5 + 1-bit block whole, as the paper's symbol-level decoder would.
BURST_CONFIG = """\
p = 431
a = 1
b = 0
n = 31
t = 24
gamma = 6
lambda = 8
N = 16
ell_iso = 3
e_iso = 1
code.kind = binary-expanded-rs
code.r = 5
code.d = 16
seed = burst
"""


def test_burst_config_recovers_through_a_flipped_bit(tmp_path, capsys):
    """Under the burst conditions a share with one flipped bit costs its
    block, not the recovery: `recover` and recover_isogeny_path both return
    the dealt chain."""
    config = tmp_path / "burst.cfg"
    config.write_text(BURST_CONFIG)
    assert main(["check", "-c", str(config)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "burst_width_condition: ok" in out
    assert "burst_distance_condition: ok" in out
    assert "valid: yes" in out
    outdir = tmp_path / "deal"
    assert main(["deal", "-c", str(config), "-o", str(outdir)]) == EXIT_OK
    public = str(outdir / "public.isoshare")
    paths = [str(outdir / f"share_{i}.isoshare") for i in range(7, 31)]
    params, e1, digest = load_public(public)
    walk_seed = hashlib.sha256(b"burst/walk").hexdigest()
    dealt = random_walk(params.curve, params.ell_iso, params.e_iso, walk_seed)
    clean = load_share(paths[0], digest, params.gamma)
    # Flip the first bit of share 7: the top bit of its first hex digit.
    share = Path(paths[0])
    head, bits = share.read_text().rsplit("bits ", 1)
    share.write_text(f"{head}bits {int(bits[0], 16) ^ 8:x}{bits[1:]}")
    shares = [load_share(path, digest, params.gamma) for path in paths]
    assert shares[0].bits == (1 - clean.bits[0],) + clean.bits[1:]
    chain = recover_isogeny_path(shares, params, e1).chain
    assert chain.sort_key() == dealt.sort_key()
    capsys.readouterr()
    assert main(["recover", "-p", public, *paths]) == EXIT_OK
    out = capsys.readouterr().out
    assert "degree: 3\nsteps: 1\n" in out
    step = chain.steps[0]
    for name, value in (("kernel_x", step.kernel.x), ("kernel_y", step.kernel.y),
                        ("j", step.codomain.j)):
        assert f"step_0_{name}: {value.c0},{value.c1}\n" in out
    assert f"codomain_a: {chain.codomain.a.c0},{chain.codomain.a.c1}\n" in out
    assert f"codomain_b: {chain.codomain.b.c0},{chain.codomain.b.c1}\n" in out


# The sha256 of each file the demo `deal` writes, and of `recover`'s
# stdout from shares 0 and 2, at e_iso = 2 and at a deeper e_iso whose
# search meets at depth 4: a change to the arithmetic, the codes or the
# search that moves a byte of the CLI's output fails here.
DEMO_BYTES = {
    2: {
        "public.isoshare": "1076cf298577def036f8f4fe5a835d340043c1783b0098c3cd51f363f97f77c3",
        "share_0.isoshare": "098bb586e42c5b0475dae1409efdfd88f1d6b38a3b40321a4c9ac7e5ad15692f",
        "share_1.isoshare": "e62ff202674e53196b4231b8df4c74bcaf909897206fa2c80faf422c99e1ba93",
        "share_2.isoshare": "21edbe9ea8025837e69c1b42f103f61fc0d52c6addd1294768815bc60baf616b",
        "recover": "7acc33b1adbf134d9cb919cb5c0f7a55d4030284a18146d5328011791d70cee4",
    },
    8: {
        "public.isoshare": "e17e5aa2d8d9448aa8a27f0564d37423bdb498f42a76d2beee63e522f82ab93d",
        "share_0.isoshare": "7cefdfd6e4bdb0e217c9b3040358cacdd3c7321af92e2bb301979c2483dddf9e",
        "share_1.isoshare": "15c682e6239b71b8923605c342408db50f2c37a4fafa6e356dba67a807bee000",
        "share_2.isoshare": "3812a5d2cb71ee4267920277e763a4aabf90eeadde19a3b9dc3d4f93283247bf",
        "recover": "1a508f1275d589a3b48ca3d61f7bcf1f283c2fb8d2510461933eac83a1500195",
    },
}


@pytest.mark.parametrize("e_iso", sorted(DEMO_BYTES))
def test_demo_output_bytes_are_pinned(e_iso, tmp_path, capsys):
    config = tmp_path / "demo.cfg"
    config.write_text(CONFIG.replace("e_iso = 2", f"e_iso = {e_iso}"))
    outdir = tmp_path / "deal"
    assert main(["deal", "-c", str(config), "-o", str(outdir)]) == EXIT_OK
    capsys.readouterr()
    shares = [str(outdir / f"share_{i}.isoshare") for i in (0, 2)]
    assert main(["recover", "-p", str(outdir / "public.isoshare"), *shares]) == EXIT_OK
    digests = {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in os.listdir(outdir)
    }
    digests["recover"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == DEMO_BYTES[e_iso]


def test_deal_is_deterministic(config_path, tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert _deal(config_path, a) == EXIT_OK
    assert _deal(config_path, b) == EXIT_OK
    for name in os.listdir(a):
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name), shallow=False)


def test_deal_seed_changes_output(config_path, tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert _deal(config_path, a) == EXIT_OK
    assert _deal(config_path, b, "--seed", "other") == EXIT_OK
    assert not filecmp.cmp(
        os.path.join(a, "public.isoshare"),
        os.path.join(b, "public.isoshare"),
        shallow=False,
    )


def test_empty_seed_is_refused(config_path, tmp_path, capsys):
    """An empty --seed is a usage error, not a deal with the config's seed."""
    outdir = tmp_path / "deal"
    assert _deal(config_path, str(outdir), "--seed", "") == EXIT_INVALID
    assert not outdir.exists()
    captured = capsys.readouterr()
    assert not captured.out and captured.err.endswith(USAGE + "\n")


def test_repeated_option_keeps_the_last_value(config_path, tmp_path, capsys):
    assert main(["check", "-c", str(tmp_path / "nope.cfg"), "-c", config_path]) == EXIT_OK
    assert "valid: yes" in capsys.readouterr().out.splitlines()
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert _deal(config_path, a) == EXIT_OK
    assert _deal(config_path, b, "--seed", "other", "--seed", "demo") == EXIT_OK
    assert filecmp.cmp(os.path.join(a, "public.isoshare"),
                       os.path.join(b, "public.isoshare"), shallow=False)


def test_main_without_argv_reads_sys_argv(config_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["isoshare", "check", "-c", config_path])
    assert main() == EXIT_OK
    assert "valid: yes" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["deal", "-h"],
                                  ["recover", "-p", "x", "--help"]])
def test_help_prints_the_usage(argv, capsys):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == (USAGE + "\n", "")


@pytest.mark.parametrize("lines", [[], [""], ["demo/walk"], ["p 431", "a 1,0", "b 0,0"],
                                   ["code.kind \u00e9t\u00e9", "\u65e5\u672c \U0001d54a"]])
def test_context_digest_is_sha256(lines):
    expected = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert context_digest(lines) == expected


def test_cold_deal_and_recover_load_no_argparse_gettext_or_openssl(config_path, tmp_path):
    """A demo deal and recover in one fresh interpreter load none of
    argparse, gettext or (where CPython's own sha256 exists) _hashlib
    beyond what a bare interpreter loads through `site`."""
    listing = "import sys; print(*sorted(sys.modules))"
    outdir = str(tmp_path / "deal")
    run = (
        "import contextlib, io\n"
        "from isoshare.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['deal', '-c', {config_path!r}, '-o', {outdir!r}]) == 0\n"
        f"    assert main(['recover', '-p', {outdir!r} + '/public.isoshare',\n"
        f"                 {outdir!r} + '/share_0.isoshare', {outdir!r} + '/share_2.isoshare']) == 0\n"
    )

    def loaded(code):
        done = subprocess.run([sys.executable, "-c", f"{code}\n{listing}"],
                              env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, check=True, timeout=60)
        return set(done.stdout.split())
    added = loaded(run) - loaded("pass")
    assert "isoshare.scheme" in added
    assert not added & {"argparse", "gettext"}
    if importlib.util.find_spec("_sha256") or importlib.util.find_spec("_sha2"):
        assert "_hashlib" not in added


def test_recover_with_too_few_shares(config_path, tmp_path, capsys):
    outdir = str(tmp_path / "deal")
    assert _deal(config_path, outdir) == EXIT_OK
    public = os.path.join(outdir, "public.isoshare")
    share0 = os.path.join(outdir, "share_0.isoshare")
    assert main(["recover", "-p", public, share0]) == EXIT_NOT_ENOUGH


def test_recover_with_tampered_share(config_path, tmp_path, capsys):
    outdir = str(tmp_path / "deal")
    assert _deal(config_path, outdir) == EXIT_OK
    share1 = os.path.join(outdir, "share_1.isoshare")
    lines = open(share1).read().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("bits "):
            hexpart = line.split(" ", 1)[1]
            flipped = ("0" if hexpart[0] != "0" else "1") + hexpart[1:]
            lines[i] = f"bits {flipped}"
    open(share1, "w").write("\n".join(lines) + "\n")
    public = os.path.join(outdir, "public.isoshare")
    share0 = os.path.join(outdir, "share_0.isoshare")
    assert main(["recover", "-p", public, share0, share1]) == EXIT_CORRUPT


def test_recover_with_foreign_share(config_path, tmp_path, capsys):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert _deal(config_path, out_a) == EXIT_OK
    assert _deal(config_path, out_b, "--seed", "other") == EXIT_OK
    public = os.path.join(out_a, "public.isoshare")
    foreign = os.path.join(out_b, "share_0.isoshare")
    mine = os.path.join(out_a, "share_1.isoshare")
    assert main(["recover", "-p", public, foreign, mine]) == EXIT_DIGEST


def test_tampered_public_file_rejected(config_path, tmp_path, capsys):
    outdir = str(tmp_path / "deal")
    assert _deal(config_path, outdir) == EXIT_OK
    public = os.path.join(outdir, "public.isoshare")
    text = open(public).read().replace("t 2", "t 3")
    open(public, "w").write(text)
    share0 = os.path.join(outdir, "share_0.isoshare")
    share1 = os.path.join(outdir, "share_1.isoshare")
    assert main(["recover", "-p", public, share0, share1]) == EXIT_DIGEST


def test_missing_files_are_io_errors(config_path, tmp_path, capsys):
    assert main(["recover", "-p", str(tmp_path / "nope"), "x"]) == EXIT_IO
    assert main(["check", "-c", str(tmp_path / "nope.cfg")]) in (
        EXIT_IO,
        EXIT_INVALID,
    )


def test_failed_write_leaves_no_temp_file(config_path, tmp_path, capsys):
    # A directory in the way of share_1 makes the rename fail after the
    # temp file is written.
    outdir = tmp_path / "deal"
    (outdir / "share_1.isoshare").mkdir(parents=True)
    assert _deal(config_path, str(outdir)) == EXIT_IO
    assert not list(outdir.glob("*.tmp"))


def test_invalid_config_rejected(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace("code.kind = binary-expanded-rs",
                                   "code.kind = mystery"))
    outdir = str(tmp_path / "deal")
    assert main(["deal", "-c", str(path), "-o", outdir]) == EXIT_INVALID


def test_deal_refuses_invalid_params_without_force(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace("t = 2", "t = 1"))
    outdir = str(tmp_path / "deal")
    assert main(["deal", "-c", str(path), "-o", outdir]) == EXIT_INVALID
    assert not os.path.exists(os.path.join(outdir, "public.isoshare"))


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def dealt(tmp_path_factory):
    """The README demo deal: a directory with public.isoshare and 3 shares."""
    root = tmp_path_factory.mktemp("dealt")
    config = root / "demo.cfg"
    config.write_text(CONFIG)
    outdir = str(root / "deal")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["deal", "-c", str(config), "-o", outdir]) == EXIT_OK
    return outdir


def _config(tmp_path, old, new):
    assert old in CONFIG
    path = tmp_path / "case.cfg"
    path.write_text(CONFIG.replace(old, new))
    return str(path)


def _edited(path, tmp_path, old, new):
    text = Path(path).read_text()
    assert old in text
    edited = tmp_path / ("edited_" + os.path.basename(path))
    edited.write_text(text.replace(old, new))
    return str(edited)


def _redigested(dealt, tmp_path, old, new):
    """Public and share paths of the deal with one public line edited and
    every digest recomputed, as a forger would."""
    public = Path(dealt, "public.isoshare").read_text()
    assert old in public
    lines = public.replace(old, new).splitlines()
    digest = lines[1].split()[1]
    fresh = context_digest([line for line in lines[2:] if line.strip()])
    paths = []
    for name in ("public.isoshare", "share_0.isoshare", "share_1.isoshare"):
        path = tmp_path / ("redigested_" + name)
        text = Path(dealt, name).read_text()
        if name == "public.isoshare":
            text = text.replace(old, new)
        path.write_text(text.replace(digest, fresh))
        paths.append(str(path))
    return ["recover", "-p", *paths]


def _recover(dealt, *shares):
    return ["recover", "-p", os.path.join(dealt, "public.isoshare"), *shares]


def _share(dealt, i):
    return os.path.join(dealt, f"share_{i}.isoshare")


def _non_utf8(tmp_path):
    path = tmp_path / "binary.isoshare"
    path.write_bytes(b"ISOSHARE 1\n\xff\xfe\x00\n")
    return str(path)


def _wide_config(tmp_path, p, ell_iso, e_iso):
    """A [186,80]-code config `check` once called valid, over y^2 = x^3 + x
    at p, whose search is too large: at (8011, 2003, 1) E[ell] has 2003^2
    points; at (9623, 401, 2) `recover` from 24 shares ran past 45 s."""
    path = tmp_path / f"ell{ell_iso}.cfg"
    path.write_text(
        f"p = {p}\na = 1\nb = 0\nn = 31\nt = 24\ngamma = 6\nlambda = 8\n"
        f"N = 4\nell_iso = {ell_iso}\ne_iso = {e_iso}\n"
        "code.kind = binary-expanded-rs\ncode.r = 5\ncode.d = 16\n"
    )
    return str(path)


# Malformed or outsized inputs: argv from (dealt, tmp_path), documented exit
# code, and a line stdout must hold.  Each runs in a fresh process under a
# timeout, so an input that makes the program loop fails the test instead of
# hanging it.
MALFORMED = {
    "share-index-7": (
        lambda d, tmp: _recover(d, _share(d, 0), _edited(
            _share(d, 1), tmp, "\nindex 1\n", "\nindex 7\n")),
        EXIT_INVALID, None),
    "share-index-negative": (
        lambda d, tmp: _recover(d, _share(d, 0), _edited(
            _share(d, 1), tmp, "\nindex 1\n", "\nindex -1\n")),
        EXIT_INVALID, None),
    "same-share-twice": (
        lambda d, tmp: _recover(d, _share(d, 0), _share(d, 0)),
        EXIT_INVALID, None),
    "non-utf8-share": (
        lambda d, tmp: _recover(d, _share(d, 0), _non_utf8(tmp)),
        EXIT_INVALID, None),
    "tampered-public-code-r-8": (
        lambda d, tmp: ["recover", "-p", _edited(
            os.path.join(d, "public.isoshare"), tmp, "\ncode.r 4\n", "\ncode.r 8\n"),
            _share(d, 0), _share(d, 1)],
        EXIT_DIGEST, None),
    "redigested-public-ordinary-e0": (
        lambda d, tmp: _redigested(d, tmp, "\nb 0,0\n", "\nb 2,0\n"),
        EXIT_INVALID, None),
    "redigested-public-n-2": (
        lambda d, tmp: _redigested(d, tmp, "\nn 3\n", "\nn 2\n"),
        EXIT_INVALID, None),
    "p-0-check": (
        lambda d, tmp: ["check", "-c", _config(tmp, "p = 431", "p = 0")],
        EXIT_INVALID, None),
    "three-component-coefficient": (
        lambda d, tmp: ["deal", "--force", "-o", str(tmp / "out"),
                        "-c", _config(tmp, "a = 1", "a = 1,2,3")],
        EXIT_INVALID, None),
    "gamma-0": (
        lambda d, tmp: ["check", "-c", _config(tmp, "gamma = 25", "gamma = 0")],
        EXIT_INVALID, None),
    "torsion-order-0": (
        lambda d, tmp: ["check", "-c", _config(tmp, "N = 16", "N = 0")],
        EXIT_INVALID, None),
    "e-iso-negative": (
        lambda d, tmp: ["check", "-c", _config(tmp, "e_iso = 2", "e_iso = -1")],
        EXIT_INVALID, None),
    "ell-5-check": (
        lambda d, tmp: ["check", "-c", _config(tmp, "ell_iso = 3", "ell_iso = 5")],
        EXIT_OK, "valid: no"),
    "ell-5-deal-force": (
        lambda d, tmp: ["deal", "--force", "-o", str(tmp / "out"),
                        "-c", _config(tmp, "ell_iso = 3", "ell_iso = 5")],
        EXIT_INVALID, None),
    "ell-1-check": (
        lambda d, tmp: ["check", "-c", _config(tmp, "ell_iso = 3", "ell_iso = 1")],
        EXIT_OK, "valid: no"),
    "ell-1-deal": (
        lambda d, tmp: ["deal", "-o", str(tmp / "out"),
                        "-c", _config(tmp, "ell_iso = 3", "ell_iso = 1")],
        EXIT_INVALID, None),
    "ell-1-deal-force": (
        lambda d, tmp: ["deal", "--force", "-o", str(tmp / "out"),
                        "-c", _config(tmp, "ell_iso = 3", "ell_iso = 1")],
        EXIT_INVALID, None),
    "non-supersingular-deal-force": (
        lambda d, tmp: ["deal", "--force", "-o", str(tmp / "out"),
                        "-c", _config(tmp, "b = 0", "b = 0,1")],
        EXIT_INVALID, None),
    "e-iso-1e8-check": (
        lambda d, tmp: ["check", "-c", _config(tmp, "e_iso = 2", "e_iso = 100000000")],
        EXIT_INVALID, None),
    "e-iso-1e8-deal": (
        lambda d, tmp: ["deal", "-o", str(tmp / "out"),
                        "-c", _config(tmp, "e_iso = 2", "e_iso = 100000000")],
        EXIT_INVALID, None),
    "n-1e8-check": (
        lambda d, tmp: ["check", "-c", _config(tmp, "n = 3", "n = 100000000")],
        EXIT_INVALID, None),
    "p-mersenne-61-check": (
        lambda d, tmp: ["check", "-c", _config(tmp, "p = 431", f"p = {2**61 - 1}")],
        EXIT_OK, "valid: no"),
    "p-beyond-exact-primality": (
        lambda d, tmp: ["check", "-c", _config(tmp, "p = 431", f"p = {2**89 - 1}")],
        EXIT_INVALID, None),
    "code-r-12-hyperoval-check": (
        lambda d, tmp: ["check", "-c", _config(
            tmp, "code.kind = binary-expanded-rs\ncode.r = 4",
            "code.kind = subfield-hyperoval\ncode.r = 12")],
        EXIT_INVALID, None),
    "code-r-16-check": (
        lambda d, tmp: ["check", "-c", _config(tmp, "code.r = 4", "code.r = 16")],
        EXIT_INVALID, None),
    "ell-2003-check": (
        lambda d, tmp: ["check", "-c", _wide_config(tmp, 8011, 2003, 1)],
        EXIT_INVALID, None),
    "ell-2003-deal": (
        lambda d, tmp: ["deal", "-o", str(tmp / "out"),
                        "-c", _wide_config(tmp, 8011, 2003, 1)],
        EXIT_INVALID, None),
    "ell-401-e-iso-2-check": (
        lambda d, tmp: ["check", "-c", _wide_config(tmp, 9623, 401, 2)],
        EXIT_INVALID, None),
    "ell-401-e-iso-2-deal": (
        lambda d, tmp: ["deal", "-o", str(tmp / "out"),
                        "-c", _wide_config(tmp, 9623, 401, 2)],
        EXIT_INVALID, None),
    "no-command": (lambda d, tmp: [], EXIT_INVALID, None),
    "empty-seed": (
        lambda d, tmp: ["deal", "-c", os.path.join(os.path.dirname(d), "demo.cfg"),
                        "-o", str(tmp / "out"), "--seed", ""],
        EXIT_INVALID, None),
    "hyperoval-deal-force": (
        lambda d, tmp: ["deal", "--force", "-o", str(tmp / "out"), "-c", _config(
            tmp, "code.kind = binary-expanded-rs", "code.kind = subfield-hyperoval")],
        EXIT_INVALID, None),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_exit_codes(case, dealt, tmp_path):
    build_argv, expected, stdout_line = MALFORMED[case]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "isoshare.cli", *build_argv(dealt, tmp_path)],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if stdout_line is not None:
        assert stdout_line in proc.stdout.splitlines()


# Inputs refused with exit 2 before any recovery or deal, run in this
# process so that a line trace of the suite reaches each refusal.
REFUSED = {
    "same-index-in-two-files": lambda d, tmp: _recover(d, _share(d, 0), _edited(
        _share(d, 1), tmp, "\nindex 1\n", "\nindex 0\n")),
    "index-outside-n": lambda d, tmp: _recover(d, _share(d, 0), _edited(
        _share(d, 1), tmp, "\nindex 1\n", "\nindex 3\n")),
    "gamma-unlike-the-public-file": lambda d, tmp: _recover(d, _share(d, 0), _edited(
        _share(d, 1), tmp, "\ngamma 25\n", "\ngamma 24\n")),
    "config-line-without-equals": lambda d, tmp: [
        "check", "-c", _config(tmp, "lambda = 8", "lambda 8")],
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_refused_inputs_exit_invalid(case, dealt, tmp_path, capsys):
    assert main(REFUSED[case](dealt, tmp_path)) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


# Malformed command lines: each is refused with exit 2, the usage on stderr
# and nothing on stdout.
USAGE_ERRORS = {
    "no-command": lambda d, cfg: [],
    "unknown-command": lambda d, cfg: ["audit", "-c", cfg],
    "unknown-option": lambda d, cfg: ["check", "-c", cfg, "--verbose"],
    "prefix-abbreviation": lambda d, cfg: ["check", "--conf", cfg],
    "joined-value": lambda d, cfg: ["check", f"--config={cfg}"],
    "option-of-another-command": lambda d, cfg: ["check", "-c", cfg, "-o", "out"],
    "missing-value": lambda d, cfg: ["check", "-c"],
    "option-as-value": lambda d, cfg: ["deal", "-c", cfg, "-o", "--force"],
    "empty-value": lambda d, cfg: ["check", "-c", ""],
    "missing-required-option": lambda d, cfg: ["deal", "-c", cfg],
    "missing-public": lambda d, cfg: ["recover", _share(d, 0), _share(d, 1)],
    "recover-without-share": lambda d, cfg: _recover(d),
    "operand-to-check": lambda d, cfg: ["check", "-c", cfg, cfg],
    "force-with-value": lambda d, cfg: ["deal", "-c", cfg, "-o", "out", "--force", "yes"],
    "force-joined-value": lambda d, cfg: ["deal", "-c", cfg, "-o", "out", "--force=yes"],
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_errors_exit_invalid_with_the_usage(case, dealt, config_path, capsys):
    assert main(USAGE_ERRORS[case](dealt, config_path)) == EXIT_INVALID
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: ") and captured.err.endswith(USAGE + "\n")


def test_check_reports_a_curve_that_is_not_supersingular(tmp_path, capsys):
    assert main(["check", "-c", _config(tmp_path, "b = 0", "b = 1")]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "violation: starting curve is not supersingular" in out
    assert "valid: no" in out


# Each library error a recovery may end in, and its documented exit code.
LIBRARY_EXITS = {
    NotEnoughShares: EXIT_NOT_ENOUGH,
    Inconsistent: EXIT_CORRUPT,
    NotACodeword: EXIT_CORRUPT,
    InvalidEncoding: EXIT_CORRUPT,
    NoIsogenyFound: EXIT_CORRUPT,
    DuplicateShare: EXIT_INVALID,
    InvalidParams: EXIT_INVALID,
    LengthMismatch: EXIT_INVALID,
    NoSuchOrder: EXIT_INVALID,
    NotOnCurve: EXIT_INVALID,
}


@pytest.mark.parametrize("error", list(LIBRARY_EXITS), ids=lambda cls: cls.__name__)
def test_library_errors_end_in_their_exit_code(error, dealt, monkeypatch, capsys):
    def fail(*args):
        raise error("injected")

    monkeypatch.setattr(isoshare.cli, "recover_isogeny_path", fail)
    assert main(_recover(dealt, _share(dealt, 0), _share(dealt, 1))) == LIBRARY_EXITS[error]
    err = capsys.readouterr().err
    assert err == f"error: {error.__name__}: injected\n"
    assert "Traceback" not in err


@settings(max_examples=40, deadline=timedelta(seconds=10), derandomize=True,
          database=None)
@given(data=st.data())
def test_mutated_share_bytes_end_in_documented_exit(dealt, data):
    """Any byte-level damage to a share file ends in exit 0 or 2..6."""
    raw = bytearray(Path(_share(dealt, 1)).read_bytes())
    body = raw.index(b"\nindex ") + 1  # after the header and digest lines
    position = st.integers(0, len(raw) - 1) | st.integers(body, len(raw) - 1)
    edits = data.draw(st.lists(
        st.tuples(st.sampled_from("rdi"), position, st.integers(0, 255)),
        min_size=1, max_size=4,
    ))
    for op, pos, byte in edits:
        pos = min(pos, len(raw) - 1)
        if op == "r":
            raw[pos] = byte
        elif op == "d":
            del raw[pos]
        else:
            raw.insert(pos, byte)
    mutated = os.path.join(os.path.dirname(dealt), "mutated.isoshare")
    Path(mutated).write_bytes(raw)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(_recover(dealt, _share(dealt, 0), mutated))
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_IO, EXIT_NOT_ENOUGH,
                    EXIT_DIGEST, EXIT_CORRUPT)


class _Overran(BaseException):
    """Raised by the alarm; not an OSError, which the CLI maps to exit 3."""


@contextlib.contextmanager
def _time_bound(seconds):
    def expire(signum, frame):
        raise _Overran(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _run_bounded(argv):
    """main(argv) under a 10 s alarm; an escaping exception fails the test."""
    with _time_bound(10), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


DOCUMENTED_EXITS = (EXIT_OK, EXIT_INVALID, EXIT_IO, EXIT_NOT_ENOUGH,
                    EXIT_DIGEST, EXIT_CORRUPT)
# Replacement values: numbers around the demo's, signs, field pairs, huge
# and non-numeric text.
FUZZ_VALUES = (
    st.integers(-2, 40).map(str)
    | st.sampled_from(["", "431", "1,2", "1,2,3", "1e3", str(2**61 - 1), "x"])
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
)


def _mutated_lines(data, lines, value_of):
    """`lines` with one to three lines dropped, duplicated or re-valued."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["value", "value", "drop", "duplicate"]))
        if op == "value":
            lines[i] = value_of(lines[i], data.draw(FUZZ_VALUES))
        elif op == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        if not lines:
            break
    return lines


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_config_and_public_end_in_documented_exit(dealt, data):
    """Mutated config lines (through check and deal) and mutated public
    fields (through recover, with the digests recomputed as a forger would,
    or left stale) end in exit 0 or 2..6 within 10 s each, with no
    exception escaping main."""
    work = os.path.dirname(dealt)
    config = os.path.join(work, "fuzz.cfg")
    Path(config).write_text("\n".join(_mutated_lines(
        data, CONFIG.splitlines()[1:], lambda line, v: line.split("=")[0] + "= " + v
    )) + "\n")
    command = data.draw(st.sampled_from(["check", "deal"]))
    argv = ["check", "-c", config] if command == "check" else \
        ["deal", "-c", config, "-o", os.path.join(work, "fuzz-deal")]
    assert _run_bounded(argv) in DOCUMENTED_EXITS

    public = Path(dealt, "public.isoshare").read_text().splitlines()
    context = _mutated_lines(
        data, public[2:], lambda line, v: line.split(" ")[0] + " " + v
    )
    digest = public[1].split()[1]
    if data.draw(st.booleans()):
        digest = context_digest([line for line in context if line.strip()])
    paths = []
    for name in ("public.isoshare", "share_0.isoshare", "share_1.isoshare"):
        lines = Path(dealt, name).read_text().splitlines()
        if name == "public.isoshare":
            lines = lines[:2] + context
        lines[1] = f"digest {digest}"
        paths.append(os.path.join(work, "fuzz_" + name))
        Path(paths[-1]).write_text("\n".join(lines) + "\n")
    assert _run_bounded(["recover", "-p", *paths]) in DOCUMENTED_EXITS


def test_deal_into_a_regular_file_is_an_io_error(config_path, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert _deal(config_path, str(taken)) == EXIT_IO
    assert "cannot create" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


def test_recover_refuses_a_singular_e1_with_a_recomputed_digest(dealt, tmp_path, capsys):
    # y^2 = x^3 is singular; the digest alone cannot catch a forger who
    # recomputes it, so the E1 build refuses it before any decode.
    public = Path(dealt, "public.isoshare").read_text()
    e1 = public[public.index("\ne1_a "):public.index("\nn ") + 1]
    argv = _redigested(dealt, tmp_path, e1, "\ne1_a 0,0\ne1_b 0,0\n")
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert "bad E1: 4a^3 + 27b^2 = 0" in captured.err and not captured.out
