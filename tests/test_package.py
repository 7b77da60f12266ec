import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import tokenize
import types

import pytest

import isoshare

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Lines of src/isoshare/*.py that hold code (see _code_lines).  A change
# that adds a capability may raise this, and says why in CHANGES.md.
SRC_CODE_LINES = 1561

# sha256 of the chains that `perfbench/run.py --trace 1 --seed 1` recovers.
TRACED_CHAINS = {
    "search-deep": "1bf8f2ec67b1a4370c75e19108ab7ff1014786dbf29868a397e3a98dad6767b4",
    "decode-wide": "8439fa9a1feed4e86d5455a79309bf3f8aebb5e83f59453e169d93e20512d3b1",
    "cli-cold": "3354aa54be89bdc6758bc41f3acffe8b468ac7bcf74c8eabc2146a96475b3a55",
}


def test_all_names_resolve_to_non_module_attributes():
    assert len(isoshare.__all__) == len(set(isoshare.__all__)) <= 33
    for name in isoshare.__all__:
        assert not isinstance(getattr(isoshare, name), types.ModuleType), name


def _code_lines(path):
    """Lines that hold a token of a statement other than a bare string:
    blank lines, comments and docstrings do not count."""
    prose = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING}
    lines, statement = set(), []
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if [t.type for t in statement] != [tokenize.STRING]:
                    lines.update(row for t in statement
                                 for row in range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in prose:
                statement.append(tok)
    return len(lines)


def test_src_code_lines_are_bounded():
    counts = {path.name: _code_lines(path)
              for path in sorted((ROOT / "src" / "isoshare").glob("*.py"))}
    assert sum(counts.values()) <= SRC_CODE_LINES, counts


def test_cli_import_pulls_in_no_heavy_stdlib_modules():
    """`import isoshare.cli` adds none of these over a bare interpreter,
    which may preload modules of its own through `site`."""
    listing = "import sys; print(*sorted(sys.modules))"
    def loaded(code):
        done = subprocess.run([sys.executable, "-c", f"{code}\n{listing}"], cwd=ROOT,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, check=True, timeout=60)
        return set(done.stdout.split())
    added = loaded("import isoshare.cli") - loaded("pass")
    assert "isoshare.scheme" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "string",
                        "hashlib", "_hashlib", "_blake2", "argparse", "gettext"}


def test_perfbench_imports_resolve():
    """Every isoshare module and name the benchmark harness imports exists,
    so a change to the package cannot break the harness unseen."""
    names = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "isoshare"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)
                    names += 1
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "isoshare":
                        importlib.import_module(alias.name)
    assert names


@pytest.mark.parametrize("workload", list(TRACED_CHAINS))
def test_perfbench_traced_run_recovers_the_pinned_chains(workload):
    """The traced benchmark wraps the public functions it divides by, so a
    change that stops calling one fails here, as does a changed chain."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1",
         "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    assert f"recovered chains sha256 {TRACED_CHAINS[workload]}" in [line.strip() for line in lines]
