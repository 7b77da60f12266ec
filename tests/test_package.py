import ast
import importlib
import pathlib
import types

import isoshare

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_all_names_resolve_to_non_module_attributes():
    assert len(isoshare.__all__) == len(set(isoshare.__all__)) <= 40
    for name in isoshare.__all__:
        assert not isinstance(getattr(isoshare, name), types.ModuleType), name


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
