import types

import isoshare


def test_all_names_resolve_to_non_module_attributes():
    assert len(isoshare.__all__) == len(set(isoshare.__all__)) <= 40
    for name in isoshare.__all__:
        assert not isinstance(getattr(isoshare, name), types.ModuleType), name
