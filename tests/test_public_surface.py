"""The public surface of the package is exactly ``gwgamma.__all__``."""

import gwgamma


def test_all_is_sorted_unique_and_resolves():
    names = gwgamma.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(gwgamma, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gwgamma import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(gwgamma.__all__)
