"""Package-level tests: the public export list."""

import fracroots


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fracroots import *", namespace)
    assert len(set(fracroots.__all__)) == len(fracroots.__all__)
    for name in fracroots.__all__:
        assert namespace[name] is getattr(fracroots, name), name
