"""The package's public surface."""

import anisogeo


def test_star_import_resolves_every_export():
    # A name left in __all__ after its definition is gone makes the star
    # import raise AttributeError.
    namespace = {}
    exec("from anisogeo import *", namespace)
    assert len(set(anisogeo.__all__)) == len(anisogeo.__all__)
    for name in anisogeo.__all__:
        assert namespace[name] is getattr(anisogeo, name), name
