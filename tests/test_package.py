"""The public surface: every exported name resolves."""

import propfox


def test_every_exported_name_resolves():
    assert len(set(propfox.__all__)) == len(propfox.__all__)
    missing = [name for name in propfox.__all__ if not hasattr(propfox, name)]
    assert missing == []
    namespace = {}
    exec("from propfox import *", namespace)
    assert set(propfox.__all__) <= set(namespace)
