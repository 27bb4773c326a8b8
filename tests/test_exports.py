"""The package's export list: every name in splitflow.__all__ resolves, and a star
import binds each of them."""

import splitflow


def test_every_exported_name_resolves():
    missing = [name for name in splitflow.__all__ if not hasattr(splitflow, name)]
    assert not missing
    assert len(set(splitflow.__all__)) == len(splitflow.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from splitflow import *", namespace)
    assert set(splitflow.__all__) <= set(namespace)
