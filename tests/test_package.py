"""The public surface: every exported name resolves."""

from __future__ import annotations

import qres


def test_every_exported_name_resolves():
    missing = [name for name in qres.__all__ if not hasattr(qres, name)]
    assert missing == []
    assert len(set(qres.__all__)) == len(qres.__all__)


def test_star_import_is_clean():
    namespace: dict = {}
    exec("from qres import *", namespace)
    assert set(qres.__all__) <= namespace.keys()
