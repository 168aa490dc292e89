import grigconj


def test_every_exported_name_resolves():
    missing = [name for name in grigconj.__all__ if not hasattr(grigconj, name)]
    assert missing == []
    assert len(set(grigconj.__all__)) == len(grigconj.__all__)


def test_star_import():
    namespace = {}
    exec("from grigconj import *", namespace)
    assert set(grigconj.__all__) <= set(namespace)
