import isingfiber


def test_every_exported_name_resolves():
    missing = [name for name in isingfiber.__all__ if not hasattr(isingfiber, name)]
    assert not missing
    assert len(set(isingfiber.__all__)) == len(isingfiber.__all__)


def test_star_import():
    namespace = {}
    exec("from isingfiber import *", namespace)
    assert set(isingfiber.__all__) <= set(namespace)
