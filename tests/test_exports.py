import codedim


def test_every_exported_name_resolves():
    missing = [name for name in codedim.__all__ if not hasattr(codedim, name)]
    assert missing == []


def test_star_import_runs():
    namespace: dict = {}
    exec("from codedim import *", namespace)
    assert set(codedim.__all__) <= namespace.keys()
