import zetaforest


def test_every_exported_name_resolves():
    missing = [name for name in zetaforest.__all__ if not hasattr(zetaforest, name)]
    assert not missing
