"""The package's public surface."""

import it2fis


def test_every_exported_name_resolves():
    missing = [name for name in it2fis.__all__ if not hasattr(it2fis, name)]
    assert missing == []
    assert len(set(it2fis.__all__)) == len(it2fis.__all__)
