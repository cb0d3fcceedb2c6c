"""The package's export list."""

import tagselect


def test_all_names_resolve_and_are_sorted():
    assert [name for name in tagselect.__all__ if not hasattr(tagselect, name)] == []
    assert tagselect.__all__ == sorted(set(tagselect.__all__))
