"""The package's export list."""

import inspect

import a2cf


def test_every_exported_name_resolves():
    missing = [name for name in a2cf.__all__ if not hasattr(a2cf, name)]
    assert missing == []


def test_export_list_sorted_without_duplicates():
    assert a2cf.__all__ == sorted(set(a2cf.__all__))


def test_every_public_function_and_class_is_exported():
    public = {name for name, value in vars(a2cf).items()
              if not name.startswith("_")
              and (inspect.isfunction(value) or inspect.isclass(value))}
    assert sorted(public - set(a2cf.__all__)) == []
