"""The package's export list names exactly its public attributes."""

import types

import cutoffpde


def test_all_names_each_public_attribute_once():
    names = cutoffpde.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(cutoffpde, name)
    # a name deleted from its module but left in __all__ would still import
    public = {name for name, value in vars(cutoffpde).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public
