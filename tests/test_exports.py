"""The package's public names: each is written once, in its module's ``__all__``."""

import distortion_lab as dl
from distortion_lab import core, instances, lp, oracles, rules

MODULES = (core, instances, lp, oracles, rules)


def test_module_export_lists_are_pairwise_disjoint():
    # A star import would let a later module shadow an earlier one's name.
    owner = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owner, (name, owner.get(name), module.__name__)
            owner[name] = module.__name__


def test_every_export_resolves_in_its_module():
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
            assert getattr(dl, name) is getattr(module, name), name


def test_package_all_is_the_concatenation():
    expected = [name for module in MODULES for name in module.__all__]
    assert dl.__all__ == expected + ["__version__"]
