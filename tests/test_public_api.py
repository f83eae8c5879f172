"""The package root re-exports each module's ``__all__`` and nothing else."""

import importlib

import pytest

import ranksets
from ranksets import core
from ranksets._dispatch import METHOD_NAMES, _ALIASES, normalize_method

MODULES = ("_dispatch", "boot", "core", "cp", "exact", "projections", "sim")


def _modules():
    return [importlib.import_module(f"ranksets.{name}") for name in MODULES]


def test_root_all_is_version_then_each_modules_all():
    names = ["__version__"] + [n for m in _modules() for n in m.__all__]
    assert len(set(names)) == len(names)
    assert ranksets.__all__ == names


def test_every_root_name_is_the_defining_modules_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(ranksets, name) is getattr(module, name), name
    assert ranksets.SCOPES is core.SCOPES
    assert ranksets.KINDS is core.KINDS


def test_aliases_name_every_method_and_nothing_else():
    assert set(_ALIASES.values()) == set(METHOD_NAMES)


@pytest.mark.parametrize("spelling", sorted(_ALIASES))
def test_normalize_method_ignores_case_and_surrounding_space(spelling):
    canonical = _ALIASES[spelling]
    for name in (spelling, spelling.upper(), spelling.title(), f"  {spelling}\t"):
        assert normalize_method(name) == canonical


@pytest.mark.parametrize("name", ["", "bonf", "exact bonf", "boot-stud", "exact__bonf"])
def test_normalize_method_refuses_other_names(name):
    message = f"unknown method {name!r}; expected one of {METHOD_NAMES}"
    with pytest.raises(ValueError) as info:
        normalize_method(name)
    assert str(info.value) == message
