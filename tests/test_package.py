"""The package's lazy surface: `strumscribe.<name>` and the config classes."""

import importlib

import pytest

import strumscribe
from strumscribe import barlines, config, likelihood, onsets, render


@pytest.mark.parametrize("name", strumscribe.__all__)
def test_export_is_its_modules_object(name):
    home = importlib.import_module(f"strumscribe.{strumscribe._HOMES[name]}")
    assert getattr(strumscribe, name) is getattr(home, name)


def test_all_lists_every_export_once():
    names = [name for names in strumscribe._EXPORTS.values() for name in names]
    assert sorted(names) == strumscribe.__all__
    assert len(set(names)) == len(names)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        strumscribe.no_such_name
    assert not hasattr(strumscribe, "no_such_name")


def test_dir_lists_the_exports():
    listed = dir(strumscribe)
    assert set(strumscribe.__all__) <= set(listed)
    assert "__version__" in listed


@pytest.mark.parametrize("module,name", [
    (likelihood, "DecoderConfig"),
    (barlines, "PostprocConfig"),
    (onsets, "OnsetConfig"),
    (render, "RenderOptions"),
])
def test_config_class_is_the_same_object_from_its_stage(module, name):
    assert getattr(module, name) is getattr(config, name)
    assert getattr(strumscribe, name) is getattr(config, name)
