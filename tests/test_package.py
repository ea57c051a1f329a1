import importlib

import pytest

import quadellipse


class TestExportTable:
    def test_ninety_seven_names(self):
        assert len(quadellipse.__all__) == len(set(quadellipse.__all__)) == 97

    def test_each_name_resolves_to_its_submodule_attribute(self):
        for name, module in quadellipse._EXPORTS.items():
            submodule = importlib.import_module(f"quadellipse.{module}")
            assert getattr(quadellipse, name) is getattr(submodule, name), name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from quadellipse import *", namespace)
        for name in quadellipse.__all__:
            assert namespace[name] is getattr(quadellipse, name), name

    def test_dir_lists_every_name(self):
        assert set(quadellipse.__all__) <= set(dir(quadellipse))

    def test_unknown_name_raises_naming_the_module(self):
        with pytest.raises(AttributeError, match="'quadellipse' has no attribute 'no_such_name'"):
            quadellipse.no_such_name
