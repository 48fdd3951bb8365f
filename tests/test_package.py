import importlib
import types

import milvid


def test_objective_submodule_is_not_shadowed():
    module = importlib.import_module("milvid.objective")
    assert isinstance(module, types.ModuleType)
    assert milvid.objective is module


def test_every_public_name_resolves():
    assert len(set(milvid.__all__)) == len(milvid.__all__)
    for name in milvid.__all__:
        assert getattr(milvid, name) is not None
