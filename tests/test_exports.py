"""Every public name that rlab and its modules list in __all__ resolves."""

import importlib

import pytest

MODULES = ("stepfn", "rearrange", "weights", "quadrature", "norms",
           "embeddings", "analysis", "corpus", "cli")


@pytest.mark.parametrize("name", ("rlab",) + tuple(f"rlab.{m}" for m in MODULES))
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)

