import importlib

import pytest

MODULES = ("fracdg", "fracdg.special", "fracdg.mlseries", "fracdg.laplace",
           "fracdg.stepping", "fracdg.exact", "fracdg.fem1d", "fracdg.certify",
           "fracdg.cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # benchmark tracing looks up every exported name with getattr
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
