"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def cold_caches():
    """Empty every functools.lru_cache of the madics modules, so a test
    that counts calls starts cold whatever ran before it."""
    for name, module in list(sys.modules.items()):
        if name == "madics" or name.startswith("madics."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
