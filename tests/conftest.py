"""Fixtures shared by the test modules."""

import os
import sys

import pytest


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """cli.main sets OPENBLAS_NUM_THREADS when it is unset; put back the
    value the session started with after each test, so a test that runs
    main in-process leaves no variable to the subprocesses of the next."""
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    yield
    if before is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = before


@pytest.fixture
def cold_caches():
    """Empty every functools.lru_cache of the madics modules, so a test
    that counts calls starts cold whatever ran before it."""
    for name, module in list(sys.modules.items()):
        if name == "madics" or name.startswith("madics."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
