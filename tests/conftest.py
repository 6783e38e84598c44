"""Fixtures shared by the test modules."""

import functools
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


# the context constructors: each context is the one object its
# constructor returns, and the caches key on that identity, so a
# module-level F3 or R33 must stay the constructor's object
CONTEXT_CONSTRUCTORS = {"make_prime_field", "make_extension", "make_ring"}


@pytest.fixture
def cold_caches():
    """Empty every functools.lru_cache of the madics modules but the
    context constructors', so a test that counts calls starts cold
    whatever ran before it."""
    for name, module in list(sys.modules.items()):
        if name == "madics" or name.startswith("madics."):
            for key, obj in vars(module).items():
                if (key not in CONTEXT_CONSTRUCTORS
                        and callable(getattr(obj, "cache_clear", None))):
                    obj.cache_clear()


@pytest.fixture
def spectra_computed(monkeypatch):
    """A list that records each CyclicCode whose spectrum is computed,
    not read back from the code's cache, while the test runs."""
    from madics.field_codes import CyclicCode

    computed = []
    spectrum = CyclicCode.__dict__["spectrum"].func

    def counting(code):
        computed.append(code)
        return spectrum(code)

    prop = functools.cached_property(counting)
    prop.__set_name__(CyclicCode, "spectrum")
    monkeypatch.setattr(CyclicCode, "spectrum", prop)
    return computed
