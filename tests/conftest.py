"""Fixtures shared across the test packages."""

import contextlib
import os

import pytest

from repro.compiler import linker, modulo
from repro.sim import codegen


@contextlib.contextmanager
def _cold_compile_caches():
    """Run the body with every in-memory compile cache empty and no disk
    cache, then put back exactly what was there.

    The levels are the linker's schedule cache, the scheduler's
    placement memo and the codegen source/function caches.  Clearing
    only one of them lets a "cold" compile hit another.
    """
    caches = (
        linker._SCHEDULE_CACHE,
        modulo._SEARCHES,
        codegen._SOURCE_CACHE,
        codegen._FN_CACHE,
    )
    counters = (linker._CACHE_STATS, modulo._SEARCH_STATS, codegen._STATS)
    saved = [(table, dict(table)) for table in caches + counters]
    saved_dir = linker._DISK_CACHE_DIR
    saved_env = os.environ.pop("REPRO_SCHEDULE_CACHE", None)
    linker.configure_schedule_cache(None)
    linker.clear_schedule_cache()
    codegen.clear_codegen_cache()
    assert not any(caches), "a compile cache survived its clear function"
    try:
        yield
    finally:
        for table, contents in saved:
            table.clear()
            table.update(contents)
        linker.configure_schedule_cache(saved_dir)
        if saved_env is not None:
            os.environ["REPRO_SCHEDULE_CACHE"] = saved_env


@pytest.fixture
def cold_compile_caches():
    """Context-manager factory: ``with cold_compile_caches(): ...``."""
    return _cold_compile_caches
