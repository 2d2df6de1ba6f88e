"""The ``cold`` fixture: a test that pins a cap refusal, a skip count or a
work count starts with every memo of hallkit empty and leaves them empty,
so that neither an earlier test nor a patch of its own stands in for a
walk it pins."""

import importlib
import pkgutil

import pytest

import hallkit

MODULES = [
    hallkit,
    *(importlib.import_module(m.name) for m in pkgutil.walk_packages(hallkit.__path__, "hallkit.")),
]

# every functools.lru_cache at module level, found by scanning the modules
# once, before any test can patch one away
MEMOS = list(
    dict.fromkeys(
        obj
        for module in MODULES
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
    )
)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def cold():
    """Clear every memo before and after the test, which may call the
    clearing function it is handed to start cold again."""
    clear_memos()
    yield clear_memos
    clear_memos()
