"""Every memo of hallkit is a bounded module-level ``lru_cache``: computing
results grows no dict, list or set of a module or a class."""

from conftest import MEMOS, MODULES

from hallkit import oracle
from hallkit import embeddings as emb
from hallkit.hall import hall_polynomial


def _container_sizes() -> dict:
    """len() of every module-level and class-level dict, list and set."""
    sizes = {}
    for module in MODULES:
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in (module, *classes):
            for name, value in vars(owner).items():
                if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                    sizes[module.__name__, owner.__name__, name] = len(value)
    return sizes


def test_results_grow_no_container_and_every_memo_is_bounded():
    before = _container_sizes()
    oracle.census(2, (3, 2, 1))
    hall_polynomial((2, 1), (3, 2, 1), (2, 1))
    E = emb.random_embedding(3, (3, 2, 1), 2, seed=4)
    emb.klein_tableau(E)
    emb.truncate(E, 1)
    emb.lift(E)
    assert _container_sizes() == before
    assert [memo for memo in MEMOS if memo.cache_info().maxsize is None] == []
