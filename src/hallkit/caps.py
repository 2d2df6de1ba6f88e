"""Size caps for the brute-force layers.

Two knobs: a general cap on primes, ambient-module orders and hom-space
enumerations (env ``HALLKIT_CAP``, default 2**20) and a stricter cap on
full subgroup-lattice enumeration (env ``HALLKIT_SUBGROUP_CAP``, default
2**10).  CLI flags override the environment.
"""

import os

DEFAULT_CAP = 1 << 20
DEFAULT_SUBGROUP_CAP = 1 << 10


def _read(override, env: str, default: int) -> int:
    return int(override if override is not None else os.environ.get(env, default))


def general_cap(override=None) -> int:
    return _read(override, "HALLKIT_CAP", DEFAULT_CAP)


def subgroup_cap(override=None) -> int:
    return _read(override, "HALLKIT_SUBGROUP_CAP", DEFAULT_SUBGROUP_CAP)
