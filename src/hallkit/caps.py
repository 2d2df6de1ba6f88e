"""Size caps for the brute-force layers.

Two knobs: a general cap on primes, ambient-module orders, hom-space
enumerations and diagram boxes (env ``HALLKIT_CAP``, default 2**20) and
a stricter cap on full subgroup-lattice enumeration (env
``HALLKIT_SUBGROUP_CAP``, default 2**10).  ``limits`` puts values in
force over the environment for one block; the CLI runs each command
inside ``limits`` of its ``--cap`` and ``--subgroup-cap`` flags.
"""

import os
from contextlib import contextmanager

from .partitions import read_int

DEFAULT_CAP = 1 << 20
DEFAULT_SUBGROUP_CAP = 1 << 10

_in_force = dict.fromkeys(("HALLKIT_CAP", "HALLKIT_SUBGROUP_CAP"))


def _read(env: str, default: int) -> int:
    value = _in_force[env]
    if value is None and (text := os.environ.get(env)) is not None:
        try:
            return read_int(text)
        except ValueError as exc:
            raise ValueError(f"{env}: {exc}") from None
    return default if value is None else value


def general_cap() -> int:
    return _read("HALLKIT_CAP", DEFAULT_CAP)


def subgroup_cap() -> int:
    return _read("HALLKIT_SUBGROUP_CAP", DEFAULT_SUBGROUP_CAP)


@contextmanager
def limits(general: int | None = None, subgroup: int | None = None):
    """Put the given caps in force over the environment for one block; a
    None leaves that cap as it was."""
    saved = dict(_in_force)
    for env, value in zip(_in_force, (general, subgroup)):
        if value is not None:
            _in_force[env] = value
    try:
        yield
    finally:
        _in_force.update(saved)
