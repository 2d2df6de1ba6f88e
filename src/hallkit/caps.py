"""Size caps for the brute-force layers.

Two knobs: a general cap on primes, ambient-module orders, hom-space
enumerations and diagram boxes (env ``HALLKIT_CAP``, default 2**20) and
a stricter cap on full subgroup-lattice enumeration (env
``HALLKIT_SUBGROUP_CAP``, default 2**10).  ``limits`` puts values in
force over the environment for one block; the CLI runs each command
inside ``limits`` of its ``--cap`` and ``--subgroup-cap`` flags.  A
negative cap is a ValueError wherever it is read, from the environment
or from ``limits``, as it is a usage error of the flags.
"""

import os
from contextlib import contextmanager

from .partitions import read_int

DEFAULT_CAP = 1 << 20
DEFAULT_SUBGROUP_CAP = 1 << 10

_in_force = dict.fromkeys(("HALLKIT_CAP", "HALLKIT_SUBGROUP_CAP"))


def _checked(env: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{env}: must be >= 0, got {value}")
    return value


def _read(env: str, default: int) -> int:
    value = _in_force[env]
    if value is None and (text := os.environ.get(env)) is not None:
        try:
            value = read_int(text)
        except ValueError as exc:
            raise ValueError(f"{env}: {exc}") from None
        return _checked(env, value)
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
    try:
        for env, value in zip(_in_force, (general, subgroup)):
            if value is not None:
                _in_force[env] = _checked(env, value)
        yield
    finally:
        _in_force.update(saved)
