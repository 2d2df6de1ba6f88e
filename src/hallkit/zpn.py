"""Orders of subgroups of finite abelian p-groups, by elimination over Z/p^N.

A subgroup of (+)_t Z/p^{d_t} embeds in (Z/p^N)^n, N = max d_t, by
scaling coordinate t by p^{N - d_t}.  There, elimination on an entry of
least p-valuation v splits the span into cyclic pieces: every entry of
the pivot row r is divisible by p^v, so <r> has order p^{N - v}; and
clearing the pivot's column from the other rows leaves a span that
meets <r> only in 0.  So log_p of the order is the sum of N - v over
the pivots, the reading of a Smith form (Storjohann & Mulders 1998).
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence


def span_exponent(rows: Iterable[Sequence[int]], dims: Sequence[int], p: int) -> int:
    """log_p of the order of the subgroup of (+)_t Z/p^{dims[t]} spanned
    by the integer rows (one entry per coordinate t)."""
    N = max(dims, default=0)
    q = p**N
    logs = {p**k: k for k in range(N + 1)}
    scales = [p ** (N - d) for d in dims]
    M = [r for r in ([x * s % q for x, s in zip(row, scales)] for row in rows) if any(r)]
    exponent = 0
    while M:
        # gcd(x, p^N) = p^v(x), so the least gcd marks an entry of least valuation
        low, i, j = min(
            (gcd(x, q), i, j) for i, row in enumerate(M) for j, x in enumerate(row) if x
        )
        pivot = M.pop(i)
        exponent += N - logs[low]
        inverse = pow(pivot[j] // low, -1, q)
        rest = []
        for row in M:
            if row[j]:
                f = row[j] // low * inverse % q
                row = [(x - f * y) % q for x, y in zip(row, pivot)]
                if not any(row):
                    continue
            rest.append(row)
        M = rest
    return exponent
