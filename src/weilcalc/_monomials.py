"""Multi-index bookkeeping shared by truncated algebras, jet groups and
jet-coordinate layouts.

The fixed order everywhere is graded (total degree first), and inside a
degree lexicographic with the first variable dominating, e.g. for two
variables up to degree 2:  1, x1, x2, x1^2, x1*x2, x2^2.
"""

from __future__ import annotations

import math
from functools import lru_cache


@lru_cache(maxsize=None)
def monomials(m: int, maxdeg: int, mindeg: int = 0) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of m variables with mindeg <= total degree <= maxdeg."""
    out: list[tuple[int, ...]] = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            fill(prefix + (e,), remaining - e, slots - 1)

    for d in range(mindeg, maxdeg + 1):
        if m == 0:
            if d == 0:
                out.append(())
            continue
        fill((), d, m)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(m: int, maxdeg: int) -> dict:
    return {a: i for i, a in enumerate(monomials(m, maxdeg))}


def degree(alpha) -> int:
    return sum(alpha)


def add_indices(alpha, beta):
    return tuple(a + b for a, b in zip(alpha, beta))


def factorial_multi(alpha) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def monomial_label(alpha) -> str:
    parts = []
    for i, e in enumerate(alpha):
        if e == 0:
            continue
        name = "x%d" % (i + 1) if len(alpha) > 1 else "x"
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts) if parts else "1"
