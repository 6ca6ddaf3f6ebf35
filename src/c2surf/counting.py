"""Counting involutions on non-orientable surfaces.

Two auxiliary sequences drive everything: A(r) counts admissible invariant
tuples [F, C:(C+,C-)] with F + 2C <= r, and B(r) those with F + 2C <= r + 2
and F + 2C = r + 2 (mod 4); in both cases F = C- = r (mod 2).  The counts
use the closed forms.  Direct enumeration and recursion compute the same
sequences independently; `paths_agree` is the oracle that checks all three
paths against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Surface


class CountMismatch(AssertionError):
    """A closed form or recursion step did not divide exactly."""


@dataclass(frozen=True)
class CountReport:
    r: int
    A: int
    B: int
    phi_minus: int
    phi_plus: int
    phi: int
    total: int


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise CountMismatch(f"{num} is not divisible by {den}")
    return q


def A_direct(r: int) -> int:
    """Count tuples with F + 2C <= r and F = C- = r (mod 2), by enumeration."""
    if r < 1:
        raise ValueError("r >= 1")
    count = 0
    for f in range(r % 2, r + 1, 2):
        for c in range((r - f) // 2 + 1):
            count += sum(1 for cm in range(r % 2, c + 1, 2))
    return count


def A_closed(r: int) -> int:
    """Cubic closed form, split by r mod 4; the division must be exact."""
    if r < 1:
        raise ValueError("r >= 1")
    m = r % 4
    if m == 0:
        return _exact_div((r + 3) * (r + 4) * (r + 8), 96)
    if m == 2:
        return _exact_div((r + 2) * (r + 6) * (r + 7), 96)
    if m == 1:
        return _exact_div((r - 1) * (r + 3) * (r + 4), 96)
    return _exact_div(r * (r + 1) * (r + 5), 96)


def A_recursive(r: int) -> int:
    """Step-two recursion seeded at A(1) = 0, A(2) = 3."""
    if r < 1:
        raise ValueError("r >= 1")
    k = 1 + (r - 1) % 2
    value = (0, 3)[k - 1]
    while k < r:
        m = k % 4
        if m == 0:
            inc = _exact_div((k + 4) * (k + 8), 16)
        elif m == 2:
            inc = _exact_div((k + 6) ** 2, 16)
        elif m == 3:
            inc = _exact_div((k + 1) * (k + 5), 16)
        else:
            inc = _exact_div((k + 3) ** 2, 16)
        value += inc
        k += 2
    return value


def B_direct(r: int) -> int:
    """Count tuples with F + 2C <= r + 2, F + 2C = r + 2 (mod 4), F = C- = r (mod 2)."""
    if r < 1:
        raise ValueError("r >= 1")
    count = 0
    for f in range(r % 2, r + 3, 2):
        for c in range((r + 2 - f) // 2 + 1):
            if (f + 2 * c - (r + 2)) % 4:
                continue
            count += sum(1 for cm in range(r % 2, c + 1, 2))
    return count


def B_closed(r: int) -> int:
    if r < 1:
        raise ValueError("r >= 1")
    m = r % 4
    if m == 0:
        return _exact_div((r + 4) * (r + 8) * (r + 12), 192)
    if m == 2:
        return _exact_div((r + 6) * (r + 8) * (r + 10), 192)
    if m == 1:
        return _exact_div((r + 3) * (r + 5) * (r + 7), 192)
    return _exact_div((r + 1) * (r + 5) * (r + 9), 192)


def B_recursive(r: int) -> int:
    """Step-four recursion seeded at B(1..4) = 1, 5, 2, 8."""
    if r < 1:
        raise ValueError("r >= 1")
    seeds = (1, 5, 2, 8)
    if r <= 4:
        return seeds[r - 1]
    k = 1 + (r - 1) % 4
    value = seeds[k - 1]
    while k < r:
        m = k % 4
        if m == 0:
            inc = _exact_div((k + 8) * (k + 12), 16)
        elif m == 2:
            inc = _exact_div((k + 10) ** 2, 16)
        elif m == 3:
            inc = _exact_div((k + 5) * (k + 9), 16)
        else:
            inc = _exact_div((k + 7) ** 2, 16)
        value += inc
        k += 4
    return value


def ab_sum_closed(r: int) -> int:
    """Closed form for A(r) + B(r); a cross-check on both sequences."""
    if r < 1:
        raise ValueError("r >= 1")
    m = r % 4
    if m == 0:
        return _exact_div((r + 4) * (r + 6) * (r + 8), 64)
    if m == 1:
        return _exact_div((r + 3) ** 3, 64)
    if m == 2:
        return _exact_div((r + 6) ** 3, 64)
    return _exact_div((r + 1) * (r + 3) * (r + 5), 64)


def paths_agree(r: int) -> bool:
    """Whether the direct, closed and recursive paths give the same A(r) and B(r)."""
    return (
        A_direct(r) == A_closed(r) == A_recursive(r)
        and B_direct(r) == B_closed(r) == B_recursive(r)
    )


def phi_counts(r: int) -> CountReport:
    """Nontrivial action counts by quotient sign; A and B enter with the
    even-genus corrections for repeated and unrealizable tuples."""
    a = A_closed(r)
    b = B_closed(r)
    if r % 2:
        phi_minus, phi_plus = a, b
    else:
        phi_minus = a + r - 2
        drop = (r + 4) // 4 if r % 4 == 0 else (r + 6) // 4
        phi_plus = b - 1 - drop
    phi = phi_minus + phi_plus
    return CountReport(r, a, b, phi_minus, phi_plus, phi, phi + 1)


def total_count(surface: Surface) -> int:
    """Number of actions including the trivial one, by closed form: on T_g
    the count `c2surf count` prints; on N_r a form independent of
    `phi_counts`, kept to check it."""
    if surface.orientable:
        return 4 + 2 * surface.genus
    r = surface.genus
    m = r % 4
    if m == 1:
        return 1 + _exact_div((r + 3) ** 3, 64)
    if m == 3:
        return 1 + _exact_div((r + 1) * (r + 3) * (r + 5), 64)
    if m == 0:
        return _exact_div(r**3 + 18 * r**2 + 152 * r, 64)
    return _exact_div(r**3 + 18 * r**2 + 156 * r - 8, 64)


__all__ = [
    "CountMismatch",
    "CountReport",
    "A_direct",
    "A_closed",
    "A_recursive",
    "B_direct",
    "B_closed",
    "B_recursive",
    "ab_sum_closed",
    "paths_agree",
    "phi_counts",
    "total_count",
]
