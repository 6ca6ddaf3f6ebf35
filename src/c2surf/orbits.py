"""Orbits of the orthogonal and symplectic groups on GF(2) vectors, and the
classification of free involutions on surfaces by characteristic classes.

A free action corresponds to a double cover of its quotient, hence to a
nonzero class in H^1(quotient; Z/2) up to the isometry group of the
intersection form.  The orthogonal orbits are pinned down by two invariants
(content and being all-ones); the symplectic group is transitive on nonzero
vectors.  Free involutions are the classes of the enumeration without fixed
points: an antipodal base (S2a or Tanti(g)) or a rotation base (Trot(g)) plus
s crosscap pairs.

A vector of GF(2)^n is a packed int v (bit i is coordinate i) with its length
n beside it, as in ``c2surf.f2``.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Set, Tuple

from .bilinear import standard_space
from .classify import Action, iter_actions
from .dd import isometry_generators
from .f2 import ISOMETRY_BOUND, group_closure, isometries, orbit
from .words import BaseKind, Sign, Surface, SurgeryWord, beta, format_word, q_sign


class OrthOrbit(enum.Enum):
    ZERO = "Zero"
    A1 = "A1"
    A2 = "A2"
    OMEGA = "OmegaOrbit"


class SymplecticOrbit(enum.Enum):
    ZERO = "Zero"
    NONZERO = "Nonzero"


def content(v: int) -> int:
    """Sum of the coordinates; an orthogonal-group invariant."""
    return v.bit_count() & 1


def orthogonal_orbit(v: int, n: int) -> OrthOrbit:
    """Orbit of v under the orthogonal group: zero and all-ones are fixed,
    other vectors fall into two classes by the parity of their weight.

    For n = 2 the even-weight mixed class is empty, so A2 coincides with the
    all-ones orbit and OMEGA is returned.
    """
    if n < 2:
        raise ValueError("orbit classification needs dimension >= 2")
    if v < 0 or v >> n:
        raise ValueError(f"bits {v:#x} do not fit in length {n}")
    if not v:
        return OrthOrbit.ZERO
    if v.bit_count() == n:
        return OrthOrbit.OMEGA
    return OrthOrbit.A1 if v.bit_count() % 2 else OrthOrbit.A2


def symplectic_orbit(v: int, n: int) -> SymplecticOrbit:
    """Zero or not; the symplectic group is transitive on nonzero vectors."""
    if n % 2:
        raise ValueError("symplectic vectors have even length")
    if v < 0 or v >> n:
        raise ValueError(f"bits {v:#x} do not fit in length {n}")
    return SymplecticOrbit.NONZERO if v else SymplecticOrbit.ZERO


# Largest dimension the orbit census partitions (2^n vectors).
CENSUS_BOUND = 12


def orbit_census(kind: str, n: int) -> int:
    """Number of orbits of the full isometry group on GF(2)^n, by brute-force
    partition of all vectors under a generating set.  Vectors stay packed
    ints: g v is the row vector v times g^T, read from the tables of g^T."""
    if n > CENSUS_BOUND:
        raise ValueError(f"dimension {n} above census bound {CENSUS_BOUND}")
    maps = [g.transpose().row_map() for g in isometry_generators(standard_space(kind, n))]

    def images(bits: int) -> List[int]:
        return [g_times(bits) for g_times in maps]

    seen: Set[int] = set()
    found = 0
    for start in range(1 << n):
        if start not in seen:
            found += 1
            seen |= orbit(start, images)
    return found


def verify_orthogonal_generators(n: int) -> bool:
    """Check that permutations (plus the complement-of-identity 4x4 block when
    n >= 4) generate the whole orthogonal group: the closure's packed row
    tuples against the rows of every isometry, with no second set of
    matrices built."""
    if n < 1 or n > ISOMETRY_BOUND:
        raise ValueError(f"n must lie in 1..{ISOMETRY_BOUND}")
    space = standard_space("orthogonal", n)
    return group_closure(isometry_generators(space)) == {m.rows for m in isometries(space.gram)}


_FREE_BASES = (BaseKind.T_ANTI, BaseKind.T_ROT)


def _genus_and_crosscaps(w: SurgeryWord) -> Tuple[int, int]:
    """(g, s) of a free involution written base + s DCC on an antipodal or
    rotation base; S2a is Tanti(0)."""
    if w.base.kind not in _FREE_BASES or any(w.op_counts[1:]):
        raise ValueError(
            f"{format_word(w)} is not an antipodal or rotation base plus crosscap pairs"
        )
    return w.base.g, w.dcc


def characteristic_class(w: SurgeryWord) -> Tuple[int, int]:
    """The double-cover class in an orthonormal basis of the quotient's H^1,
    as (bits, n): the packed vector and the dimension n of H^1.

    Antipodal bases contribute a block of g + 1 ones, extra crosscaps
    contribute zeros; rotation actions with crosscaps match the T1-antipodal
    family.  For a pure rotation action the quotient form is symplectic and
    any nonzero vector represents the single nonzero orbit.
    """
    g, s = _genus_and_crosscaps(w)
    if w.base.kind == BaseKind.T_ROT:
        return (0b11 if s else 1), g + s + 1
    return (1 << (g + 1)) - 1, g + 1 + s


def quotient_space(w: SurgeryWord) -> Surface:
    """The quotient of a free involution: the Euler characteristic halves, so
    beta(Q) = 1 + beta(X)/2, and Q is orientable exactly when the sign is +."""
    _genus_and_crosscaps(w)
    b = 1 + beta(w) // 2
    if q_sign(w) == Sign.PLUS:
        return Surface(True, b // 2)
    return Surface(False, b)


def covers_of(quotient: Surface) -> List[SurgeryWord]:
    """Representatives of all free actions with the given quotient: the free
    involutions with that quotient on T_{b-1} and N_{2b-2}, b = beta(Q),
    the surfaces of Euler characteristic twice that of Q."""
    b = quotient.beta
    if b == 0:
        raise ValueError("the sphere is not a free quotient")
    covers = [Surface(True, b - 1)] + ([Surface(False, 2 * b - 2)] if b > 1 else [])
    # each class's quotient read off its own invariants, as `quotient_space` does off the word
    sign = Sign.PLUS if quotient.orientable else Sign.MINUS
    return [
        a.word for x in covers for a in _free_actions(x)
        if 1 + a.surface.beta // 2 == b and a.taxonomy.q == sign
    ]


def _free_actions(x: Surface) -> List[Action]:
    return [a for a in iter_actions(x, include_trivial=False) if a.taxonomy.f == a.taxonomy.c == 0]


def classify_free_structures(x: Surface) -> List[SurgeryWord]:
    """All free involutions on the surface itself: the classes of the
    enumeration with F = C = 0, in enumeration order."""
    return [a.word for a in _free_actions(x)]


def brute_orbit_partition(kind: str, n: int) -> Dict[int, int]:
    """Vector -> orbit id under the exhaustively enumerated isometry group."""
    group = isometries(standard_space(kind, n).gram)
    label: Dict[int, int] = {}
    next_id = 0
    for bits in range(1 << n):
        if bits in label:
            continue
        orbit = {g.mul_vec(bits) for g in group}
        for b in orbit:
            label[b] = next_id
        next_id += 1
    return label


__all__ = [
    "OrthOrbit",
    "SymplecticOrbit",
    "content",
    "orthogonal_orbit",
    "symplectic_orbit",
    "CENSUS_BOUND",
    "orbit_census",
    "verify_orthogonal_generators",
    "characteristic_class",
    "quotient_space",
    "covers_of",
    "classify_free_structures",
    "brute_orbit_partition",
]
