"""Orbits of the orthogonal and symplectic groups on GF(2) vectors, and the
classification of free involutions on surfaces by characteristic classes.

A free action corresponds to a double cover of its quotient, hence to a
nonzero class in H^1(quotient; Z/2) up to the isometry group of the
intersection form.  The orthogonal orbits are pinned down by two invariants
(content and being all-ones); the symplectic group is transitive on nonzero
vectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from .bilinear import standard_space
from .dd import isometry_generators
from .f2 import ISOMETRY_BOUND, F2Matrix, F2Vector, group_closure, isometries
from .words import Surface


class OrthOrbit(enum.Enum):
    ZERO = "Zero"
    A1 = "A1"
    A2 = "A2"
    OMEGA = "OmegaOrbit"


class SymplecticOrbit(enum.Enum):
    ZERO = "Zero"
    NONZERO = "Nonzero"


def content(v: F2Vector) -> int:
    """Sum of the coordinates; an orthogonal-group invariant."""
    return v.weight() & 1


def orthogonal_orbit(v: F2Vector) -> OrthOrbit:
    """Orbit of v under the orthogonal group: zero and all-ones are fixed,
    other vectors fall into two classes by the parity of their weight.

    For n = 2 the even-weight mixed class is empty, so A2 coincides with the
    all-ones orbit and OMEGA is returned.
    """
    n = v.n
    if n < 2:
        raise ValueError("orbit classification needs dimension >= 2")
    if v.is_zero():
        return OrthOrbit.ZERO
    if v.weight() == n:
        return OrthOrbit.OMEGA
    return OrthOrbit.A1 if v.weight() % 2 else OrthOrbit.A2


def symplectic_orbit(v: F2Vector) -> SymplecticOrbit:
    """Zero or not; the symplectic group is transitive on nonzero vectors."""
    if v.n % 2:
        raise ValueError("symplectic vectors have even length")
    return SymplecticOrbit.ZERO if v.is_zero() else SymplecticOrbit.NONZERO


# Largest dimension the orbit census partitions (2^n vectors).
CENSUS_BOUND = 12


def orbit_census(kind: str, n: int) -> int:
    """Number of orbits of the full isometry group on GF(2)^n, by brute-force
    partition of all vectors under a generating set."""
    if n > CENSUS_BOUND:
        raise ValueError(f"dimension {n} above census bound {CENSUS_BOUND}")
    gens = isometry_generators(standard_space(kind, n))
    seen = [False] * (1 << n)
    orbits = 0
    for start in range(1 << n):
        if seen[start]:
            continue
        orbits += 1
        frontier = [start]
        seen[start] = True
        while frontier:
            nxt = []
            for bits in frontier:
                v = F2Vector(bits, n)
                for g in gens:
                    image = g.mul_vec(v).bits
                    if not seen[image]:
                        seen[image] = True
                        nxt.append(image)
            frontier = nxt
    return orbits


def verify_orthogonal_generators(n: int) -> bool:
    """Check that permutations (plus the complement-of-identity 4x4 block when
    n >= 4) generate the whole orthogonal group."""
    if n < 1 or n > ISOMETRY_BOUND:
        raise ValueError(f"n must lie in 1..{ISOMETRY_BOUND}")
    closure = group_closure(isometry_generators(standard_space("orthogonal", n)))
    return closure == frozenset(isometries(F2Matrix.identity(n)))


class FreeKind(enum.Enum):
    TG_ANTI = "TgAnti"
    T1_ANTI_DCC = "T1AntiPlusDCC"
    S2A_DCC = "S2aPlusDCC"
    TG_ROT = "TgRot"


@dataclass(frozen=True)
class FreeActionDescriptor:
    """A free involution given as an antipodal/rotation base plus s crosscap pairs."""

    kind: FreeKind
    g: int
    s: int

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError("negative crosscap count")
        if self.kind == FreeKind.TG_ROT and (self.g < 1 or self.g % 2 == 0):
            raise ValueError("rotation actions need odd genus")
        if self.kind == FreeKind.T1_ANTI_DCC and self.g != 1:
            raise ValueError("T1-based descriptor must have g = 1")
        if self.kind == FreeKind.S2A_DCC and self.g != 0:
            raise ValueError("sphere-based descriptor must have g = 0")
        if self.kind == FreeKind.TG_ANTI and self.g < 0:
            raise ValueError("negative genus")

    def total_space(self) -> Surface:
        if self.kind == FreeKind.S2A_DCC:
            return Surface(True, 0) if self.s == 0 else Surface(False, 2 * self.s)
        g = self.g
        if self.s == 0:
            return Surface(True, g)
        return Surface(False, 2 * g + 2 * self.s)

    def quotient_space(self) -> Surface:
        if self.kind == FreeKind.TG_ROT and self.s == 0:
            return Surface(True, (1 + self.g) // 2)
        if self.kind == FreeKind.S2A_DCC:
            return Surface(False, 1 + self.s)
        return Surface(False, self.g + 1 + self.s)


def tg_anti(g: int, s: int = 0) -> FreeActionDescriptor:
    if g == 0:
        return FreeActionDescriptor(FreeKind.S2A_DCC, 0, s)
    if g == 1:
        return FreeActionDescriptor(FreeKind.T1_ANTI_DCC, 1, s)
    return FreeActionDescriptor(FreeKind.TG_ANTI, g, s)


def characteristic_class(d: FreeActionDescriptor) -> F2Vector:
    """The double-cover class in an orthonormal basis of the quotient's H^1.

    Antipodal tori contribute a block of ones, extra crosscaps contribute
    zeros; rotation actions with crosscaps match the T1-antipodal family.
    For a pure rotation action the quotient form is symplectic and any
    nonzero vector represents the single nonzero orbit.
    """
    k, g, s = d.kind, d.g, d.s
    if k == FreeKind.TG_ANTI:
        return F2Vector((1 << (g + 1)) - 1, g + 1 + s)
    if k == FreeKind.S2A_DCC:
        return F2Vector(1, s + 1)
    if k == FreeKind.T1_ANTI_DCC:
        return F2Vector(0b11, s + 2)
    if s == 0:
        return F2Vector(1, g + 1)
    return F2Vector(0b11, g + s + 1)


def covers_of(quotient: Surface) -> List[FreeActionDescriptor]:
    """Representatives of all free actions with the given quotient."""
    if quotient.orientable:
        g = quotient.genus
        if g < 1:
            raise ValueError("the sphere is not a free quotient")
        return [FreeActionDescriptor(FreeKind.TG_ROT, 2 * g - 1, 0)]
    r = quotient.genus
    if r == 1:
        return [FreeActionDescriptor(FreeKind.S2A_DCC, 0, 0)]
    if r == 2:
        return [tg_anti(1), FreeActionDescriptor(FreeKind.S2A_DCC, 0, 1)]
    return [
        tg_anti(r - 1),
        FreeActionDescriptor(FreeKind.S2A_DCC, 0, r - 1),
        FreeActionDescriptor(FreeKind.T1_ANTI_DCC, 1, r - 2),
    ]


def classify_free_structures(x: Surface) -> List[FreeActionDescriptor]:
    """All free involutions on the surface itself."""
    if x.orientable:
        g = x.genus
        out = [tg_anti(g)]
        if g % 2:
            out.append(FreeActionDescriptor(FreeKind.TG_ROT, g, 0))
        return out
    r = x.genus
    if r % 2:
        return []
    s = r // 2
    if s == 1:
        return [FreeActionDescriptor(FreeKind.S2A_DCC, 0, 1)]
    return [
        FreeActionDescriptor(FreeKind.S2A_DCC, 0, s),
        FreeActionDescriptor(FreeKind.T1_ANTI_DCC, 1, s - 1),
    ]


def brute_orbit_partition(kind: str, n: int) -> Dict[int, int]:
    """Vector -> orbit id under the exhaustively enumerated isometry group."""
    group = isometries(standard_space(kind, n).gram)
    label: Dict[int, int] = {}
    next_id = 0
    for bits in range(1 << n):
        if bits in label:
            continue
        orbit = {g.mul_vec(F2Vector(bits, n)).bits for g in group}
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
    "FreeKind",
    "FreeActionDescriptor",
    "tg_anti",
    "characteristic_class",
    "covers_of",
    "classify_free_structures",
    "brute_orbit_partition",
]
