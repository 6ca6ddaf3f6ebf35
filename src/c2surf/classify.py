"""Complete enumeration of involutions on closed surfaces and the
isomorphism-decision procedure.

Every action is emitted as a surgery word whose invariants (taxonomy, sign,
separation) follow from the word itself.  On orientable surfaces the signed
taxonomy is already a complete invariant; on non-orientable surfaces the only
repeated signed taxonomies are [0,C:(C,0),-], where the separation invariant
and the double Dickson invariant finish the job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .dd import DDTuple, dd_direct_sum
from .words import (
    BaseKind,
    BaseSpace,
    Epsilon,
    Sign,
    Surface,
    SurgeryWord,
    epsilon,
    fixed_data,
    format_word,
    normalize,
    q_sign,
    underlying_surface,
)


class DDUnavailableError(ValueError):
    """Isomorphism undecidable: no derived DD value covers one of the words."""


@dataclass(frozen=True, slots=True)
class Taxonomy:
    """Fixed-point data [F, C:(C+,C-)] with an optional quotient sign."""

    f: int
    cplus: int
    cminus: int
    q: Optional[Sign] = None

    @property
    def c(self) -> int:
        return self.cplus + self.cminus

    def unsigned(self) -> "Taxonomy":
        return Taxonomy(self.f, self.cplus, self.cminus)

    def label(self) -> str:
        return f"{self.f},{self.c}:({self.cplus},{self.cminus})"

    def __repr__(self) -> str:
        sign = f",{self.q.value}" if self.q else ""
        return f"[{self.f},{self.c}:({self.cplus},{self.cminus}){sign}]"


def scherrer_admissible(t: Taxonomy, beta: int) -> bool:
    """The fixed-set bound F + 2C <= beta + 2 with parities F = C- = beta
    (mod 2), tightened to F + 2C <= beta for negative quotient sign."""
    if t.f + 2 * t.c > beta + 2:
        return False
    if (t.f - beta) % 2 or (t.cminus - beta) % 2:
        return False
    if t.q == Sign.MINUS and t.f + 2 * t.c > beta:
        return False
    return True


@dataclass(frozen=True, slots=True)
class Action:
    """One isomorphism class: a representative word plus its invariants.

    The trivial action carries no taxonomy, sign, or separation data.
    """

    word: SurgeryWord
    surface: Surface
    taxonomy: Optional[Taxonomy]
    epsilon: Optional[Epsilon]
    dd: Optional[DDTuple]

    @classmethod
    def from_word(cls, w: SurgeryWord) -> "Action":
        surf = underlying_surface(w)
        if w.is_trivial():
            return cls(w, surf, None, None, dd_of_word(w))
        f, cp, cm = fixed_data(w)
        tax = Taxonomy(f, cp, cm, q_sign(w))
        return cls(w, surf, tax, epsilon(w), dd_of_word(w))

    def is_trivial(self) -> bool:
        return self.word.is_trivial()

    def verify(self) -> None:
        """Check that the stored invariants match the word they came from."""
        fresh = Action.from_word(self.word)
        if (fresh.surface, fresh.taxonomy, fresh.epsilon) != (
            self.surface,
            self.taxonomy,
            self.epsilon,
        ):
            raise AssertionError(f"inconsistent action record for {self.word!r}")

    def __repr__(self) -> str:
        return f"Action({format_word(self.word)} on {self.surface.name})"


# ---------------------------------------------------------------------------
# derived DD values


_ZERO_DD = DDTuple(0, 0, 0, 0)
# Antipodal sphere or torus with C trivial-circle antitubes: the induced map
# is a single symplectic transvection block, independent of C.
_TUBE_FAMILY_DD = {BaseKind.S2A: DDTuple(1, 1, 1, 1), BaseKind.T_ANTI: DDTuple(2, 1, 2, 1)}
# The Klein-bottle involutions outside the crosscap families, keyed by
# normalized word text.
_KLEIN_DD: Dict[str, DDTuple] = {
    "S2a+S11AT": DDTuple(1, 0, 0, 1),
    "S22+S10AT": DDTuple(0, 1, 1, 0),
    "S22+2FM": DDTuple(0, 1, 1, 0),
}


def identity_dd(surface: Surface) -> DDTuple:
    """DD of the trivial action: the identity isometry of H^1(X; Z/2)."""
    if surface.orientable or surface.genus % 2 == 1:
        return _ZERO_DD
    return DDTuple(0, 1, 1, 0)


def dd_of_word(w: SurgeryWord) -> Optional[DDTuple]:
    """DD whenever a derived formula covers the word, else None.

    Covered: trivial actions; everything on S^2, RP^2, T_1, and the Klein
    bottle; and the crosscap families S2a/Tanti(1) + k DCC + C S10AT and
    S21 + k DCC, where the crosscap pairs enter through the direct-sum rule.
    """
    w = normalize(w)
    if w.is_trivial():
        return identity_dd(w.base.surface)
    surf = underlying_surface(w)
    if surf.beta <= 1:
        # H^1 has dimension at most one, so every involution induces the identity
        return _ZERO_DD
    if surf == Surface(True, 1):
        # the signed taxonomy is complete on T_1, and only the class of
        # S2a + S10AT acts nontrivially on H^1
        if Taxonomy(*fixed_data(w), q_sign(w)) == Taxonomy(0, 1, 0, Sign.MINUS):
            return _TUBE_FAMILY_DD[BaseKind.S2A]
        return _ZERO_DD
    kind, k, c = w.base.kind, w.dcc, w.s10at
    family = (
        kind == BaseKind.S2A
        or (kind == BaseKind.T_ANTI and w.base.g == 1)
        or (kind == BaseKind.S21 and c == 0)
    )
    if family and not (w.dt or w.s11at or w.s1aat or w.fm):
        base = _TUBE_FAMILY_DD[kind] if c else _ZERO_DD
        return base if k == 0 else dd_direct_sum(base, k)
    if surf == Surface(False, 2):
        return _KLEIN_DD.get(format_word(w))
    return None


# ---------------------------------------------------------------------------
# enumeration


def _taxonomy_rows(r: int) -> Iterator[Tuple[int, int, int, int]]:
    """(F, C, C+, C-) rows in display order: F descending, C ascending,
    C- ascending; only rows passing the fixed-set bound and parities."""
    f = r + 2
    while f >= 0:
        for c in range((r + 2 - f) // 2 + 1):
            for cm in range(r % 2, c + 1, 2):
                yield f, c, c - cm, cm
        f -= 2


def _negative_words(r: int, f: int, c: int, cp: int, cm: int) -> List[SurgeryWord]:
    if (cm > 0 or f > 0) and f + 2 * c <= r:
        return [
            SurgeryWord(
                BaseSpace.s2a(),
                dcc=(r - f - 2 * c) // 2,
                s11at=(f + cm) // 2,
                s10at=cp,
                fm=cm,
            )
        ]
    if f == 0 and cm == 0 and r % 2 == 0 and c <= r // 2:
        out = []
        if c >= 1:
            out.append(SurgeryWord(BaseSpace.s21(), dcc=r // 2 - c + 1, s10at=c - 1))
        if c < r // 2:
            out.append(SurgeryWord(BaseSpace.s2a(), dcc=r // 2 - c, s10at=c))
        if c < r // 2 - 1:
            out.append(SurgeryWord(BaseSpace.tanti(1), dcc=r // 2 - c - 1, s10at=c))
        return out
    return []


def _positive_words(r: int, f: int, c: int, cp: int, cm: int) -> List[SurgeryWord]:
    if (f + 2 * c) % 4 != (r + 2) % 4:
        return []
    if cm > 0 or (0 < f <= r and c >= 1):
        return [
            SurgeryWord(
                BaseSpace.tspit((r - cm - 2 * cp) // 2, f + cm),
                s10at=cp,
                fm=cm,
            )
        ]
    if f == 0 and cm == 0 and 0 < c <= r // 2:
        return [SurgeryWord(BaseSpace.trot(r // 2 - c), s10at=c)]
    return []


def _count_cell(r: int, f: int, c: int, cp: int, cm: int) -> int:
    neg = 0
    if (cm > 0 or f > 0) and f + 2 * c <= r:
        neg = 1
    elif f == 0 and cm == 0 and r % 2 == 0 and c <= r // 2:
        neg = int(c >= 1) + int(c < r // 2) + int(c < r // 2 - 1)
    pos = 0
    if (f + 2 * c) % 4 == (r + 2) % 4:
        if cm > 0 or (0 < f <= r and c >= 1):
            pos = 1
        elif f == 0 and cm == 0 and 0 < c <= r // 2:
            pos = 1
    return neg + pos


def taxonomy_cells(r: int) -> Iterator[Tuple[Taxonomy, List[SurgeryWord], List[SurgeryWord]]]:
    """Rows of the enumeration table: unsigned taxonomy with the negative and
    positive representative words (either list may be empty)."""
    for f, c, cp, cm in _taxonomy_rows(r):
        yield (
            Taxonomy(f, cp, cm),
            _negative_words(r, f, c, cp, cm),
            _positive_words(r, f, c, cp, cm),
        )


def iter_nonorientable(r: int, include_trivial: bool = True) -> Iterator[Action]:
    """All involutions on N_r, negative sign before positive within each row."""
    if r < 1:
        raise ValueError("r >= 1")
    if include_trivial:
        yield Action.from_word(SurgeryWord(BaseSpace.trivial(Surface(False, r))))
    for _, neg, pos in taxonomy_cells(r):
        for w in neg:
            yield Action.from_word(w)
        for w in pos:
            yield Action.from_word(w)


def count_nonorientable(r: int, include_trivial: bool = True) -> int:
    """Size of the enumeration without building the actions."""
    if r < 1:
        raise ValueError("r >= 1")
    total = 1 if include_trivial else 0
    for f, c, cp, cm in _taxonomy_rows(r):
        total += _count_cell(r, f, c, cp, cm)
    return total


def enumerate_torus(g: int, include_trivial: bool = True) -> List[Action]:
    """All involutions on T_g: the spit family, the free actions, and the
    reflection/antipodal-with-tubes families; 4 + 2g classes in total."""
    if g < 0:
        raise ValueError("g >= 0")
    out: List[Action] = []
    if include_trivial:
        out.append(Action.from_word(SurgeryWord(BaseSpace.trivial(Surface(True, g)))))
    f = 2 + 2 * g
    while f >= 2:
        out.append(Action.from_word(SurgeryWord(BaseSpace.tspit(g, f))))
        f -= 4
    out.append(Action.from_word(SurgeryWord(BaseSpace.tanti(g))))
    if g % 2:
        out.append(Action.from_word(SurgeryWord(BaseSpace.trot(g))))
    for c in range(1, g + 2):
        if c <= g:
            out.append(Action.from_word(SurgeryWord(BaseSpace.tanti(g - c), s10at=c)))
        if (c - (g + 1)) % 2 == 0:
            out.append(Action.from_word(SurgeryWord(BaseSpace.trefl(g, c))))
    return out


def enumerate_surface(surface: Surface, include_trivial: bool = True) -> List[Action]:
    if surface.orientable:
        return enumerate_torus(surface.genus, include_trivial)
    return list(iter_nonorientable(surface.genus, include_trivial))


# ---------------------------------------------------------------------------
# the decision procedure


def decide_isomorphic(a: Action, b: Action) -> bool:
    """Equivariant isomorphism from invariants alone.

    Matching signed taxonomies settle everything except the non-orientable
    [0,C:(C,0),-] family, where the separation invariant singles out the
    doubled surface and DD separates the two free-base families.
    """
    if a.surface != b.surface:
        return False
    if a.is_trivial() or b.is_trivial():
        return a.is_trivial() and b.is_trivial()
    if a.taxonomy != b.taxonomy:
        return False
    tax = a.taxonomy
    ambiguous = (
        not a.surface.orientable
        and tax.f == 0
        and tax.cminus == 0
        and tax.q == Sign.MINUS
    )
    if not ambiguous:
        return True
    if a.epsilon != b.epsilon:
        return False
    if a.epsilon == Epsilon.SEPARATING:
        return True
    if a.dd is None or b.dd is None:
        missing = a if a.dd is None else b
        raise DDUnavailableError(
            f"no derived DD value for {format_word(missing.word)}"
        )
    return a.dd == b.dd


__all__ = [
    "DDUnavailableError",
    "Taxonomy",
    "scherrer_admissible",
    "Action",
    "identity_dd",
    "dd_of_word",
    "taxonomy_cells",
    "iter_nonorientable",
    "count_nonorientable",
    "enumerate_torus",
    "enumerate_surface",
    "decide_isomorphic",
]
