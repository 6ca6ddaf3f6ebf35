"""Complete enumeration of involutions on closed surfaces and the
isomorphism-decision procedure.

Every action is emitted as a surgery word with its invariants (taxonomy,
sign, separation, DD).  A rule table gives each taxonomy cell its classes,
each with its sign, word (base and op counts), separation invariant and DD:
`_cell_rules` on N_r, `_orientable_rules` on T_g.  One walk of the table
(`_rule_rows`) feeds the enumerator `iter_actions`, the count `count_actions`
and the rows of `taxonomy_cells`, which give the appendix tables and the
printed lines; a `SurgeryWord` is built only where a word is asked for.
`Action.from_word` re-derives the same invariants from any word; it is the
oracle that checks the table, and the path of `inv` and the decision procedure,
where a bounded memo derives each distinct word once.
On orientable surfaces the signed taxonomy is already a complete invariant; on
non-orientable surfaces the only repeated signed taxonomies are [0,C:(C,0),-],
where the separation invariant and the double Dickson invariant finish the
job.  So `dd_of_word` rewrites a word (`normalize`) only on that taxonomy; on
the Klein bottle every other class has its own signed taxonomy, which keys its DD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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
    word_text,
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

    def ambiguous(self) -> bool:
        """[0,C:(C,0),-]: the doubled surfaces and the crosscap families, the
        one signed taxonomy that several classes on N_r share."""
        return self.f == 0 and self.cminus == 0 and self.q == Sign.MINUS

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


# Derived actions remembered by `Action.from_word`, keyed by the word.  The
# 2,687 words with beta <= 12 and each op count <= 2 fit, at about 330 bytes
# each; errors are not kept.
_ACTION_CACHE_SIZE = 4096


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
    @lru_cache(maxsize=_ACTION_CACHE_SIZE)
    def from_word(cls, w: SurgeryWord) -> "Action":
        surf = underlying_surface(w)
        if w.is_trivial():
            return cls(w, surf, None, None, dd_of_word(w, surf))
        tax = Taxonomy(*fixed_data(w), q_sign(w))
        return cls(w, surf, tax, epsilon(w), dd_of_word(w, surf, tax))

    def is_trivial(self) -> bool:
        return self.taxonomy is None

    def __repr__(self) -> str:
        return f"Action({format_word(self.word)} on {self.surface.name})"


# ---------------------------------------------------------------------------
# derived DD values


_ZERO_DD = DDTuple(0, 0, 0, 0)
_T1, _N2 = Surface(True, 1), Surface(False, 2)
# Antipodal sphere or torus with C trivial-circle antitubes: the induced map
# is a single symplectic transvection block, independent of C.
_TUBE_FAMILY_DD = {BaseKind.S2A: DDTuple(1, 1, 1, 1), BaseKind.T_ANTI: DDTuple(2, 1, 2, 1)}
# The Klein-bottle involutions outside the crosscap families (S2a+S11AT,
# S22+S10AT and S22+2FM), keyed by signed taxonomy, which is complete there.
_KLEIN_DD: Dict[Taxonomy, DDTuple] = {
    Taxonomy(2, 0, 0, Sign.MINUS): DDTuple(1, 0, 0, 1),
    Taxonomy(2, 1, 0, Sign.PLUS): DDTuple(0, 1, 1, 0),
    Taxonomy(0, 0, 2, Sign.PLUS): DDTuple(0, 1, 1, 0),
}


def _family_dd(kind: BaseKind, tubes: int, k: int) -> DDTuple:
    """DD of base + k DCC + `tubes` S10AT in a crosscap family: the tube block
    (zero without tubes) plus k crosscap pairs through the direct-sum rule."""
    base = _TUBE_FAMILY_DD[kind] if tubes else _ZERO_DD
    return base if k == 0 else dd_direct_sum(base, k)


def identity_dd(surface: Surface) -> DDTuple:
    """DD of the trivial action: the identity isometry of H^1(X; Z/2)."""
    if surface.orientable or surface.genus % 2 == 1:
        return _ZERO_DD
    return DDTuple(0, 1, 1, 0)


def dd_of_word(
    w: SurgeryWord, surf: Optional[Surface] = None, tax: Optional[Taxonomy] = None
) -> Optional[DDTuple]:
    """DD whenever a derived formula covers the word, else None; `surf` and
    `tax` (its surface and signed taxonomy) are computed if not given.

    Covered: trivial actions; everything on S^2, RP^2, T_1, and the Klein
    bottle; and the crosscap families S2a/Tanti(1) + k DCC + C S10AT and
    S21 + k DCC, where the crosscap pairs enter through the direct-sum rule.
    On T_1 and, outside [0,C:(C,0),-], on the Klein bottle the signed
    taxonomy alone gives the DD.  Only [0,C:(C,0),-] words are normalized:
    every family word has that taxonomy, and `normalize` keeps surface and
    taxonomy.
    """
    surf = surf or underlying_surface(w)
    if w.is_trivial():
        return identity_dd(surf)
    if surf.beta <= 1:
        # H^1 has dimension at most one, so every involution induces the identity
        return _ZERO_DD
    tax = tax or Taxonomy(*fixed_data(w), q_sign(w))
    if surf == _T1:
        # the signed taxonomy is complete on T_1, and only the class of
        # S2a + S10AT acts nontrivially on H^1
        if tax == Taxonomy(0, 1, 0, Sign.MINUS):
            return _TUBE_FAMILY_DD[BaseKind.S2A]
        return _ZERO_DD
    if not tax.ambiguous():
        return _KLEIN_DD.get(tax) if surf == _N2 else None
    w = normalize(w)
    kind, c = w.base.kind, w.s10at
    family = (
        kind == BaseKind.S2A
        or (kind == BaseKind.T_ANTI and w.base.g == 1)
        or (kind == BaseKind.S21 and c == 0)
    )
    if family and not (w.dt or w.s11at or w.s1aat or w.fm):
        return _family_dd(kind, c, w.dcc)
    return None


# ---------------------------------------------------------------------------
# enumeration


_S2A, _S21, _TANTI1 = BaseSpace.s2a(), BaseSpace.s21(), BaseSpace.tanti(1)
# Op counts in word order: DCC, DT, S10AT, S11AT, S1aAT, FM.
_Counts = Tuple[int, int, int, int, int, int]
# What a class rule gives for one row (r, F, C, C+, C-) of its cell: the sign,
# the word as its base and op counts, the separation invariant and the DD.
_Class = Tuple[Sign, BaseSpace, _Counts, Epsilon, Optional[DDTuple]]
# A class as the tables print it: word text, separation invariant, DD.
_Text = Tuple[str, Epsilon, Optional[DDTuple]]


def _ovals_epsilon(c: int) -> Epsilon:
    """Separation invariant of a class that is not a doubled surface."""
    return Epsilon.NON_SEPARATING if c else Epsilon.NO_FIXED_CIRCLES


def _low_genus_dd(r: int, f: int, cp: int, cm: int, q: Sign) -> Optional[DDTuple]:
    """DD of the class of row (F, C+, C-) and sign q outside the crosscap
    families: derived on N_1 and N_2 only."""
    if r == 1:
        return _ZERO_DD
    return _KLEIN_DD.get(Taxonomy(f, cp, cm, q)) if r == 2 else None


def _antipodal_ovals(r: int, f: int, c: int, cp: int, cm: int) -> _Class:
    counts = ((r - f - 2 * c) // 2, 0, cp, (f + cm) // 2, 0, cm)
    return Sign.MINUS, _S2A, counts, _ovals_epsilon(c), _low_genus_dd(r, f, cp, cm, Sign.MINUS)


def _doubled(r: int, f: int, c: int, cp: int, cm: int) -> _Class:
    k = r // 2 - c + 1
    dd = _family_dd(BaseKind.S21, 0, k) if c == 1 else None
    return Sign.MINUS, _S21, (k, 0, c - 1, 0, 0, 0), Epsilon.SEPARATING, dd


def _antipodal_tubes(r: int, f: int, c: int, cp: int, cm: int) -> _Class:
    k = r // 2 - c
    return Sign.MINUS, _S2A, (k, 0, c, 0, 0, 0), _ovals_epsilon(c), _family_dd(BaseKind.S2A, c, k)


def _torus_antipodal_tubes(r: int, f: int, c: int, cp: int, cm: int) -> _Class:
    k = r // 2 - c - 1
    return Sign.MINUS, _TANTI1, (k, 0, c, 0, 0, 0), _ovals_epsilon(c), _family_dd(BaseKind.T_ANTI, c, k)


def _spit(r: int, f: int, c: int, cp: int, cm: int) -> _Class:
    base, counts = BaseSpace.tspit((r - cm - 2 * cp) // 2, f + cm), (0, 0, cp, 0, 0, cm)
    return Sign.PLUS, base, counts, Epsilon.NON_SEPARATING, _low_genus_dd(r, f, cp, cm, Sign.PLUS)


def _rotation(r: int, f: int, c: int, cp: int, cm: int) -> _Class:
    base, counts = BaseSpace.trot(r // 2 - c), (0, 0, c, 0, 0, 0)
    return Sign.PLUS, base, counts, Epsilon.NON_SEPARATING, _low_genus_dd(r, f, cp, cm, Sign.PLUS)


def _cell_rules(r: int, f: int, c: int, cm: int) -> List[Callable[..., _Class]]:
    """The class rules of the cell [F, C:(C+,C-)] on N_r, negative sign first.
    The guards read C- only through C- > 0, so one positive C- stands for all."""
    rules: List[Callable[..., _Class]] = []
    if (cm > 0 or f > 0) and f + 2 * c <= r:
        rules.append(_antipodal_ovals)
    elif f == 0 and cm == 0 and r % 2 == 0 and c <= r // 2:
        if c >= 1:
            rules.append(_doubled)
        if c < r // 2:
            rules.append(_antipodal_tubes)
        if c < r // 2 - 1:
            rules.append(_torus_antipodal_tubes)
    if (f + 2 * c) % 4 == (r + 2) % 4:
        if cm > 0 or (0 < f <= r and c >= 1):
            rules.append(_spit)
        elif f == 0 and cm == 0 and 0 < c <= r // 2:
            rules.append(_rotation)
    return rules


def _orientable_antipodal(r: int, f: int, c: int, cp: int, cm: int) -> _Class:
    """Tanti(g - C) + C S10AT on T_g (S2a when g = C).  DD is derived for the
    S2a and Tanti(1) bases only: the tube block, zero without tubes."""
    base = BaseSpace.tanti(r // 2 - c)
    dd = _family_dd(base.kind, c, 0) if r // 2 - c <= 1 else None
    return Sign.MINUS, base, (0, 0, c, 0, 0, 0), _ovals_epsilon(c), dd


def _orientable_base(r: int, f: int, c: int, cp: int, cm: int) -> _Class:
    """A bare base with positive sign on T_g: Tspit(g,F), Trefl(g,C) or Trot(g).
    DD is derived on T_0 and T_1 only, where these act trivially on H^1."""
    g = r // 2
    base = BaseSpace.tspit(g, f) if f else BaseSpace.trefl(g, c) if c else BaseSpace.trot(g)
    eps = Epsilon.SEPARATING if c else Epsilon.NO_FIXED_CIRCLES
    return Sign.PLUS, base, (0,) * 6, eps, _ZERO_DD if g <= 1 else None


def _orientable_rules(r: int, f: int, c: int, cm: int) -> List[Callable[..., _Class]]:
    """The class rules of the cell [F, C:(C,0)] on T_g (r = 2g), negative sign first."""
    rules: List[Callable[..., _Class]] = []
    if f == 0 and 2 * c <= r:
        rules.append(_orientable_antipodal)
    if (f + 2 * c) % 4 == (r + 2) % 4:
        rules.append(_orientable_base)
    return rules


# The rule list of each surface family, by orientability.
_RULES = {False: _cell_rules, True: _orientable_rules}


def _rule_rows(surface: Surface) -> Iterator[Tuple[int, int, range, List[Callable[..., _Class]]]]:
    """The rule table of a surface with beta = r, walked once in display
    order: the (F, C) pairs that pass F + 2C <= r + 2 with F = r (mod 2), F
    descending and C ascending; for each, the C- of its rows (ascending,
    C- = r mod 2) in the groups that share one rule list, C- = 0 and then,
    on N_r only, every positive C-.  On T_g a fixed set is points or
    circles, never both, so only the pairs with F = 0 or C = 0 are walked."""
    r, nonorientable, rules = surface.beta, not surface.orientable, _RULES[surface.orientable]
    for f in range(r + 2, -1, -2):
        for c in range((r + 2 - f) // 2 + 1 if nonorientable or f == 0 else 1):
            if r % 2 == 0:
                yield f, c, range(1), rules(r, f, c, 0)
            positive = range(2 - r % 2, c + 1, 2)
            if positive and nonorientable:
                yield f, c, positive, rules(r, f, c, positive[0])


def _classes(surface: Surface) -> Iterator[Tuple[int, int, int, int, List[_Class]]]:
    """Each taxonomy row (F, C, C+, C-) of the surface in display order, with
    the classes its rules give (the list may be empty)."""
    r = surface.beta
    for f, c, cms, rules in _rule_rows(surface):
        for cm in cms:
            yield f, c, c - cm, cm, [rule(r, f, c, c - cm, cm) for rule in rules]


def trivial_action(surface: Surface) -> Action:
    """The identity of the surface, with the DD of the identity isometry."""
    return Action(SurgeryWord(BaseSpace.trivial(surface)), surface, None, None, identity_dd(surface))


def taxonomy_cells(surface: Surface) -> Iterator[Tuple[Taxonomy, List[_Text], List[_Text]]]:
    """Rows of the enumeration table: unsigned taxonomy, then the negative and
    positive classes as (word text, separation, DD); either list may be empty."""
    for f, c, cp, cm, classes in _classes(surface):
        neg, pos = [], []
        for q, base, counts, eps, dd in classes:
            (neg if q == Sign.MINUS else pos).append((word_text(base.token(), counts), eps, dd))
        yield Taxonomy(f, cp, cm), neg, pos


def iter_actions(surface: Surface, include_trivial: bool = True) -> Iterator[Action]:
    """All involutions on the surface, negative sign before positive within
    each row, each built with its invariants straight from its cell rule."""
    if include_trivial:
        yield trivial_action(surface)
    for f, c, cp, cm, classes in _classes(surface):
        for sign, base, counts, eps, dd in classes:
            yield Action(SurgeryWord(base, *counts), surface, Taxonomy(f, cp, cm, sign), eps, dd)


def count_actions(surface: Surface, include_trivial: bool = True) -> int:
    """Size of the enumeration without building the actions: each rule list
    of the table walk once per row that shares it."""
    return sum(len(cms) * len(rules) for _, _, cms, rules in _rule_rows(surface)) + (1 if include_trivial else 0)


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
    if a.surface.orientable or not a.taxonomy.ambiguous():
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
    "trivial_action",
    "taxonomy_cells",
    "iter_actions",
    "count_actions",
    "decide_isomorphic",
]
