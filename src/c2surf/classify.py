"""Complete enumeration of involutions on closed surfaces and the
isomorphism-decision procedure.

Every action is emitted as a surgery word with its invariants (taxonomy,
sign, separation, DD).  A rule table gives each taxonomy cell its classes by
sign, each with its word (base and op counts), separation invariant and DD:
`_cell_rules` on N_r, `_orientable_rules` on T_g.  One walk of the table
(`_rule_rows`) feeds the enumerator `iter_actions`, the count
`count_actions` and the rows of `taxonomy_cells`, from which the CLI prints
the appendix tables and the lines; a `SurgeryWord` is built only where a word
is asked for.  A row of `taxonomy_cells` is plain ints (F, C+, C-) and
one list of classes, each as (sign, word text, ε, DD), with no `Taxonomy`
built; the text F,C:(C+,C-) is written once, by `cell_label`.  A walk builds
each Tspit(g,F) or Trot(g) base once, in a dict of its own, and
`taxonomy_cells` spells each word in the comprehension that calls its rule,
each base once and the op texts from one `op_table`.
`Action.from_word` re-derives the taxonomy, sign and separation from any word;
it is the oracle that checks the table, and the path of `inv` and the decision
procedure, where a bounded memo derives each distinct word once.
On orientable surfaces the signed taxonomy is already a complete invariant; on
non-orientable surfaces the only repeated signed taxonomies are [0,C:(C,0),-],
where the separation invariant and one bit of the quotient (`_tube_bit`)
finish the job.  So `dd_of_word` reads a word's DD off the one rule of its
class, keyed by surface, signed taxonomy, separation and that bit; it never
rewrites the word.  Every DD a rule derives comes from one of two stated
rules: `identity_dd`, the identity's DD, or `_family_dd`, a tube block plus
k swaps under the direct-sum rule.
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
    op_table,
    q_sign,
    underlying_surface,
)


class DDUnavailableError(ValueError):
    """Isomorphism undecidable: an action of a [0,C:(C,0),-] cell on N_r that
    the separation does not settle carries no DD (a word's action always has
    its class's DD; an action built by hand may not)."""


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

    def __repr__(self) -> str:
        sign = f",{self.q.value}" if self.q else ""
        return f"[{cell_label(self.f, self.cplus, self.cminus)}{sign}]"


def cell_label(f: int, cp: int, cm: int) -> str:
    """The text F,C:(C+,C-) of a taxonomy row, as the tables print it."""
    return f"{f},{cp + cm}:({cp},{cm})"


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
            return cls(w, surf, None, None, identity_dd(surf))
        tax = Taxonomy(*fixed_data(w), q_sign(w))
        return cls(w, surf, tax, epsilon(w), dd_of_word(w, surf, tax))

    def is_trivial(self) -> bool:
        return self.taxonomy is None

    def __repr__(self) -> str:
        return f"Action({format_word(self.word)} on {self.surface.name})"


# ---------------------------------------------------------------------------
# derived DD values


_ZERO_DD = DDTuple(0, 0, 0, 0)


def _family_dd(tubes: int, k: int, g: int = 0) -> DDTuple:
    """DD of Tanti(g) + k DCC + `tubes` S10AT, g = 0 or 1: the tube block
    [g+1, 1, g+1, 1], a single symplectic transvection block whatever the
    number of tubes (zero without tubes), plus k swaps through the
    direct-sum rule."""
    base = DDTuple(g + 1, 1, g + 1, 1) if tubes else _ZERO_DD
    return base if k == 0 else dd_direct_sum(base, k)


def identity_dd(surface: Surface) -> DDTuple:
    """DD of the trivial action: the identity isometry of H^1(X; Z/2)."""
    if surface.orientable or surface.genus % 2 == 1:
        return _ZERO_DD
    return DDTuple(0, 1, 1, 0)


def _tube_bit(w: SurgeryWord) -> int:
    """b = <phi u phi, [Q^]>: phi the double cover's class, Q^ the quotient with
    its reflector circles capped.  g + 1 (mod 2) on Tanti(g), S2a included, 0
    on the other bases; each S1aAT adds a crosscap to Q with phi = 1 on it."""
    bit = w.base.g + 1 if w.base.kind is BaseKind.T_ANTI else 0
    return (bit + w.s1aat) % 2


def dd_of_word(w: SurgeryWord, surf: Surface, tax: Taxonomy) -> Optional[DDTuple]:
    """DD of a nontrivial word's class, as its cell rule gives it (None where
    the rule derives none), given the word's surface and signed taxonomy.
    The class is the one rule of the word's sign in its cell, except in
    [0,C:(C,0),-] on N_r: there separation picks the doubled surface and
    `_tube_bit` the other two.  Only that rule is called, and a word that
    lands on no class raises LookupError."""
    r, f, c, cm = surf.beta, tax.f, tax.c, tax.cminus
    rules = _RULES[surf.orientable](r, f, c, cm)[tax.q is Sign.PLUS]
    if len(rules) > 1:
        sep = epsilon(w) is Epsilon.SEPARATING
        pick = _doubled if sep else _antipodal_tubes if _tube_bit(w) else _torus_antipodal_tubes
        rules = [rule for rule in rules if rule is pick]
    if not rules:
        raise LookupError(f"{format_word(w)} lands on no class of {tax!r} on {surf.name}")
    return rules[0](r, f, c, tax.cplus, cm, {})[3]


# ---------------------------------------------------------------------------
# enumeration


_S2A, _S21, _TANTI1 = BaseSpace.s2a(), BaseSpace.s21(), BaseSpace.tanti(1)
# Op counts in word order: DCC, DT, S10AT, S11AT, S1aAT, FM.
_Counts = Tuple[int, int, int, int, int, int]
# What a class rule gives for one row (r, F, C, C+, C-) of its cell: the word
# as its base and op counts, the separation invariant and the DD.
_Class = Tuple[BaseSpace, _Counts, Epsilon, Optional[DDTuple]]
# The class rules of a cell: those of negative sign, then those of positive sign.
_Rules = Tuple[List[Callable[..., _Class]], List[Callable[..., _Class]]]
# A row of the tables: F, C+, C-, and its classes as the tables print them:
# sign, word text, separation invariant, DD.
_Row = Tuple[int, int, int, List[Tuple[Sign, str, Epsilon, Optional[DDTuple]]]]


def _ovals_epsilon(c: int) -> Epsilon:
    """Separation invariant of a class that is not a doubled surface."""
    return Epsilon.NON_SEPARATING if c else Epsilon.NO_FIXED_CIRCLES


def _low_genus_dd(r: int, f: int, c: int) -> Optional[DDTuple]:
    """DD of a class of row (F, C) outside the crosscap families, derived on
    N_1 and N_2 only, where D alone decides.  By the Smith inequality
    F + 2C <= r + 2 - 2D, only s* = id (D = 0) meets the bound; every other
    class there has D = 1, one swap, the one other involution of N_2's form."""
    if r > 2:
        return None
    return identity_dd(Surface(False, r)) if f + 2 * c == r + 2 else _family_dd(0, 1)


def _antipodal_ovals(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    counts = ((r - f - 2 * c) // 2, 0, cp, (f + cm) // 2, 0, cm)
    return _S2A, counts, _ovals_epsilon(c), _low_genus_dd(r, f, c)


def _doubled(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    k = r // 2 - c + 1
    dd = _family_dd(0, k) if c == 1 else None
    return _S21, (k, 0, c - 1, 0, 0, 0), Epsilon.SEPARATING, dd


def _antipodal_tubes(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    k = r // 2 - c
    return _S2A, (k, 0, c, 0, 0, 0), _ovals_epsilon(c), _family_dd(c, k)


def _torus_antipodal_tubes(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    k = r // 2 - c - 1
    return _TANTI1, (k, 0, c, 0, 0, 0), _ovals_epsilon(c), _family_dd(c, k, 1)


def _spit(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    key, counts = ((r - cm - 2 * cp) // 2, f + cm), (0, 0, cp, 0, 0, cm)
    base = bases.get(key) or bases.setdefault(key, BaseSpace.tspit(*key))  # built once per walk
    return base, counts, Epsilon.NON_SEPARATING, _low_genus_dd(r, f, c)


def _rotation(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    g, counts = r // 2 - c, (0, 0, c, 0, 0, 0)
    base = bases.get(g) or bases.setdefault(g, BaseSpace.trot(g))  # an int key, a Tspit key is a pair
    return base, counts, Epsilon.NON_SEPARATING, _low_genus_dd(r, f, c)


def _cell_rules(r: int, f: int, c: int, cm: int) -> _Rules:
    """The class rules of the cell [F, C:(C+,C-)] on N_r, by sign.
    The guards read C- only through C- > 0, so one positive C- stands for all."""
    neg: List[Callable[..., _Class]] = []
    if (cm > 0 or f > 0) and f + 2 * c <= r:
        neg.append(_antipodal_ovals)
    elif f == 0 and cm == 0 and r % 2 == 0 and c <= r // 2:
        if c >= 1:
            neg.append(_doubled)
        if c < r // 2:
            neg.append(_antipodal_tubes)
        if c < r // 2 - 1:
            neg.append(_torus_antipodal_tubes)
    if (f + 2 * c) % 4 == (r + 2) % 4:
        if cm > 0 or (0 < f <= r and c >= 1):
            return neg, [_spit]
        if f == 0 and cm == 0 and 0 < c <= r // 2:
            return neg, [_rotation]
    return neg, []


def _orientable_antipodal(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    """Tanti(g - C) + C S10AT on T_g (S2a when g = C).  DD is derived for the
    S2a and Tanti(1) bases only: the tube block, zero without tubes."""
    base = BaseSpace.tanti(r // 2 - c)
    dd = _family_dd(c, 0, base.g) if base.g <= 1 else None
    return base, (0, 0, c, 0, 0, 0), _ovals_epsilon(c), dd


def _orientable_base(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    """A bare base with positive sign on T_g: Tspit(g,F), Trefl(g,C) or Trot(g).
    DD is derived on T_0 and T_1 only, where these act trivially on H^1."""
    g = r // 2
    base = BaseSpace.tspit(g, f) if f else BaseSpace.trefl(g, c) if c else BaseSpace.trot(g)
    eps = Epsilon.SEPARATING if c else Epsilon.NO_FIXED_CIRCLES
    return base, (0,) * 6, eps, _ZERO_DD if g <= 1 else None


def _orientable_rules(r: int, f: int, c: int, cm: int) -> _Rules:
    """The class rules of the cell [F, C:(C,0)] on T_g (r = 2g), by sign."""
    neg = [_orientable_antipodal] if f == 0 and 2 * c <= r else []
    return neg, [_orientable_base] if (f + 2 * c) % 4 == (r + 2) % 4 else []


# The rule lists of each surface family, by orientability.
_RULES = {False: _cell_rules, True: _orientable_rules}


def _rule_rows(surface: Surface) -> Iterator[Tuple[int, int, range, _Rules]]:
    """The rule table of a surface with beta = r, walked once in display
    order: the (F, C) pairs that pass F + 2C <= r + 2 with F = r (mod 2), F
    descending and C ascending; for each, the C- of its rows (ascending,
    C- = r mod 2) in the groups that share one pair of rule lists, C- = 0
    and then, on N_r only, every positive C-.  On T_g a fixed set is points
    or circles, never both, so only the pairs with F = 0 or C = 0 are walked."""
    r, nonorientable, rules = surface.beta, not surface.orientable, _RULES[surface.orientable]
    for f in range(r + 2, -1, -2):
        for c in range((r + 2 - f) // 2 + 1 if nonorientable or f == 0 else 1):
            if r % 2 == 0:
                yield f, c, range(1), rules(r, f, c, 0)
            positive = range(2 - r % 2, c + 1, 2)
            if positive and nonorientable:
                yield f, c, positive, rules(r, f, c, positive[0])


def trivial_action(surface: Surface) -> Action:
    """The identity of the surface, with the DD of the identity isometry."""
    return Action(SurgeryWord(BaseSpace.trivial(surface)), surface, None, None, identity_dd(surface))


def taxonomy_cells(surface: Surface) -> Iterator[_Row]:
    """Rows of the enumeration table in display order, as plain ints and one
    list: (F, C+, C-, classes), each class as (sign, word text, separation,
    DD), negative sign first; the list may be empty.  Each class is spelled
    as its rule gives it, in the comprehension that calls the rule: its
    base's token, spelled once per base of the walk in a dict keyed by the
    base (whose hash is one cached int), plus the op texts of one `op_table`
    (no count exceeds beta / 2 + 1)."""
    r, bases = surface.beta, {}
    dcc, dt, s10at, s11at, s1aat, fm = op_table(r // 2 + 1)
    tokens: Dict[BaseSpace, str] = {}
    minus, plus = Sign.MINUS, Sign.PLUS
    for f, c, cms, (neg, pos) in _rule_rows(surface):
        signed = ((minus, neg), (plus, pos))
        for cm in cms:
            cp = c - cm
            yield f, cp, cm, [
                (q, (tokens.get(base) or tokens.setdefault(base, base.token()))
                 + dcc[n1] + dt[n2] + s10at[n3] + s11at[n4] + s1aat[n5] + fm[n6], eps, dd)
                for q, rules in signed for rule in rules
                for base, (n1, n2, n3, n4, n5, n6), eps, dd in [rule(r, f, c, cp, cm, bases)]
            ]


def iter_actions(surface: Surface, include_trivial: bool = True) -> Iterator[Action]:
    """All involutions on the surface, negative sign before positive within
    each row, each built with its invariants straight from its cell rule,
    bases built once a walk."""
    if include_trivial:
        yield trivial_action(surface)
    r, bases = surface.beta, {}
    for f, c, cms, (neg, pos) in _rule_rows(surface):
        for cm in cms:
            cp = c - cm
            for q, rules in ((Sign.MINUS, neg), (Sign.PLUS, pos)):
                for rule in rules:
                    base, counts, eps, dd = rule(r, f, c, cp, cm, bases)
                    yield Action(SurgeryWord(base, *counts), surface, Taxonomy(f, cp, cm, q), eps, dd)


def count_actions(surface: Surface, include_trivial: bool = True) -> int:
    """Size of the enumeration without building the actions: each pair of
    rule lists of the table walk once per row that shares it."""
    rows = _rule_rows(surface)
    return sum(len(cms) * (len(neg) + len(pos)) for _, _, cms, (neg, pos) in rows) + (1 if include_trivial else 0)


# ---------------------------------------------------------------------------
# the decision procedure


def decide_isomorphic(a: Action, b: Action) -> bool:
    """Equivariant isomorphism from invariants alone.

    Matching signed taxonomies settle everything except the non-orientable
    [0,C:(C,0),-] family, where the separation invariant singles out the
    doubled surface and DD separates the two free-base families.
    Surfaces and taxonomies are compared field by field, with no dataclass
    `__eq__` call.
    """
    s, t = a.surface, b.surface
    if s.genus != t.genus or s.orientable != t.orientable:
        return False
    ta, tb = a.taxonomy, b.taxonomy
    if ta is None or tb is None:  # a trivial action
        return ta is tb
    if ta.f != tb.f or ta.cplus != tb.cplus or ta.cminus != tb.cminus or ta.q is not tb.q:
        return False
    if s.orientable or not ta.ambiguous():
        return True
    if a.epsilon is not b.epsilon:
        return False
    if a.epsilon is Epsilon.SEPARATING:
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
    "cell_label",
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
