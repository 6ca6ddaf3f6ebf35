"""Complete enumeration of involutions on closed surfaces and the
isomorphism-decision procedure.

Every action is emitted as a surgery word with its invariants (taxonomy,
sign, separation, DD).  A rule table gives each taxonomy cell its classes by
sign, each with its word (base and op counts) and separation invariant:
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

A nontrivial class is its key: surface, F, C:(C+,C-), quotient sign,
separation ε and, on rows with F = C- = 0, the tube bit b of the quotient.
On orientable surfaces the signed taxonomy alone is complete; on N_r the only
repeated signed taxonomies are [0,C:(C,0),-], where ε and b finish the job.
The DD is one closed form of the key, `class_dd`: the walk calls it once per
group of rows and rule, `dd_of_word` on a word's key, and the trivial action
has `identity_dd`.  So the decision procedure is equality of surface, signed
taxonomy, ε and DD, and no word is rewritten on either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .dd import DDTuple
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
    """Isomorphism undecidable for want of a DD.  Nothing raises it: every
    class has its DD from `class_dd`.  It stays for callers that catch it."""


# The members as module names: a read through the Enum class runs a
# Python-level hook under 3.11.
_PLUS, _MINUS = Sign
_SEPARATING, _NON_SEPARATING, _NO_FIXED_CIRCLES = Epsilon
_T_ANTI = BaseKind.T_ANTI


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
    if t.q is _MINUS and t.f + 2 * t.c > beta:
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
    dd: DDTuple

    @classmethod
    @lru_cache(maxsize=_ACTION_CACHE_SIZE)
    def from_word(cls, w: SurgeryWord) -> "Action":
        surf = underlying_surface(w)
        if w.is_trivial():
            return cls(w, surf, None, None, identity_dd(surf))
        tax, eps = Taxonomy(*fixed_data(w), q_sign(w)), epsilon(w)
        return cls(w, surf, tax, eps, dd_of_word(w, surf, tax, eps))

    def is_trivial(self) -> bool:
        return self.taxonomy is None

    def __repr__(self) -> str:
        return f"Action({format_word(self.word)} on {self.surface.name})"


# ---------------------------------------------------------------------------
# the DD of a class


def identity_dd(surface: Surface) -> DDTuple:
    """DD of the trivial action: the identity isometry of H^1(X; Z/2)."""
    if surface.orientable or surface.genus % 2 == 1:
        return DDTuple(0, 0, 0, 0)
    return DDTuple(0, 1, 1, 0)


def class_dd(surface: Surface, f: int, c: int, cm: int, q: Sign, eps: Epsilon, b: int) -> DDTuple:
    """DD of the nontrivial class with this key: surface, F, C, C-, sign,
    separation and tube bit b (read only where F = C- = 0).
    D meets the Smith bound F + 2C <= beta + 2 - 2D (Bredon, ch. VII), and is
    beta/2 - 1 + b on a free class.  alpha = 1 exactly on the nonseparating
    classes (the fixed circles are 0 in H_1 iff they separate), save the
    positive ones on N_r with r odd.  The mirror is the identity on T_g and on
    N_r with r odd.  On N_r with r even, alpha~ = 1 iff q = -, and D~ is D + 1
    when some fixed circle and some point or one-sided circle are both there,
    else whichever of D and D - 1 has the parity of b [C > 0]."""
    r = surface.beta
    d = (r + 2 - f - 2 * c) // 2 if f or c else r // 2 - 1 + b
    alpha = 1 if eps is _NON_SEPARATING and (q is _MINUS or r % 2 == 0) else 0
    if surface.orientable or r % 2:
        return DDTuple(d, alpha, d, alpha)
    d_tilde = d + 1 if c and (f or cm) else d - (d - (b if c else 0)) % 2
    return DDTuple(d, alpha, d_tilde, 1 if q is _MINUS else 0)


def _base_bit(base: BaseSpace) -> int:
    """The tube bit of a base: g + 1 (mod 2) on Tanti(g), S2a included, 0 on
    the other bases."""
    return (base.g + 1) % 2 if base.kind is _T_ANTI else 0


def _tube_bit(w: SurgeryWord) -> int:
    """b = <phi u phi, [Q^]>: phi the double cover's class, Q^ the quotient with
    its reflector circles capped.  The base's bit, and each S1aAT adds a
    crosscap to Q with phi = 1 on it."""
    return (_base_bit(w.base) + w.s1aat) % 2


def dd_of_word(w: SurgeryWord, surf: Surface, tax: Taxonomy, eps: Epsilon) -> DDTuple:
    """DD of a nontrivial word's class: `class_dd` of the word's key, given
    its surface, signed taxonomy and separation.  No rule is read and the
    word is never rewritten."""
    return class_dd(surf, tax.f, tax.c, tax.cminus, tax.q, eps, _tube_bit(w))


# ---------------------------------------------------------------------------
# enumeration


_S2A, _S21, _TANTI1 = BaseSpace.s2a(), BaseSpace.s21(), BaseSpace.tanti(1)
# Op counts in word order: DCC, DT, S10AT, S11AT, S1aAT, FM.
_Counts = Tuple[int, int, int, int, int, int]
# What a class rule gives for one row (r, F, C, C+, C-) of its cell: the word
# as its base and op counts, and the separation invariant.
_Class = Tuple[BaseSpace, _Counts, Epsilon]
# The class rules of a cell: those of negative sign, then those of positive sign.
_Rules = Tuple[List[Callable[..., _Class]], List[Callable[..., _Class]]]
# A row of the tables: F, C+, C-, and its classes as the tables print them:
# sign, word text, separation invariant, DD.
_Row = Tuple[int, int, int, List[Tuple[Sign, str, Epsilon, DDTuple]]]


def _ovals_epsilon(c: int) -> Epsilon:
    """Separation invariant of a class that is not a doubled surface."""
    return _NON_SEPARATING if c else _NO_FIXED_CIRCLES


def _antipodal_ovals(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    counts = ((r - f - 2 * c) // 2, 0, cp, (f + cm) // 2, 0, cm)
    return _S2A, counts, _ovals_epsilon(c)


def _doubled(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    return _S21, (r // 2 - c + 1, 0, c - 1, 0, 0, 0), _SEPARATING


def _antipodal_tubes(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    return _S2A, (r // 2 - c, 0, c, 0, 0, 0), _ovals_epsilon(c)


def _torus_antipodal_tubes(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    return _TANTI1, (r // 2 - c - 1, 0, c, 0, 0, 0), _ovals_epsilon(c)


def _spit(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    key, counts = ((r - cm - 2 * cp) // 2, f + cm), (0, 0, cp, 0, 0, cm)
    base = bases.get(key) or bases.setdefault(key, BaseSpace.tspit(*key))  # built once per walk
    return base, counts, _NON_SEPARATING


def _rotation(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    g, counts = r // 2 - c, (0, 0, c, 0, 0, 0)
    base = bases.get(g) or bases.setdefault(g, BaseSpace.trot(g))  # an int key, a Tspit key is a pair
    return base, counts, _NON_SEPARATING


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
    """Tanti(g - C) + C S10AT on T_g (S2a when g = C)."""
    return BaseSpace.tanti(r // 2 - c), (0, 0, c, 0, 0, 0), _ovals_epsilon(c)


def _orientable_base(r: int, f: int, c: int, cp: int, cm: int, bases: dict) -> _Class:
    """A bare base with positive sign on T_g: Tspit(g,F), Trefl(g,C) or Trot(g)."""
    g = r // 2
    base = BaseSpace.tspit(g, f) if f else BaseSpace.trefl(g, c) if c else BaseSpace.trot(g)
    return base, (0,) * 6, _SEPARATING if c else _NO_FIXED_CIRCLES


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
    (no count exceeds beta / 2 + 1).  A rule's DD is the same on every row of
    a `_rule_rows` group (it reads C- only through C- > 0, and a rule's base
    only through its bit), so `class_dd` runs once per group and rule."""
    r, bases = surface.beta, {}
    dcc, dt, s10at, s11at, s1aat, fm = op_table(r // 2 + 1)
    tokens: Dict[BaseSpace, str] = {}
    for f, c, cms, (neg, pos) in _rule_rows(surface):
        signed, dds = ((_MINUS, neg), (_PLUS, pos)), {}
        for cm in cms:
            cp = c - cm
            yield f, cp, cm, [
                (q, (tokens.get(base) or tokens.setdefault(base, base.token()))
                 + dcc[n1] + dt[n2] + s10at[n3] + s11at[n4] + s1aat[n5] + fm[n6], eps,
                 dds.get(rule) or dds.setdefault(rule, class_dd(surface, f, c, cm, q, eps, _base_bit(base))))
                for q, rules in signed for rule in rules
                for base, (n1, n2, n3, n4, n5, n6), eps in [rule(r, f, c, cp, cm, bases)]
            ]


def iter_actions(surface: Surface, include_trivial: bool = True) -> Iterator[Action]:
    """All involutions on the surface, negative sign before positive within
    each row, each built with its invariants straight from its cell rule and
    its DD from `class_dd`, once per group of rows and rule as in
    `taxonomy_cells`; bases built once a walk."""
    if include_trivial:
        yield trivial_action(surface)
    r, bases = surface.beta, {}
    for f, c, cms, (neg, pos) in _rule_rows(surface):
        signed, dds = ((_MINUS, neg), (_PLUS, pos)), {}
        for cm in cms:
            cp = c - cm
            for q, rules in signed:
                for rule in rules:
                    base, counts, eps = rule(r, f, c, cp, cm, bases)
                    dd = dds.get(rule) or dds.setdefault(rule, class_dd(surface, f, c, cm, q, eps, _base_bit(base)))
                    yield Action(SurgeryWord(base, *counts), surface, Taxonomy(f, cp, cm, q), eps, dd)


def count_actions(surface: Surface, include_trivial: bool = True) -> int:
    """Size of the enumeration without building the actions: each pair of
    rule lists of the table walk once per row that shares it."""
    rows = _rule_rows(surface)
    return sum(len(cms) * (len(neg) + len(pos)) for _, _, cms, (neg, pos) in rows) + (1 if include_trivial else 0)


# ---------------------------------------------------------------------------
# the decision procedure


def decide_isomorphic(a: Action, b: Action) -> bool:
    """Equivariant isomorphism from invariants alone: equal surfaces, signed
    taxonomies, separation invariants and DDs.  The signed taxonomy settles
    all but the [0,C:(C,0),-] classes on N_r, where ε singles out the doubled
    surface and the DD separates the two free-base families.  Surfaces and
    taxonomies are compared field by field, with no dataclass `__eq__` call.
    """
    s, t = a.surface, b.surface
    if s.genus != t.genus or s.orientable != t.orientable:
        return False
    ta, tb = a.taxonomy, b.taxonomy
    if ta is None or tb is None:  # a trivial action
        return ta is tb
    return (
        ta.f == tb.f and ta.cplus == tb.cplus and ta.cminus == tb.cminus and ta.q is tb.q
        and a.epsilon is b.epsilon and a.dd == b.dd
    )


__all__ = [
    "DDUnavailableError",
    "Taxonomy",
    "cell_label",
    "scherrer_admissible",
    "Action",
    "identity_dd",
    "class_dd",
    "dd_of_word",
    "trivial_action",
    "taxonomy_cells",
    "iter_actions",
    "count_actions",
    "decide_isomorphic",
]
