"""Complete enumeration of involutions on closed surfaces and the
isomorphism-decision procedure.

Every action is emitted as a surgery word with its invariants (taxonomy,
sign, separation, DD).  A rule table gives each taxonomy cell its classes by
sign: `_cell_rules` on N_r, `_orientable_rules` on T_g.  `_rule_rows` walks
the table in groups of rows that share one pair of rule lists, and
`class_groups` makes the group the unit of the enumeration: each rule runs
once per group, giving its separation invariant once and its word (base and
op counts) on each row, and `class_dd` runs once per group and rule.  That
walk feeds the enumerator `iter_actions`, the rows of `taxonomy_cells` and
the CLI's lines; `count_actions` reads `_rule_rows` alone.  A row of
`taxonomy_cells` is plain ints (F, C+, C-) and one list of classes, each as
(sign, word text, ε, DD), with no `Taxonomy` built; the text F,C:(C+,C-) is
written once, by `cell_label`.  A walk builds each Tspit(g,F) or Trot(g) base
once, in a dict of its own, and a word is spelled from its base's `text` and
the op texts of one `op_table`; a `SurgeryWord` is built only where a word is
asked for.
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
from typing import Callable, Iterator, List, Optional, Tuple

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
# Builds a `DDTuple` in C: its NamedTuple `__new__` is Python code.
_tuple_new = tuple.__new__


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
        return _tuple_new(DDTuple, (d, alpha, d, alpha))
    d_tilde = d + 1 if c and (f or cm) else d - (d - (b if c else 0)) % 2
    return _tuple_new(DDTuple, (d, alpha, d_tilde, 1 if q is _MINUS else 0))


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
# The word of a class on one row: its base and op counts.
_Word = Tuple[BaseSpace, _Counts]
# What a class rule gives for one group (r, F, C, C- range) of its cell: the
# separation invariant, once, and the word on each row, one per C- in order.
_Class = Tuple[Epsilon, List[_Word]]
# The class rules of a cell: those of negative sign, then those of positive sign.
_Rules = Tuple[List[Callable[..., _Class]], List[Callable[..., _Class]]]
# A group of rows of the walk: F, C, the C- of its rows, and its classes, each
# as sign, separation invariant, DD and the word on each row.
_Group = Tuple[int, int, range, List[Tuple[Sign, Epsilon, DDTuple, List[_Word]]]]
# A row of the tables: F, C+, C-, and its classes as the tables print them:
# sign, word text, separation invariant, DD.
_Row = Tuple[int, int, int, List[Tuple[Sign, str, Epsilon, DDTuple]]]


def _ovals_epsilon(c: int) -> Epsilon:
    """Separation invariant of a class that is not a doubled surface."""
    return _NON_SEPARATING if c else _NO_FIXED_CIRCLES


# Each rule takes a group's F, C and C- range.  A rule whose counts do not
# read C- holds only in groups of one row, C- = 0.


def _antipodal_ovals(r: int, f: int, c: int, cms: range, bases: dict) -> _Class:
    dcc = (r - f - 2 * c) // 2
    return _ovals_epsilon(c), [(_S2A, (dcc, 0, c - cm, (f + cm) // 2, 0, cm)) for cm in cms]


def _doubled(r: int, f: int, c: int, cms: range, bases: dict) -> _Class:
    return _SEPARATING, [(_S21, (r // 2 - c + 1, 0, c - 1, 0, 0, 0))] * len(cms)


def _antipodal_tubes(r: int, f: int, c: int, cms: range, bases: dict) -> _Class:
    return _ovals_epsilon(c), [(_S2A, (r // 2 - c, 0, c, 0, 0, 0))] * len(cms)


def _torus_antipodal_tubes(r: int, f: int, c: int, cms: range, bases: dict) -> _Class:
    return _ovals_epsilon(c), [(_TANTI1, (r // 2 - c - 1, 0, c, 0, 0, 0))] * len(cms)


def _spit(r: int, f: int, c: int, cms: range, bases: dict) -> _Class:
    return _NON_SEPARATING, [  # each base built once per walk
        (bases.get(key) or bases.setdefault(key, BaseSpace.tspit(*key)), (0, 0, c - cm, 0, 0, cm))
        for cm in cms for key in [((r - 2 * c + cm) // 2, f + cm)]
    ]


def _rotation(r: int, f: int, c: int, cms: range, bases: dict) -> _Class:
    g = r // 2 - c
    base = bases.get(g) or bases.setdefault(g, BaseSpace.trot(g))  # an int key, a Tspit key is a pair
    return _NON_SEPARATING, [(base, (0, 0, c, 0, 0, 0))] * len(cms)


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


def _orientable_antipodal(r: int, f: int, c: int, cms: range, bases: dict) -> _Class:
    """Tanti(g - C) + C S10AT on T_g (S2a when g = C)."""
    return _ovals_epsilon(c), [(BaseSpace.tanti(r // 2 - c), (0, 0, c, 0, 0, 0))] * len(cms)


def _orientable_base(r: int, f: int, c: int, cms: range, bases: dict) -> _Class:
    """A bare base with positive sign on T_g: Tspit(g,F), Trefl(g,C) or Trot(g)."""
    g = r // 2
    base = BaseSpace.tspit(g, f) if f else BaseSpace.trefl(g, c) if c else BaseSpace.trot(g)
    return _SEPARATING if c else _NO_FIXED_CIRCLES, [(base, (0,) * 6)] * len(cms)


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


def class_groups(surface: Surface) -> Iterator[_Group]:
    """The classes of the surface, one `_rule_rows` group of rows at a time,
    in display order: (F, C, C- range, classes), each class as (sign,
    separation, DD, the word on each row as (base, op counts)), negative sign
    first; the list may be empty.  Each rule runs once per group and gives
    its separation invariant once; its DD is the same on every row of the
    group (it reads C- only through C- > 0, and the base only through its
    bit), so `class_dd` runs once per group and rule too.  Tspit(g,F) and
    Trot(g) bases are built once a walk, in a dict of its own."""
    r, bases = surface.beta, {}
    for f, c, cms, (neg, pos) in _rule_rows(surface):
        yield f, c, cms, [
            (q, eps, class_dd(surface, f, c, cms[0], q, eps, _base_bit(rows[0][0])), rows)
            for q, rules in ((_MINUS, neg), (_PLUS, pos)) for rule in rules
            for eps, rows in [rule(r, f, c, cms, bases)]
        ]


def taxonomy_cells(surface: Surface) -> Iterator[_Row]:
    """Rows of the enumeration table in display order, as plain ints and one
    list: (F, C+, C-, classes), each class as (sign, word text, separation,
    DD), negative sign first; the list may be empty.  The rows of each group
    of `class_groups`, each word spelled from its base's `text` and the op
    texts of one `op_table` (no count exceeds beta / 2 + 1)."""
    dcc, dt, s10at, s11at, s1aat, fm = op_table(surface.beta // 2 + 1)
    for f, c, cms, classes in class_groups(surface):
        for i, cm in enumerate(cms):
            yield f, c - cm, cm, [
                (q, f"{base.text}{dcc[n1]}{dt[n2]}{s10at[n3]}{s11at[n4]}{s1aat[n5]}{fm[n6]}", eps, dd)
                for q, eps, dd, rows in classes for base, (n1, n2, n3, n4, n5, n6) in [rows[i]]
            ]


def iter_actions(surface: Surface, include_trivial: bool = True) -> Iterator[Action]:
    """All involutions on the surface, negative sign before positive within
    each row: the rows of each group of `class_groups`, each action built
    with the invariants and DD its group gives its class."""
    if include_trivial:
        yield trivial_action(surface)
    for f, c, cms, classes in class_groups(surface):
        for i, cm in enumerate(cms):
            cp = c - cm
            for q, eps, dd, rows in classes:
                base, counts = rows[i]
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
    "class_groups",
    "taxonomy_cells",
    "iter_actions",
    "count_actions",
    "decide_isomorphic",
]
