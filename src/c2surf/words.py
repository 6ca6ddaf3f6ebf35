"""Symbolic equivariant surfaces: base space plus a multiset of surgeries.

A word is a base C2-surface together with counts of six surgery operations:

* ``DCC``   -- connected sum with two conjugate crosscaps (beta +2)
* ``DT``    -- connected sum with two conjugate tori (beta +4)
* ``S10AT`` -- sew in an antitube around a trivially-acted circle (beta +2)
* ``S11AT`` -- sew in an antitube around a reflected circle (beta +2, F +2)
* ``S1aAT`` -- sew in an antitube around an antipodally-acted circle (beta +2)
* ``FM``    -- trade an isolated fixed point for a one-sided oval (beta +1)

A base is the trivial action or a member of one of four torus families:
Tanti(g), Trot(g), Tspit(g,F) and Trefl(g,C).  The sphere's three involutions
are their genus-zero members, written S2a = Tanti(0), S22 = Tspit(0,2) and
S21 = Trefl(0,1), and have no case of their own.

All invariants of the underlying action (beta-genus, fixed-point data, the
quotient's orientability sign, separation behaviour) are computed directly
from the word.  A partial rewriting system maps each word towards the fixed
representative families used by the enumeration; equal normal forms certify
an equivariant isomorphism, unequal ones certify nothing.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, Optional, Tuple


class WordSyntaxError(ValueError):
    """Unparseable word text."""


class InvalidWordError(ValueError):
    """Structurally valid text describing an impossible word."""


class RewriteNonTermination(RuntimeError):
    """Directed rewriting hit its step fuse before reaching a fixpoint."""


class _Texted(enum.Enum):
    """An Enum whose value is its text, also kept as the plain attribute
    `text`: reading it costs no call through Enum's `value`."""

    def __new__(cls, text: str) -> "_Texted":
        member = object.__new__(cls)
        member._value_ = member.text = text
        return member


class Sign(_Texted):
    PLUS = "+"
    MINUS = "-"


class Epsilon(_Texted):
    SEPARATING = "sep"
    NON_SEPARATING = "nonsep"
    NO_FIXED_CIRCLES = "nofix"


# The members as module names, like the kinds below.
_PLUS, _MINUS = Sign
_SEPARATING, _NON_SEPARATING, _NO_FIXED_CIRCLES = Epsilon


@dataclass(frozen=True, slots=True)
class Surface:
    """A closed surface: T_g when orientable, N_r otherwise."""

    orientable: bool
    genus: int

    def __post_init__(self) -> None:
        if self.genus < 0 or (not self.orientable and self.genus < 1):
            raise ValueError(f"bad surface parameters {self!r}")

    @property
    def beta(self) -> int:
        return 2 * self.genus if self.orientable else self.genus

    @property
    def name(self) -> str:
        return f"{'T' if self.orientable else 'N'}{self.genus}"

    @classmethod
    def parse(cls, text: str) -> "Surface":
        m = re.fullmatch(r"([TN])([0-9]+)", text)
        if not m:
            raise WordSyntaxError(f"bad surface spec {text!r}")
        try:
            return cls(m.group(1) == "T", int(m.group(2)))
        except ValueError as exc:
            raise WordSyntaxError(str(exc)) from exc

    def __repr__(self) -> str:
        return self.name


class BaseKind(enum.Enum):
    """The base grammar, declared once: each kind's token, the token its
    genus-zero member prints (None if it has none), whether its action
    preserves orientation (the rest reverse it; a trivial base's surface
    answers for it instead), and the parameters written after the token, in
    order (``Tspit(g,F)`` is written ``Tspit(2,6)``).
    The factory that builds a kind is named after it (T_SPIT: ``tspit``), and
    that of a genus-zero member after its token (``s22``).
    A kind's `position` in this declaration is what a base's hash reads of it."""

    TRIVIAL = ("Triv", None, False, "surface")
    T_ANTI = ("Tanti", "S2a", False, "g")
    T_ROT = ("Trot", None, True, "g")
    T_SPIT = ("Tspit", "S22", True, "g", "f")
    T_REFL = ("Trefl", "S21", False, "g", "c")

    def __new__(cls, token: str, sphere: Optional[str], preserving: bool, *params: str) -> "BaseKind":
        kind = object.__new__(cls)
        kind._value_ = kind.token = token  # read as a plain attribute, not through Enum's `value`
        kind.sphere = sphere
        kind.preserves_orientation = preserving
        kind.params = params
        # the fields a base of this kind leaves at 0 (None for the surface)
        kind.unused = tuple(p for p in ("g", "f", "c", "surface") if p not in params)
        kind.position = len(cls.__members__)
        return kind


# The kinds as module names, for the checks that run on every word: under
# Python 3.11 a `BaseKind.T_ROT` read goes through the metaclass's
# `__getattr__` hook (about 45 ns, against 4 ns for a module name).
_TRIVIAL, _T_ANTI, _T_ROT, _T_SPIT, _T_REFL = BaseKind


@dataclass(frozen=True, slots=True)
class BaseSpace:
    """A base equivariant surface: a kind and the parameters it declares.
    A sphere base is the genus-zero member of its family, and every invariant
    reads it through the family's formula.

    The hash is computed once, from ints only (the kind's position, then the
    parameters), so it is the same in every process: a base pickled under one
    hash seed hashes like a fresh one under another."""

    kind: BaseKind
    g: int = 0
    f: int = 0  # fixed points of a spit base
    c: int = 0  # ovals of a reflection base
    surface: Optional[Surface] = None  # trivial actions only
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = self.kind
        for p in k.unused:
            if getattr(self, p):
                raise InvalidWordError(f"{k.token} takes no parameter {p}")
        if k is _TRIVIAL and self.surface is None:
            raise InvalidWordError("trivial base needs a surface")
        if self.g < 0:
            raise InvalidWordError(f"negative genus g={self.g}")
        if k is _T_ROT and self.g % 2 == 0:
            raise InvalidWordError("rotation bases need odd genus")
        if k is _T_SPIT and self.f not in spit_fixed_points(self.g):
            raise InvalidWordError(f"bad spit fixed-point count F={self.f} at g={self.g}")
        if k is _T_REFL and self.c not in reflection_ovals(self.g):
            raise InvalidWordError(f"bad reflection oval count C={self.c} at g={self.g}")
        s = self.surface
        key = (k.position, self.g, self.f, self.c) if s is None else (k.position, s.orientable, s.genus)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def trivial(surface: Surface) -> "BaseSpace":
        return BaseSpace(_TRIVIAL, surface=surface)

    @staticmethod
    def s2a() -> "BaseSpace":
        return BaseSpace(_T_ANTI)

    @staticmethod
    def s21() -> "BaseSpace":
        return BaseSpace(_T_REFL, c=1)

    @staticmethod
    def s22() -> "BaseSpace":
        return BaseSpace(_T_SPIT, f=2)

    @staticmethod
    def tanti(g: int) -> "BaseSpace":
        return BaseSpace(_T_ANTI, g=g)

    @staticmethod
    def trot(g: int) -> "BaseSpace":
        return BaseSpace(_T_ROT, g=g)

    @staticmethod
    def tspit(g: int, f: int) -> "BaseSpace":
        return BaseSpace(_T_SPIT, g=g, f=f)

    @staticmethod
    def trefl(g: int, c: int) -> "BaseSpace":
        return BaseSpace(_T_REFL, g=g, c=c)

    @property
    def beta(self) -> int:
        return self.surface.beta if self.kind is _TRIVIAL else 2 * self.g

    def token(self) -> str:
        k = self.kind
        if self.g == 0 and k.sphere:
            return k.sphere
        return f"{k.token}({','.join([str(getattr(self, p)) for p in k.params])})"


def spit_fixed_points(g: int) -> range:
    """The fixed-point counts F of the spit bases Tspit(g,F) on T_g, largest
    first: F = 2 + 2g (mod 4) with 2 <= F <= 2 + 2g."""
    return range(2 + 2 * g, 1, -4)


def reflection_ovals(g: int) -> range:
    """The oval counts C of the reflection bases Trefl(g,C) on T_g, largest
    first: C = g + 1 (mod 2) with 1 <= C <= g + 1."""
    return range(g + 1, 0, -2)


_OP_NAMES = ("DCC", "DT", "S10AT", "S11AT", "S1aAT", "FM")
_OP_SLOTS = {name: slot for slot, name in enumerate(_OP_NAMES)}
_NO_OPS = (0,) * len(_OP_NAMES)


@dataclass(frozen=True, slots=True)
class SurgeryWord:
    """A base space with surgery-operation multiplicities.  Like a base, a
    word computes its hash once, from ints only: its base's hash and counts."""

    base: BaseSpace
    dcc: int = 0
    dt: int = 0
    s10at: int = 0
    s11at: int = 0
    s1aat: int = 0
    fm: int = 0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts = (self.dcc, self.dt, self.s10at, self.s11at, self.s1aat, self.fm)
        if min(counts) < 0:
            raise InvalidWordError("negative operation count")
        if self.base.kind is _TRIVIAL and any(counts):
            raise InvalidWordError("trivial actions admit no surgery")
        if self.fm > self.base.f + 2 * self.s11at:
            raise InvalidWordError(
                f"{self.fm} FM surgeries but only "
                f"{self.base.f + 2 * self.s11at} fixed points available"
            )
        object.__setattr__(self, "_hash", hash((self.base._hash, counts)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def op_counts(self) -> Tuple[int, int, int, int, int, int]:
        return (self.dcc, self.dt, self.s10at, self.s11at, self.s1aat, self.fm)

    def is_trivial(self) -> bool:
        return self.base.kind is _TRIVIAL

    def __repr__(self) -> str:
        return f"<{format_word(self)}>"


def beta(w: SurgeryWord) -> int:
    """Beta-genus: crosscap pairs and antitubes add 2, dual tori 4, FM adds 1."""
    return (
        w.base.beta
        + 2 * (w.dcc + w.s10at + w.s11at + w.s1aat)
        + 4 * w.dt
        + w.fm
    )


def fixed_data(w: SurgeryWord) -> Tuple[int, int, int]:
    """(F, C+, C-): isolated fixed points, two-sided ovals, one-sided ovals."""
    f = w.base.f + 2 * w.s11at - w.fm
    cplus = w.base.c + w.s10at
    cminus = w.fm
    return (f, cplus, cminus)


def q_sign(w: SurgeryWord) -> Sign:
    """Orientability of the quotient: crosscap pairs and antipodal antitubes
    each add a crosscap to the quotient, every other surgery preserves it."""
    if w.is_trivial():
        raise InvalidWordError("quotient sign is defined for nontrivial actions")
    if w.dcc > 0 or w.s1aat > 0:
        return _MINUS
    if w.base.kind is _T_ANTI:
        return _MINUS
    return _PLUS


def orientability(w: SurgeryWord) -> bool:
    """Orientable iff no crosscaps/FM and every antitube matches the base's
    orientation behaviour (reflected-circle antitubes preserve, the others
    reverse); dual tori never interfere."""
    if w.is_trivial():
        return w.base.surface.orientable
    if w.dcc or w.fm:
        return False
    if w.base.kind.preserves_orientation:
        return w.s10at == 0 and w.s1aat == 0
    return w.s11at == 0


def underlying_surface(w: SurgeryWord) -> Surface:
    b = beta(w)
    if orientability(w):
        return Surface(True, b // 2)
    return Surface(False, b)


def epsilon(w: SurgeryWord) -> Epsilon:
    """Separation invariant.  Only doubled surfaces separate: a reflection
    family base with nothing but crosscap pairs, dual tori and trivial-circle
    antitubes attached.  Words without ovals get their own marker."""
    if w.is_trivial():
        raise InvalidWordError("separation is defined for nontrivial actions")
    if w.base.c + w.s10at + w.fm == 0:
        return _NO_FIXED_CIRCLES
    # a reflection base has no isolated fixed points, so without S11AT and FM
    # the word has F = C- = 0
    if w.base.kind is _T_REFL and not (w.s11at or w.s1aat or w.fm):
        return _SEPARATING
    return _NON_SEPARATING


# ---------------------------------------------------------------------------
# text form


def _number(digits: str) -> int:
    """A count or base parameter; one too long for `int` is a syntax error."""
    try:
        return int(digits)
    except ValueError as exc:
        raise WordSyntaxError(str(exc)) from exc


def _base_syntax(token: str, params: Tuple[str, ...], factory: str):
    """(pattern, parameter converters, factory) of a base token: a surface
    name for Triv's parameter, a number for the others."""
    syntax = [(r"([TN][0-9]+)", Surface.parse) if p == "surface" else (r"([0-9]+)", _number) for p in params]
    args = ",".join(pattern for pattern, _ in syntax)
    pattern = re.compile(rf"{token}\({args}\)" if syntax else token)
    return pattern, [convert for _, convert in syntax], getattr(BaseSpace, factory)


# Each kind's token with its parameters, and each genus-zero token bare.
_BASE_SYNTAX = {k.token: _base_syntax(k.token, k.params, k.name.lower().replace("_", "")) for k in BaseKind}
_BASE_SYNTAX.update({k.sphere: _base_syntax(k.sphere, (), k.sphere.lower()) for k in BaseKind if k.sphere})
_OP_RE = re.compile(rf"([0-9]*)({'|'.join(_OP_NAMES)})")
# Distinct op tokens remembered by `_parse_op`, as written (surrounding
# whitespace included); the words with beta <= 12 and each op count <= 2
# spell their ops with 12 tokens.
_OP_CACHE_SIZE = 256
# Distinct words remembered by `_word`, keyed by base token and op counts, so
# every spelling of a word shares one frozen, validated `SurgeryWord`; the
# same words are 2,687.
_WORD_CACHE_SIZE = 4096


def parse_word(text: str) -> SurgeryWord:
    """Parse ``BASE(+COUNT?OP)*``, e.g. ``S2a+2DCC+3S10AT+S11AT+2FM``.
    A bad base is reported before a bad op, and a bad op before a bad count."""
    head, plus, ops = text.strip().partition("+")
    token = head.strip()
    if not token:
        raise WordSyntaxError(f"empty word {text!r}")
    if not plus:
        return _word(token, *_NO_OPS)
    counts = [0] * len(_OP_NAMES)
    for part in ops.split("+"):
        try:
            slot, count = _parse_op(part)
        except ValueError:
            _parse_base(token)
            raise
        counts[slot] += count
    return _word(token, *counts)


def _parse_base(token: str) -> BaseSpace:
    syntax = _BASE_SYNTAX.get(token.partition("(")[0])
    m = syntax and syntax[0].fullmatch(token)
    if not m:
        raise WordSyntaxError(f"bad base token {token!r}")
    _, converters, factory = syntax
    return factory(*[convert(arg) for convert, arg in zip(converters, m.groups())])


@functools.lru_cache(maxsize=_OP_CACHE_SIZE)
def _parse_op(part: str) -> Tuple[int, int]:
    """(slot, count) of one op token such as ``2DCC``."""
    m = _OP_RE.fullmatch(part.strip())
    if not m:
        raise WordSyntaxError(f"bad operation token {part!r}")
    count, name = m.groups()
    return _OP_SLOTS[name], _number(count) if count else 1


@functools.lru_cache(maxsize=_WORD_CACHE_SIZE)
def _word(token: str, *counts: int) -> SurgeryWord:
    """The word on a base token with the six op counts; the base and the
    word's own checks (the FM bound among them) run on its first build."""
    return SurgeryWord(_parse_base(token), *counts)


def _count_text(count: int) -> str:
    """What a positive op count writes before the op's name: "+", "+2", ..."""
    return "+" if count == 1 else f"+{count}"


def op_table(max_count: int) -> List[List[str]]:
    """For each op in word order, the text that each count 0..max_count adds
    to a word ("", "+DCC", "+2DCC", ...), for a caller that spells many words."""
    prefixes = [_count_text(count) for count in range(1, max_count + 1)]
    return [["", *[prefix + name for prefix in prefixes]] for name in _OP_NAMES]


def format_word(w: SurgeryWord) -> str:
    """Canonical text of a word: the base token, then the ops in fixed order
    with count prefixes (``S2a+2DCC+S10AT``)."""
    ops = [_count_text(count) + name for name, count in zip(_OP_NAMES, w.op_counts) if count]
    return "".join([w.base.token(), *ops])


# ---------------------------------------------------------------------------
# rewriting


def _ctx_words(max_beta: int) -> Iterator[SurgeryWord]:
    """Small library of context words for the connected-sum rule."""
    bases = [
        BaseSpace.s2a(),
        BaseSpace.s21(),
        BaseSpace.s22(),
        BaseSpace.tanti(1),
        BaseSpace.tanti(2),
        BaseSpace.trot(1),
        BaseSpace.tspit(1, 4),
        BaseSpace.trefl(1, 2),
    ]
    extras = [
        {},
        {"dcc": 1},
        {"dt": 1},
        {"s10at": 1},
        {"s11at": 1},
        {"s1aat": 1},
        {"s11at": 1, "fm": 1},
    ]
    for base in bases:
        for kw in extras:
            w = SurgeryWord(base, **kw)
            if beta(w) <= max_beta:
                yield w


def _spit_params(max_beta: int) -> Iterator[Tuple[int, int]]:
    for g in range(0, max_beta // 2 + 1):
        for f in spit_fixed_points(g):
            yield g, f


def rewrite_equivalences() -> List[Callable[[int], Iterator[Tuple[SurgeryWord, SurgeryWord]]]]:
    """The rule set: each rule, named by its ``__name__``, maps a bound on
    beta to its instances, each a pair of isomorphic words."""

    def fundiso_dcc(mb: int) -> Iterator[Tuple[SurgeryWord, SurgeryWord]]:
        # S22 + r DCC  ~  S2a + (r-1) DCC + S11AT
        for r in range(1, mb // 2):
            yield SurgeryWord(BaseSpace.s22(), dcc=r), SurgeryWord(BaseSpace.s2a(), dcc=r - 1, s11at=1)

    def fundiso_s1a(mb: int) -> Iterator[Tuple[SurgeryWord, SurgeryWord]]:
        # S22 + DCC  ~  S22 + S1aAT
        yield SurgeryWord(BaseSpace.s22(), dcc=1), SurgeryWord(BaseSpace.s22(), s1aat=1)

    def fundiso_s1a_t1(mb: int) -> Iterator[Tuple[SurgeryWord, SurgeryWord]]:
        # S2a + S1aAT  ~  Tanti(1)
        yield SurgeryWord(BaseSpace.s2a(), s1aat=1), SurgeryWord(BaseSpace.tanti(1))

    def fundiso_t1(mb: int) -> Iterator[Tuple[SurgeryWord, SurgeryWord]]:
        # S2a + DCC + S11AT  ~  Tanti(1) + S11AT
        yield (
            SurgeryWord(BaseSpace.s2a(), dcc=1, s11at=1),
            SurgeryWord(BaseSpace.tanti(1), s11at=1),
        )

    def anti_s11(mb: int) -> Iterator[Tuple[SurgeryWord, SurgeryWord]]:
        # Tanti(g) + S11AT  ~  S2a + g DCC + S11AT
        for g in range(1, mb // 2):
            yield SurgeryWord(BaseSpace.tanti(g), s11at=1), SurgeryWord(BaseSpace.s2a(), dcc=g, s11at=1)

    def anti_dcc(mb: int) -> Iterator[Tuple[SurgeryWord, SurgeryWord]]:
        # Tanti(g) + s DCC  ~  S2a + (g+s) DCC         (g even)
        #                   ~  Tanti(1) + (g+s-1) DCC  (g odd)
        for g in range(2, mb // 2 + 1):
            for s in range(1, mb // 2 + 1):
                u = SurgeryWord(BaseSpace.tanti(g), dcc=s)
                if beta(u) > mb:
                    break
                if g % 2 == 0:
                    yield u, SurgeryWord(BaseSpace.s2a(), dcc=g + s)
                else:
                    yield u, SurgeryWord(BaseSpace.tanti(1), dcc=g + s - 1)

    def rot_dcc(mb: int) -> Iterator[Tuple[SurgeryWord, SurgeryWord]]:
        # Trot(g) + s DCC  ~  Tanti(1) + (g+s-1) DCC   (g odd)
        for g in range(1, mb // 2 + 1, 2):
            for s in range(1, mb // 2 + 1):
                u = SurgeryWord(BaseSpace.trot(g), dcc=s)
                if beta(u) > mb:
                    break
                yield u, SurgeryWord(BaseSpace.tanti(1), dcc=g + s - 1)

    def spit_unroll(mb: int) -> Iterator[Tuple[SurgeryWord, SurgeryWord]]:
        # Tspit(g, 2+2g-4n)  ~  S22 + g S11AT          (n = 0)
        #                    ~  Trot(2n-1) + (g+1-2n) S11AT   (n > 0)
        for g, f in _spit_params(mb):
            n = (2 + 2 * g - f) // 4
            u = SurgeryWord(BaseSpace.tspit(g, f))
            if n == 0:
                yield u, SurgeryWord(BaseSpace.s22(), s11at=g)
            else:
                yield u, SurgeryWord(BaseSpace.trot(2 * n - 1), s11at=g + 1 - 2 * n)

    def spit_expand(mb: int) -> Iterator[Tuple[SurgeryWord, SurgeryWord]]:
        # Tspit(g,F)  ~  S22 + (F/2 - 1) S11AT + ((2+2g-F)/4) DT
        for g, f in _spit_params(mb):
            yield (
                SurgeryWord(BaseSpace.tspit(g, f)),
                SurgeryWord(BaseSpace.s22(), s11at=f // 2 - 1, dt=(2 + 2 * g - f) // 4),
            )

    def refl_expand(mb: int) -> Iterator[Tuple[SurgeryWord, SurgeryWord]]:
        # Trefl(g,C)  ~  S21 + (C-1) S10AT + ((g+1-C)/2) DT
        for g in range(0, mb // 2 + 1):
            for c in reflection_ovals(g):
                yield (
                    SurgeryWord(BaseSpace.trefl(g, c)),
                    SurgeryWord(BaseSpace.s21(), s10at=c - 1, dt=(g + 1 - c) // 2),
                )

    def dcc_absorbs_dt(mb: int) -> Iterator[Tuple[SurgeryWord, SurgeryWord]]:
        # X + DCC + DT  ~  X + 3 DCC  (crosscapped sums absorb handles)
        for ctx in _ctx_words(mb - 6):
            yield replace(ctx, dcc=ctx.dcc + 1, dt=ctx.dt + 1), replace(ctx, dcc=ctx.dcc + 3)

    return [
        fundiso_dcc, fundiso_s1a, fundiso_s1a_t1, fundiso_t1, anti_s11, anti_dcc,
        rot_dcc, spit_unroll, spit_expand, refl_expand, dcc_absorbs_dt,
    ]


def _normalize_step(w: SurgeryWord) -> SurgeryWord:
    """One directed rewrite towards the representative families, or w itself.
    A sphere base (g = 0) is its family's genus-zero member, so the unrolling
    and shedding moves test g > 0: on S22, S21 or S2a they would give w back."""
    k, g = w.base.kind, w.base.g

    # antipodal antitubes become crosscaps (S22) or a torus base (S2a)
    if w.s1aat and k is _T_SPIT and g == 0:
        return replace(w, s1aat=0, dcc=w.dcc + w.s1aat)
    if w.s1aat and k is _T_ANTI and g == 0:
        if w.s11at:
            # each S1aAT would go S2a -> Tanti(1) and back via Tanti(1) + S11AT
            return replace(w, s1aat=0, dcc=w.dcc + w.s1aat)
        return replace(w, base=BaseSpace.tanti(1), s1aat=w.s1aat - 1)

    # spit/reflection bases unroll when mixed with foreign surgeries
    if k is _T_SPIT and g > 0 and (w.dcc or w.s1aat or w.dt or w.s11at):
        return replace(
            w,
            base=BaseSpace.s22(),
            s11at=w.s11at + w.base.f // 2 - 1,
            dt=w.dt + (2 + 2 * g - w.base.f) // 4,
        )
    if k is _T_REFL and g > 0 and any(w.op_counts):
        return replace(
            w,
            base=BaseSpace.s21(),
            s10at=w.s10at + w.base.c - 1,
            dt=w.dt + (g + 1 - w.base.c) // 2,
        )

    # a crosscapped sum absorbs dual tori, two crosscap pairs per torus pair
    if w.dcc and w.dt:
        return replace(w, dcc=w.dcc + 2 * w.dt, dt=0)

    # free torus bases shed crosscaps down to S2a / Tanti(1)
    if k is _T_ROT and w.dcc:
        return replace(w, base=BaseSpace.tanti(1), dcc=w.dcc + g - 1)
    if k is _T_ANTI and g > 0 and w.s11at:
        return replace(w, base=BaseSpace.s2a(), dcc=w.dcc + g)
    if k is _T_ANTI and g >= 2 and w.dcc:
        if g % 2 == 0:
            return replace(w, base=BaseSpace.s2a(), dcc=w.dcc + g)
        return replace(w, base=BaseSpace.tanti(1), dcc=w.dcc + g - 1)
    if k is _T_SPIT and g == 0 and w.dcc:
        return replace(w, base=BaseSpace.s2a(), dcc=w.dcc - 1, s11at=w.s11at + 1)

    # rotation bases with reflected antitubes contract into spit bases
    if k is _T_ROT and w.s11at and not w.dcc and not w.s1aat:
        return replace(
            w,
            base=BaseSpace.tspit(g + w.s11at, 2 * w.s11at),
            s11at=0,
        )

    # pure positive-family words contract back to spit/reflection bases
    if k is _T_SPIT and g == 0 and (w.s11at or w.dt) and not w.dcc and not w.s1aat:
        return replace(
            w,
            base=BaseSpace.tspit(w.s11at + 2 * w.dt, 2 * w.s11at + 2),
            s11at=0,
            dt=0,
        )
    if (
        k is _T_REFL
        and g == 0
        and (w.s10at or w.dt)
        and not (w.dcc or w.s1aat or w.s11at or w.fm)
    ):
        return replace(
            w,
            base=BaseSpace.trefl(w.s10at + 2 * w.dt, w.s10at + 1),
            s10at=0,
            dt=0,
        )

    return w


_NORMALIZE_FUSE = 10_000


def normalize(w: SurgeryWord) -> SurgeryWord:
    """Directed rewriting to a fixpoint.  Equal outputs certify isomorphism;
    the enumeration's representative words are already fixpoints."""
    for _ in range(_NORMALIZE_FUSE):
        nxt = _normalize_step(w)
        if nxt == w:
            return w
        w = nxt
    raise RewriteNonTermination(f"rewriting did not terminate on {w!r}")


__all__ = [
    "WordSyntaxError",
    "InvalidWordError",
    "RewriteNonTermination",
    "Sign",
    "Epsilon",
    "Surface",
    "BaseKind",
    "BaseSpace",
    "spit_fixed_points",
    "reflection_ovals",
    "SurgeryWord",
    "beta",
    "fixed_data",
    "q_sign",
    "orientability",
    "underlying_surface",
    "epsilon",
    "parse_word",
    "op_table",
    "format_word",
    "rewrite_equivalences",
    "normalize",
]
