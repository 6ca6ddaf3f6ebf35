import os
import pathlib
import random
import re
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2surf import words
from c2surf.classify import iter_actions
from c2surf.words import (
    BaseKind,
    BaseSpace,
    Epsilon,
    InvalidWordError,
    Sign,
    Surface,
    SurgeryWord,
    WordSyntaxError,
    _parse_base,
    _parse_op,
    _word,
    beta,
    epsilon,
    fixed_data,
    format_word,
    normalize,
    op_table,
    orientability,
    parse_word,
    q_sign,
    reflection_ovals,
    rewrite_equivalences,
    spit_fixed_points,
    underlying_surface,
)


def w(text: str) -> SurgeryWord:
    return parse_word(text)


def test_beta_values():
    assert beta(w("S2a+2DCC+3S10AT+S11AT+2FM")) == 14
    assert beta(w("S22")) == 0
    # genus-3 spit with four fixed points, written through its surgery form
    assert beta(w("S22+S11AT+DT")) == beta(w("Tspit(3,4)")) == 6
    assert beta(w("Tspit(2,2)")) == 4


def test_fixed_data():
    assert fixed_data(w("S22+2FM")) == (0, 0, 2)
    assert fixed_data(w("S2a+2DCC+2S10AT")) == (0, 2, 0)
    assert fixed_data(w("Tspit(1,4)+S10AT+FM")) == (3, 1, 1)


def test_fm_needs_fixed_points():
    with pytest.raises(InvalidWordError):
        w("S2a+3FM")
    with pytest.raises(InvalidWordError):
        w("S21+FM")
    assert fixed_data(w("S2a+S11AT+2FM")) == (0, 0, 2)


def test_q_sign():
    assert q_sign(w("S2a+DCC")) == Sign.MINUS
    assert q_sign(w("Tspit(1,4)+2FM")) == Sign.PLUS
    assert q_sign(w("S21+2DCC+S10AT")) == Sign.MINUS
    assert q_sign(w("Tanti(3)")) == Sign.MINUS
    assert q_sign(w("Trot(3)")) == Sign.PLUS
    # an antipodal antitube adds a crosscap to the quotient
    assert q_sign(w("S22+S1aAT")) == Sign.MINUS
    with pytest.raises(InvalidWordError):
        q_sign(w("Triv(T2)"))


def test_orientability():
    assert orientability(w("S2a+S10AT"))  # torus
    assert not orientability(w("S22+S10AT"))  # Klein bottle
    assert not orientability(w("S2a+S11AT"))
    assert orientability(w("S2a+S1aAT"))  # the antipodal torus
    assert orientability(w("Tspit(2,6)"))
    assert not orientability(w("Trot(1)+2S10AT"))
    assert orientability(w("Triv(T3)")) and not orientability(w("Triv(N5)"))


def test_underlying_surface():
    assert underlying_surface(w("S2a+2DCC+3S10AT+S11AT+2FM")) == Surface(False, 14)
    assert underlying_surface(w("S22+DCC")) == Surface(False, 2)
    assert underlying_surface(w("Tanti(3)")) == Surface(True, 3)


def test_epsilon():
    assert epsilon(w("S21+2DCC+S10AT")) == Epsilon.SEPARATING
    assert epsilon(w("S2a+DCC+2S10AT")) == Epsilon.NON_SEPARATING
    assert epsilon(w("Trefl(4,3)")) == Epsilon.SEPARATING
    assert epsilon(w("S2a+3DCC")) == Epsilon.NO_FIXED_CIRCLES
    assert epsilon(w("Tspit(1,4)")) == Epsilon.NO_FIXED_CIRCLES
    assert epsilon(w("S22+2FM")) == Epsilon.NON_SEPARATING  # one-sided ovals


def test_parse_format_roundtrip():
    texts = [
        "S2a",
        "S2a+2DCC+3S10AT+S11AT+2FM",
        "Tspit(3,8)+FM",
        "Trefl(2,1)+2DT",
        "Triv(N14)",
        "Tanti(1)+DCC+S10AT",
        "S22+S1aAT",
    ]
    for t in texts:
        assert format_word(parse_word(t)) == t


def test_op_table_spells_each_count_as_format_word_does():
    table = op_table(12)
    assert [column[:3] for column in table[:2]] == [["", "+DCC", "+2DCC"], ["", "+DT", "+2DT"]]
    for slot, column in enumerate(table):
        assert len(column) == 13
        for count, text in enumerate(column):
            counts = tuple(count if i == slot else 0 for i in range(6))
            word = SurgeryWord(BaseSpace.tspit(11, 24), *counts)
            assert format_word(word) == "Tspit(11,24)" + text
            assert parse_word(format_word(word)) == word


def test_parse_accepts_any_op_order_and_merges():
    assert parse_word("S2a+S10AT+2DCC+S10AT") == parse_word("S2a+2DCC+2S10AT")


SYNTAX_ERRORS = ("", "S2b", "S2a+3XYZ", "Tspit(2)", "Triv(K3)", "S2a++DCC")
BASE_SYNTAX_ERRORS = ("Tanti(1,2)", "S2a(1)", "Tanti", "Trefl(3)", "S2a()", "Triv(3)", "Tanti(N3)")


def test_parse_errors():
    for bad in SYNTAX_ERRORS:
        with pytest.raises(WordSyntaxError):
            parse_word(bad)
    # each base takes exactly its declared parameters, each of its own kind
    for bad in BASE_SYNTAX_ERRORS:
        with pytest.raises(WordSyntaxError, match="bad base token"):
            parse_word(bad)


def test_parse_memo_keeps_no_failure():
    # a bad token fails on every parse, and so does a word that its own checks
    # (the FM bound) reject: no memo keeps a failure
    for _ in range(2):
        with pytest.raises(InvalidWordError):
            parse_word("Trot(2)")
        with pytest.raises(WordSyntaxError):
            parse_word("Tanti(x)")
        with pytest.raises(InvalidWordError):
            parse_word("S22+3FM")
    assert parse_word("S22+2FM") == SurgeryWord(BaseSpace.s22(), fm=2)


def test_parse_memo_is_bounded():
    for g in range(1, 301):
        assert parse_word(f"Tanti({g})").base == BaseSpace.tanti(g)
    # 5,000 distinct op tokens make 5,000 distinct words
    for k in range(5000):
        assert parse_word(f"S2a+{k}DCC").dcc == k
    ops, built = _parse_op.cache_info(), _word.cache_info()
    assert ops.maxsize == ops.currsize == 256 and ops.misses == 5000
    assert built.maxsize == built.currsize == 4096 and built.misses == 5300


_OPS = ("DCC", "DT", "S10AT", "S11AT", "S1aAT", "FM")
_REFERENCE_OP_RE = re.compile(rf"(\d*)({'|'.join(_OPS)})")


def reference_parse(text: str) -> SurgeryWord:
    """The parser without the op and word memos: the base token, then each op
    token in turn, then a new word."""
    parts = text.strip().split("+")
    if not parts or not parts[0]:
        raise WordSyntaxError(f"empty word {text!r}")
    base = _parse_base(parts[0].strip())
    counts = [0] * len(_OPS)
    for part in parts[1:]:
        m = _REFERENCE_OP_RE.fullmatch(part.strip())
        if not m:
            raise WordSyntaxError(f"bad operation token {part!r}")
        count, name = m.groups()
        counts[_OPS.index(name)] += int(count) if count else 1
    return SurgeryWord(base, *counts)


def _spellings(rng: random.Random, word: SurgeryWord):
    """Three seeded spellings of a word: its ops shuffled; each count split in
    two (a part may be 0 or 1, written bare or with its count); and the
    shuffled spelling with whitespace around every token."""
    ops = [(name, count) for name, count in zip(_OPS, word.op_counts) if count]
    rng.shuffle(ops)
    shuffled = [name if count == 1 else f"{count}{name}" for name, count in ops]
    split = []
    for name, count in ops:
        first = rng.randint(0, count)
        split += [f"{first}{name}", name if count - first == 1 else f"{count - first}{name}"]
    rng.shuffle(split)
    blanks = ("", " ", "\t", "  ", "\n ")
    spaced = [f"{rng.choice(blanks)}{token}{rng.choice(blanks)}" for token in (word.base.token(), *shuffled)]
    return ["+".join([word.base.token(), *shuffled]), "+".join([word.base.token(), *split]), "+".join(spaced)]


def test_parse_matches_the_reference_parser(query_universe):
    # every spelling of every query word parses as the reference parser reads
    # it, and all spellings of one word share the word built first
    rng = random.Random(14)
    for word in query_universe:
        texts = [format_word(word), *_spellings(rng, word)]
        parsed = [parse_word(text) for text in texts]
        for text, got in zip(texts, parsed):
            assert got == reference_parse(text) == word, text
            assert got is parsed[0], text
    info = _word.cache_info()
    assert info.misses == len(query_universe) == 2687
    assert info.hits == 3 * len(query_universe)


def _equal_with_equal_hash(built, word) -> None:
    assert built == word and hash(built) == hash(word), (built, word)
    assert {built: True}.get(word), (built, word)


def test_every_construction_path_gives_equal_hashes(query_universe):
    # a word's hash is cached at construction; every way of building a query
    # word (three parsed spellings, the constructor on a freshly built base,
    # `replace`) gives an equal word with an equal hash, and so do the normal
    # form and each enumerated word against their parsed text
    rng = random.Random(31)
    for word in query_universe:
        b = word.base
        fresh = SurgeryWord(BaseSpace(b.kind, b.g, b.f, b.c, b.surface), *word.op_counts)
        for built in (*[parse_word(text) for text in _spellings(rng, word)], fresh, replace(word)):
            _equal_with_equal_hash(built, word)
        if not word.is_trivial():
            _equal_with_equal_hash(replace(fresh, dcc=word.dcc + 1), replace(word, dcc=word.dcc + 1))
        normal = normalize(word)
        _equal_with_equal_hash(parse_word(format_word(normal)), normal)
        _equal_with_equal_hash(normalize(fresh), normal)
    assert len({hash(word) for word in query_universe}) == len(query_universe)
    surfaces = [Surface(False, r) for r in range(1, 13)] + [Surface(True, g) for g in range(7)]
    for surface in surfaces:
        for action in iter_actions(surface):
            _equal_with_equal_hash(parse_word(format_word(action.word)), action.word)


def test_cached_hash_is_in_no_repr_or_match_args():
    word = parse_word("Tspit(2,2)+DCC+S11AT")
    assert "_hash" not in repr(word.base) and "_hash" not in repr(word)
    assert BaseSpace.__match_args__ == ("kind", "g", "f", "c", "surface")
    assert SurgeryWord.__match_args__ == ("base", "dcc", "dt", "s10at", "s11at", "s1aat", "fm")


# Pickle the words parsed from stdin, with the hash of a str under this seed.
_PICKLE_WORDS = (
    "import pickle, sys; from c2surf.words import parse_word; "
    "texts = sys.stdin.read().split(); "
    "sys.stdout.buffer.write(pickle.dumps((hash('Tspit'), [parse_word(t) for t in texts])))"
)
# Load them and print: whether the str hash differs here, how many words came,
# how many miss their freshly parsed twin by hash or in a set.
_CHECK_PICKLED = (
    "import pickle, sys; from c2surf.words import format_word, parse_word; "
    "seen, loaded = pickle.loads(sys.stdin.buffer.read()); "
    "bad = [w for w in loaded if hash(w) != hash(parse_word(format_word(w))) or w not in {parse_word(format_word(w))}]; "
    "print(seen != hash('Tspit'), len(loaded), len(bad))"
)


def _run_under_seed(seed: str, code: str, stdin: bytes) -> bytes:
    src = str(pathlib.Path(words.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], input=stdin, env=env, capture_output=True, check=True).stdout


def test_pickled_word_hashes_like_a_fresh_one(query_universe):
    # the hash is built from ints only, so a word pickled under one hash seed
    # still finds its fresh twin in a dict under another (a hash built from
    # the kind's token, a str, would not); the str hashes show the seeds differ
    texts = "\n".join(format_word(word) for word in query_universe).encode()
    dumped = _run_under_seed("1", _PICKLE_WORDS, texts)
    assert _run_under_seed("2", _CHECK_PICKLED, dumped).split() == [b"True", b"2687", b"0"]


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_parse_errors_match_the_reference_parser():
    # the same exception, type and message, as the reference parser, on every
    # parse: the base is reported before a bad op, a bad op before a bad count
    failing = SYNTAX_ERRORS + BASE_SYNTAX_ERRORS + (
        "Trot(2)", "Tspit(0,4)", "Trefl(2,2)", "S22+3FM", "S21+FM", "Triv(T2)+DCC", "  +DCC", "S2a+DCC+",
        "S2a+2 DCC", "S2a+-1DCC", "Tanti(x)+XYZ", "Trot(2)+XYZ", "S2b+DCC+3FM", "S22+3FM+XYZ", "S2a+DCC+XYZ+ABC",
    )
    for text in failing:
        expected = _outcome(reference_parse, text)
        assert isinstance(expected, tuple), text
        for _ in range(3):
            assert _outcome(parse_word, text) == expected, text
    assert _outcome(parse_word, "Tanti(x)+XYZ") == (WordSyntaxError, "bad base token 'Tanti(x)'")
    assert _outcome(parse_word, "Trot(2)+XYZ") == (InvalidWordError, "rotation bases need odd genus")
    assert _outcome(parse_word, "S22+3FM+XYZ") == (WordSyntaxError, "bad operation token 'XYZ'")


def test_spit_and_reflection_parameters_round_trip():
    # every admissible Tspit(g,F) and Trefl(g,C) prints as it was written;
    # every other parameter is rejected
    for g in range(1, 7):
        spits = [f for f in range(2, 2 * g + 3) if (f - 2 - 2 * g) % 4 == 0]
        ovals = [c for c in range(1, g + 2) if (c - g - 1) % 2 == 0]
        assert sorted(spit_fixed_points(g)) == spits
        assert sorted(reflection_ovals(g)) == ovals
        for kind, admissible in (("Tspit", spits), ("Trefl", ovals)):
            for x in range(2 * g + 5):
                text = f"{kind}({g},{x})"
                if x in admissible:
                    assert format_word(parse_word(text)) == text
                else:
                    with pytest.raises(InvalidWordError):
                        parse_word(text)


def test_base_constraints():
    with pytest.raises(InvalidWordError):
        BaseSpace.tspit(2, 4)  # F = 4 is not congruent to 2+2g = 6 mod 4
    with pytest.raises(InvalidWordError):
        BaseSpace.trefl(2, 2)  # C = 2 is not congruent to g+1 = 3 mod 2
    with pytest.raises(InvalidWordError):
        BaseSpace.trot(2)
    with pytest.raises(InvalidWordError):
        parse_word("Triv(T2)+DCC")
    # genus-zero coincidences normalize to the sphere bases
    assert BaseSpace.tanti(0) == BaseSpace.s2a()
    assert BaseSpace.tspit(0, 2) == BaseSpace.s22()
    assert BaseSpace.trefl(0, 1) == BaseSpace.s21()
    assert [format_word(parse_word(t)) for t in ("Tanti(0)", "Tspit(0,2)", "Trefl(0,1)")] == [
        "S2a",
        "S22",
        "S21",
    ]


@pytest.mark.parametrize(
    "kind, params",
    [
        (BaseKind.T_ANTI, {"f": 3}),
        (BaseKind.T_ANTI, {"g": 1, "c": 2}),
        (BaseKind.T_ROT, {"g": 1, "f": 2}),
        (BaseKind.T_SPIT, {"g": 1, "f": 4, "c": 1}),
        (BaseKind.T_REFL, {"g": 1, "c": 2, "f": 2}),
        (BaseKind.T_REFL, {"c": 1, "surface": Surface(True, 0)}),
        (BaseKind.TRIVIAL, {"surface": Surface(True, 1), "g": 1}),
    ],
    ids=lambda v: v.name if isinstance(v, BaseKind) else ",".join(v),
)
def test_bases_take_only_their_declared_parameters(kind, params):
    extra = next(p for p in ("g", "f", "c", "surface") if p in params and p not in kind.params)
    with pytest.raises(InvalidWordError, match=rf"^{kind.token} takes no parameter {extra}$"):
        BaseSpace(kind, **params)


def test_negative_genus_and_counts_are_rejected():
    for make in (lambda: BaseSpace.tanti(-1), lambda: BaseSpace.trot(-1), lambda: BaseSpace.tspit(-1, 0)):
        with pytest.raises(InvalidWordError, match=r"^negative genus g=-1$"):
            make()
    for slot in range(6):
        counts = [0] * 6
        counts[slot] = -1
        with pytest.raises(InvalidWordError, match=r"^negative operation count$"):
            SurgeryWord(BaseSpace.s22(), *counts)


def test_op_deltas_are_additive():
    base = w("S2a+S11AT")
    plus_dcc = w("S2a+DCC+S11AT")
    assert beta(plus_dcc) == beta(base) + 2
    assert fixed_data(plus_dcc) == fixed_data(base)
    plus_fm = w("S2a+S11AT+FM")
    f, cp, cm = fixed_data(base)
    assert fixed_data(plus_fm) == (f - 1, cp, cm + 1)
    assert beta(plus_fm) == beta(base) + 1
    plus_tube = w("S2a+S11AT+S10AT")
    assert fixed_data(plus_tube) == (f, cp + 1, cm)
    assert beta(plus_tube) == beta(base) + 2


def scherrer_data(word):
    f, cp, cm = fixed_data(word)
    c = cp + cm
    return (f + 2 * c - beta(word), q_sign(word), (f - cm) % 2)


def test_rewrites_preserve_invariants_and_merge():
    checked = 0
    for rule in rewrite_equivalences():
        for u, v in rule(20):
            assert beta(u) == beta(v), rule.__name__
            assert fixed_data(u) == fixed_data(v), rule.__name__
            assert q_sign(u) == q_sign(v), rule.__name__
            assert orientability(u) == orientability(v), rule.__name__
            assert epsilon(u) == epsilon(v), rule.__name__
            assert scherrer_data(u) == scherrer_data(v), rule.__name__
            assert normalize(u) == normalize(v), (rule.__name__, u, v)
            checked += 1
    assert checked > 150


def test_normalize_idempotent():
    samples = [
        "S22+3DCC",
        "Tanti(2)+S11AT",
        "Tanti(4)+2DCC",
        "Trot(3)+DCC+S10AT",
        "Tspit(2,6)+DCC",
        "Trefl(3,2)+2DCC",
        "S22+2S11AT+DT",
        "S21+2S10AT+DT",
        "S2a+2S1aAT",
        "S22+S1aAT+DT",
    ]
    for t in samples:
        n1 = normalize(w(t))
        assert normalize(n1) == n1


def test_normalize_examples():
    assert normalize(w("S22+3DCC")) == normalize(w("S2a+2DCC+S11AT"))
    assert normalize(w("Tanti(2)+S11AT")) == normalize(w("S2a+2DCC+S11AT"))
    assert normalize(w("S22+DCC")) == w("S2a+S11AT")
    assert normalize(w("S2a+S1aAT")) == w("Tanti(1)")
    assert normalize(w("Trot(1)+S11AT")) == w("Tspit(2,2)")
    assert normalize(w("S21+2S10AT")) == w("Trefl(2,3)")
    assert normalize(w("Tspit(1,4)+DCC")) == w("S2a+2S11AT")


def test_normalize_keeps_invariants():
    samples = [
        "S22+3DCC+2S10AT",
        "Tanti(3)+2DCC+S10AT",
        "Trot(5)+DCC",
        "Tspit(3,4)+2DCC+FM",
        "Trefl(2,3)+4DCC",
        "S2a+S1aAT+2S10AT",
    ]
    for t in samples:
        u = w(t)
        v = normalize(u)
        assert beta(u) == beta(v)
        assert fixed_data(u) == fixed_data(v)
        assert q_sign(u) == q_sign(v)
        assert orientability(u) == orientability(v)
        assert epsilon(u) == epsilon(v)


_BASES = st.sampled_from(
    [
        BaseSpace.s2a(),
        BaseSpace.s21(),
        BaseSpace.s22(),
        BaseSpace.tanti(1),
        BaseSpace.tanti(2),
        BaseSpace.tanti(3),
        BaseSpace.trot(1),
        BaseSpace.trot(3),
        BaseSpace.tspit(1, 4),
        BaseSpace.tspit(2, 2),
        BaseSpace.tspit(2, 6),
        BaseSpace.trefl(1, 2),
        BaseSpace.trefl(2, 1),
        BaseSpace.trefl(2, 3),
    ]
)
_COUNTS = st.integers(0, 3)


@settings(max_examples=400, deadline=None)
@given(_BASES, _COUNTS, _COUNTS, _COUNTS, _COUNTS, _COUNTS, _COUNTS)
def test_normalize_random_words(base, dcc, dt, s10at, s11at, s1aat, fm):
    try:
        u = SurgeryWord(base, dcc=dcc, dt=dt, s10at=s10at, s11at=s11at, s1aat=s1aat, fm=fm)
    except InvalidWordError:
        return
    v = normalize(u)
    assert normalize(v) == v
    assert beta(u) == beta(v)
    assert fixed_data(u) == fixed_data(v)
    assert q_sign(u) == q_sign(v)
    assert orientability(u) == orientability(v)
    assert epsilon(u) == epsilon(v)
