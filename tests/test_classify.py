import io
import itertools
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import fields

import h1_model
import pytest

from c2surf import classify, cli, words
from c2surf.classify import (
    Action,
    Taxonomy,
    class_groups,
    count_actions,
    decide_isomorphic,
    identity_dd,
    iter_actions,
    scherrer_admissible,
    taxonomy_cells,
)
from c2surf.counting import total_count
from c2surf.dd import DDTuple, dd_direct_sum
from c2surf.orbits import characteristic_class, classify_free_structures, content, covers_of, orbit_census
from c2surf.words import (
    BaseKind,
    BaseSpace,
    Epsilon,
    InvalidWordError,
    Sign,
    Surface,
    SurgeryWord,
    fixed_data,
    format_word,
    normalize,
    parse_word,
    q_sign,
    reflection_ovals,
    spit_fixed_points,
    underlying_surface,
)


def act(text: str) -> Action:
    return Action.from_word(parse_word(text))


def actions_on(name: str, include_trivial: bool = True) -> list:
    return list(iter_actions(Surface.parse(name), include_trivial))


def test_scherrer_admissible():
    assert scherrer_admissible(Taxonomy(1, 0, 1, Sign.PLUS), 1)
    assert scherrer_admissible(Taxonomy(4, 0, 0), 2)  # admissible but unrealized
    assert not scherrer_admissible(Taxonomy(1, 0, 0), 2)  # parity
    assert not scherrer_admissible(Taxonomy(2, 1, 0, Sign.MINUS), 2)  # tightened bound
    assert scherrer_admissible(Taxonomy(2, 1, 0, Sign.PLUS), 2)
    assert not scherrer_admissible(Taxonomy(2, 2, 0), 2)  # F + 2C <= beta + 2


def test_enumerate_sphere():
    actions = actions_on("T0")
    assert len(actions) == 4
    by_word = {format_word(a.word): a for a in actions}
    assert by_word["S22"].taxonomy == Taxonomy(2, 0, 0, Sign.PLUS)
    assert by_word["S21"].taxonomy == Taxonomy(0, 1, 0, Sign.PLUS)
    assert by_word["S2a"].taxonomy == Taxonomy(0, 0, 0, Sign.MINUS)
    assert by_word["Triv(T0)"].is_trivial()


def test_enumerate_torus_counts():
    for g in range(0, 40):
        torus = Surface(True, g)
        n = len(list(iter_actions(torus)))
        assert n == 4 + 2 * g
        assert count_actions(torus) == total_count(torus) == n
        assert count_actions(torus, include_trivial=False) == n - 1


def test_torus_classes_meet_weichold_and_riemann_hurwitz():
    # a check from outside the table: T_g has floor((3g + 4) / 2) classes
    # that reverse orientation (Weichold, 1883) and, by Riemann-Hurwitz,
    # floor((g + 1) / 2) + 1 nontrivial ones that preserve it
    for g in range(200):
        preserving = Counter(a.word.base.kind.preserves_orientation for a in iter_actions(Surface(True, g), False))
        assert preserving == {False: (3 * g + 4) // 2, True: (g + 1) // 2 + 1}, g


def test_enumerate_torus_g0_matches_sphere():
    words_t0 = {format_word(a.word) for a in actions_on("T0")}
    assert words_t0 == {"Triv(T0)", "S2a", "S21", "S22"}


def test_enumerate_torus_g1():
    actions = actions_on("T1")
    assert len(actions) == 6
    words = {format_word(a.word) for a in actions}
    assert words == {
        "Triv(T1)",
        "Tanti(1)",
        "Trot(1)",
        "Tspit(1,4)",
        "Trefl(1,2)",
        "S2a+S10AT",
    }
    no_rot = {format_word(a.word) for a in actions_on("T2")}
    assert not any(w.startswith("Trot") for w in no_rot)


def test_enumerate_nonorientable_counts():
    for r in range(1, 61):
        surface = Surface(False, r)
        actions = list(iter_actions(surface))
        assert len(actions) == total_count(surface)
        assert count_actions(surface) == len(actions)
        assert count_actions(surface, include_trivial=False) == len(actions) - 1


def _fmt_dd(a: Action) -> str:
    return ",".join(map(str, a.dd.as_tuple()))


def _expected_lines(a: Action):
    """The record line and the plain line of an action, written out from its
    fields, with its word spelled once for both."""
    tax, word, dd = a.taxonomy, format_word(a.word), _fmt_dd(a)
    fields = {
        "surface": a.surface.name,
        "word": word,
        "F": tax.f if tax else "NA",
        "C": tax.c if tax else "NA",
        "C+": tax.cplus if tax else "NA",
        "C-": tax.cminus if tax else "NA",
        "Q": tax.q.value if tax else "NA",
        "eps": a.epsilon.value if a.epsilon else "NA",
        "dd": dd,
    }
    record = " ".join(f"{key}={value}" for key, value in fields.items())
    # the plain line: surface, signed taxonomy, eps, DD, word
    signed = repr(tax) if tax else "trivial"
    eps = a.epsilon.value if a.epsilon else "-"
    return record, f"{a.surface.name} {signed} eps={eps} dd={dd} {word}"


def _enumerate_lines(surface: str, fmt: str):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["enumerate", surface, "--format", fmt, "--include-trivial"]) == 0
    return out.getvalue().splitlines()


def test_cell_built_actions_equal_word_built():
    # the cell rules state each class's surface, invariants and DD, and the
    # record and plain lines the CLI prints from them; re-deriving all of it
    # from the word alone is the oracle, one `from_word` per class
    names = [f"N{r}" for r in list(range(1, 61)) + [120, 200]] + [f"T{g}" for g in range(41)]
    for name in names:
        actions = actions_on(name)
        records, plain = _enumerate_lines(name, "record"), _enumerate_lines(name, "table")
        assert len(records) == len(plain) == len(actions), name
        for a, record, line in zip(actions, records, plain):
            fresh = Action.from_word(parse_word(record.split(" ", 2)[1].removeprefix("word=")))
            assert fresh == a, record
            assert (record, line) == _expected_lines(fresh)


def test_count_walk_matches_closed_form():
    for r in range(1, 401):
        assert count_actions(Surface(False, r)) == total_count(Surface(False, r)), r


def test_nonorientable_small_contents():
    n1 = actions_on("N1", include_trivial=False)
    assert [format_word(a.word) for a in n1] == ["S22+FM"]
    assert n1[0].taxonomy == Taxonomy(1, 0, 1, Sign.PLUS)
    n2 = actions_on("N2", include_trivial=False)
    assert len(n2) == 5
    n4_row = [
        a
        for a in actions_on("N4", include_trivial=False)
        if (a.taxonomy.f, a.taxonomy.cplus, a.taxonomy.cminus) == (0, 1, 0)
    ]
    assert len(n4_row) == 3
    signs = [a.taxonomy.q for a in n4_row]
    assert signs.count(Sign.MINUS) == 2 and signs.count(Sign.PLUS) == 1


def test_actions_satisfy_structure():
    # a fixed set consisting of exactly one point never occurs (the RP^2
    # action has F = 1 but also a one-sided oval)
    for r in range(1, 40):
        for a in actions_on(f"N{r}", include_trivial=False):
            assert a.surface == Surface(False, r)
            assert scherrer_admissible(a.taxonomy, r)
            assert not (a.taxonomy.f == 1 and a.taxonomy.c == 0)
    for g in range(0, 20):
        for a in actions_on(f"T{g}", include_trivial=False):
            assert a.surface == Surface(True, g)
            assert scherrer_admissible(a.taxonomy, 2 * g)
            assert not (a.taxonomy.f == 1 and a.taxonomy.c == 0)
            assert not (a.taxonomy.f > 0 and a.taxonomy.c > 0)
            assert a.taxonomy.cminus == 0


def test_taxonomy_multiplicities():
    # the only repeated signed taxonomies are [0,C:(C,0),-] on even N_r
    for r in range(1, 41):
        per_signed = {}
        for a in actions_on(f"N{r}", include_trivial=False):
            key = a.taxonomy
            per_signed[key] = per_signed.get(key, 0) + 1
        for tax, count in per_signed.items():
            if count == 1:
                continue
            assert r % 2 == 0 and r >= 4
            assert tax.f == 0 and tax.cminus == 0 and tax.q == Sign.MINUS
            c = tax.c
            if c == 0 or c == r // 2 - 1:
                assert count == 2
            elif 1 <= c <= r // 2 - 2:
                assert count == 3
            else:
                raise AssertionError((r, tax, count))


def test_duplicate_free():
    for r in range(1, 25):
        actions = actions_on(f"N{r}", include_trivial=False)
        for i, a in enumerate(actions):
            for b in actions[i + 1 :]:
                assert not decide_isomorphic(a, b), (a, b)
    for g in range(0, 12):
        actions = actions_on(f"T{g}", include_trivial=False)
        for i, a in enumerate(actions):
            for b in actions[i + 1 :]:
                assert not decide_isomorphic(a, b), (a, b)


def test_identity_dd():
    assert identity_dd(Surface(True, 3)) == DDTuple(0, 0, 0, 0)
    assert identity_dd(Surface(False, 4)) == DDTuple(0, 1, 1, 0)
    # cross-check against the actual dd of the identity isometry
    from c2surf.bilinear import Involution, standard_space
    from c2surf.dd import dd
    from c2surf.f2 import F2Matrix

    for kind, n, surf in (
        ("symplectic", 4, Surface(True, 2)),
        ("orthogonal", 4, Surface(False, 4)),
        ("orthogonal", 5, Surface(False, 5)),
    ):
        assert identity_dd(surf) == dd(Involution(standard_space(kind, n), F2Matrix.identity(n)))


def test_dd_of_word_klein_and_torus():
    assert act("S2a+DCC").dd == DDTuple(1, 0, 0, 1)
    assert act("S21+DCC").dd == DDTuple(1, 0, 0, 1)
    assert act("S2a+S11AT").dd == DDTuple(1, 0, 0, 1)
    assert act("S22+S10AT").dd == DDTuple(0, 1, 1, 0)
    assert act("S22+2FM").dd == DDTuple(0, 1, 1, 0)
    assert act("Triv(N2)").dd == DDTuple(0, 1, 1, 0)
    # S22+DCC is isomorphic to S2a+S11AT and must agree
    assert act("S22+DCC").dd == DDTuple(1, 0, 0, 1)
    for text in ("Tanti(1)", "Trot(1)", "Tspit(1,4)", "Trefl(1,2)", "Triv(T1)"):
        assert act(text).dd == DDTuple(0, 0, 0, 0)
    assert act("S2a+S10AT").dd == DDTuple(1, 1, 1, 1)
    assert act("S2a+3S10AT").dd == DDTuple(1, 1, 1, 1)
    assert act("Tanti(1)+2S10AT").dd == DDTuple(2, 1, 2, 1)


def _small_words():
    """Every grammar-valid word on the bases of beta <= 2 with each op count <= 3."""
    bases = (
        BaseSpace.s2a(),
        BaseSpace.s21(),
        BaseSpace.s22(),
        BaseSpace.tanti(1),
        BaseSpace.trot(1),
        BaseSpace.tspit(1, 4),
        BaseSpace.trefl(1, 2),
    )
    for base in bases:
        for counts in itertools.product(range(4), repeat=6):
            try:
                yield SurgeryWord(base, *counts)
            except InvalidWordError:
                continue


def test_dd_of_word_on_t1_follows_the_signed_taxonomy():
    # the signed taxonomy is complete on T_1: every word there gets the DD of
    # the enumerated class with the same taxonomy
    by_taxonomy = {a.taxonomy: a.dd for a in actions_on("T1", include_trivial=False)}
    checked = 0
    for w in _small_words():
        if underlying_surface(w) == Surface(True, 1):
            a = Action.from_word(w)
            assert a.dd == by_taxonomy[a.taxonomy], format_word(w)
            checked += 1
    assert checked == 9
    a, b = act("S21+S1aAT"), act("S2a+S10AT")
    assert decide_isomorphic(a, b)
    assert a.dd == b.dd == DDTuple(1, 1, 1, 1)


def test_dd_of_word_on_the_klein_bottle_follows_the_signed_taxonomy():
    # the five nontrivial classes on N_2 have five signed taxonomies, so every
    # Klein-bottle word of the grammar gets the DD of its enumerated class
    by_taxonomy = {a.taxonomy: a.dd for a in actions_on("N2", include_trivial=False)}
    assert len(by_taxonomy) == 5 and None not in by_taxonomy.values()
    klein = [w for w in _words_up_to(2) if not w.is_trivial() and underlying_surface(w) == Surface(False, 2)]
    for w in klein:
        a = Action.from_word(w)
        assert a.dd == by_taxonomy[a.taxonomy], format_word(w)
    assert len(klein) == 8
    assert act("S21+S11AT").dd == act("S22+S10AT").dd == DDTuple(0, 1, 1, 0)


def test_dd_of_word_crosscapped_families():
    assert act("S2a+2DCC+S10AT").dd == DDTuple(3, 1, 3, 1)
    assert act("Tanti(1)+DCC+S10AT").dd == DDTuple(3, 1, 2, 1)
    assert act("Trefl(1,2)").dd == DDTuple(0, 0, 0, 0)
    assert act("S22+2S10AT").dd == DDTuple(0, 1, 1, 0)


# The reference's own DD values, stated here and not read from `classify`:
# the tube block of S2a and of Tanti(1), and the Klein-bottle classes outside
# the crosscap families (S2a+S11AT, S22+S10AT and S22+2FM) by signed taxonomy.
_TUBE_BLOCKS = (DDTuple(1, 1, 1, 1), DDTuple(2, 1, 2, 1))
_KLEIN_BOTTLE_DD = {
    Taxonomy(2, 0, 0, Sign.MINUS): DDTuple(1, 0, 0, 1),
    Taxonomy(2, 1, 0, Sign.PLUS): DDTuple(0, 1, 1, 0),
    Taxonomy(0, 0, 2, Sign.PLUS): DDTuple(0, 1, 1, 0),
}


def _normalize_first_dd(w: SurgeryWord):
    """DD of a nontrivial word with the rewrite first: a crosscap family's tube
    block plus its DCC swaps through `dd_direct_sum` (which `test_dd` checks
    against brute force), or the Klein-bottle value of the normal form's
    signed taxonomy; None where neither covers the normal form."""
    n = normalize(w)
    plain = not (n.dt or n.s11at or n.s1aat or n.fm)
    if plain and (
        (n.base.kind == BaseKind.T_ANTI and n.base.g <= 1)
        or (n.base == BaseSpace.s21() and n.s10at == 0)
    ):
        block = _TUBE_BLOCKS[n.base.g] if n.s10at else DDTuple(0, 0, 0, 0)
        return dd_direct_sum(block, n.dcc) if n.dcc else block
    if underlying_surface(w) == Surface(False, 2):
        return _KLEIN_BOTTLE_DD.get(Taxonomy(*fixed_data(n), q_sign(n)))
    return None


def test_dd_gate_loses_no_derived_value():
    # the lookup gives every DD that rewriting a word first derives, on the
    # small words and on every class word that `enumerate` prints
    names = [f"N{r}" for r in range(1, 61)] + [f"T{g}" for g in range(41)]
    class_words = [a.word for name in names for a in actions_on(name, include_trivial=False)]
    counts = []
    for ws in (_small_words(), class_words):
        checked = covered = 0
        for w in ws:
            want = _normalize_first_dd(w)
            assert want is None or Action.from_word(w).dd == want, format_word(w)
            checked += 1
            covered += want is not None
        counts.append((checked, covered))
    assert counts == [(23_296, 223), (72_353, 1_015)]


def test_every_derived_dd_meets_the_smith_equality():
    # dim H*(X^s; Z/2) = F + 2C meets the Smith bound beta + 2 - 2D on every
    # class with a fixed point (Bredon, ch. VII); a free class has
    # D = beta/2 - 1 + b; and D = 0 only for s* = id, whose DD is the identity's
    names = [f"N{r}" for r in range(1, 61)] + [f"T{g}" for g in range(41)]
    derived = identity = 0
    for name in names:
        surf = Surface.parse(name)
        for a in actions_on(name, include_trivial=False):
            t, b = a.taxonomy, surf.beta
            if t.f or t.c:
                assert 2 * a.dd.d == b + 2 - t.f - 2 * t.c, a
            else:
                assert 2 * a.dd.d == b - 2 + 2 * classify._tube_bit(a.word), a
            if a.dd.d == 0:
                assert a.dd == identity_dd(surf), a
                identity += 1
            derived += 1
    assert (derived, identity) == (72_353, 5_750)


def test_tube_bit_is_the_content_of_the_characteristic_class():
    # on the free words of the cell [0,0:(0,0),-] on N_r, the bit that picks a
    # word's class is the orbit (A1 or A2) of its double-cover class
    bases = [BaseSpace.s2a()] + [BaseSpace.tanti(g) for g in range(1, 20)] + [BaseSpace.trot(g) for g in range(1, 20, 2)]
    checked = 0
    for base in bases:
        for s in range(1, 21 - base.g):
            w = SurgeryWord(base, dcc=s)
            surf = underlying_surface(w)
            assert not surf.orientable and surf.beta <= 40
            assert Taxonomy(*fixed_data(w), q_sign(w)) == Taxonomy(0, 0, 0, Sign.MINUS)
            assert classify._tube_bit(w) == content(characteristic_class(w)[0]), format_word(w)
            checked += 1
    assert checked == 20 + 190 + 100


def _key(a: Action):
    return a.taxonomy, a.epsilon, a.dd


def _words_on_no_single_class(max_beta: int):
    """The nontrivial words with beta <= max_beta whose key (signed taxonomy,
    ε and DD, on its surface) is that of no class, or of several, that
    `iter_actions` yields on the surface; and how many words were checked."""
    keys, off, checked = {}, [], 0
    for w in _words_up_to(max_beta):
        if w.is_trivial():
            continue
        a = Action.from_word(w)
        if a.surface not in keys:
            keys[a.surface] = Counter(map(_key, iter_actions(a.surface, include_trivial=False)))
        if keys[a.surface][_key(a)] != 1:
            off.append(format_word(w))
        checked += 1
    return off, checked


def test_every_word_lands_on_exactly_one_class():
    # a word's DD is the closed form of its key, with no rule looked up; so
    # every word's key must be the key of exactly one enumerated class
    assert _words_on_no_single_class(12) == ([], 4_237)


def test_a_wrong_tube_bit_lands_a_word_on_no_class(monkeypatch):
    # the check above sees a wrong bit: with b = 0 on every word,
    # S2a+DCC+S10AT gets [2,1,2,1], and its cell [0,1:(1,0),-] on N_4 has
    # no class with that DD
    monkeypatch.setattr(classify, "_tube_bit", lambda w: 0)
    off, _ = _words_on_no_single_class(12)
    assert "S2a+DCC+S10AT" in off


def test_closed_form_equals_the_h1_model():
    # the DD of every nontrivial word, from the closed form of its key, is
    # the DD of s* on H_1 that the model builds surgery by surgery
    nontrivial = [w for w in _words_up_to(12) if not w.is_trivial()]
    assert [format_word(w) for w in nontrivial if h1_model.model_dd(w) != Action.from_word(w).dd] == []
    assert len(nontrivial) == 4_237


def test_h1_model_does_not_depend_on_the_order():
    # the surgeries commute: three seeded shuffles of each word's surgeries,
    # its base's expansion included, give the DD of the word order
    rng, checks = random.Random(31), 0
    for w in _words_up_to(10):
        if w.is_trivial():
            continue
        want = h1_model.model_dd(w)
        for _ in range(3):
            assert h1_model.model_dd(w, rng) == want, format_word(w)
            checks += 1
    assert checks == 5_787


def test_from_word_never_rewrites(monkeypatch, query_universe):
    # every invariant of a word, DD included, is read off the word and its
    # class's rule; the rewriting system is the oracle of `verify rewrites`
    def refuse(w):
        raise AssertionError(f"normalize({format_word(w)}) on the word path")

    monkeypatch.setattr(words, "normalize", refuse)
    for w in itertools.chain(_small_words(), query_universe):
        Action.from_word(w)


def _words_up_to(max_beta: int):
    """Every grammar-valid word with beta <= max_beta."""
    for g in range(max_beta // 2 + 1):
        yield SurgeryWord(BaseSpace.trivial(Surface(True, g)))
    for r in range(1, max_beta + 1):
        yield SurgeryWord(BaseSpace.trivial(Surface(False, r)))
    bases = [BaseSpace.s2a(), BaseSpace.s21(), BaseSpace.s22()]
    for g in range(1, max_beta // 2 + 1):
        bases += [BaseSpace.tanti(g)] + ([BaseSpace.trot(g)] if g % 2 else [])
        bases += [BaseSpace.tspit(g, f) for f in spit_fixed_points(g)]
        bases += [BaseSpace.trefl(g, c) for c in reflection_ovals(g)]
    for base in bases:
        room = max_beta - base.beta
        for dcc, s10at, s11at, s1aat in itertools.product(range(room // 2 + 1), repeat=4):
            left = room - 2 * (dcc + s10at + s11at + s1aat)
            for dt in range(left // 4 + 1 if left >= 0 else 0):
                for fm in range(min(left - 4 * dt, base.f + 2 * s11at) + 1):
                    yield SurgeryWord(base, dcc, dt, s10at, s11at, s1aat, fm)


def _split_spelling(w: SurgeryWord) -> str:
    """The word's text with each operation written once per count, last op first."""
    names = ("DCC", "DT", "S10AT", "S11AT", "S1aAT", "FM")
    ops = [name for name, count in zip(names, w.op_counts) for _ in range(count)]
    return "+".join([w.base.text, *reversed(ops)])


def test_from_word_memo_equals_the_derivation():
    # the memo is an exact stand-in: every spelling of a word gets the action
    # the uncached derivation gives, field by field, and the second spelling
    # is served from the memo
    derive = Action.from_word.__wrapped__
    words_seen = 0
    for w in _words_up_to(8):
        fresh = derive(Action, w)
        for text in (format_word(w), _split_spelling(w)):
            served = Action.from_word(parse_word(text))
            for field in fields(Action):
                assert getattr(served, field.name) == getattr(fresh, field.name), (text, field.name)
        words_seen += 1
    info = Action.from_word.cache_info()
    assert info.hits == info.misses == words_seen


def test_from_word_memo_is_bounded():
    for a in actions_on("N60", include_trivial=False):
        Action.from_word(a.word)
    info = Action.from_word.cache_info()
    assert info.misses > 4096
    assert info.maxsize == info.currsize == 4096


def test_action_is_trivial_agrees_with_the_word(query_universe):
    # an action answers from its own taxonomy, which only the trivial action lacks
    for name in [f"T{g}" for g in range(9)] + [f"N{r}" for r in range(1, 21)]:
        for a in actions_on(name):
            assert a.is_trivial() == a.word.is_trivial(), a
    # the messages above print an action as its word and surface
    assert repr(act("S2a+DCC")) == "Action(S2a+DCC on N2)"
    trivial = 0
    for w in query_universe:
        assert Action.from_word(w).is_trivial() == w.is_trivial(), w
        trivial += w.is_trivial()
    assert trivial == 19


def test_dd_separates_the_free_base_families():
    for r in (6, 8, 10, 12):
        for c in range(1, r // 2 - 1):
            a = act(f"S2a+{r//2 - c}DCC+{c}S10AT").dd
            b = act(f"Tanti(1)+{r//2 - c - 1}DCC+{c}S10AT").dd
            assert a is not None and b is not None
            assert a.d == b.d and a.alpha == b.alpha and a.alpha_tilde == b.alpha_tilde
            assert abs(a.d_tilde - b.d_tilde) == 1


def test_decide_isomorphic():
    # same taxonomy with F > 0: the duplicate Klein-bottle descriptions agree
    assert decide_isomorphic(act("S22+DCC"), act("S2a+S11AT"))
    assert decide_isomorphic(act("S21+S11AT"), act("S22+S10AT"))
    # separation distinguishes, and two separating actions agree
    assert not decide_isomorphic(act("S2a+DCC+2S10AT"), act("S21+2DCC+S10AT"))
    assert decide_isomorphic(act("Trefl(1,2)+DCC"), act("S21+DCC+S10AT"))
    # DD distinguishes
    assert not decide_isomorphic(act("S2a+2DCC+S10AT"), act("Tanti(1)+DCC+S10AT"))
    # free actions on N_6
    assert not decide_isomorphic(act("S2a+3DCC"), act("Tanti(1)+2DCC"))
    assert decide_isomorphic(act("S2a+3DCC"), act("S2a+3DCC"))
    # different surfaces
    assert not decide_isomorphic(act("S2a+DCC"), act("S2a+2DCC"))
    # trivial only matches trivial
    assert decide_isomorphic(act("Triv(N2)"), act("Triv(N2)"))
    assert not decide_isomorphic(act("Triv(N2)"), act("S2a+DCC"))


def test_decide_isomorphic_rewrite_aliases():
    # the same space written two ways: normalization maps both to one word,
    # and the decision procedure sees equal invariants
    assert decide_isomorphic(act("Tanti(2)+DCC"), act("S2a+3DCC"))
    assert decide_isomorphic(act("Trot(1)+2DCC"), act("Tanti(1)+2DCC"))


def _reference_decide(a: Action, b: Action) -> bool:
    """The three-stage decision procedure on dataclass equality: surfaces,
    then signed taxonomies, then, in the one signed taxonomy that several
    classes share ([0,C:(C,0),-] on N_r), separation and then DD."""
    if a.surface != b.surface:
        return False
    if a.is_trivial() or b.is_trivial():
        return a.is_trivial() and b.is_trivial()
    if a.taxonomy != b.taxonomy:
        return False
    t = a.taxonomy
    if a.surface.orientable or not (t.f == 0 and t.cminus == 0 and t.q == Sign.MINUS):
        return True
    if a.epsilon != b.epsilon:
        return False
    if a.epsilon == Epsilon.SEPARATING:
        return True
    return a.dd == b.dd


def test_decide_matches_the_dataclass_equality_reference(query_universe):
    # every same-surface pair of query actions (each pair once, and each
    # action with itself), 2,000 seeded cross-surface pairs, and each trivial
    # action against every action: key equality answers as the three stages do
    actions = [Action.from_word(w) for w in query_universe]
    by_surface = {}
    for a in actions:
        by_surface.setdefault(a.surface, []).append(a)
    pairs = [p for group in by_surface.values() for p in itertools.combinations_with_replacement(group, 2)]
    rng = random.Random(23)
    cross = [tuple(rng.sample(actions, 2)) for _ in range(4000)]
    cross = [(a, b) for a, b in cross if a.surface != b.surface][:2000]
    trivial = [a for a in actions if a.is_trivial()]
    pairs += cross + [(t, a) for t in trivial for a in actions] + [(a, t) for t in trivial for a in actions]
    for a, b in pairs:
        assert decide_isomorphic(a, b) == _reference_decide(a, b), (a, b)
    assert len(cross) == 2000 and len(trivial) == 19
    assert len(pairs) == 609_386 + 2000 + 2 * 19 * 2687


def test_free_actions_match_the_cover_classification():
    # the enumeration's free classes have an empty fixed set by their words
    surfaces = [Surface(False, r) for r in range(1, 30)] + [Surface(True, g) for g in range(15)]
    for x in surfaces:
        for w in classify_free_structures(x):
            assert (underlying_surface(w), fixed_data(w)) == (x, (0, 0, 0)), w
    # and they are the double covers: one per isometry orbit of the nonzero
    # classes in H^1(Q; Z/2), orthogonal on N_r and symplectic on T_g
    for r in range(1, 11):
        assert len(covers_of(Surface(False, r))) == orbit_census("orthogonal", r) - 1
    for g in range(1, 6):
        assert len(covers_of(Surface(True, g))) == orbit_census("symplectic", 2 * g) - 1


def test_torus_taxonomy_chart():
    for g in (2, 3, 5):
        for a in actions_on(f"T{g}", include_trivial=False):
            word = format_word(a.word)
            tax = a.taxonomy
            if word.startswith("Tspit"):
                assert tax.cplus == tax.cminus == 0 and tax.q == Sign.PLUS
            elif word.startswith("Trefl"):
                assert tax.f == 0 and tax.q == Sign.PLUS and tax.cplus >= 1
            elif word.startswith("Trot") and "S10AT" not in word:
                assert tax == Taxonomy(0, 0, 0, Sign.PLUS)
            elif word == f"Tanti({g})":
                assert tax == Taxonomy(0, 0, 0, Sign.MINUS)
            else:  # antipodal base with trivial-circle tubes
                assert tax.f == 0 and tax.q == Sign.MINUS and tax.cplus >= 1


def test_separating_actions_are_exactly_the_doubled_family():
    for r in range(2, 31, 2):
        separating = [
            a
            for a in actions_on(f"N{r}", include_trivial=False)
            if a.epsilon == Epsilon.SEPARATING
        ]
        # one doubled surface per oval count C = 1 .. r/2
        assert len(separating) == r // 2
        for a in separating:
            assert a.word.base == BaseSpace.s21()
            assert a.taxonomy.q == Sign.MINUS
    for r in range(1, 30, 2):
        assert all(
            a.epsilon != Epsilon.SEPARATING
            for a in actions_on(f"N{r}", include_trivial=False)
        )


def test_taxonomy_cells_row_counts():
    rows = [classes for _, _, _, classes in taxonomy_cells(Surface(False, 6)) if classes]
    assert len(rows) == 20
    assert sum(map(len, rows)) == 27
    rows4 = [classes for _, _, _, classes in taxonomy_cells(Surface(False, 4)) if classes]
    assert len(rows4) == 11
    assert sum(map(len, rows4)) == 14


@pytest.mark.parametrize("walk", [class_groups, taxonomy_cells, iter_actions], ids=lambda w: w.__name__)
@pytest.mark.parametrize("names", [("N12", "N13"), ("N12", "N12")], ids="-".join)
def test_interleaved_walks_share_no_state(walk, names):
    # each walk keeps its own bases and tokens, so two walks stepped in turn
    # yield exactly what each yields alone
    alone = [list(walk(Surface.parse(name))) for name in names]
    walks = [walk(Surface.parse(name)) for name in names]
    stepped = [[], []]
    done = object()
    for steps in itertools.zip_longest(*walks, fillvalue=done):
        for out, step in zip(stepped, steps):
            if step is not done:
                out.append(step)
    assert stepped == alone


def _printed(*argv):
    with redirect_stdout(io.StringIO()) as out:
        cli.main(list(argv))
    return out.getvalue().splitlines()


def _write_records(surface):
    return _printed("enumerate", surface.name, "--format", "record")


def _write_lines(surface):
    return _printed("enumerate", surface.name)


@pytest.mark.parametrize(
    "walk", [class_groups, taxonomy_cells, iter_actions, _write_records, _write_lines], ids=lambda w: w.__name__
)
def test_each_rule_and_dd_run_once_per_group(monkeypatch, walk):
    # one walk calls each cell rule once per `_rule_rows` group that lists
    # it, and `class_dd` once per group and rule, however many rows the group
    # has; every reader of the enumeration goes through that walk
    surfaces = [Surface.parse(name) for name in ("N12", "N13", "T6")]
    groups = {s: list(classify._rule_rows(s)) for s in surfaces}
    assert any(len(cms) > 1 and neg + pos for _, _, cms, (neg, pos) in groups[Surface.parse("N13")])
    calls = Counter()

    def counted(fn):
        def call(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return call

    rules = {rule for rows in groups.values() for *_, (neg, pos) in rows for rule in neg + pos}
    assert len(rules) == 8
    for fn in (*rules, classify.class_dd):
        monkeypatch.setattr(classify, fn.__name__, counted(fn))
    for s in surfaces:
        expected = Counter(rule.__name__ for *_, (neg, pos) in groups[s] for rule in neg + pos)
        expected["class_dd"] = sum(expected.values())
        calls.clear()
        for _ in walk(s):
            pass
        assert calls == expected, s


def test_walk_builds_each_base_once():
    # within one walk every class on a Tspit(g,F) or Trot(g) base shares that
    # base's one copy (the actions are kept, so no id is reused)
    for name in ("N12", "N13", "N40"):
        actions, built = actions_on(name, include_trivial=False), {}
        for a in actions:
            built.setdefault(a.word.base, set()).add(id(a.word.base))
        assert {base for base, copies in built.items() if len(copies) > 1} == set(), name
        assert BaseKind.T_SPIT in {base.kind for base in built}, name


def test_cell_words_cover_exactly_the_walked_rows():
    # the walk has a row for exactly the admissible taxonomies and skips every
    # other (parity off, F + 2C > beta + 2, on T_g C- > 0 or F, C > 0); the
    # free involutions are its row [0,0:(0,0)], in order
    surfaces = [Surface(False, r) for r in range(1, 31)] + [Surface(True, g) for g in range(16)]
    for s in surfaces:
        b = s.beta
        rows = {(f, cp, cm): [word for _, word, _, _ in classes] for f, cp, cm, classes in taxonomy_cells(s)}
        for f in range(b + 5):
            for c in range((b + 6 - f) // 2 + 1):
                for cm in range(c + 1):
                    row = (f, c - cm, cm)
                    walked = (f - b) % 2 == (cm - b) % 2 == 0 and f + 2 * c <= b + 2
                    assert (row in rows) == (walked and not (s.orientable and (cm or (f and c)))), (s, row)
        assert [format_word(w) for w in classify_free_structures(s)] == rows.get((0, 0, 0), []), s
