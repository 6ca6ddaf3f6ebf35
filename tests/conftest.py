"""Fixtures shared by every test module."""

import itertools

import pytest

from c2surf import classify, words
from c2surf.words import BaseSpace, InvalidWordError, Surface, SurgeryWord, beta, reflection_ovals, spit_fixed_points


def _word_path_memos():
    """Every memo in `c2surf.words` and `c2surf.classify`: each callable with a
    ``cache_clear``, at module level or on a class (a classmethod's function
    included), each once."""
    found = {}
    for module in (words, classify):
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *members):
                obj = getattr(obj, "__func__", obj)
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


@pytest.fixture(autouse=True)
def empty_word_memos():
    """Start each test with the word path's memos empty.  `parse_word` and
    `Action.from_word` remember their answers for the life of the process, so
    without this a test that patches a step behind them (a word check, the
    rewriting system) would be served an answer an earlier test derived."""
    for memo in _word_path_memos():
        memo.cache_clear()


@pytest.fixture
def word_memos():
    """The memos that `empty_word_memos` empties."""
    return _word_path_memos()


@pytest.fixture(scope="session")
def query_universe():
    """The 2,687 grammar-valid words with beta <= 12 and each op count <= 2,
    the words the benchmark's `query` workload asks about, built without the
    parser: the trivial actions, then each base with its op counts."""
    out = [SurgeryWord(BaseSpace.trivial(Surface(True, g))) for g in range(7)]
    out += [SurgeryWord(BaseSpace.trivial(Surface(False, r))) for r in range(1, 13)]
    bases = [BaseSpace.s2a(), BaseSpace.s21(), BaseSpace.s22()]
    for g in range(1, 7):
        bases += [BaseSpace.tanti(g)] + ([BaseSpace.trot(g)] if g % 2 else [])
        bases += [BaseSpace.tspit(g, f) for f in spit_fixed_points(g)]
        bases += [BaseSpace.trefl(g, c) for c in reflection_ovals(g)]
    for base, counts in itertools.product(bases, itertools.product(range(3), repeat=6)):
        try:
            w = SurgeryWord(base, *counts)
        except InvalidWordError:  # more FM surgeries than fixed points
            continue
        if beta(w) <= 12:
            out.append(w)
    return out
