"""Fixtures shared by every test module."""

import pytest

from c2surf import classify, words


@pytest.fixture(autouse=True)
def empty_word_memos():
    """Start each test with the word path's memos empty.  `parse_word` and
    `Action.from_word` remember their answers for the life of the process, so
    without this a test that patches a step behind them (the rewrite fuse,
    `normalize`) would be served an answer an earlier test derived."""
    words._parse_base.cache_clear()
    classify.Action.from_word.cache_clear()
