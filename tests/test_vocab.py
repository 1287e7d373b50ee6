"""Vocabulary layout and token-sequence invariants."""

import pytest

from driftlab.vocab import (
    ADD,
    ANSWER_MARK,
    BOS,
    EOS,
    MUL,
    TokenSequence,
    Vocabulary,
    VocabularyError,
)


def test_layout_and_size():
    vocab = Vocabulary(7)
    assert vocab.size == 7 + 2 + 3
    reserved = {BOS, EOS, ANSWER_MARK}
    assert len(reserved) == 3 and all(t < vocab.size for t in reserved)
    assert not (reserved & {ADD, MUL})
    assert [vocab.value_token(r) for r in range(7)] == list(range(5, 12))
    assert vocab.value_token(0) == 5


def test_modulus_floor():
    with pytest.raises(VocabularyError):
        Vocabulary(2)


def test_value_token_range_checked():
    vocab = Vocabulary(5)
    with pytest.raises(VocabularyError):
        vocab.value_token(5)


def test_trace_eos_must_terminate():
    TokenSequence((5, EOS), "trace")
    with pytest.raises(VocabularyError):
        TokenSequence((5, EOS, 6), "trace")


def test_up_to_eos():
    assert TokenSequence((5, 6, EOS), "trace").up_to_eos() == (5, 6)
    assert TokenSequence((5, 6), "trace").up_to_eos() == (5, 6)
