"""Tokenizer and vocabulary tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadcast.dataset import NormStats
from roadcast.errors import ParameterError
from roadcast.model import JointModel
from roadcast.tokenizer import (BOS, EOS, PAD, SPECIALS, UNK, build_vocab,
                                decode, encode, normalize)
from roadcast.training import load_checkpoint, save_checkpoint


@pytest.fixture
def vocab():
    return build_vocab(["accident on elm street", "closure on oak road",
                        "congestion on elm street"])


def test_special_ids_are_fixed():
    assert (PAD, BOS, EOS, UNK) == (0, 1, 2, 3)
    assert SPECIALS == ["<pad>", "<bos>", "<eos>", "<unk>"]


def test_normalize_lowercases_and_splits_punctuation():
    assert normalize("Accident ON Elm-Street, near I90!") == \
        ["accident", "on", "elm", "street", "near", "i90"]


def test_normalize_empty_and_symbol_only():
    assert normalize("") == []
    assert normalize("!!! --- ???") == []


def test_build_vocab_orders_by_frequency_then_word(vocab):
    # "on" x3, "elm"/"street" x2, rest x1 alphabetically
    assert vocab.id_to_word[4:] == ["on", "elm", "street", "accident", "closure",
                                    "congestion", "oak", "road"]


def test_build_vocab_min_freq_filters():
    v = build_vocab(["a a b"], min_freq=2)
    assert v.id_to_word[4:] == ["a"]


def test_build_vocab_empty_corpus_rejected():
    with pytest.raises(ParameterError):
        build_vocab([])


def test_vocab_roundtrip_via_file(tmp_path, vocab, tiny_cfg):
    """The vocab is stored in the checkpoint manifest and rebuilt from it."""
    model = JointModel(tiny_cfg, vocab_size=len(vocab), n_nodes=2,
                       physical_adjacency=np.zeros((2, 2)), seed=0)
    stats = NormStats(mean=np.zeros((2, 1)), std=np.ones((2, 1)))
    save_checkpoint(tmp_path, model, vocab, stats, seed=0)
    _, loaded, _, _ = load_checkpoint(tmp_path)
    assert loaded.id_to_word == vocab.id_to_word
    assert loaded.word_to_id == vocab.word_to_id


def test_encode_structure(vocab):
    ids = encode("accident on elm street", vocab, 8)
    assert len(ids) == 8
    assert ids[0] == BOS
    assert ids[5] == EOS
    assert ids[6:] == [PAD, PAD]
    assert all(i >= 4 for i in ids[1:5])


def test_encode_unknown_word_maps_to_unk(vocab):
    ids = encode("meteor on elm street", vocab, 8)
    assert ids[1] == UNK


def test_encode_truncation_keeps_eos(vocab):
    ids = encode("accident on elm street", vocab, 4)
    assert len(ids) == 4
    assert ids[0] == BOS and ids[-1] == EOS


def test_encode_empty_text(vocab):
    assert encode("", vocab, 5) == [BOS, EOS, PAD, PAD, PAD]


def test_encode_length_below_three_rejected(vocab):
    with pytest.raises(ParameterError):
        encode("x", vocab, 2)


def test_decode_stops_at_eos_and_skips_specials(vocab):
    on, elm = vocab.word_to_id["on"], vocab.word_to_id["elm"]
    assert decode([BOS, on, UNK, elm, EOS, on, PAD], vocab) == "on elm"


def test_decode_empty(vocab):
    assert decode([BOS, EOS, PAD], vocab) == ""


def test_encode_decode_roundtrip(vocab):
    text = "closure on oak road"
    assert decode(encode(text, vocab, 10), vocab) == text


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["accident", "closure", "on", "elm", "street",
                                 "oak", "road", "congestion"]), max_size=6),
       st.integers(3, 16))
def test_roundtrip_property(words, length):
    vocab = build_vocab(["accident on elm street", "closure on oak road",
                         "congestion on elm street"])
    text = " ".join(words)
    ids = encode(text, vocab, length)
    assert len(ids) == length
    kept = words[: length - 2]
    assert decode(ids, vocab) == " ".join(kept)
