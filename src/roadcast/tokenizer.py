"""Word-level tokenizer and vocabulary with fixed special ids."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Sequence

from .errors import ParameterError

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIALS = ["<pad>", "<bos>", "<eos>", "<unk>"]

_WORD_RE = re.compile(r"[a-z0-9]+")


def normalize(text: str) -> List[str]:
    """Lowercase and split on anything that is not a letter or digit."""
    return _WORD_RE.findall(text.lower())


@dataclass
class Vocab:
    """Bijection between words and ids >= 4; ids 0-3 are PAD/BOS/EOS/UNK."""

    id_to_word: List[str]
    word_to_id: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.id_to_word[:4] != SPECIALS:
            self.id_to_word = SPECIALS + self.id_to_word
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}

    def __len__(self) -> int:
        return len(self.id_to_word)


def build_vocab(corpus: Sequence[str], min_freq: int = 1) -> Vocab:
    """Frequency-sorted vocabulary; ties resolved lexicographically."""
    if not corpus:
        raise ParameterError("build_vocab: corpus is empty")
    counts = Counter()
    for text in corpus:
        counts.update(normalize(text))
    kept = [w for w, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda w: (-counts[w], w))
    return Vocab(id_to_word=kept)


def encode(text: str, vocab: Vocab, length: int) -> List[int]:
    """BOS + tokens + EOS, truncated then padded to exactly ``length`` ids.

    Truncation always keeps the terminating EOS.
    """
    if length < 3:
        raise ParameterError(f"encode length {length} < 3")
    ids = [vocab.word_to_id.get(w, UNK) for w in normalize(text)]
    ids = ids[: length - 2]
    seq = [BOS] + ids + [EOS]
    seq += [PAD] * (length - len(seq))
    return seq


def decode(ids: Sequence[int], vocab: Vocab) -> str:
    """Strip specials and join remaining words."""
    words = []
    for i in ids:
        if i == EOS:
            break
        if i in (PAD, BOS, UNK):
            continue
        words.append(vocab.id_to_word[i])
    return " ".join(words)
