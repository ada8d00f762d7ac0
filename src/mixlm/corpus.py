"""Text ingestion: vocabulary construction and integer encoding of sentences.

Input is whitespace-tokenized text, one sentence per line.  Three symbols are
reserved: a sentence-end marker (predicted, scored in perplexity), an unknown
marker for out-of-vocabulary tokens, and a begin-of-sentence marker used only
for left-padding contexts (never predicted).  The prediction vocabulary size J
covers word ids and the end/unknown markers; the begin marker sits at id J so
that embedding tables need exactly J+1 rows.

Neither pass over the text runs a Python loop over tokens: the vocabulary
counts the tokens of every line in one ``Counter`` call, and encoding maps
each line's tokens through one dict lookup (``map``) into that sentence's
own int32 array.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

EOS = "</s>"
UNK = "<unk>"
BOS = "<s>"

class CorpusError(ValueError):
    """Raised for malformed or empty corpus input."""


class _Ids(dict):
    """Word -> id, with the unknown id for any word it lacks."""

    def __missing__(self, word: str) -> int:
        return 1


@dataclass
class Vocabulary:
    """Bidirectional word/id map with reserved end, unknown and begin symbols.

    Ids 0..J-1 are predictable tokens (eos at 0, unk at 1, then words in
    descending frequency order).  The begin-of-sentence id is J and is only
    legal inside contexts.  ``fingerprint``, which a count table stores, is
    the first 16 hex digits of the SHA-256 of the newline-joined words, each
    one whitespace-free token, so that two word lists never join alike.
    """

    id_to_word: list[str]
    word_to_id: dict[str, int] = field(init=False, repr=False)
    # a word's id, the unknown id for any other word and for a literal begin
    # marker (context-only): one dict lookup, so ``map`` runs it in C
    id_of: Callable[[str], int] = field(init=False, repr=False, compare=False)
    fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.id_to_word[:2] != [EOS, UNK]:
            raise CorpusError(f"a vocabulary starts with {EOS} and {UNK}")
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}
        if len(self.word_to_id) != len(self.id_to_word):
            raise CorpusError("duplicate word in the vocabulary")
        # a word with whitespace (or none at all) is never a token of text, and
        # would let two word lists join to the same fingerprint
        bad = next((w for w in self.id_to_word if w.split() != [w]), None)
        if bad is not None:
            raise CorpusError(f"vocabulary word {bad!r} is not one whitespace-free token")
        self.id_of = _Ids({**self.word_to_id, BOS: self.unk_id}).__getitem__
        self.fingerprint = hashlib.sha256("\n".join(self.id_to_word).encode()).hexdigest()[:16]

    @property
    def size(self) -> int:
        """Number of predictable token ids (J)."""
        return len(self.id_to_word)

    @property
    def eos_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    @property
    def bos_id(self) -> int:
        return len(self.id_to_word)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Map tokens to ids (``id_of``) and append the end-of-sentence id, as
        a new int32 array."""
        return np.array([*map(self.id_of, tokens), self.eos_id], dtype=np.int32)


def build_vocabulary(lines: Iterable[str], max_size: int | None = None) -> Vocabulary:
    """Build a vocabulary from tokenized text, one sentence per line.

    The ``max_size`` most frequent surface forms receive ids (frequency ties
    broken by first occurrence); everything else maps to the unknown id.
    Reserved surface forms are never counted as regular words: a literal
    ``<unk>`` in the input maps straight to the unknown id.  Text of reserved
    forms alone gives the vocabulary of the two markers; text with no token
    raises.
    """
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1")
    freq = Counter(chain.from_iterable(map(str.split, lines)))
    if not freq:
        raise CorpusError("empty corpus")
    for reserved in (EOS, UNK, BOS):
        del freq[reserved]  # a Counter ignores a missing key
    # a Counter keeps first-insertion order and most_common sorts stably
    return Vocabulary([EOS, UNK] + [w for w, _ in freq.most_common(max_size)])


@dataclass
class EncodedCorpus:
    """Integer-encoded sentences, each terminated by the end-of-sentence id."""

    sentences: list[np.ndarray]
    vocab: Vocabulary

    @property
    def token_count(self) -> int:
        """Number of prediction events (words plus one eos per sentence)."""
        return sum(len(s) for s in self.sentences)


def encode_corpus(lines: Iterable[str], vocab: Vocabulary) -> EncodedCorpus:
    """Encode tokenized lines, each into its own array (``Vocabulary.encode``);
    blank lines are dropped (no empty sentences)."""
    sentences = [vocab.encode(toks) for toks in map(str.split, lines) if toks]
    if not sentences:
        raise CorpusError("empty corpus")
    return EncodedCorpus(sentences=sentences, vocab=vocab)

