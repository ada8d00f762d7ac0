"""Text ingestion: vocabulary construction and integer encoding of sentences.

Input is whitespace-tokenized text, one sentence per line.  Three symbols are
reserved: a sentence-end marker (predicted, scored in perplexity), an unknown
marker for out-of-vocabulary tokens, and a begin-of-sentence marker used only
for left-padding contexts (never predicted).  The prediction vocabulary size J
covers word ids and the end/unknown markers; the begin marker sits at id J so
that embedding tables need exactly J+1 rows.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

EOS = "</s>"
UNK = "<unk>"
BOS = "<s>"

_VOCAB_MAGIC = "mixlm-vocab"
_VOCAB_VERSION = 1


class CorpusError(ValueError):
    """Raised for malformed or empty corpus input."""


@dataclass
class Vocabulary:
    """Bidirectional word/id map with reserved end, unknown and begin symbols.

    Ids 0..J-1 are predictable tokens (eos at 0, unk at 1, then words in
    descending frequency order).  The begin-of-sentence id is J and is only
    legal inside contexts.
    """

    id_to_word: list[str]
    word_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.id_to_word[:2] != [EOS, UNK]:
            raise CorpusError(f"a vocabulary starts with {EOS} and {UNK}")
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}
        if len(self.word_to_id) != len(self.id_to_word) or "" in self.word_to_id:
            raise CorpusError("duplicate or empty word in the vocabulary")

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

    def id_of(self, word: str) -> int:
        if word == BOS:
            # begin marker is context-only; treat a literal one as unknown
            return self.unk_id
        return self.word_to_id.get(word, self.unk_id)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Map tokens to ids and append the end-of-sentence id."""
        ids = np.empty(len(tokens) + 1, dtype=np.int32)
        for i, tok in enumerate(tokens):
            ids[i] = self.id_of(tok)
        ids[-1] = self.eos_id
        return ids


def build_vocabulary(lines: Iterable[str], max_size: int | None = None) -> Vocabulary:
    """Build a vocabulary from tokenized text, one sentence per line.

    The ``max_size`` most frequent surface forms receive ids (frequency ties
    broken by first occurrence); everything else maps to the unknown id.
    Reserved surface forms are never counted as regular words: a literal
    ``<unk>`` in the input maps straight to the unknown id.
    """
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1")
    freq: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    n_tokens = 0
    for line in lines:
        for tok in line.split():
            n_tokens += 1
            if tok in (EOS, UNK, BOS):
                continue
            freq[tok] += 1
            if tok not in first_seen:
                first_seen[tok] = len(first_seen)
    if n_tokens == 0:
        raise CorpusError("empty corpus")
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], first_seen[kv[0]]))
    if max_size is not None:
        ranked = ranked[:max_size]
    return Vocabulary([EOS, UNK] + [w for w, _ in ranked])


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
    """Encode tokenized lines; blank lines are dropped (no empty sentences)."""
    sentences = []
    for line in lines:
        toks = line.split()
        if not toks:
            continue
        sentences.append(vocab.encode(toks))
    if not sentences:
        raise CorpusError("empty corpus")
    return EncodedCorpus(sentences=sentences, vocab=vocab)


def write_vocabulary(vocab: Vocabulary, fh: io.TextIOBase) -> None:
    """Versioned text format: header line, then one word per line in id order."""
    fh.write(
        f"{_VOCAB_MAGIC} v{_VOCAB_VERSION} size={vocab.size} "
        f"eos={vocab.eos_id} unk={vocab.unk_id} bos={vocab.bos_id}\n"
    )
    for word in vocab.id_to_word:
        fh.write(word + "\n")


def read_vocabulary(fh: io.TextIOBase) -> Vocabulary:
    header = fh.readline().split()
    if not header or header[0] != _VOCAB_MAGIC:
        raise CorpusError("not a vocabulary file")
    if header[1:2] != [f"v{_VOCAB_VERSION}"]:
        raise CorpusError(f"unsupported vocabulary version {header[1:2]}")
    try:
        fields = dict(kv.split("=", 1) for kv in header[2:])
        size, ids = int(fields["size"]), tuple(int(fields[k]) for k in ("eos", "unk", "bos"))
    except (KeyError, ValueError) as e:
        raise CorpusError(f"malformed vocabulary header: {e}") from None
    lines = [fh.readline() for _ in range(size)]
    if "" in lines:
        raise CorpusError("truncated vocabulary file")
    if fh.read():
        raise CorpusError("lines after the last word of the vocabulary")
    vocab = Vocabulary([line.rstrip("\n") for line in lines])
    if (vocab.eos_id, vocab.unk_id, vocab.bos_id) != ids:
        raise CorpusError("reserved-symbol ids do not match this library's layout")
    return vocab
