"""Seeded long-tail corpora for the benchmark.

Every input is a pure function of the seed and the size parameters:

* Word frequencies are Zipfian over more types than the vocabulary cap, so
  training text maps some tokens to ``<unk>`` and held-out text has
  out-of-vocabulary words.
* A fixed inventory of multi-word phrases (the same for every seed) is
  reused throughout, which gives orders 3-5 something to predict.
* The stream is cut into a fixed number of sentences, so every seed yields
  exactly the same number of training and held-out tokens.

Leave-one-fold-out views (sentence ``i`` in fold ``i % folds``; ``folds`` is
given to ``generate`` and kept in ``Corpus.folds``) give a word probability 0
from every column when all its training occurrences sit in one fold.  To
keep that fault at a count that does not depend on the seed, the seeded text
is repaired so that no in-vocabulary word is confined to one fold, and a
fixed block of probe sentences adds ``probe_words`` words that occur
``probe_repeats`` times each, only in fold 0.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from mixlm.corpus import build_vocabulary

PROBE_PREFIX = "foldonly"
LANGUAGE_SEED = 0
ZIPF_S = 1.0  # Zipf exponent of single words
PHRASE_SHARE = 0.5  # chance a segment is a phrase, not one word
PHRASE_ZIPF = 0.8  # Zipf exponent of phrase popularity


@dataclass(frozen=True)
class CorpusShape:
    types: int  # Zipf types, more than ``vocab_cap``
    vocab_cap: int
    train_words: int
    train_sentences: int
    dev_words: int
    dev_sentences: int
    phrases: int = 2000
    probe_words: int = 10
    probe_repeats: int = 24


@dataclass
class Corpus:
    train: list[str]
    dev: list[str]
    shape: CorpusShape
    folds: int  # sentence i of the training text sits in fold i % folds

    @property
    def probe_tokens(self) -> int:
        """Training positions whose word occurs only in fold 0."""
        return self.shape.probe_words * self.shape.probe_repeats


def _stream(rng, shape: CorpusShape, zipf_p, phrase_words, phrase_p, n_words):
    """Word-rank stream of exactly ``n_words`` words."""
    out: list[int] = []
    while len(out) < n_words:
        n_seg = n_words - len(out)
        is_phrase = rng.random(n_seg) < PHRASE_SHARE
        phrase_ids = rng.choice(len(phrase_words), size=n_seg, p=phrase_p)
        singles = rng.choice(shape.types, size=n_seg, p=zipf_p)
        for ph, pid, w in zip(is_phrase.tolist(), phrase_ids.tolist(), singles.tolist()):
            if ph:
                out.extend(phrase_words[pid])
            else:
                out.append(w)
            if len(out) >= n_words:
                break
    return out[:n_words]


def _sentences(rng, ranks: list[int], n_sentences: int) -> list[list[str]]:
    cuts = np.sort(rng.choice(np.arange(1, len(ranks)), size=n_sentences - 1, replace=False))
    bounds = [0] + cuts.tolist() + [len(ranks)]
    return [[f"w{r}" for r in ranks[a:b]] for a, b in zip(bounds[:-1], bounds[1:])]


def generate(shape: CorpusShape, seed: int, folds: int) -> Corpus:
    zipf_p = 1.0 / np.arange(1, shape.types + 1) ** ZIPF_S
    zipf_p /= zipf_p.sum()
    # The phrase inventory is the fixed "language"; the seed draws text from
    # it.  A seeded inventory moved held-out perplexity by ~8% between seeds.
    lang = np.random.default_rng(LANGUAGE_SEED)
    head = max(1, shape.vocab_cap // 2)
    head_p = zipf_p[:head] / zipf_p[:head].sum()
    lengths = lang.integers(3, 7, size=shape.phrases)
    phrase_words = [lang.choice(head, size=k, p=head_p).tolist() for k in lengths.tolist()]
    phrase_p = 1.0 / np.arange(1, shape.phrases + 1) ** PHRASE_ZIPF
    phrase_p /= phrase_p.sum()

    rng = np.random.default_rng(seed)

    train_ranks = _stream(rng, shape, zipf_p, phrase_words, phrase_p, shape.train_words)
    dev_ranks = _stream(rng, shape, zipf_p, phrase_words, phrase_p, shape.dev_words)
    seeded = _sentences(rng, train_ranks, shape.train_sentences)
    dev = _sentences(rng, dev_ranks, shape.dev_sentences)

    probe = [f"{PROBE_PREFIX}{k}" for k in range(shape.probe_words)]
    train: list[list[str]] = []
    it = iter(seeded)
    for i in range(shape.train_sentences + shape.probe_repeats):
        if i % folds == 0 and i // folds < shape.probe_repeats:
            train.append(list(probe))
        else:
            train.append(next(it))
    _spread_over_folds(train, shape, folds)
    return Corpus([" ".join(s) for s in train], [" ".join(s) for s in dev], shape, folds)


def _fold_sets(train: list[list[str]], folds: int) -> dict[str, set[int]]:
    where: dict[str, set[int]] = defaultdict(set)
    for i, sent in enumerate(train):
        for w in sent:
            where[w].add(i % folds)
    return where


def _spread_over_folds(train: list[list[str]], shape: CorpusShape, folds: int) -> None:
    """Give every seeded in-vocabulary word occurrences in two folds or more.

    Each confined word takes over one out-of-vocabulary token in a sentence
    of another fold.  That raises the count of an in-vocabulary word and
    lowers that of an out-of-vocabulary one, so the vocabulary keeps exactly
    the same members.
    """
    F = folds
    lines = [" ".join(s) for s in train]
    vocab = build_vocabulary(lines, max_size=shape.vocab_cap)
    where = _fold_sets(train, F)
    oov_slots: list[list[tuple[int, int]]] = [[] for _ in range(F)]
    for i, sent in enumerate(train):
        for j, w in enumerate(sent):
            if w not in vocab.word_to_id:
                oov_slots[i % F].append((i, j))
    for slots in oov_slots:
        slots.reverse()  # pop() takes the earliest slot
    for w in vocab.id_to_word[2:]:
        if w.startswith(PROBE_PREFIX) or len(where[w]) > 1:
            continue
        (f,) = where[w]
        donor = next(g for g in range(1, F) if oov_slots[(f + g) % F])
        i, j = oov_slots[(f + donor) % F].pop()
        train[i][j] = w

    check = build_vocabulary([" ".join(s) for s in train], max_size=shape.vocab_cap)
    if set(check.id_to_word) != set(vocab.id_to_word):
        raise RuntimeError("fold repair changed the vocabulary")
    where = _fold_sets(train, F)
    confined = {w for w in check.id_to_word[2:] if len(where[w]) == 1}
    probes = {f"{PROBE_PREFIX}{k}" for k in range(shape.probe_words)}
    if confined != probes:
        raise RuntimeError(f"fold-confined words {sorted(confined - probes)[:5]} "
                           "besides the probes; raise probe_repeats or the token count")
    if not any(w not in check.word_to_id for s in train for w in s):
        raise RuntimeError("training text has no out-of-vocabulary token")
