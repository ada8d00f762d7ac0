"""Print the make-up of the benchmark's generated inputs for some seeds.

    python3 bench/describe.py 1 2 3
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from mixlm.corpus import build_vocabulary, encode_corpus  # noqa: E402

import inputs  # noqa: E402
import pipeline  # noqa: E402
from run import FOLDS, SHAPE, WORKLOADS  # noqa: E402


def describe(seed: int) -> dict:
    corpus = inputs.generate(SHAPE, seed, FOLDS)
    counts = Counter(w for line in corpus.train for w in line.split())
    vocab = build_vocabulary(corpus.train, max_size=SHAPE.vocab_cap)
    folds_of: dict[str, set] = {}
    for i, line in enumerate(corpus.train):
        for w in line.split():
            folds_of.setdefault(w, set()).add(i % corpus.folds)
    dev = [w for line in corpus.dev for w in line.split()]
    out = {
        "seed": seed,
        "train_types": len(counts),
        "train_tokens": sum(counts.values()) + len(corpus.train),
        "singleton_types": sum(1 for c in counts.values() if c == 1),
        "train_unk_rate": sum(c for w, c in counts.items() if w not in vocab.word_to_id)
        / sum(counts.values()),
        "dev_tokens": len(dev) + len(corpus.dev),
        "dev_oov_rate": sum(1 for w in dev if w not in vocab.word_to_id) / len(dev),
        "fold_only_types": sum(1 for w in vocab.id_to_word[2:] if len(folds_of[w]) == 1),
        "fold_only_positions": corpus.probe_tokens,
    }
    # share of timed queries whose context occurred earlier in the stream
    encoded_dev = encode_corpus(corpus.dev, vocab)
    for name, work in WORKLOADS.items():
        seen, repeats = set(), 0
        queries = pipeline.query_positions(encoded_dev, work.order, work.queries)
        for ctx, _ in queries:
            repeats += ctx in seen
            seen.add(ctx)
        out[f"context_repeat_share.{name}"] = repeats / len(queries)
    return out


if __name__ == "__main__":
    for arg in sys.argv[1:] or ["1"]:
        print(describe(int(arg)))
