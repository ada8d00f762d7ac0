"""The paper's mixture model assembled from mixlm's public functions.

Every next-word distribution is D·λ: D holds one count-based column per
n-gram order (plus, for the hybrid, the identity block) and λ comes either
from a network trained on leave-one-fold-out views or from the heuristic
fallback coefficients.  The library has no model or trainer module yet, so
this file is the whole pipeline; library calls go through module attributes
(``smoothing.bulk_column_rows``), which lets the tracer wrap them.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from mixlm import corpus as mcorpus
from mixlm import counts as mcounts
from mixlm import mixture as mmixture
from mixlm import smoothing as msmoothing
from mixlm.neural import features as mfeatures
from mixlm.neural import layers as mlayers
from mixlm.neural import optim as moptim
from mixlm.neural import tensor as T

import inputs
import reference

now = time.perf_counter
BATCH_POSITIONS = 2048  # positions per ff minibatch and held-out scoring piece
LEARNING_RATE = 0.01  # Adam, both λ networks


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "kn" | "ml"
    order: int
    folded: bool  # leave-one-fold-out views; else plain counts, saved and loaded back
    network: str | None  # "ff" | "lstm" | None (heuristic λ)
    queries: int  # scalar queries per round
    hidden: int = 0
    embedding: int = 0
    batch_sentences: int = 0  # lstm: sentences per minibatch
    train_lengths: tuple = ()  # lstm: sentence length of each training minibatch
    dev_lengths: tuple = ()  # lstm: sentence length of each held-out minibatch
    block_dropout: float = 0.0


@dataclass
class Setup:
    vocab: mcorpus.Vocabulary
    train: mcorpus.EncodedCorpus
    dev: mcorpus.EncodedCorpus
    table: mcounts.CountTable
    folded: mcounts.FoldedCounts | None
    spec: msmoothing.SmoothingSpec
    stages: tuple  # seconds: text -> encoded corpora, count build, file round trip + spec
    saved: mcounts.CountTable | None = None  # the table before its file round trip
    file_bytes: int = 0


def setup(work: Workload, corpus: inputs.Corpus, scratch: str) -> Setup:
    """Text lines -> vocabulary -> encoded corpora -> count store -> spec."""
    t0 = now()
    vocab = mcorpus.build_vocabulary(corpus.train, max_size=corpus.shape.vocab_cap)
    train = mcorpus.encode_corpus(corpus.train, vocab)
    dev = mcorpus.encode_corpus(corpus.dev, vocab)
    t1 = now()
    folded = saved = None
    file_bytes = 0
    if work.folded:
        folded = mcounts.cv_fold_counts(train, work.order, corpus.folds)
        table = folded.table
        t2 = now()
    else:
        saved = mcounts.accumulate(train, work.order)
        t2 = now()
        saved.save(scratch)
        table = mcounts.CountTable.load(scratch)
    if work.family == "kn":
        spec = msmoothing.SmoothingSpec.kn(table, work.order)
    else:
        spec = msmoothing.SmoothingSpec.ml(work.order)
    t3 = now()
    if saved is not None:
        file_bytes = os.path.getsize(scratch)
        os.remove(scratch)
    return Setup(vocab, train, dev, table, folded, spec, (t1 - t0, t2 - t1, t3 - t2), saved,
                 file_bytes)


def store_bytes(s: Setup) -> tuple[int, int]:
    """(table bytes, fold-data bytes) over every array of the count store."""
    def nbytes(obj) -> int:
        return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))

    table = sum(nbytes(od) for od in s.table.orders[1:])
    fold = 0
    if s.folded is not None:
        fold = s.folded.fold_assignment.nbytes + sum(nbytes(fd) for fd in s.folded.fold_data[1:])
    return table, fold


# -- λ networks -------------------------------------------------------------


class FFLambda:
    """λ = softmax(tanh(x W + b) V + c) over the count columns, masked."""

    def __init__(self, width: int, hidden: int, n_cols: int, rng):
        self.ff = mlayers.FeedForward(width, hidden, rng)
        self.out = mlayers.OutputLayer(hidden, n_cols, rng)
        self.mean: np.ndarray | None = None  # training feature mean

    def parameters(self):
        return self.ff.parameters() + self.out.parameters()

    def __call__(self, x: np.ndarray, valid: np.ndarray) -> T.Tensor:
        return self.out(self.ff(T.constant(x)), valid)


class LSTMLambda:
    """λ over the count columns and the identity block from an LSTM fed count
    features and the embedding of the previous word ("cr")."""

    def __init__(self, width: int, vocab_size: int, emb: int, hidden: int, n_count: int, rng):
        self.n_count = n_count
        self.vocab_size = vocab_size
        self.emb = T.param(rng.uniform(-0.1, 0.1, (vocab_size + 1, emb)), "emb")
        self.lstm = mlayers.LSTM(width + emb, hidden, rng)
        self.out = mlayers.OutputLayer(hidden, n_count + vocab_size, rng)
        # start with equal mass on the count columns and the identity block
        self.out.b.value[:n_count] = np.log(vocab_size / n_count)
        self.mean: np.ndarray | None = None

    def parameters(self):
        return [self.emb] + self.lstm.parameters() + self.out.parameters()


def graph_nodes(loss: T.Tensor) -> int:
    """Tensors reachable from a loss through parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class _NoTrace:
    """Stands in for ``spans.Tracer`` in untraced runs."""

    def span(self, name):
        return contextlib.nullcontext()

    def graph(self, loss):
        pass


NO_TRACE = _NoTrace()


# -- rounds -----------------------------------------------------------------


@dataclass
class Stage:
    """Work of one stage in one round; ``times`` holds one entry per timed
    piece (minibatch or scoring pass), identical from round to round."""

    positions: int = 0
    failed: int = 0
    times: list = field(default_factory=list)
    failed_words: list = field(default_factory=list)  # target ids of failed positions


@dataclass
class EvalOut(Stage):
    nll: float = 0.0
    probs: np.ndarray | None = None  # per held-out position
    lam: list = field(default_factory=list)  # λ rows kept for the checks
    mask: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # D of the scored positions

    @property
    def ppl(self) -> float:
        return float(np.exp(self.nll / max(1, self.positions - self.failed)))

    def score(self, p: np.ndarray) -> None:
        """Add the log-loss of scored positions; p = 0 or not finite fails."""
        ok = _ok(p)
        self.nll -= float(np.log(p[ok]).sum())
        self.positions += len(p)
        self.failed += int((~ok).sum())


def _sub(s: Setup, corpus: mcorpus.EncodedCorpus, idx) -> mcorpus.EncodedCorpus:
    return mcorpus.EncodedCorpus([corpus.sentences[i] for i in idx], s.vocab)


def _ok(p: np.ndarray) -> np.ndarray:
    return np.isfinite(p) & (p > 0)


def chunks(corpus: mcorpus.EncodedCorpus, order: np.ndarray, positions: int) -> list[np.ndarray]:
    """Split sentence indices, in the given order, into runs of whole
    sentences holding about ``positions`` positions each."""
    lengths = np.array([len(x) for x in corpus.sentences])[order]
    batch_of = (np.cumsum(lengths) - lengths) // positions
    return np.split(order, np.flatnonzero(np.diff(batch_of)) + 1)


def ff_batches(s: Setup, work: Workload, seed: int) -> list[np.ndarray]:
    """Sentence-index minibatches of one epoch, in a seeded order."""
    order = np.random.default_rng(seed).permutation(len(s.train.sentences))
    return chunks(s.train, order, BATCH_POSITIONS)


def dev_chunks(s: Setup) -> list[np.ndarray]:
    """Held-out sentences in text order, in minibatch-sized pieces."""
    return chunks(s.dev, np.arange(len(s.dev.sentences)), BATCH_POSITIONS)


def train_ff(s: Setup, work: Workload, batches, seed: int, tracer=NO_TRACE):
    """One epoch of minibatch Adam on leave-one-fold-out views."""
    rng = np.random.default_rng(seed)
    net = FFLambda(mfeatures.feature_width(s.spec), work.hidden, s.spec.order, rng)
    opt = moptim.Adam(net.parameters(), lr=LEARNING_RATE)
    view = s.folded.view()
    st = Stage()
    for idx in batches:
        t0 = now()
        ranks, words, sent_of = view.bulk_ranks(_sub(s, s.train, idx))
        folds = s.folded.fold_assignment[idx][sent_of]
        D, _, valid = msmoothing.bulk_column_rows(view, s.spec, ranks, words, folds)
        X = mfeatures.bulk_context_features(view, s.spec, ranks, folds)
        if net.mean is None:
            net.mean = X.mean(axis=0)
        X = mfeatures.normalize_features(X, net.mean)
        with tracer.span("neural.forward"):
            lam = net(X, valid)
            p = T.tsum(lam * T.constant(D), axis=1)
            # a failed position has p = 0 for every λ: log(p + 1) adds no loss
            bad = ~_ok(p.value)
            n_ok = max(1, int(len(bad) - bad.sum()))
            loss = -(T.tsum(T.log(p + T.constant(bad.astype(np.float64)))) / float(n_ok))
        tracer.graph(loss)
        opt.zero_grad()
        loss.backward()
        opt.step()
        st.times.append(now() - t0)
        st.positions += len(words)
        st.failed += int(bad.sum())
        st.failed_words.extend(words[bad].tolist())
    return net, st


def eval_ff(s: Setup, net: FFLambda, pieces, keep: bool = False, tracer=NO_TRACE) -> EvalOut:
    """Held-out positions on the full view: ranks -> rows -> features ->
    network -> D·λ -> log p, one piece of sentences at a time."""
    view = s.table.view()
    out = EvalOut()
    probs = []
    for idx in pieces:
        t0 = now()
        ranks, words, _ = view.bulk_ranks(_sub(s, s.dev, idx))
        D, _, valid = msmoothing.bulk_column_rows(view, s.spec, ranks, words)
        X = mfeatures.normalize_features(
            mfeatures.bulk_context_features(view, s.spec, ranks), net.mean)
        with tracer.span("neural.eval_forward"):
            lam = net(X, valid).value
        p = (lam * D).sum(axis=1)
        out.score(p)
        out.times.append(now() - t0)
        probs.append(p)
        if keep:
            out.lam.append(lam)
            out.mask.append(valid)
            out.rows.append(D)
    out.probs = np.concatenate(probs)
    return out


def _same_length(sentences, lengths, per_batch: int, rng=None) -> list[np.ndarray]:
    """One batch of ``per_batch`` distinct sentences per entry of ``lengths``,
    each of exactly that length (tokens, end marker included)."""
    pools: dict[int, list] = {}
    for i, x in enumerate(sentences):
        pools.setdefault(len(x), []).append(i)
    out = []
    for L in lengths:
        pool = pools.get(L, [])
        if len(pool) < per_batch:
            raise ValueError(f"fewer than {per_batch} sentences of length {L}")
        pick = rng.choice(len(pool), per_batch, replace=False) if rng else np.arange(per_batch)
        out.append(np.array([pool[i] for i in pick]))
        taken = set(pick.tolist())
        pools[L] = [x for i, x in enumerate(pool) if i not in taken]
    return out


def lstm_batches(s: Setup, work: Workload, seed: int):
    """Training and held-out minibatches of equal-length sentences.

    Bucketing by length gives every seed the same batch shapes, so the
    network's work per round does not depend on the seed."""
    rng = np.random.default_rng(seed)
    train = _same_length(s.train.sentences, work.train_lengths, work.batch_sentences, rng)
    dev = _same_length(s.dev.sentences, work.dev_lengths, work.batch_sentences)
    return train, dev


def _lstm_pass(s: Setup, net: LSTMLambda, view, sents, fold_of, rng, training: bool,
               block_rate: float, tracer, keep: bool):
    """Lookups and LSTM forward over one length-sorted sentence batch.

    Returns (loss tensor, per-position p, λ rows, masks, D); rows follow the
    positions of ``sents`` in order."""
    sub = mcorpus.EncodedCorpus(sents, s.vocab)
    ranks, words, sent_of = view.bulk_ranks(sub)
    folds = None if fold_of is None else fold_of[sent_of]
    D, _, valid = msmoothing.bulk_column_rows(view, s.spec, ranks, words, folds)
    X = mfeatures.bulk_context_features(view, s.spec, ranks, folds)
    if net.mean is None:
        net.mean = X.mean(axis=0)
    X = mfeatures.normalize_features(X, net.mean)
    lengths = np.array([len(x) for x in sents])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    prev = np.empty(len(words), dtype=np.int64)
    prev[1:] = words[:-1]
    prev[starts] = s.vocab.bos_id
    N, J = net.n_count, net.vocab_size
    p_all = np.empty(len(words))
    lams = np.empty((len(words), N + J)) if keep else None
    masks = np.empty((len(words), N + J), dtype=bool) if keep else None
    span = "neural.forward" if training else "neural.eval_forward"
    with tracer.span(span):
        h, c = net.lstm.initial_state(len(sents))
        total = None
        for t in range(int(lengths[0])):
            b = int((lengths > t).sum())
            if b < h.value.shape[0]:
                keep_rows = np.arange(b)
                h, c = T.gather_rows(h, keep_rows), T.gather_rows(c, keep_rows)
            pos = starts[:b] + t
            x = T.concat_cols([T.constant(X[pos]), T.gather_rows(net.emb, prev[pos])])
            out, (h, c) = net.lstm.step(x, (h, c))
            mask = np.concatenate([valid[pos], np.ones((b, J), dtype=bool)], axis=1)
            mask = mask * mlayers.block_dropout_mask(b, N, N + J, block_rate, rng, training)
            lam = net.out(out, mask)
            p = (T.tsum(T.slice_cols(lam, 0, N) * T.constant(D[pos]), axis=1, keepdims=True)
                 + T.take_per_row(lam, N + words[pos]))
            p_all[pos] = p.value[:, 0]
            if keep:
                lams[pos] = lam.value
                masks[pos] = mask > 0
            if training:
                lp = T.tsum(T.log(p))
                total = lp if total is None else total + lp
        loss = None if total is None else -(total / float(len(words)))
    return loss, p_all, lams, masks, D


def train_lstm(s: Setup, work: Workload, batches, seed: int, tracer=NO_TRACE):
    rng = np.random.default_rng(seed)
    net = LSTMLambda(mfeatures.feature_width(s.spec), s.vocab.size, work.embedding,
                     work.hidden, s.spec.order, rng)
    opt = moptim.Adam(net.parameters(), lr=LEARNING_RATE)
    view = s.folded.view()
    st = Stage()
    for idx in batches:
        t0 = now()
        sents = [s.train.sentences[i] for i in idx]
        loss, p, *_ = _lstm_pass(s, net, view, sents, s.folded.fold_assignment[idx],
                                 rng, True, work.block_dropout, tracer, False)
        tracer.graph(loss)
        opt.zero_grad()
        loss.backward()
        opt.step()
        st.times.append(now() - t0)
        bad = ~_ok(p)
        st.positions += len(p)
        st.failed += int(bad.sum())
        st.failed_words.extend(np.concatenate(sents)[bad].tolist())
    return net, st


def eval_lstm(s: Setup, net: LSTMLambda, batches, keep: bool = False,
              tracer=NO_TRACE) -> EvalOut:
    view = s.table.view()
    out = EvalOut()
    probs = []
    for idx in batches:
        t0 = now()
        sents = [s.dev.sentences[i] for i in idx]
        _, p, lams, masks, D = _lstm_pass(s, net, view, sents, None, None, False,
                                          0.0, tracer, keep)
        out.score(p)
        out.times.append(now() - t0)
        probs.append(p)
        if keep:
            out.lam.append(lams)
            out.mask.append(masks)
            out.rows.append(D)
    out.probs = np.concatenate(probs)
    return out


def heuristic_lambdas(alphas: np.ndarray) -> np.ndarray:
    """Row-wise ``heuristic_lambda`` over (T, N) fallback coefficients."""
    lam = np.empty_like(alphas)
    passed = np.ones(len(alphas))
    for n in range(alphas.shape[1], 1, -1):
        lam[:, n - 1] = (1.0 - alphas[:, n - 1]) * passed
        passed = passed * alphas[:, n - 1]
    lam[:, 0] = passed
    return lam


def eval_heuristic(s: Setup, pieces, spec=None, keep: bool = False) -> EvalOut:
    """Held-out positions on the full view with heuristic λ."""
    spec = spec or s.spec
    view = s.table.view()
    out = EvalOut()
    probs = []
    for idx in pieces:
        t0 = now()
        ranks, words, _ = view.bulk_ranks(_sub(s, s.dev, idx))
        D, alphas, valid = msmoothing.bulk_column_rows(view, spec, ranks[:, :spec.order], words)
        lam = heuristic_lambdas(alphas)
        p = (lam * D).sum(axis=1)
        out.score(p)
        out.times.append(now() - t0)
        probs.append(p)
        if keep:
            out.lam.append(lam)
            out.mask.append(valid)
            out.rows.append(D)
    out.probs = np.concatenate(probs)
    return out


# -- scalar queries ---------------------------------------------------------


def query_positions(dev: mcorpus.EncodedCorpus, order: int, n: int) -> list[tuple]:
    """The first ``n`` held-out positions as (context, word), bos-padded."""
    contexts, words = reference.positions(dev.sentences, dev.vocab.bos_id, order)
    if len(words) < n:
        raise ValueError(f"held-out text has fewer than {n} positions")
    return list(zip(contexts[:n], words[:n]))


def scalar_query(view, spec, context, word) -> float:
    """p(word | context): columns, per-order fallbacks, heuristic λ, mixture."""
    dists = mmixture.context_distributions(view, spec, context)
    N = len(context) + 1
    alphas = [spec.fallback(view, context[N - n:]) for n in range(N, 1, -1)]
    lam = msmoothing.heuristic_lambda(alphas)
    return mmixture.word_probability(dists, lam, word)


def query_stream(s: Setup, queries) -> tuple[np.ndarray, np.ndarray]:
    """One closed-loop caller: latency (ns) and probability of each query."""
    view = s.table.view()  # a fresh view: no rank chains carried over
    spec = s.spec
    lat = np.empty(len(queries), dtype=np.int64)
    probs = np.empty(len(queries))
    clock = time.perf_counter_ns
    for i, (context, word) in enumerate(queries):
        t0 = clock()
        try:
            p = scalar_query(view, spec, context, word)
        except ValueError:
            p = float("nan")
        lat[i] = clock() - t0
        probs[i] = p
    return lat, probs
