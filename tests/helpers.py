"""Shared fixtures: toy corpora, synthetic text, brute-force count oracles,
and the unfused reference of the network layers and the out-of-place
reference of the optimizer.

The count oracles here are deliberately slow dict-based reimplementations of
the count semantics (full bos padding, eos predicted, continuation counts
from distinct left extensions).  Tests compare the vectorized store against
them on small random corpora, and against a build whose top order is
counted by the per-order context loop (``reference_ngrams``).  The layer
references compose one autograd node per operation, from the library's ops
and the reference ops kept here (``matmul``, ``tanh``, ``sigmoid``,
``softmax_rows``); tests compare the fused layer nodes against them and every
gradient against central differences.
"""

import functools
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

import mixlm.neural.tensor as T
from mixlm.corpus import EncodedCorpus, build_vocabulary, encode_corpus
from mixlm.counts import accumulate

# Two-sentence corpus used for hand-checked values throughout the suite.
TOY_LINES = ["a b a", "a c"]


def toy_corpus():
    vocab = build_vocabulary(TOY_LINES)
    return encode_corpus(TOY_LINES, vocab)


def encode(lines, max_size=None):
    vocab = build_vocabulary(lines, max_size=max_size)
    return encode_corpus(lines, vocab)


def dense(column, J):
    """A column's probabilities of words 0..J-1, each read through ``prob_of``."""
    return np.array([column.prob_of(w) for w in range(J)])


# (order, folds, seed) over which the fold-view and bulk-column parity tests run
PARITY_CASES = [(order, folds, seed) for order in (1, 2, 4, 6) for folds in (2, 5)
                for seed in (23, 61)]


def parity_id(case):
    return "order{}-folds{}-seed{}".format(*case)


def parity_corpora(seed, n_words=9):
    """Training text whose capped vocabulary puts <unk> into it, and held-out
    text that also has words the training text never saw."""
    train = encode(synthetic_lines(40, n_words=n_words, seed=seed), max_size=n_words - 2)
    held = encode_corpus(synthetic_lines(8, n_words=n_words + 4, seed=seed + 1), train.vocab)
    return train, held


@functools.cache
def bench_corpus(seed):
    """The benchmark's training corpus at ``seed``, encoded with its capped
    vocabulary (``bench/inputs.py``)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import inputs
        import run
    finally:
        sys.path.pop(0)
    return encode(inputs.generate(run.SHAPE, seed, run.FOLDS).train,
                  max_size=run.SHAPE.vocab_cap)


def synthetic_lines(n_sentences, n_words=30, seed=0, avg_len=8.0):
    """Markov-generated sentences with a skewed unigram marginal.

    Each word gets a sparse successor set with Dirichlet weights, so the
    corpus has realistic n-gram reuse (some contexts frequent, many singleton).
    """
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    # Zipf-ish start distribution
    start_p = 1.0 / np.arange(1, n_words + 1)
    start_p /= start_p.sum()
    succ = []
    for i in range(n_words):
        k = int(rng.integers(2, max(3, n_words // 3)))
        ids = rng.choice(n_words, size=min(k, n_words), replace=False)
        p = rng.dirichlet(np.ones(len(ids)))
        succ.append((ids, p))
    lines = []
    stop_p = 1.0 / avg_len
    for _ in range(n_sentences):
        w = int(rng.choice(n_words, p=start_p))
        sent = [words[w]]
        while rng.random() >= stop_p and len(sent) < 40:
            ids, p = succ[w]
            w = int(ids[rng.choice(len(ids), p=p)])
            sent.append(words[w])
        lines.append(" ".join(sent))
    return lines


def brute_ngrams(corpus: EncodedCorpus, order: int):
    """grams[n][(context tuple, word)] = count, for n in 1..order."""
    bos = corpus.vocab.bos_id
    grams = [None] + [defaultdict(int) for _ in range(order)]
    for sent in corpus.sentences:
        padded = [bos] * (order - 1) + [int(x) for x in sent]
        for i in range(order - 1, len(padded)):
            w = padded[i]
            for n in range(1, order + 1):
                ctx = tuple(padded[i - n + 1:i])
                grams[n][(ctx, w)] += 1
    return grams


def brute_continuation(grams, n):
    """cc[(context, word)] = number of distinct single-symbol left extensions."""
    cc = defaultdict(int)
    for (ctx, w) in grams[n + 1]:
        cc[(ctx[1:], w)] += 1
    return cc


def brute_context_stats(gram_n):
    """Per-context (total, unique, n1, n2, n3p) from a {(ctx, w): c} dict."""
    stats = defaultdict(lambda: [0, 0, 0, 0, 0])
    for (ctx, _), c in gram_n.items():
        s = stats[ctx]
        s[0] += c
        s[1] += 1
        if c == 1:
            s[2] += 1
        elif c == 2:
            s[3] += 1
        else:
            s[4] += 1
    return {k: tuple(v) for k, v in stats.items()}


def drop_fold(corpus: EncodedCorpus, fold: int, n_folds: int) -> EncodedCorpus:
    """Corpus without the sentences assigned to one cross-validation fold."""
    kept = [s for i, s in enumerate(corpus.sentences) if i % n_folds != fold]
    return EncodedCorpus(sentences=kept, vocab=corpus.vocab)


def fold_out_tables(corpus: EncodedCorpus, order: int, n_folds: int):
    """Per fold, a store counted without that fold's sentences: the reference
    for bulk calls that leave the fold out, compared context by context
    (the two stores rank their contexts differently)."""
    return [accumulate(drop_fold(corpus, f, n_folds), order) for f in range(n_folds)]


def reference_ngrams(stream, targets, order, base, fold):
    """What ``counts._ngrams`` returns, counted by the per-order context loop
    it replaced: each order's context codes, suffix rank * B + leftmost
    symbol, sorted with their inverse, whose ranks build the next order's
    codes; then the top order's type keys from the last ranks and the words,
    with their counts and, given each position's fold, each position's type
    index and fold."""
    rank, contexts = np.zeros(len(targets), dtype=np.int64), [np.zeros(1, dtype=np.int64)]
    for n in range(2, order + 1):
        ctx, rank = np.unique(rank * base + stream[targets - (n - 1)], return_inverse=True)
        contexts.append(ctx)
    keys, inverse, counts = np.unique(rank * base + stream[targets], return_inverse=True,
                                      return_counts=True)
    return contexts, keys, counts, None if fold is None else (inverse, fold)


def _retally(groups, counts, n_groups):
    """(n_groups, 4) total, n1, n2, n3p of the counts in each group, by a loop."""
    out = np.zeros((n_groups, 4), dtype=np.int64)
    for g, c in zip(groups.tolist(), counts.tolist()):
        out[g, 0] += c
        out[g, min(c, 3)] += 1
    return out


def _assert_strictly_sorted(keys, where):
    assert np.all(np.diff(keys) > 0), f"{where}: keys not strictly sorted"


def store_width(table, n_folds=1):
    """The width a store's bounds select for its key arrays: int32 while the
    top order's contexts times B and the token count times the folds stay
    below 2**31."""
    bound = max(len(table.orders[-1].ctx_codes) * table.base, table.token_count * n_folds)
    return np.dtype(np.int32 if bound < 2**31 else np.int64)


KEYS = ("ctx_codes", "type_keys")
# each coded value array of a store and the table its codes index; the fold
# tags are the only other arrays, and they take the unsigned width of F
TABLES = {"type_counts": "count_table", "stats": "stat_table",
          "cont_type_counts": "cont_count_table", "cont_stats": "cont_stat_table",
          "type_cells": "count_table", "stat_cells": "delta_table",
          "cont_type_cells": "cont_count_table", "cont_stat_cells": "cont_delta_table"}


def tag_width(n_folds):
    """The width of each fold tag array of a store with ``n_folds`` folds,
    whose largest tag is F = ``n_folds``: uint8 up to 255 folds, uint16 up
    to 65,535 and uint32 beyond."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32)
                if n_folds <= np.iinfo(t).max)


def code_width(table):
    """The width of the codes into ``table``: uint8 up to 256 entries,
    uint16 up to 65,536 and uint32 beyond."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32)
                if len(table) <= np.iinfo(t).max + 1)


def decoded(holder, name):
    """The values of the coded array ``name`` of ``holder``, an order's or a
    fold's arrays: its codes looked up in its table (None when absent)."""
    codes = getattr(holder, name)
    return None if codes is None else getattr(holder, TABLES[name])[codes]


def _assert_width(holder, width, where, n_folds=None):
    """Every key array and table of ``holder`` has the store's ``width``,
    every code array the width its table's length selects, and every tag
    array the width of ``n_folds``.  Each table holds its sorted distinct
    values (rows), every one of them indexed by a code."""
    for name, arr in vars(holder).items():
        if arr is not None:
            table = getattr(holder, TABLES[name]) if name in TABLES else None
            want = (code_width(table) if table is not None else
                    width if name in KEYS or name in TABLES.values() else tag_width(n_folds))
            assert arr.dtype == want, f"{where} {name}: {arr.dtype}, not {want}"
            if table is not None:
                np.testing.assert_array_equal(table, np.unique(table, axis=0),
                                              err_msg=f"{where} {name}: not sorted distinct")
                assert np.array_equal(np.unique(arr), np.arange(len(table))), f"{where} {name}"


def _levels(count):
    """(total, n1, n2, n3p) of one count, 0 counting nowhere."""
    return np.array([count, count == 1, count == 2, count >= 3])


def fold_recount(table, corpus, n_folds):
    """Per order n, what leaving each fold out takes from each type (by
    index) and each context (by rank), recounted with dicts one fold at a
    time (sentence i in fold i % n_folds): an (n_types, F, 2) array of each
    type's raw and continuation count lost, and an (n_ctx, F, 2, 4) array of
    each context's raw and continuation stats lost.  A type loses its
    occurrences inside the fold, and its continuation count one for each
    left extension found only there; zero where the fold does not hold it."""
    view, order = table.view(), table.order
    full = brute_ngrams(corpus, order)
    cont = [None] + [brute_continuation(full, n) for n in range(1, order)] + [{}]
    out = [None] + [(np.zeros((len(od.type_keys), n_folds, 2), dtype=np.int64),
                     np.zeros((len(od.ctx_codes), n_folds, 2, 4), dtype=np.int64))
                    for od in table.orders[1:]]
    for f in range(n_folds):
        part = brute_ngrams(EncodedCorpus([s for i, s in enumerate(corpus.sentences)
                                           if i % n_folds == f], corpus.vocab), order)
        for n in range(1, order + 1):
            types, contexts = out[n]
            lost = defaultdict(int)
            for (ctx, w), c in (part[n + 1].items() if n < order else ()):
                if c == full[n + 1][(ctx, w)]:  # a left extension found only in fold f
                    lost[(ctx[1:], w)] += 1
            for (ctx, w), c in part[n].items():
                r = int(view.rank_chain(ctx)[len(ctx)])
                i = int(np.searchsorted(table.orders[n].type_keys, r * table.base + w))
                types[i, f] = c, lost[(ctx, w)]
                contexts[r, f, 0] += _levels(full[n][(ctx, w)]) - _levels(full[n][(ctx, w)] - c)
                if n < order:
                    cc = cont[n][(ctx, w)]
                    contexts[r, f, 1] += _levels(cc) - _levels(cc - lost[(ctx, w)])
    return out


def assert_store_invariants(table, folded=None, corpus=None):
    """Check what every count store keeps true, with its fold data if given
    (and then the corpus it was counted from).

    Every key array, table and the fold assignment have the store's width,
    every code array the width its table selects, each table holds its
    sorted distinct entries, every fold tag array the unsigned width of F
    (values read through the tables below), keys are strictly sorted,
    type counts are at least 1, each stats array equals a re-tally
    of its type arrays plus one all-zero last row for rank -1, the raw
    totals of every order sum to the token count, and the continuation
    counts are aligned with the raw type keys.  Every type and context tag
    names the one fold a dict recount (``fold_recount``) finds it in, or is
    F where the recount finds two or more, and the rank -1 row's tag is 0.
    Every cell of every tag-F id, raw and continuation, of types and of
    contexts, equals what the recount finds leaving that fold out takes, 0
    in the folds the id does not occur in; row 0 is zero, and the order-1
    fold totals sum to the token count.
    """
    base = table.base
    width = store_width(table, 1 if folded is None else folded.n_folds)
    for n in range(1, table.order + 1):
        od = table.orders[n]
        _assert_width(od, width, f"order {n}")
        _assert_strictly_sorted(od.ctx_codes, f"order {n} contexts")
        if n > 1:
            assert np.all(od.ctx_codes // base < len(table.orders[n - 1].ctx_codes)), n
        kinds = [("raw", decoded(od, "type_counts"), decoded(od, "stats"))]
        if n < table.order:
            kinds.append(("continuation", decoded(od, "cont_type_counts"),
                          decoded(od, "cont_stats")))
        else:
            assert od.cont_type_counts is None and od.cont_stats is None, n
        _assert_strictly_sorted(od.type_keys, f"order {n} types")
        groups = od.type_keys // base
        assert np.all(groups < len(od.ctx_codes)), n
        for name, counts, stats in kinds:
            where = f"order {n} {name}"
            assert len(counts) == len(od.type_keys) and np.all(counts >= 1), where
            np.testing.assert_array_equal(stats, _retally(groups, counts, len(od.ctx_codes) + 1),
                                          err_msg=where)
        assert decoded(od, "stats")[:, 0].sum() == table.token_count, n
    if folded is None:
        return
    assert folded.table is table
    assert folded.fold_assignment.dtype == width
    F = folded.n_folds
    assert decoded(folded.fold_data[1], "stat_cells")[:, 0].sum() == table.token_count
    recount = fold_recount(table, corpus, F)
    for n in range(1, table.order + 1):
        fd = folded.fold_data[n]
        _assert_width(fd, width, f"order {n} folds", F)
        types, contexts = recount[n]
        for what, tags, lost, names in (
                ("types", fd.type_tags, types, ("type_cells", "cont_type_cells")),
                ("contexts", fd.stat_tags, contexts, ("stat_cells", "cont_stat_cells"))):
            where = f"order {n} fold {what}"
            held = (lost[:, :, 0] if what == "types" else lost[:, :, 0, 0]) > 0
            assert held.any(axis=1).all(), f"{where}: an id in no fold"
            want = np.where(held.sum(axis=1) > 1, F, held.argmax(axis=1)).tolist()
            if what == "contexts":
                want.append(0)  # the rank -1 row
            assert tags.tolist() == want, where
            # row 0 of zeros, then one row per tag-F id in id order, which
            # holds 0 in the folds the id does not occur in
            rows = np.concatenate([np.zeros_like(lost[:1]), lost[tags[:len(lost)] == F]])
            for k, name in enumerate(names):
                if n == table.order and k == 1:
                    assert getattr(fd, name) is None, f"{where} {name}"
                    continue
                cells = decoded(fd, name)
                want = rows[:, :, k]
                assert cells.shape == (len(want) * F, *want.shape[2:]), f"{where} {name}"
                np.testing.assert_array_equal(cells.reshape(want.shape), want,
                                              err_msg=f"{where} {name}")
                assert not cells[:F].any(), f"{where} {name}: row 0 is not zero"


# -- unfused reference of the network layers -------------------------------


def matmul(a, b) -> T.Tensor:
    """Matrix product node of two 2-d operands."""
    a, b = T._wrap(a), T._wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.value.shape} @ {b.value.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.value.shape} @ {b.value.shape}")
    return T._node(a.value @ b.value, (a, b),
                   (lambda g: g @ b.value.T, lambda g: a.value.T @ g))


def tanh(a) -> T.Tensor:
    """Elementwise tanh node."""
    a = T._wrap(a)
    y = np.tanh(a.value)
    return T._node(y, (a,), (lambda g: g * (1.0 - y * y),))


def sigmoid(a: T.Tensor) -> T.Tensor:
    """Logistic node, evaluating each half only where it cannot overflow."""
    x = a.value
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = T.Tensor(y, (a,))

    def backward(g):
        if a.requires_grad:
            a._accum(g * y * (1.0 - y))

    out._backward = backward
    return out


def softmax_rows(a: T.Tensor) -> T.Tensor:
    """Row-wise softmax node with the max-subtraction trick."""
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = T.Tensor(y, (a,))

    def backward(g):
        if a.requires_grad:
            dot = (g * y).sum(axis=1, keepdims=True)
            a._accum(y * (g - dot))

    out._backward = backward
    return out


def mean_all(a) -> T.Tensor:
    """Mean of every element, as a sum node divided by the element count."""
    return T.tsum(a) / float(a.value.size)


def feedforward_unfused(ff, x):
    """``FeedForward.__call__`` as one node per operation (three)."""
    return tanh(matmul(x, ff.W) + ff.b)


def lstm_step_unfused(lstm, x, state):
    """``LSTM.step`` as one node per operation (about 17 per step)."""
    h_prev, c_prev = state
    H = lstm.hidden_size
    gates = matmul(x, lstm.W_x) + matmul(h_prev, lstm.W_h) + lstm.b
    i = sigmoid(T.slice_cols(gates, 0, H))
    f = sigmoid(T.slice_cols(gates, H, 2 * H))
    o = sigmoid(T.slice_cols(gates, 2 * H, 3 * H))
    g = tanh(T.slice_cols(gates, 3 * H, 4 * H))
    c = f * c_prev + i * g
    h = o * tanh(c)
    return h, (h, c)


def output_unfused(out, h, mask=None):
    """``OutputLayer.__call__`` as one node per operation: softmax, then
    zero the masked columns and renormalize."""
    lam = softmax_rows(matmul(h, out.W) + out.b)
    if mask is None:
        return lam
    kept = lam * T.constant(mask.astype(lam.value.dtype))
    return kept / T.tsum(kept, axis=1, keepdims=True)


def graph_nodes(*roots) -> int:
    """Tensors reachable from any of ``roots`` through parent links."""
    seen = {id(r) for r in roots}
    stack = list(roots)
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def gradient_check(loss_fn, params, eps: float = 1e-5) -> float:
    """Compare reverse-mode gradients against central differences.

    ``loss_fn`` must rebuild the graph deterministically on every call.
    Returns the maximum relative error over every element of every parameter.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = [None if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        if a is None:
            a = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(loss_fn().value)
            flat[i] = orig - eps
            down = float(loss_fn().value)
            flat[i] = orig
            fd = (up - down) / (2.0 * eps)
            g = a.reshape(-1)[i]
            err = abs(g - fd) / max(1.0, abs(g), abs(fd))
            worst = max(worst, err)
    return worst


# -- out-of-place reference of the optimizer -------------------------------


def reference_clip(grads, max_norm: float = 5.0):
    """Global-norm clipping that copies every gradient: returns the clipped
    gradients and the pre-clip norm."""
    total = 0.0
    for g in grads:
        total += float((g.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        grads = [g * scale for g in grads]
    return grads, norm


def reference_adam(value, grad, m, v, t: int, lr: float = 0.001, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update that builds new arrays: returns
    (new value, new m, new v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v
