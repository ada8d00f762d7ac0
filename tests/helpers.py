"""Shared fixtures: toy corpora, synthetic text, brute-force count oracles,
and the unfused reference of the network layers and the out-of-place
reference of the optimizer.

The count oracles here are deliberately slow dict-based reimplementations of
the count semantics (full bos padding, eos predicted, continuation counts
from distinct left extensions).  Tests compare the vectorized store against
them on small random corpora.  The layer references compose one autograd
node per elementwise operation; tests compare the fused layer nodes against
them and every gradient against central differences.
"""

from collections import defaultdict

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


def _retally(groups, counts, n_groups):
    """(n_groups, 4) total, n1, n2, n3p of the counts in each group, by a loop."""
    out = np.zeros((n_groups, 4), dtype=np.int64)
    for g, c in zip(groups.tolist(), counts.tolist()):
        out[g, 0] += c
        out[g, min(c, 3)] += 1
    return out


def _assert_strictly_sorted(keys, where):
    assert np.all(np.diff(keys) > 0), f"{where}: keys not strictly sorted"


def assert_store_invariants(table, folded=None):
    """Check what every count store keeps true, with its fold data if given.

    Keys are strictly sorted, type counts are at least 1, each stats array
    equals a re-tally of its type arrays, the raw totals of every order sum
    to the token count, and no fold delta exceeds the full value it is
    subtracted from.
    """
    base = table.base
    for n in range(1, table.order + 1):
        od = table.orders[n]
        _assert_strictly_sorted(od.ctx_codes, f"order {n} contexts")
        if n > 1:
            assert np.all(od.ctx_codes // base < len(table.orders[n - 1].ctx_codes)), n
        kinds = [("raw", od.type_keys, od.type_counts, od.stats)]
        if n < table.order:
            kinds.append(("continuation", od.cont_type_keys, od.cont_type_counts, od.cont_stats))
        for name, keys, counts, stats in kinds:
            where = f"order {n} {name}"
            _assert_strictly_sorted(keys, where)
            assert len(counts) == len(keys) and np.all(counts >= 1), where
            groups = keys // base
            assert np.all(groups < len(od.ctx_codes)), where
            np.testing.assert_array_equal(stats, _retally(groups, counts, len(od.ctx_codes)),
                                          err_msg=where)
        assert od.stats[:, 0].sum() == table.token_count, n
    if folded is None:
        return
    assert folded.table is table
    F = folded.n_folds
    for n in range(1, table.order + 1):
        od, fd = table.orders[n], folded.fold_data[n]
        kinds = [("raw", od.type_counts, od.stats, fd.type_keys, fd.type_counts,
                  fd.stat_keys, fd.stat_deltas)]
        if n < table.order:
            kinds.append(("continuation", od.cont_type_counts, od.cont_stats, fd.cont_type_keys,
                          fd.cont_type_counts, fd.cont_stat_keys, fd.cont_stat_deltas))
        for name, counts, stats, type_keys, type_deltas, stat_keys, stat_deltas in kinds:
            where = f"order {n} {name} folds"
            _assert_strictly_sorted(type_keys, where)
            _assert_strictly_sorted(stat_keys, where)
            assert np.all(type_deltas >= 1), where
            assert np.all(type_deltas <= counts[type_keys // F]), where
            assert np.all(stat_deltas <= stats[stat_keys // F]), where


# -- unfused reference of the network layers -------------------------------


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


def lstm_step_unfused(lstm, x, state):
    """``LSTM.step`` as one node per operation (about 17 per step)."""
    h_prev, c_prev = state
    H = lstm.hidden_size
    gates = x @ lstm.W_x + h_prev @ lstm.W_h + lstm.b
    i = sigmoid(T.slice_cols(gates, 0, H))
    f = sigmoid(T.slice_cols(gates, H, 2 * H))
    o = sigmoid(T.slice_cols(gates, 2 * H, 3 * H))
    g = T.tanh(T.slice_cols(gates, 3 * H, 4 * H))
    c = f * c_prev + i * g
    h = o * T.tanh(c)
    return h, (h, c)


def output_unfused(out, h, mask=None):
    """``OutputLayer.__call__`` as one node per operation: softmax, then
    zero the masked columns and renormalize."""
    lam = softmax_rows(h @ out.W + out.b)
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
