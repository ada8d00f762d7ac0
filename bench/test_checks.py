"""Each benchmark check fires on a perturbed input; run with
``python3 -m pytest -q bench/test_checks.py``."""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from mixlm.corpus import build_vocabulary, encode_corpus  # noqa: E402
from mixlm.counts import accumulate, cv_fold_counts  # noqa: E402
from mixlm.smoothing import SmoothingSpec, bulk_column_rows  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from checks import CheckFailed  # noqa: E402

LINES = ["a b a", "a c", "a b", "d a", "b a c", "c a b a"]


def _library_and_reference(family: str, order: int, fold):
    vocab = build_vocabulary(LINES)
    corpus = encode_corpus(LINES, vocab)
    folded = cv_fold_counts(corpus, order, 2)
    spec = (SmoothingSpec.kn(folded.table, order) if family == "kn"
            else SmoothingSpec.ml(order))
    view = folded.view() if fold is not None else folded.table.view()
    ranks, words, sent_of = view.bulk_ranks(corpus)
    folds = None if fold is None else np.full(len(words), fold)
    got = bulk_column_rows(view, spec, ranks, words, folds)
    ctx, ref_words = reference.positions(corpus.sentences, vocab.bos_id, order)
    rc = reference.Recount(corpus.sentences, vocab.bos_id, order, ctx, skip_fold=fold, folds=2)
    ds = None if family == "ml" else reference.discounts(corpus.sentences, vocab.bos_id, order)
    want = reference.columns(rc, family, order, ds, ctx, ref_words)
    return got, want


@pytest.mark.parametrize("order", [2, 3, 4])
def test_recount_discounts_match_library_and_perturbation_fails(order):
    vocab = build_vocabulary(LINES)
    corpus = encode_corpus(LINES, vocab)
    spec = SmoothingSpec.kn(accumulate(corpus, order), order)
    lib = np.array([d.as_tuple() for d in spec.discounts[1:]])
    want = reference.discounts(corpus.sentences, vocab.bos_id, order)[1:]
    checks.close("discounts", lib, want)
    lib[-1, 0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.close("discounts", lib, want)


@pytest.mark.parametrize("family,order", [("kn", 3), ("ml", 2)])
@pytest.mark.parametrize("fold", [None, 0, 1])
def test_recount_matches_library_and_perturbation_fails(family, order, fold):
    got, want = _library_and_reference(family, order, fold)
    checks.columns("columns", got, want)
    probs = got[0].copy()
    probs[np.argwhere(got[2])[0][0], 0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.columns("columns", (probs, got[1], got[2]), want)
    valid = got[2].copy()
    valid[0, 0] = not valid[0, 0]
    with pytest.raises(CheckFailed):
        checks.columns("columns", (got[0], got[1], valid), want)


def test_fold_only_word_scores_zero_under_its_fold():
    got, _ = _library_and_reference("kn", 3, 1)
    # "d" occurs once, in sentence 3 (fold 1): no column gives it mass there
    assert np.any((got[0] * got[2]).sum(axis=1) == 0)


def test_close_fails_off_by_a_millionth():
    p = np.array([0.25, 0.5, 0.25])
    checks.close("p", p, p.copy())
    with pytest.raises(CheckFailed):
        checks.close("p", p + np.array([0, 1e-6, 0]), p)
    with pytest.raises(CheckFailed):
        checks.close("p", np.array([0.25, np.nan, 0.25]), p)


def test_simplex_fails_on_bad_rows():
    lam = np.array([[0.2, 0.8, 0.0], [0.5, 0.25, 0.25]])
    mask = np.array([[True, True, False], [True, True, True]])
    checks.simplex("lam", lam, mask)
    with pytest.raises(CheckFailed):
        checks.simplex("lam", lam * np.array([[1.0], [1.0 + 1e-6]]), mask)
    with pytest.raises(CheckFailed):
        checks.simplex("lam", np.array([[0.2, 0.7, 0.1], [0.5, 0.25, 0.25]]), mask)
    with pytest.raises(CheckFailed):
        checks.simplex("lam", np.array([[1.2, -0.2, 0.0], [0.5, 0.25, 0.25]]), mask)


def test_sums_to_one_fails_on_extra_mass():
    dense = np.array([[0.5, 0.5], [0.1, 0.9]])
    checks.sums_to_one("dense", dense)
    dense[1, 1] += 1e-6
    with pytest.raises(CheckFailed):
        checks.sums_to_one("dense", dense)


def test_beats_needs_a_finite_lower_perplexity():
    checks.beats("ppl", 20.0, 300.0)
    for bad in (300.0, 301.0, float("nan"), float("inf")):
        with pytest.raises(CheckFailed):
            checks.beats("ppl", bad, 300.0)


def test_repeats_fails_on_one_different_round():
    checks.repeats("ppl", [19.5, 19.5, 19.5])
    with pytest.raises(CheckFailed):
        checks.repeats("ppl", [19.5, 19.5, 19.5 + 1e-12])


def test_failure_check_accepts_only_the_fold_only_positions():
    import run
    from pipeline import Stage

    probe_words = [f"{inputs.PROBE_PREFIX}{k}" for k in range(run.SHAPE.probe_words)]
    vocab = build_vocabulary([" ".join(probe_words + ["x"])])
    probes = [vocab.word_to_id[w] for w in probe_words]
    other = vocab.word_to_id["x"]
    setup = SimpleNamespace(vocab=vocab)
    planted = probes * run.SHAPE.probe_repeats

    def one_round(failed_words, eval_failed=0, qprobs=(0.5, 0.25)):
        return SimpleNamespace(train=Stage(failed=len(failed_words), failed_words=failed_words),
                               eval=SimpleNamespace(failed=eval_failed),
                               qprobs=np.array(qprobs))

    ff, lstm = run.WORKLOADS["kn5_ff"], run.WORKLOADS["ml3_lstm_hybrid"]
    run.check_failures(ff, setup, [one_round(planted)])
    run.check_failures(lstm, setup, [one_round([])])
    for bad in (planted[:-1], planted[:-1] + [other], planted + [probes[0]]):
        with pytest.raises(CheckFailed):
            run.check_failures(ff, setup, [one_round(planted), one_round(bad)])
    with pytest.raises(CheckFailed):
        run.check_failures(ff, setup, [one_round(planted, eval_failed=1)])
    with pytest.raises(CheckFailed):
        run.check_failures(ff, setup, [one_round(planted, qprobs=(0.5, 0.0))])
    with pytest.raises(CheckFailed):
        run.check_failures(lstm, setup, [one_round([probes[0]])])


def test_tables_equal_fails_on_changed_entry(tmp_path):
    vocab = build_vocabulary(LINES)
    table = accumulate(encode_corpus(LINES, vocab), 3)
    path = str(tmp_path / "t.counts")
    table.save(path)
    loaded = type(table).load(path)
    checks.tables_equal(table, loaded)
    loaded.orders[2].type_counts[0] += 1
    with pytest.raises(CheckFailed):
        checks.tables_equal(table, loaded)
    loaded = type(table).load(path)
    loaded.token_count += 1
    with pytest.raises(CheckFailed):
        checks.tables_equal(table, loaded)


def test_generator_is_seeded_and_keeps_the_fold_fault_fixed():
    shape = inputs.CorpusShape(types=3000, vocab_cap=500, train_words=20_000,
                               train_sentences=1000, dev_words=2000, dev_sentences=100,
                               phrases=200, probe_words=3, probe_repeats=30)
    folds = 10
    a, b, c = (inputs.generate(shape, s, folds) for s in (7, 7, 8))
    assert a.train == b.train and a.dev == b.dev
    assert a.train != c.train
    for corpus in (a, c):
        tokens = sum(len(line.split()) + 1 for line in corpus.train)
        assert tokens == shape.train_words + shape.train_sentences + 3 * 30 + 30
        vocab = build_vocabulary(corpus.train, max_size=shape.vocab_cap)
        encoded = encode_corpus(corpus.train, vocab)
        folded = cv_fold_counts(encoded, 1, corpus.folds)
        view = folded.view()
        ranks, words, sent_of = view.bulk_ranks(encoded)
        counts = view.bulk_counts(1, ranks[:, 0], words, folds=folded.fold_assignment[sent_of])
        assert int((counts == 0).sum()) == corpus.probe_tokens
