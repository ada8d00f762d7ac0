"""End-to-end benchmark of the mixture-of-distributions language model.

    python3 bench/run.py --workload kn5_ff --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

One run generates its corpus from the seed, sets the model up several times
(the median is ``setup_s``), then repeats identical rounds for ``--seconds``
(train from a fixed initialisation, score the held-out text, answer a stream
of scalar queries), and finally checks the outputs against independent
computations.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics from a traced run
with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread: steadier timings on a small machine

import argparse
import gc
import json
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "mixlm" / "__init__.py").is_file():
    sys.exit(f"run.py: no mixlm sources under {ROOT / 'src'}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from mixlm import corpus as mcorpus  # noqa: E402
from mixlm import mixture as mmixture  # noqa: E402
from mixlm import smoothing as msmoothing  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import pipeline  # noqa: E402
import reference  # noqa: E402
from pipeline import Workload  # noqa: E402

OUT = HERE / "out"
SETUP_REPEATS = 9
CHECK_SENTENCES = 30  # sentences per recount check

SHAPE = inputs.CorpusShape(types=30_000, vocab_cap=3_000, train_words=100_000,
                           train_sentences=5_000, dev_words=80_000, dev_sentences=4_000)
FOLDS = 10  # the generator's fold layout and the count store's views

WORKLOADS = {
    "kn5_ff": Workload("kn5_ff", "kn", 5, True, "ff", queries=500, hidden=50),
    "ml3_lstm_hybrid": Workload("ml3_lstm_hybrid", "ml", 3, True, "lstm", queries=500,
                                hidden=100, embedding=50,
                                batch_sentences=16, train_lengths=(10, 14, 18, 22, 26, 30),
                                dev_lengths=tuple(range(6, 22)) * 3,
                                block_dropout=0.5),
    "kn5_query": Workload("kn5_query", "kn", 5, False, None, queries=1000),
}

E2E_UNITS = {"setup_s": "s", "train_tok_s": "tokens/s", "eval_tok_s": "tokens/s",
             "query_us": "us", "dev_ppl": "ppl", "store_bytes_per_token": "B/token",
             "peak_rss_mb": "MB"}


@dataclass
class Plan:
    queries: list
    train: list
    dev: list


@dataclass
class Round:
    attempted: int
    failed: int
    train: pipeline.Stage | None
    eval: pipeline.EvalOut
    lat: np.ndarray
    qprobs: np.ndarray
    net: object  # the trained λ network; dropped once a later round exists

    def drop_outputs(self) -> None:
        """Keep only what the checks compare across rounds."""
        self.net = None
        self.eval.probs = None


def make_plan(work: Workload, s: pipeline.Setup, seed: int) -> Plan:
    train = []
    if work.network == "lstm":
        train, dev = pipeline.lstm_batches(s, work, seed + 1)
    else:
        dev = pipeline.dev_chunks(s)
        if work.network == "ff":
            train = pipeline.ff_batches(s, work, seed + 1)
    return Plan(pipeline.query_positions(s.dev, work.order, work.queries), train, dev)


def one_round(work: Workload, s: pipeline.Setup, plan: Plan, seed: int,
              tracer=pipeline.NO_TRACE) -> Round:
    net = train = None
    if work.network == "ff":
        net, train = pipeline.train_ff(s, work, plan.train, seed + 2, tracer)
        ev = pipeline.eval_ff(s, net, plan.dev, tracer=tracer)
    elif work.network == "lstm":
        net, train = pipeline.train_lstm(s, work, plan.train, seed + 2, tracer)
        ev = pipeline.eval_lstm(s, net, plan.dev, tracer=tracer)
    else:
        ev = pipeline.eval_heuristic(s, plan.dev)
    lat, qp = pipeline.query_stream(s, plan.queries)
    q_failed = int((~(np.isfinite(qp) & (qp > 0))).sum())
    attempted = (train.positions if train else 0) + ev.positions + len(qp)
    failed = (train.failed if train else 0) + ev.failed + q_failed
    return Round(attempted, failed, train, ev, lat, qp, net)


# -- checks -----------------------------------------------------------------


def check_failures(work: Workload, s: pipeline.Setup, rounds: list[Round]) -> None:
    """Only the planted fold-only training positions of ``kn5_ff`` fail."""
    probes = {s.vocab.word_to_id[f"{inputs.PROBE_PREFIX}{k}"] for k in range(SHAPE.probe_words)}
    want = SHAPE.probe_words * SHAPE.probe_repeats if work.network == "ff" else 0
    for r in rounds:
        if r.train is not None:
            if r.train.failed != want or len(r.train.failed_words) != want:
                raise checks.CheckFailed(f"training: {r.train.failed} failed positions, "
                                         f"expected {want}")
            if not set(r.train.failed_words) <= probes:
                raise checks.CheckFailed("training: a position without a fold-only target failed")
        q_failed = int((~(np.isfinite(r.qprobs) & (r.qprobs > 0))).sum())
        if r.eval.failed or q_failed:
            raise checks.CheckFailed(f"{r.eval.failed} held-out and {q_failed} query "
                                     "positions failed, expected 0")


def run_checks(work: Workload, s: pipeline.Setup, plan: Plan, rounds: list[Round],
               last: Round, seed: int) -> dict:
    """Raise CheckFailed unless every output matches; return reference figures.

    ``last`` is the most recent round, the only one that keeps its network."""
    info: dict = {}
    spec, order, bos = s.spec, work.order, s.vocab.bos_id
    checks.repeats("held-out perplexity over rounds", [r.eval.ppl for r in rounds])
    checks.repeats("query probabilities over rounds", [r.qprobs for r in rounds])
    check_failures(work, s, rounds)
    rng = np.random.default_rng(seed + 3)
    ds = None
    if spec.family == "kn":
        ds = reference.discounts(s.train.sentences, bos, order)
        checks.close("KN discounts against the recount",
                     [d.as_tuple() for d in spec.discounts[1:]], ds[1:])

    # columns against a recount: full view on held-out sentences and queries
    dev_pick = np.sort(rng.choice(len(s.dev.sentences), CHECK_SENTENCES, replace=False))
    dev_sents = [s.dev.sentences[i] for i in dev_pick]
    ctx, words = reference.positions(dev_sents, bos, order)
    q_ctx = [c for c, _ in plan.queries[:300]]
    q_words = [w for _, w in plan.queries[:300]]
    full = reference.Recount(s.train.sentences, bos, order, ctx + q_ctx)
    view = s.table.view()
    ranks, lib_words, _ = view.bulk_ranks(mcorpus.EncodedCorpus(dev_sents, s.vocab))
    checks.close("held-out words", lib_words, words, 0)
    checks.columns("full-view columns",
                   msmoothing.bulk_column_rows(view, spec, ranks, lib_words),
                   reference.columns(full, spec.family, order, ds, ctx, words))
    q_ref = reference.columns(full, spec.family, order, ds, q_ctx, q_words)
    checks.close("scalar queries against the recount", last.qprobs[:300],
                 reference.interpolate(q_ref[0], q_ref[1]))

    # scalar queries against the bulk path, at every timed position
    ranks, dev_words, _ = view.bulk_ranks(s.dev)
    Q = len(plan.queries)
    probs, alphas, _ = msmoothing.bulk_column_rows(view, spec, ranks[:Q], dev_words[:Q])
    bulk = np.array([msmoothing.heuristic_lambda(alphas[t, :0:-1]) @ probs[t]
                     for t in range(Q)])
    checks.close("scalar queries against the bulk path", last.qprobs, bulk)

    if s.folded is not None:
        fold0 = np.arange(0, len(s.train.sentences), FOLDS)
        pick = np.concatenate([[0], np.sort(rng.choice(fold0[1:], CHECK_SENTENCES - 1,
                                                        replace=False))])
        sents = [s.train.sentences[i] for i in pick]
        ctx, words = reference.positions(sents, bos, order)
        held_out = reference.Recount(s.train.sentences, bos, order, ctx,
                                     skip_fold=0, folds=FOLDS)
        fview = s.folded.view()
        ranks, lib_words, _ = fview.bulk_ranks(mcorpus.EncodedCorpus(sents, s.vocab))
        checks.columns("fold-view columns",
                       msmoothing.bulk_column_rows(fview, spec, ranks, lib_words,
                                                   np.zeros(len(lib_words), dtype=np.int64)),
                       reference.columns(held_out, spec.family, order, ds,
                                         ctx, words))
    if s.saved is not None:
        checks.tables_equal(s.saved, s.table)

    # λ rows, dense mixtures and perplexity on the held-out text
    identity = work.network == "lstm"
    if work.network == "ff":
        ev = pipeline.eval_ff(s, last.net, plan.dev, keep=True)
        sents = s.dev.sentences
    elif identity:
        ev = pipeline.eval_lstm(s, last.net, plan.dev, keep=True)
        sents = [s.dev.sentences[i] for b in plan.dev for i in b]
    else:
        ev = pipeline.eval_heuristic(s, plan.dev, keep=True)
        sents = s.dev.sentences
    lam, mask = np.concatenate(ev.lam), np.concatenate(ev.mask)
    checks.simplex("λ rows", lam, mask)
    checks.close("held-out probabilities of the checked pass", ev.probs, last.eval.probs, 0)
    ctx, words = reference.positions(sents, bos, order)
    sample = rng.choice(len(words), 20, replace=False)
    dense = []
    for t in sample:
        dists = mmixture.context_distributions(view, spec, ctx[t], identity=identity)
        dense.append(mmixture.full_distribution(dists, lam[t]))
        checks.close("dense mixture at the word", dense[-1][words[t]], ev.probs[t])
    checks.sums_to_one("dense mixtures", np.array(dense))
    unigram = float(np.exp(-np.log(np.concatenate(ev.rows)[:, 0]).mean()))
    checks.beats("held-out perplexity against the unigram column", ev.ppl, unigram)

    high = spec if spec.family == "kn" else msmoothing.SmoothingSpec.kn(s.table, order)
    every = pipeline.dev_chunks(s)
    kn_high = pipeline.eval_heuristic(s, every, high).ppl
    kn2 = pipeline.eval_heuristic(s, every, msmoothing.SmoothingSpec.kn(s.table, 2)).ppl
    checks.beats(f"heuristic KN{order} against KN2 perplexity", kn_high, kn2)
    info.update(unigram_ppl=unigram, heuristic_kn_ppl=kn_high, heuristic_kn2_ppl=kn2)
    return info


# -- metrics ----------------------------------------------------------------


def _median(xs) -> float:
    return float(statistics.median(xs))


def fastest(rounds: list[Round], pieces) -> np.ndarray:
    """Per timed piece, its shortest time over the identical rounds."""
    return np.min(np.stack([np.asarray(pieces(r), dtype=np.float64) for r in rounds]), axis=0)


def round_pieces(r: Round) -> list:
    """Every timed piece of a round in seconds: minibatches, scoring, queries."""
    return (r.train.times if r.train else []) + r.eval.times + (r.lat * 1e-9).tolist()


def end_to_end(work, s, setups, rounds, rss_mb) -> dict:
    stages = np.array(setups)  # (set-ups, stages) in seconds
    tokens = s.train.token_count
    if work.network:
        train = rounds[0].train.positions / fastest(rounds, lambda r: r.train.times).sum()
    else:  # counting is the n-gram model's training
        train = tokens / stages[:, 1].min()
    table_b, fold_b = pipeline.store_bytes(s)
    values = {
        "setup_s": _median(stages.sum(axis=1)),
        "train_tok_s": train,
        "eval_tok_s": rounds[0].eval.positions / fastest(rounds, lambda r: r.eval.times).sum(),
        "query_us": float(np.median(fastest(rounds, lambda r: r.lat))) / 1e3,
        "dev_ppl": rounds[0].eval.ppl,
        "store_bytes_per_token": (table_b + fold_b) / tokens,
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def tail(lat_ns: np.ndarray) -> tuple[float, float]:
    """Highest of p50/p90/p99/p99.9/p99.99 with at least ten samples beyond it."""
    n = len(lat_ns)
    pct = max([p for p in (50.0, 90.0, 99.0, 99.9, 99.99) if n * (1 - p / 100) >= 10],
              default=50.0)
    return pct, float(np.percentile(lat_ns, pct)) / 1e3


def per_layer(s, setup_tr, round_tr, traced, untraced) -> dict:
    from spans import SCALAR_COUNTS, SCALAR_MIXTURE, SCALAR_SMOOTHING
    calls, incl, own = round_tr.totals()
    scalls, sincl, _ = setup_tr.totals()
    R = len(traced)
    Q = sum(len(r.lat) for r in traced)
    sec = 1e-9 / R  # ns over all traced rounds -> s per round

    def rate(tokens, ns):
        return tokens / (ns * 1e-9) if ns else 0.0

    table_b, fold_b = pipeline.store_bytes(s)
    lat = np.concatenate([r.lat for r in untraced])
    pct, tail_us = tail(lat)
    m = {
        "corpus.encode_tok_s": ("tokens/s", rate(s.train.token_count + s.dev.token_count,
                                                 sincl["corpus.encode_corpus"])),
        "counts.build_tok_s": ("tokens/s", rate(s.train.token_count,
                                                sincl["counts.cv_fold_counts"]
                                                + sincl["counts.accumulate"])),
        "counts.store_bytes": ("B", table_b),
        "counts.fold_bytes": ("B", fold_b),
        "counts.file_bytes": ("B", s.file_bytes),
        "counts.save_s": ("s", sincl["counts.save"] * 1e-9),
        "counts.load_s": ("s", sincl["counts.load"] * 1e-9),
        "counts.bulk_ranks_tok_s": ("tokens/s", rate(round_tr.ranked, incl["counts.bulk_ranks"])),
        "counts.bulk_stats_self_s": ("s", own["counts.bulk_stats"] * sec),
        "counts.bulk_stats_calls": ("count", calls["counts.bulk_stats"] / R),
        "counts.bulk_counts_self_s": ("s", own["counts.bulk_counts"] * sec),
        "counts.bulk_counts_calls": ("count", calls["counts.bulk_counts"] / R),
        "counts.scalar_calls_per_query": ("count", sum(calls[n] for n in SCALAR_COUNTS) / Q),
        "counts.scalar_self_us_per_query": ("us", sum(own[n] for n in SCALAR_COUNTS) / Q / 1e3),
        "smoothing.column_rows_fold_self_s": ("s", own["smoothing.bulk_column_rows.fold"] * sec),
        "smoothing.column_rows_full_self_s": ("s", own["smoothing.bulk_column_rows.full"] * sec),
        "smoothing.scalar_self_us_per_query": ("us", sum(own[n] for n in SCALAR_SMOOTHING)
                                               / Q / 1e3),
        "smoothing.discounts_s": ("s", sincl["smoothing.discounts"] * 1e-9),
        "mixture.self_us_per_query": ("us", sum(own[n] for n in SCALAR_MIXTURE) / Q / 1e3),
        "neural.features.fold_self_s": ("s", own["neural.features.fold"] * sec),
        "neural.features.full_self_s": ("s", own["neural.features.full"] * sec),
        "neural.forward_s": ("s", incl["neural.forward"] * sec),
        "neural.backward_s": ("s", incl["neural.backward"] * sec),
        "neural.optim.step_s": ("s", incl["neural.optim.step"] * sec),
        "neural.graph_nodes_per_batch": ("count", float(np.mean(round_tr.graph_sizes))
                                         if round_tr.graph_sizes else 0.0),
        "neural.eval_forward_s": ("s", incl["neural.eval_forward"] * sec),
        "query.tail_us": ("us", tail_us),
        "query.tail_pct": ("%", pct),
        "query.samples": ("count", len(lat)),
        "trace.overhead_pct": ("%", 100.0 * (fastest(traced, round_pieces).sum()
                                             / fastest(untraced, round_pieces).sum() - 1.0)),
    }
    return {k: {"value": float(v), "unit": u} for k, (u, v) in m.items()}


# -- driver -----------------------------------------------------------------


def run(work: Workload, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    corpus = inputs.generate(SHAPE, seed, FOLDS)
    scratch = str(OUT / f"{work.name}-{os.getpid()}.counts")
    setups: list[tuple] = []

    def set_up(tracer=None) -> pipeline.Setup:
        gc.collect()  # no collection of earlier rounds' garbage inside the set-up
        if tracer is None:
            out = pipeline.setup(work, corpus, scratch)
            setups.append(out.stages)
            return out
        tracer.install()
        try:
            return pipeline.setup(work, corpus, scratch)
        finally:
            tracer.uninstall()

    setup_tr = round_tr = None
    if trace:
        from spans import Tracer
        setup_tr, round_tr = Tracer(), Tracer()
        s = set_up(setup_tr)
    else:
        s = set_up()
    plan = make_plan(work, s, seed)

    # Set-up repeats alternate with the rounds, so that their median spans
    # the whole run rather than a few seconds of it.  Each set-up replaces
    # the last and each round drops the previous round's network, so that
    # peak memory does not grow with the number of rounds.
    untraced: list[Round] = []
    traced: list[Round] = []
    last = None
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(untraced) > len(traced):
            round_tr.install()
            try:
                r = one_round(work, s, plan, seed, round_tr)
            finally:
                round_tr.uninstall()
            traced.append(r)
        else:
            r = one_round(work, s, plan, seed)
            untraced.append(r)
        if last is not None:
            last.drop_outputs()
        last = r
        s = None
        s = set_up()
        if time.perf_counter() >= deadline and (traced or not trace):
            break
    while len(setups) < SETUP_REPEATS:
        s = None
        s = set_up()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = untraced + traced

    correct = True
    try:
        info = run_checks(work, s, plan, rounds, last, seed)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, info = False, {}
    info.update(rounds=len(rounds), learned_ppl=rounds[0].eval.ppl,
                fold_only_positions=corpus.probe_tokens if work.folded else 0)
    print(json.dumps({"workload": work.name, "seed": seed, **info}), file=sys.stderr)

    if trace:
        stem = OUT / f"trace-{work.name}-seed{seed}"
        setup_tr.save(f"{stem}-setup.npz")
        round_tr.save(f"{stem}-rounds.npz")
        metrics = per_layer(s, setup_tr, round_tr, traced, untraced)
    else:
        metrics = end_to_end(work, s, setups, rounds, rss_mb)
    return {"correct": correct, "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds), "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:36s} {mv['value']:>16.6g} {mv['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
