"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The training-based criteria
(6, 7) and the end-to-end pipeline (10) dominate the runtime; everything is
seeded and deterministic.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import phenotag as pt
from conftest import child_env, explode_sentences, make_vocab
from phenotag.corpus import (
    Document,
    EntityLabel,
    EntitySpan,
    cohen_kappa,
    decode_bio,
    encode_bio,
    split_corpus,
)
from phenotag.encoder import (
    FinetuneConfig,
    ModelConfig,
    finetune_ner,
    grad_check,
    init_model,
    masked_accuracy,
    predict_corpus,
    pretrain_mlm,
    resize_for_vocab,
)
from phenotag.errors import CapacityError
from phenotag.evaluation import aggregate_runs, format_aggregate_table, match_spans, score
from phenotag.tokenizer import UNK, tokenize, wordpiece
from phenotag.tsne import joint_probabilities, tsne
from phenotag.vocab_expand import (
    coverage,
    default_curated_words,
    expand_curated,
    expand_frequency,
    extract_candidates,
)

TS = EntityLabel.TUMOR_SIZE
CG = EntityLabel.CANCER_GRADE


def report(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {message}")


class TestCriterion1Wordpiece:
    def test_greedy_property_10k_instances(self):
        from test_tokenizer import assert_greedy, random_vocab_and_word

        start = time.monotonic()
        rng = np.random.default_rng(424242)
        for _ in range(10_000):
            vocab, word = random_vocab_and_word(rng)
            pieces = wordpiece(word, vocab)
            assert_greedy(word, vocab, pieces)
        her_vocab = make_vocab("her", "##2")
        assert wordpiece("her2", her_vocab) == ["her", "##2"]
        base = pt.default_vocabulary()
        assert wordpiece("her2", base) == ["her", "##2"]
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        report(1, f"10,000 greedy wordpiece instances verified in {elapsed:.1f}s; "
                  "her2 -> [her, ##2]")


class TestCriterion2BioRoundTrip:
    def test_round_trip_200_docs(self, base_vocab, corpus200):
        assert len(corpus200) == 200
        decoded_docs = []
        for doc in corpus200:
            tk = tokenize(doc.text, base_vocab)
            tags = encode_bio(tk, doc.entities)
            decoded_docs.append(Document(doc.doc_id, doc.text, decode_bio(tags, tk)))
            assert decoded_docs[-1].entities == doc.entities, doc.doc_id
        result = score(corpus200, decoded_docs)
        assert result.exact.micro_f1 == 1.0
        report(2, "BIO encode/decode reproduces gold spans on all 200 documents; "
                  "exact micro-F1 == 1.0")


class TestCriterion3Scorer:
    def test_hand_fixtures_and_lenient_dominance(self):
        text = "x" * 50
        gold = [Document("d", text, [EntitySpan(0, 5, TS), EntitySpan(10, 15, CG)])]
        pred = [Document("d", text, [EntitySpan(0, 5, TS), EntitySpan(30, 35, CG)])]
        rep = score(gold, pred, labels=(TS, CG))
        assert abs(rep.exact.macro_f1 - 0.5) <= 1e-12
        assert abs(rep.exact.micro_f1 - 0.5) <= 1e-12

        gold_b = [Document("d", text, [EntitySpan(0, 10, TS)])]
        pred_b = [Document("d", text, [EntitySpan(0, 7, TS)])]
        rep_b = score(gold_b, pred_b, labels=(TS,))
        for metric in ("precision", "recall", "f1"):
            assert abs(getattr(rep_b.exact.per_label[TS], metric) - 0.0) <= 1e-12
            assert abs(getattr(rep_b.lenient.per_label[TS], metric) - 1.0) <= 1e-12

        rng = random.Random(31337)
        labels = list(EntityLabel)
        for _ in range(1000):
            def spans(n):
                out = set()
                for _ in range(n):
                    s = rng.randint(0, 60)
                    out.add(EntitySpan(s, s + rng.randint(1, 9), rng.choice(labels)))
                return sorted(out)

            g, p = spans(rng.randint(0, 7)), spans(rng.randint(0, 7))
            exact = match_spans(g, p, "exact").counts
            lenient = match_spans(g, p, "lenient").counts
            for label in labels:
                assert lenient[label].tp >= exact[label].tp
        report(3, "hand-computed scorer fixtures match to 1e-12; lenient TP >= "
                  "exact TP on 1,000 randomized span sets")


class TestCriterion4CapacityAndCoverage:
    def test_capacity_cap(self):
        vocab = make_vocab(placeholders=997)
        candidates = [f"w{i:04d}" for i in range(1200)]
        expanded = expand_frequency(vocab, candidates, k=997)
        assert len(expanded.placeholder_ids) == 0
        assert len(expanded.rewritten_ids) == 997
        with pytest.raises(CapacityError):
            expand_frequency(vocab, candidates, k=998)
        with pytest.raises(CapacityError):
            expand_curated(vocab, [f"nw{i:04d}" for i in range(998)])

    def test_coverage_monotone_and_directional(self, base_vocab):
        totals = []
        for seed in (1, 2, 3):
            corpus = pt.generate_synthetic(seed, 120)
            candidates = extract_candidates(corpus, base_vocab)
            freq = expand_frequency(base_vocab, candidates, k=min(997, len(candidates)))
            cur = expand_curated(base_vocab, default_curated_words())
            rep_base = coverage(base_vocab, corpus)
            rep_freq = coverage(freq, corpus)
            rep_cur = coverage(cur, corpus)
            for label in EntityLabel:
                assert rep_freq.per_label[label].covered >= rep_base.per_label[label].covered
                assert rep_cur.per_label[label].covered >= rep_base.per_label[label].covered
            assert rep_base.total.pct <= rep_freq.total.pct <= rep_cur.total.pct
            assert rep_cur.total.pct > rep_base.total.pct
            totals.append((rep_base.total.pct, rep_freq.total.pct, rep_cur.total.pct))
        report(4, "997-word expansion succeeds, 998 fails; per-class coverage "
                  f"monotone; total coverage progression {totals[0][0]}% -> "
                  f"{totals[0][1]}% -> {totals[0][2]}%")


class TestCriterion5GradCheck:
    def test_analytic_vs_central_difference(self):
        start = time.monotonic()
        result = grad_check()
        elapsed = time.monotonic() - start
        assert result.max_rel_error <= 1e-4
        assert elapsed < 300.0
        assert any(k.startswith("mlm:") for k in result.per_tensor)
        assert any(k.startswith("ner:") for k in result.per_tensor)
        report(5, f"max analytic-vs-numeric gradient error {result.max_rel_error:.2e} "
                  f"<= 1e-4 over both losses in {elapsed:.0f}s")


class TestCriterion6Overfit:
    def test_mlm_and_ner_overfit(self, base_vocab):
        start = time.monotonic()
        corpus32 = explode_sentences(pt.generate_synthetic(7, 12), limit=32)
        assert len(corpus32) == 32
        config = ModelConfig(vocab_size=len(base_vocab), seed=0)
        fresh = init_model(config, base_vocab)
        pretrained32, records = pretrain_mlm(fresh, corpus32, base_vocab, steps=2000, seed=0)
        assert len(records) == 2000
        mlm_acc = masked_accuracy(pretrained32, corpus32, base_vocab, seed=123)
        assert mlm_acc >= 0.95

        docs20 = pt.generate_synthetic(11, 20)
        pretrained20, _ = pretrain_mlm(fresh, docs20, base_vocab, steps=1500, seed=0)
        tuned, _ = finetune_ner(pretrained20, docs20, base_vocab, FinetuneConfig())
        train_rep = score(docs20, predict_corpus(tuned, docs20, base_vocab))
        assert train_rep.exact.micro_f1 >= 0.95

        elapsed = time.monotonic() - start
        assert elapsed < 900.0
        report(6, f"masked-token accuracy {mlm_acc:.3f} >= 0.95 within 2,000 steps; "
                  f"training-set exact micro-F1 {train_rep.exact.micro_f1:.3f} >= 0.95 "
                  f"after 10 epochs; total {elapsed:.0f}s")


class TestCriterion7VocabularyEffect:
    def test_expanded_vocab_non_inferior(self, base_vocab, tmp_path):
        corpus = pt.generate_synthetic(1, 100)
        train, test = split_corpus(corpus, 0.2, seed=1)

        # entity terms are OOV under the base vocabulary by construction
        for term in ("her2", "dcis", "ptis"):
            assert term not in base_vocab

        candidates = extract_candidates(train, base_vocab)
        freq = expand_frequency(base_vocab, candidates, k=min(997, len(candidates)))
        config = ModelConfig(vocab_size=len(base_vocab), seed=0)
        fresh = init_model(config, base_vocab)
        pretrained, _ = pretrain_mlm(fresh, train, base_vocab, steps=800, seed=0)

        resized = resize_for_vocab(pretrained, base_vocab, freq)
        changed = {
            i
            for i in range(len(base_vocab))
            if not np.array_equal(
                resized.params["tok_emb"][i], pretrained.params["tok_emb"][i]
            )
        }
        assert changed <= set(freq.rewritten_ids)
        for name in pretrained.params:
            if name == "tok_emb":
                continue
            np.testing.assert_array_equal(resized.params[name], pretrained.params[name])

        adapted, _ = pretrain_mlm(resized, train, freq, steps=300, seed=0)

        base_reports, expanded_reports = [], []
        for seed in range(5):
            tuned_b, _ = finetune_ner(pretrained, train, base_vocab,
                                      FinetuneConfig(seed=seed))
            base_reports.append(score(test, predict_corpus(tuned_b, test, base_vocab)))
            tuned_e, _ = finetune_ner(adapted, train, freq, FinetuneConfig(seed=seed))
            expanded_reports.append(score(test, predict_corpus(tuned_e, test, freq)))

        agg_base = aggregate_runs(base_reports)
        agg_expanded = aggregate_runs(expanded_reports)
        table = format_aggregate_table({"base": agg_base, "expanded": agg_expanded})
        (tmp_path / "vocab_effect.tsv").write_text(table)
        print("\n" + table)

        mean_base = agg_base.metrics["exact.macro_f1"].mean
        mean_expanded = agg_expanded.metrics["exact.macro_f1"].mean
        assert mean_expanded >= mean_base - 0.02
        report(7, f"expanded-vocabulary mean exact macro-F1 {mean_expanded:.3f} vs "
                  f"base {mean_base:.3f} (non-inferiority floor -0.02); warm-start "
                  "invariant exact; CIs reported side by side")


class TestCriterion8Tsne:
    def test_two_cluster_fixture(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0.0, 1.0, (50, 10))
        b = rng.normal(0.0, 1.0, (50, 10))
        b[:, 0] += 12.0
        points = np.vstack([a, b])
        assert points.shape[0] == 100

        p = joint_probabilities(points, perplexity=15.0)
        np.testing.assert_allclose(p, p.T, atol=1e-15)
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) <= 1e-9

        coords, kl_trace = tsne(points, perplexity=15.0, iterations=1000, seed=0)
        coords2, kl_trace2 = tsne(points, perplexity=15.0, iterations=1000, seed=0)
        np.testing.assert_array_equal(coords, coords2)
        assert kl_trace == kl_trace2
        assert kl_trace[-1] < kl_trace[0]
        assert np.isfinite(coords).all()

        ca, cb = coords[:50], coords[50:]

        def mean_dist(u, v):
            return float(np.linalg.norm(u[:, None, :] - v[None, :, :], axis=-1).mean())

        intra = (mean_dist(ca, ca) + mean_dist(cb, cb)) / 2.0
        inter = mean_dist(ca, cb)
        assert intra < inter
        report(8, f"t-SNE: KL {kl_trace[0]:.3f} -> {kl_trace[-1]:.3f}, P sums to 1, "
                  f"intra {intra:.2f} < inter {inter:.2f}, deterministic")


class TestCriterion9Kappa:
    def test_fixtures(self):
        assert cohen_kappa(list("XYZXYZ"), list("XYZXYZ")) == 1.0
        assert cohen_kappa(["X", "X", "Y", "Y"], ["X", "Y", "Y", "Y"]) == 0.5
        report(9, "kappa fixtures exact: identical -> 1.0, 2x2 disagreement -> 0.5")


class TestCriterion10EndToEnd:
    def test_pipeline_script(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "pipeline.sh"
        out_dir = tmp_path / "run"
        # shipped defaults only: a size override exported in the caller's
        # shell would shrink the run the criterion describes
        env = child_env(PHENOTAG_PY=sys.executable, PHENOTAG_OUT_ROOT=None,
                        PT_DOCS=None, PT_PRETRAIN_STEPS=None,
                        PT_ADAPT_STEPS=None, PT_SEEDS=None)
        start = time.monotonic()
        proc = subprocess.run(
            ["bash", str(script), str(out_dir)],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert elapsed < 1800.0

        results = (out_dir / "results.tsv").read_text()
        assert results.startswith("entity_type\tbase\texpanded")
        assert "Macro average" in results and "Micro average" in results
        assert "[" in results  # confidence intervals present

        cov = (out_dir / "coverage.tsv").read_text()
        assert cov.startswith("entity_type\tunique_tokens")
        assert cov.strip().splitlines()[-1].startswith("Total")

        for name in (
            "corpus.jsonl", "stats.tsv", "vocab_base.txt", "vocab_freq.txt",
            "vocab_curated.txt", "model_base.ckpt", "model_expanded.ckpt",
            "errors.tsv", "embedding_coords.csv", "pretrain_trace.csv",
        ):
            assert (out_dir / name).exists(), name
        report(10, f"pipeline script completed from scratch in {elapsed/60:.1f} min "
                   "with aggregate and coverage reports")
