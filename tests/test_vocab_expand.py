import pytest

from conftest import make_vocab
from phenotag.corpus import Document, EntityLabel, EntitySpan
from phenotag.errors import CapacityError, ConfigurationError, ValidationError
from phenotag.vocab_expand import (
    coverage,
    default_curated_words,
    expand_curated,
    expand_frequency,
    extract_candidates,
    format_coverage_table,
    load_wordlist,
)

CL = EntityLabel.CANCER_LATERALITY


def doc(text, entities=()):
    return Document("d0", text, list(entities))


class TestExtractCandidates:
    def test_hand_count(self):
        vocab = make_vocab("and")
        docs = [doc("her2 and her2 and dcis")]
        got = extract_candidates(docs, vocab, min_count=1)
        assert got == ["her2", "dcis"]

    def test_everything_in_vocab_gives_empty(self):
        vocab = make_vocab("left", "breast")
        got = extract_candidates([doc("left breast left")], vocab, min_count=1)
        assert got == []

    def test_require_alpha_drops_numeral_keeps_pt4(self):
        vocab = make_vocab()
        docs = [doc("1.0 pt4 1.0 pt4")]
        got = extract_candidates(docs, vocab, min_count=1)
        assert got == ["pt4"]

    def test_min_count_filter(self):
        vocab = make_vocab()
        docs = [doc("rare common common common")]
        got = extract_candidates(docs, vocab, min_count=3)
        assert got == ["common"]

    def test_min_len_filter(self):
        vocab = make_vocab()
        got = extract_candidates([doc("q named named")], vocab, min_count=1)
        assert "q" not in got

    def test_ranking_frequency_then_lexicographic(self):
        vocab = make_vocab()
        docs = [doc("zz aa zz aa bb")]
        got = extract_candidates(docs, vocab, min_count=1)
        assert got == ["aa", "zz", "bb"]

    def test_rerun_identical(self, base_vocab, corpus200):
        a = extract_candidates(corpus200, base_vocab)
        b = extract_candidates(corpus200, base_vocab)
        assert a == b


class TestExpandFrequency:
    def test_fill_all_997(self):
        vocab = make_vocab(placeholders=997)
        candidates = [f"word{i:04d}" for i in range(1000)]
        expanded = expand_frequency(vocab, candidates, k=997)
        assert len(expanded) == len(vocab)
        assert len(expanded.placeholder_ids) == 0
        assert len(expanded.rewritten_ids) == 997

    def test_zero_is_identity(self, base_vocab):
        expanded = expand_frequency(base_vocab, [], k=0)
        assert expanded.tokens == base_vocab.tokens

    def test_negative_k_rejected(self, base_vocab, corpus200):
        candidates = extract_candidates(corpus200[:30], base_vocab)
        assert len(candidates) > 1
        with pytest.raises(ConfigurationError, match="k must be >= 0"):
            expand_frequency(base_vocab, candidates, k=-1)

    def test_over_budget_rejected(self):
        vocab = make_vocab(placeholders=997)
        candidates = [f"w{i}" for i in range(1300)]
        with pytest.raises(CapacityError, match="997"):
            expand_frequency(vocab, candidates, k=1200)

    def test_998_on_full_budget_fails(self):
        vocab = make_vocab(placeholders=997)
        candidates = [f"w{i}" for i in range(1000)]
        with pytest.raises(CapacityError):
            expand_frequency(vocab, candidates, k=998)

    def test_slots_filled_in_id_order_by_rank(self):
        vocab = make_vocab(placeholders=3)
        candidates = ["top", "mid", "low"]
        expanded = expand_frequency(vocab, candidates, k=2)
        slot0, slot1, slot2 = vocab.placeholder_ids
        assert expanded.tokens[slot0] == "top"
        assert expanded.tokens[slot1] == "mid"
        assert expanded.tokens[slot2] == "[unused2]"

    def test_size_constant(self, base_vocab, corpus200):
        candidates = extract_candidates(corpus200, base_vocab)
        expanded = expand_frequency(base_vocab, candidates, k=min(997, len(candidates)))
        assert len(expanded) == len(base_vocab)


class TestExpandCurated:
    def test_397_novel_words(self):
        vocab = make_vocab(placeholders=997)
        words = [f"term{i:03d}" for i in range(397)]
        expanded = expand_curated(vocab, words)
        assert len(expanded.rewritten_ids) == 397
        assert len(expanded.placeholder_ids) == 600

    def test_all_known_words_is_identity(self, caplog):
        vocab = make_vocab("left", "right")
        expanded = expand_curated(vocab, ["left", "right"])
        assert expanded.tokens == vocab.tokens

    def test_mixed_novel_and_known(self, caplog):
        import logging

        vocab = make_vocab("left", "right", placeholders=10)
        with caplog.at_level(logging.INFO):
            expanded = expand_curated(vocab, ["her2", "left", "dcis", "right", "pt4"])
        assert len(expanded.rewritten_ids) == 3
        assert caplog.text.count("skipped") == 2

    def test_words_split_by_basic_tokenize_rejected(self, caplog):
        import logging

        vocab = make_vocab(placeholders=5)
        words = ["heart failure", "o'brien", "er-positive", "HER2", "t2.5"]
        with caplog.at_level(logging.INFO):
            expanded = expand_curated(vocab, words)
        assert [expanded.tokens[i] for i in expanded.rewritten_ids] == [
            "er-positive", "her2", "t2.5"]
        assert "2 curated words are not single words" in caplog.text

    def test_over_budget(self):
        vocab = make_vocab(placeholders=2)
        with pytest.raises(CapacityError):
            expand_curated(vocab, ["a1", "b2", "c3"])

    def test_dedup_and_lowercase(self):
        vocab = make_vocab(placeholders=5)
        expanded = expand_curated(vocab, ["HER2", "her2", " dcis "])
        assert len(expanded.rewritten_ids) == 2

    def test_shipped_wordlist_loads(self):
        words = default_curated_words()
        assert "her2" in words and "dcis" in words
        assert all(not w.startswith("#") for w in words)


class TestWordlistFile:
    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# comment\nher2\n\ndcis\n# more\n")
        assert load_wordlist(path) == ["her2", "dcis"]


class TestCoverage:
    def test_single_covered_span(self):
        vocab = make_vocab("left")
        docs = [doc("left breast", [EntitySpan(0, 4, CL)])]
        report = coverage(vocab, docs)
        assert report.per_label[CL].unique_tokens == 1
        assert report.per_label[CL].covered == 1
        assert report.per_label[CL].pct == 100.0

    def test_pct_rounding(self):
        vocab = make_vocab("left")
        docs = [
            doc(
                "left lft leftt",
                [EntitySpan(0, 4, CL), EntitySpan(5, 8, CL), EntitySpan(9, 14, CL)],
            )
        ]
        report = coverage(vocab, docs)
        assert report.per_label[CL].unique_tokens == 3
        assert report.per_label[CL].pct == 33.3

    def test_total_deduplicates_across_labels(self):
        vocab = make_vocab("left")
        docs = [
            doc(
                "left left",
                [
                    EntitySpan(0, 4, CL),
                    EntitySpan(5, 9, EntityLabel.TUMOR_SITE),
                ],
            )
        ]
        report = coverage(vocab, docs)
        assert report.per_label[CL].unique_tokens == 1
        assert report.per_label[EntityLabel.TUMOR_SITE].unique_tokens == 1
        assert report.total.unique_tokens == 1
        assert report.total.covered == 1

    def test_monotone_under_expansion(self, base_vocab, corpus200):
        candidates = extract_candidates(corpus200, base_vocab)
        freq = expand_frequency(base_vocab, candidates, k=min(997, len(candidates)))
        cur = expand_curated(base_vocab, default_curated_words())
        base_rep = coverage(base_vocab, corpus200)
        for expanded in (freq, cur):
            rep = coverage(expanded, corpus200)
            for label in base_rep.per_label:
                assert rep.per_label[label].covered >= base_rep.per_label[label].covered
            assert rep.total.covered >= base_rep.total.covered

    def test_table_format(self, base_vocab, corpus200):
        table = format_coverage_table({"original": coverage(base_vocab, corpus200)})
        lines = table.strip().splitlines()
        assert lines[0].startswith("entity_type\tunique_tokens\tcovered_original")
        assert len(lines) == 10  # header + 8 labels + total
        assert lines[-1].startswith("Total\t")
