import importlib
import json
import logging
import random

import pytest

from conftest import make_vocab
from phenotag.corpus import (
    Document,
    EntityLabel,
    EntitySpan,
    IGNORE_ID,
    LABELS,
    N_TAGS,
    TAG_TO_ID,
    TAGS,
    cohen_kappa,
    corpus_stats,
    decode_bio,
    encode_bio,
    encode_corpus,
    load_corpus,
    save_corpus,
    split_corpus,
    split_sentences,
    token_labels,
)
from phenotag.errors import ConfigurationError, ParseError, ValidationError
from phenotag.tokenizer import tokenize

HRT = EntityLabel.HORMONE_RECEPTOR_TYPE
TS = EntityLabel.TUMOR_SIZE
CL = EntityLabel.CANCER_LATERALITY
O = TAG_TO_ID["O"]
B_HRT, I_HRT = TAG_TO_ID["B-HormoneReceptorType"], TAG_TO_ID["I-HormoneReceptorType"]
B_TS, I_TS = TAG_TO_ID["B-TumorSize"], TAG_TO_ID["I-TumorSize"]


class TestLabelsAndTags:
    def test_eight_labels(self):
        assert len(LABELS) == 8
        assert EntityLabel("CancerStage").value == "CancerStage"

    def test_seventeen_tags(self):
        assert N_TAGS == 17
        assert TAGS[0] == "O"
        assert "B-HormoneReceptorType" in TAGS and "I-CancerStage" in TAGS

    def test_b_then_i_per_label(self):
        # decode_bio and token_labels read a label and its prefix off the id
        for k, label in enumerate(LABELS):
            assert TAGS[2 * k + 1] == f"B-{label.value}"
            assert TAGS[2 * k + 2] == f"I-{label.value}"


class TestDocumentValidation:
    def test_span_out_of_bounds(self):
        with pytest.raises(ValidationError, match="doc-1"):
            Document("doc-1", "short", [EntitySpan(0, 99, HRT)])

    def test_duplicate_span(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Document("d", "her2 her2", [EntitySpan(0, 4, HRT), EntitySpan(0, 4, HRT)])

    def test_entities_sorted(self):
        doc = Document("d", "left and right", [EntitySpan(9, 14, CL), EntitySpan(0, 4, CL)])
        assert [s.start_char for s in doc.entities] == [0, 9]


class TestCorpusIO:
    def test_minimal_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = {
            "doc_id": "d0",
            "text": "right breast",
            "entities": [{"start": 0, "end": 5, "label": "CancerLaterality"}],
        }
        path.write_text(json.dumps(rec) + "\n")
        docs = load_corpus(path)
        assert len(docs) == 1
        assert docs[0].entities == [EntitySpan(0, 5, CL)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_out_of_bounds_names_doc(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = {"doc_id": "bad-doc", "text": "hi", "entities": [{"start": 0, "end": 9, "label": "TumorSize"}]}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValidationError, match="bad-doc"):
            load_corpus(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"doc_id": "d", "text": "x", "entities": []})
        path.write_text(good + "\n{not json\n")
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_round_trip(self, tmp_path, corpus200):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus200[:20], path)
        assert load_corpus(path) == corpus200[:20]

    def test_file_order_preserved(self, tmp_path, corpus200):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus200[:10], path)
        assert [d.doc_id for d in load_corpus(path)] == [d.doc_id for d in corpus200[:10]]


class TestSentenceSplitting:
    def test_period_and_newline(self):
        text = "one two. three\nfour. "
        assert split_sentences(text) == [("one two.", 0), ("three", 9), ("four.", 15)]

    def test_decimal_not_split(self):
        assert split_sentences("size 1.0 cm. next") == [("size 1.0 cm.", 0), ("next", 13)]

    def test_offsets_slice_text(self):
        text = "alpha beta. gamma delta.\nnext line here"
        for sent, off in split_sentences(text):
            assert text[off : off + len(sent)] == sent


class TestCorpusStats:
    def test_empty(self):
        stats = corpus_stats([])
        assert stats.n_documents == 0 and stats.n_sentences == 0 and stats.n_tokens == 0
        assert all(v.total_mentions == 0 for v in stats.per_label.values())

    def test_two_docs_one_unique_form(self):
        docs = [
            Document("a", "the left breast", [EntitySpan(4, 8, CL)]),
            Document("b", "the LEFT side", [EntitySpan(4, 8, CL)]),
        ]
        stats = corpus_stats(docs)
        assert stats.per_label[CL].total_mentions == 2
        assert stats.per_label[CL].unique_forms == 1

    def test_counts(self):
        docs = [Document("a", "one two. three four\nfive", [])]
        stats = corpus_stats(docs)
        assert stats.n_documents == 1
        assert stats.n_sentences == 3
        assert stats.n_tokens == 6  # five words plus the period

    def test_unique_forms_invariant_under_reordering(self, corpus200):
        forward = corpus_stats(corpus200)
        backward = corpus_stats(list(reversed(corpus200)))
        assert forward.per_label == backward.per_label


class TestEncodeCorpus:
    def test_doc_index_offset_and_length(self, base_vocab):
        docs = [
            Document("a", "Left breast. HER2 positive.", []),
            Document("empty", "", []),
            Document("blank", " \n\n  ", []),
            Document("b", "\n  Grade 2", []),
        ]
        encoded = list(encode_corpus(docs, base_vocab))
        assert [(s.doc, s.offset, s.length) for s in encoded] == [
            (0, 0, 12), (0, 13, 14), (3, 3, 7)
        ]

    def test_ids_and_offsets_match_the_document(self, base_vocab, corpus200):
        docs = corpus200[:20]
        for sent in encode_corpus(docs, base_vocab):
            text = docs[sent.doc].text
            assert sent.ids == [base_vocab.id_of(p) for p in sent.tokens.pieces]
            assert base_vocab.cls_id not in sent.ids
            assert base_vocab.sep_id not in sent.ids
            for piece, (s, e), cont in zip(
                sent.tokens.pieces, sent.tokens.offsets, sent.tokens.is_continuation
            ):
                if piece != "[UNK]":
                    chars = text[sent.offset + s : sent.offset + e].lower()
                    assert chars == piece.removeprefix("##" if cont else "")
                assert e <= sent.length


    def test_each_distinct_text_tokenized_once_per_call(self, base_vocab, corpus200,
                                                      monkeypatch):
        docs = corpus200[:40] + [
            Document("r", "HER2 positive. Left breast. HER2 positive.\nher2  positive.", []),
            Document("s", "  Left breast. HER2 positive.", []),
        ]
        texts = [sent for doc in docs for sent, _ in split_sentences(doc.text)]
        expected = []
        for d, doc in enumerate(docs):  # one tokenization per sentence, as before
            for sent, off in split_sentences(doc.text):
                tk = tokenize(sent, base_vocab)
                if ids := [base_vocab.id_of(p) for p in tk.pieces]:
                    expected.append((d, off, len(sent), tk, ids))
        corpus_module = importlib.import_module("phenotag.corpus")
        calls = []

        def counting(text, vocab):
            calls.append(text)
            return tokenize(text, vocab)

        monkeypatch.setattr(corpus_module, "tokenize", counting)
        assert [tuple(s) for s in encode_corpus(docs, base_vocab)] == expected
        assert sorted(calls) == sorted(set(texts)) and len(set(texts)) < len(texts)
        list(encode_corpus(docs, base_vocab))  # a second call keeps nothing of the first
        assert sorted(calls) == sorted([*set(texts)] * 2)


class TestEncodeBio:
    def test_her2_positive_with_specials(self):
        vocab = make_vocab("her", "##2", "positive")
        tk = tokenize("her2 positive", vocab)
        tags = encode_bio(tk, [EntitySpan(0, 4, HRT)])
        assert tags == [B_HRT, IGNORE_ID, O]

    def test_no_entities_all_o(self):
        vocab = make_vocab("her", "##2", "positive")
        tk = tokenize("her2 positive", vocab)
        assert encode_bio(tk, []) == [O, IGNORE_ID, O]

    def test_two_word_span_gets_b_then_i(self, base_vocab):
        text = "estrogen receptor positive"
        tk = tokenize(text, base_vocab)
        tags = encode_bio(tk, [EntitySpan(0, 17, HRT)])
        initial = [t for t, cont in zip(tags, tk.is_continuation) if not cont]
        assert initial[:2] == [B_HRT, I_HRT]
        assert initial[2] == O

    def test_mid_word_boundary_expands_with_warning(self, base_vocab, caplog):
        text = "her2 positive"
        tk = tokenize(text, base_vocab)
        with caplog.at_level(logging.WARNING):
            tags = encode_bio(tk, [EntitySpan(0, 3, HRT)])  # cuts "her2"
        assert "splits a word" in caplog.text
        assert tags[0] == B_HRT
        spans = decode_bio(tags, tk)
        assert spans == [EntitySpan(0, 4, HRT)]



class TestDecodeBio:
    def test_round_trip_over_synthetic_corpus(self, base_vocab, corpus200):
        for doc in corpus200:
            tk = tokenize(doc.text, base_vocab)
            tags = encode_bio(tk, doc.entities)
            assert decode_bio(tags, tk) == doc.entities, doc.doc_id

    def test_all_o_empty(self, base_vocab):
        tk = tokenize("her2 positive", base_vocab)
        tags = [O if not c else IGNORE_ID for c in tk.is_continuation]
        assert decode_bio(tags, tk) == []

    def test_adjacent_differing_labels_repaired(self):
        vocab = make_vocab("one", "two")
        tk = tokenize("one two", vocab)
        spans = decode_bio([B_TS, I_HRT], tk)
        assert spans == [EntitySpan(0, 3, TS), EntitySpan(4, 7, HRT)]

    def test_orphan_i_repaired_to_b(self):
        vocab = make_vocab("one", "two")
        tk = tokenize("one two", vocab)
        spans = decode_bio([O, I_TS], tk)
        assert spans == [EntitySpan(4, 7, TS)]

    def test_length_mismatch(self):
        vocab = make_vocab("one")
        tk = tokenize("one", vocab)
        with pytest.raises(ValidationError, match="match"):
            decode_bio([O, O], tk)


class TestCohenKappa:
    def test_perfect_agreement(self):
        assert cohen_kappa(["X", "Y", "X"], ["X", "Y", "X"]) == 1.0

    def test_hand_computed_half(self):
        a = ["X", "X", "Y", "Y"]
        b = ["X", "Y", "Y", "Y"]
        assert cohen_kappa(a, b) == 0.5

    def test_symmetry_and_self_agreement(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 30)
            a = [rng.choice("XYZ") for _ in range(n)]
            b = [rng.choice("XYZ") for _ in range(n)]
            assert cohen_kappa(a, b) == pytest.approx(cohen_kappa(b, a), abs=1e-15)
            assert cohen_kappa(a, a) == pytest.approx(1.0)

    def test_constant_identical_lists(self):
        assert cohen_kappa(["X", "X"], ["X", "X"]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            cohen_kappa(["X"], ["X", "Y"])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            cohen_kappa([], [])


class TestSplitCorpus:
    def test_ten_docs_80_20(self, corpus200):
        train, test = split_corpus(corpus200[:10], 0.2, seed=5)
        assert len(train) == 8 and len(test) == 2

    def test_deterministic(self, corpus200):
        a = split_corpus(corpus200, 0.2, seed=9)
        b = split_corpus(corpus200, 0.2, seed=9)
        assert [d.doc_id for d in a[0]] == [d.doc_id for d in b[0]]
        assert [d.doc_id for d in a[1]] == [d.doc_id for d in b[1]]

    def test_partition(self, corpus200):
        train, test = split_corpus(corpus200, 0.2, seed=11)
        train_ids = {d.doc_id for d in train}
        test_ids = {d.doc_id for d in test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {d.doc_id for d in corpus200}

    def test_bad_fraction(self, corpus200):
        with pytest.raises(ConfigurationError):
            split_corpus(corpus200, 1.5, seed=0)

    def test_empty_corpus(self):
        with pytest.raises(ValidationError):
            split_corpus([], 0.2, seed=0)


class TestConllExport:
    def test_token_labels(self):
        doc = Document("d", "left breast", [EntitySpan(0, 4, CL)])
        assert token_labels(doc) == ["CancerLaterality", "O"]

    def test_token_labels_repair_spans_as_encode_bio_does(self, base_vocab, caplog):
        # a span cutting a word, one overlapping it, and one covering only
        # whitespace: the word labels equal the word-initial piece tags
        doc = Document("d", "left her2 positive  x", [
            EntitySpan(5, 7, HRT), EntitySpan(6, 18, TS), EntitySpan(18, 20, CL),
        ])
        with caplog.at_level(logging.WARNING):
            labels = token_labels(doc)
        assert labels == ["O", "HormoneReceptorType", "O", "O"]
        assert "splits a word" in caplog.text
        assert "overlaps an earlier entity" in caplog.text
        assert "covers no token" in caplog.text
        tk = tokenize(doc.text, base_vocab)
        tags = [t for t, c in zip(encode_bio(tk, doc.entities), tk.is_continuation) if not c]
        assert [TAGS[t].partition("-")[2] or "O" for t in tags] == labels
