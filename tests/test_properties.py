"""Property tests: offsets, the BIO round trip, span matching counts, and
loaders fed mutated bytes.

Examples are derandomized, so a run repeats exactly and a failure is not
a matter of luck.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phenotag.basevocab import default_vocabulary
from phenotag.corpus import (
    LABELS,
    Document,
    EntitySpan,
    decode_bio,
    encode_bio,
    load_corpus,
    save_corpus,
)
from phenotag.encoder import ModelConfig, init_model, load_checkpoint, save_checkpoint
from phenotag.errors import ParseError, PhenotagError
from phenotag.evaluation import MODES, MatchReport, categorize_errors, match_spans, score
from phenotag.synthesis import generate_synthetic
from phenotag.tokenizer import (
    CONTINUATION_MARKER,
    UNK,
    basic_tokenize,
    load_vocab,
    save_vocab,
    tokenize,
)

VOCAB = default_vocabulary()
DETERMINISTIC = settings(derandomize=True, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

# letters, digits and the characters basic_tokenize treats specially, plus a
# few whose lowercase form has another length ("İ") or that no piece covers
texts = st.lists(
    st.sampled_from(list("aehilnoprstvx2.-,;() \t\nİßéΩ") + ["her2", "er ", "1.5"]),
    max_size=40,
).map("".join) | st.text(max_size=30)

WORDS = ["her2", "positive", "left", "breast", "er", "-", "1.5", "xqzw", "carcinoma", "(",
         "İstanbul"]


class TestOffsets:
    @DETERMINISTIC
    @given(texts)
    def test_basic_tokenize_offsets_slice_each_word_out(self, text):
        prev_end = 0
        for word, start, end in basic_tokenize(text):
            assert prev_end <= start < end
            assert text[start:end].lower() == word
            assert not any(ch.isspace() for ch in text[start:end])
            prev_end = end

    @DETERMINISTIC
    @given(texts)
    def test_tokenize_offsets_slice_each_piece_out(self, text):
        words = basic_tokenize(text)
        tk = tokenize(text, VOCAB)
        assert sorted(tk.word_ranges().items()) == [
            (w, (s, e)) for w, (_, s, e) in enumerate(words)
        ]
        for piece, (s, e), w, cont in zip(tk.pieces, tk.offsets, tk.word_index,
                                          tk.is_continuation):
            word, ws, we = words[w]
            if piece == UNK or len(word) != we - ws:
                assert (s, e) == (ws, we)
            else:
                surface = piece[len(CONTINUATION_MARKER):] if cont else piece
                assert text[s:e].lower() == surface


@st.composite
def annotated_texts(draw):
    """A text of known words with whole-word, non-overlapping entities."""
    text = " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=25)))
    words = basic_tokenize(text)
    spans = []
    i = 0
    while i < len(words):
        length = draw(st.integers(0, 3))
        if length:
            last = min(i + length, len(words)) - 1
            label = draw(st.sampled_from(LABELS))
            spans.append(EntitySpan(words[i][1], words[last][2], label))
            i = last + 1
        else:
            i += 1
    return text, spans


class TestBioRoundTrip:
    @DETERMINISTIC
    @given(annotated_texts())
    def test_encode_then_decode_gives_the_spans_back(self, case):
        text, spans = case
        tk = tokenize(text, VOCAB)
        assert decode_bio(encode_bio(tk, spans), tk) == spans


spans = st.builds(
    lambda start, width, label: EntitySpan(start, start + width, label),
    st.integers(0, 30), st.integers(1, 6), st.sampled_from(LABELS),
)


class TestMatchCounts:
    @DETERMINISTIC
    @given(st.lists(spans, max_size=12), st.lists(spans, max_size=12),
           st.sampled_from(MODES))
    def test_counts_equal_per_label_sums_over_the_pairs(self, gold, pred, mode):
        result = match_spans(gold, pred, mode)
        for label in LABELS:
            tp = sum(1 for g, _ in result.pairs if g.label == label)
            matched = sum(1 for _, p in result.pairs if p.label == label)
            fp = sum(1 for p in pred if p.label == label) - matched
            fn = sum(1 for g in gold if g.label == label) - tp
            counts = result.counts[label]
            assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn)
        assert list(result.counts) == list(LABELS)


class TestScore:
    @DETERMINISTIC
    @given(st.lists(st.tuples(st.lists(spans, max_size=6, unique=True),
                              st.lists(spans, max_size=6, unique=True)), max_size=4),
           st.lists(st.sampled_from(LABELS), min_size=1, unique=True))
    def test_counts_are_sums_over_documents_and_round_trip(self, docs, labels):
        text = "x" * 40
        report = score([Document(f"d{i}", text, g) for i, (g, _) in enumerate(docs)],
                       [Document(f"d{i}", text, p) for i, (_, p) in enumerate(docs)],
                       labels=labels)
        for mode in MODES:
            per_doc = [match_spans(g, p, mode).counts for g, p in docs]
            per_label = getattr(report, mode).per_label
            assert list(per_label) == labels
            for label, c in per_label.items():
                assert (c.tp, c.fp, c.fn) == (sum(d[label].tp for d in per_doc),
                                              sum(d[label].fp for d in per_doc),
                                              sum(d[label].fn for d in per_doc))
        back = MatchReport.from_dict(report.to_dict())
        assert back == report
        assert json.dumps(back.to_dict()) == json.dumps(report.to_dict())


class TestErrorCategories:
    @DETERMINISTIC
    @given(st.lists(spans, max_size=12, unique=True),
           st.lists(spans, max_size=12, unique=True))
    def test_each_unmatched_same_label_overlap_is_one_split_row(self, gold, pred):
        text = "x" * 40
        breakdown = categorize_errors([Document("d", text, gold)], [Document("d", text, pred)])
        matched = {id(p) for _, p in match_spans(gold, pred, "lenient").pairs}
        fragments = [p for p in pred if id(p) not in matched
                     and any(g.label == p.label and g.overlaps(p) for g in gold)]
        split = breakdown.cases["split"]
        assert sorted(case.pred for case in split) == sorted(fragments)
        for case in split:
            assert case.gold in gold
            assert case.gold.label == case.pred.label and case.gold.overlaps(case.pred)


    @DETERMINISTIC
    @given(st.lists(spans, max_size=12, unique=True),
           st.lists(spans, max_size=12, unique=True))
    def test_every_lenient_error_is_named(self, gold, pred):
        text = "x" * 40
        breakdown = categorize_errors([Document("d", text, gold)], [Document("d", text, pred)])
        pairs = match_spans(gold, pred, "lenient").pairs
        matched_gold, matched_pred = {g for g, _ in pairs}, {p for _, p in pairs}
        rows = [(name, case) for name, cases in breakdown.cases.items() for case in cases]
        for p in set(pred) - matched_pred:
            assert any(case.pred == p for name, case in rows
                       if name in ("spurious", "split", "type_confusion")), p
        for g in set(gold) - matched_gold:
            named = [name for name, case in rows
                     if name in ("missing", "type_confusion") and case.gold == g]
            # one missing row, or one row per prediction confused with it
            assert named == ["missing"] or set(named) == {"type_confusion"}, (g, named)
        for case in breakdown.cases["type_confusion"]:
            assert case.gold.overlaps(case.pred) and case.gold.label != case.pred.label


class TestSpanOrder:
    @DETERMINISTIC
    @given(st.lists(spans, max_size=12))
    def test_span_order_is_start_end_then_label_value(self, span_list):
        # every site that sorts spans relies on the type's own order
        assert sorted(span_list) == sorted(
            span_list, key=lambda s: (s.start_char, s.end_char, s.label.value))


def mutations(size):
    """Byte edits of a file of ``size`` bytes: overwrites, then a cut or not."""
    edit = st.tuples(st.integers(0, max(size - 1, 0)), st.integers(0, 255))
    return st.tuples(st.lists(edit, min_size=1, max_size=8),
                     st.none() | st.integers(0, size))


def mutate(data: bytes, mutation) -> bytes:
    edits, cut = mutation
    out = bytearray(data)
    for pos, byte in edits:
        out[pos] = byte
    return bytes(out[:cut] if cut is not None else out)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    save_corpus(generate_synthetic(2, 3), root / "c.jsonl")
    save_vocab(VOCAB, root / "v.txt")
    config = ModelConfig(vocab_size=len(VOCAB), n_layers=1, d_model=8, n_heads=2,
                         d_ff=8, max_positions=8)
    save_checkpoint(init_model(config, VOCAB), root / "m.ckpt")
    return root


class TestLoadersOnMutatedBytes:
    """A damaged file gives a PhenotagError (a one-line error at the CLI) or
    loads; it never escapes as another exception."""

    @pytest.mark.parametrize("name, load", [
        ("c.jsonl", load_corpus),
        ("v.txt", load_vocab),
        ("m.ckpt", load_checkpoint),
    ])
    def test_only_phenotag_errors(self, valid_files, name, load):
        data = (valid_files / name).read_bytes()
        target = valid_files / f"mutated.{name}"

        @settings(DETERMINISTIC, max_examples=300)
        @given(mutations(len(data)))
        def check(mutation):
            Path(target).write_bytes(mutate(data, mutation))
            try:
                load(target)
            except PhenotagError:
                pass

        check()

    def test_corpus_with_non_string_text_is_a_parse_error(self, tmp_path):
        bad = tmp_path / "c.jsonl"
        bad.write_text('{"doc_id": "a", "text": 5, "entities": '
                       '[{"start": 0, "end": 1, "label": "CancerLaterality"}]}\n',
                       encoding="utf-8")
        with pytest.raises(PhenotagError, match="line 1"):
            load_corpus(bad)

    @pytest.mark.parametrize("start, end", [
        ("0.9", '"4"'), ("0", "4.0"), ("false", "1"), ("0", "[4]"),
    ])
    def test_corpus_with_non_integer_offset_is_a_parse_error(self, tmp_path, start, end):
        # int() would load {"start": 0.9, "end": "4"} silently as (0, 4)
        bad = tmp_path / "c.jsonl"
        bad.write_text('{"doc_id": "a", "text": "left breast", "entities": '
                       f'[{{"start": {start}, "end": {end}, "label": "CancerLaterality"}}]}}\n',
                       encoding="utf-8")
        with pytest.raises(ParseError, match="line 1: span offset must be an integer"):
            load_corpus(bad)

    def test_corpus_with_infinite_offset_is_a_parse_error(self, tmp_path):
        bad = tmp_path / "c.jsonl"
        bad.write_text('{"doc_id": "a", "text": "ab", "entities": '
                       '[{"start": 1e999, "end": 1, "label": "CancerLaterality"}]}\n',
                       encoding="utf-8")
        with pytest.raises(PhenotagError, match="line 1"):
            load_corpus(bad)


def test_checkpoint_whose_shape_runs_into_its_data_is_a_parse_error(valid_files, tmp_path):
    # Byte 252 is the ndim of emb_ln_b, eight zeros: at 10 its shape reads on
    # through that data into the next tensor's header, and a zero dimension
    # let a shape too big for numpy pass the check on the bytes left.
    data = bytearray((valid_files / "m.ckpt").read_bytes())
    assert data[252] == 1
    data[252] = 10
    (tmp_path / "m.ckpt").write_bytes(data)
    with pytest.raises(ParseError, match=r"tensor 'emb_ln_b' has shape \(8, 0, "):
        load_checkpoint(tmp_path / "m.ckpt")


def test_unmutated_files_load(valid_files):
    assert len(load_corpus(valid_files / "c.jsonl")) == 3
    assert load_vocab(valid_files / "v.txt") == VOCAB
    assert load_checkpoint(valid_files / "m.ckpt").config.max_positions == 8
