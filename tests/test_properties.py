"""Property tests: offsets, the BIO round trip, span matching counts, and
loaders fed mutated bytes.

Examples are derandomized, so a run repeats exactly and a failure is not
a matter of luck.
"""

import json
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phenotag.basevocab import default_vocabulary
from phenotag.corpus import (
    IGNORE_ID,
    LABELS,
    Document,
    EntitySpan,
    decode_bio,
    encode_bio,
    load_corpus,
    pair_documents,
    save_corpus,
    split_sentences,
)
from phenotag.encoder import ModelConfig, init_model, load_checkpoint, save_checkpoint
from phenotag.encoder import model as model_module
from phenotag.encoder.model import (
    forward_hidden,
    init_params,
    mlm_loss_and_grads,
    ner_loss_and_grads,
)
from phenotag.errors import ParseError, PhenotagError
from phenotag.evaluation import (
    MODES,
    ErrorBreakdown,
    ErrorCase,
    MatchReport,
    categorize_errors,
    match_spans,
    score,
)
from phenotag.synthesis import generate_synthetic
from phenotag.tokenizer import (
    CONTINUATION_MARKER,
    UNK,
    Vocabulary,
    basic_tokenize,
    load_vocab,
    save_vocab,
    tokenize,
)
from phenotag.vocab_expand import expand_frequency

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


def reference_split_sentences(text):
    """split_sentences as a walk over every character."""
    sentences = []

    def emit(segment, seg_start):
        stripped = segment.strip()
        if stripped:
            sentences.append((stripped, seg_start + len(segment) - len(segment.lstrip())))

    start = 0
    for i, ch in enumerate(text):
        if ch == "\n":
            emit(text[start:i], start)
            start = i + 1
        elif ch == "." and i + 1 < len(text) and text[i + 1].isspace():
            emit(text[start : i + 1], start)
            start = i + 1
    emit(text[start:], start)
    return sentences


# letters, digits, the characters that end a sentence, ASCII whitespace and
# Unicode whitespace that str.isspace() counts
sentence_texts = st.lists(
    st.sampled_from(list("ab1.\n \t\r\x0b\x0c") + ["\x1c", "\x85", "\xa0", "\u2028",
                                                    "\u3000", ". ", ".\n"]),
    max_size=40,
).map("".join)


class TestSentenceSplit:
    @DETERMINISTIC
    @given(sentence_texts)
    def test_equals_the_character_loop(self, text):
        assert split_sentences(text) == reference_split_sentences(text)


class TestTokenizeMemo:
    @DETERMINISTIC
    @given(st.lists(texts, min_size=1, max_size=4))
    def test_a_warm_memo_gives_what_a_fresh_one_gives(self, some_texts):
        warm = Vocabulary(VOCAB.tokens)
        for text in some_texts:
            tokenize(text, warm)
        for text in some_texts:
            fresh = Vocabulary(VOCAB.tokens)
            assert fresh == warm
            assert tokenize(text, warm) == tokenize(text, fresh)

    def test_an_expanded_vocabulary_starts_with_its_own_memo(self):
        base = Vocabulary(VOCAB.tokens)
        before = tokenize("carcinoma", base).pieces
        assert len(before) > 1
        expanded = expand_frequency(base, ["carcinoma"], 1)
        assert tokenize("carcinoma", expanded).pieces == ("carcinoma",)
        assert tokenize("carcinoma", base).pieces == before


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


def error_pairs(gold, pred):
    """The pairs behind the error rows: exact matches, then lenient matches
    of the spans exact matching left."""
    exact = match_spans(gold, pred, "exact")
    return exact.pairs + match_spans(exact.unmatched_gold, exact.unmatched_pred,
                                      "lenient").pairs


def reference_categorize_errors(gold_docs, pred_docs):
    """``categorize_errors`` before its scans were reordered and inlined, on
    the pairs it now takes (``error_pairs``): the reference for the rows and
    their order."""
    out = ErrorBreakdown()
    for gold_doc, pred_doc in pair_documents(gold_docs, pred_docs):
        doc_id, gold, pred = gold_doc.doc_id, gold_doc.entities, pred_doc.entities
        pairs = error_pairs(gold, pred)
        matched_gold = {id(g) for g, _ in pairs}
        matched_pred = {id(p) for _, p in pairs}
        for g, p in pairs:
            if (g.start_char, g.end_char) != (p.start_char, p.end_char):
                out.cases["boundary_mismatch"].append(ErrorCase(doc_id, g, p))
        confusions = set()
        for g in sorted(gold):
            if id(g) in matched_gold:
                continue
            confused = next((p for p in pred if p.overlaps(g) and p.label != g.label), None)
            category = "missing" if confused is None else "type_confusion"
            out.cases[category].append(ErrorCase(doc_id, g, confused))
            confusions.add((g, confused))
        for p in sorted(pred):
            if id(p) in matched_pred:
                continue
            overlapped = [g for g in gold if g.overlaps(p)]
            same = next((g for g in overlapped if g.label == p.label), None)
            if same is not None:
                out.cases["split"].append(ErrorCase(doc_id, same, p))
            elif not overlapped:
                out.cases["spurious"].append(ErrorCase(doc_id, None, p))
            elif (overlapped[0], p) not in confusions:
                out.cases["type_confusion"].append(ErrorCase(doc_id, overlapped[0], p))
    return out


# spans of very different lengths, so that a short one sits inside a long one
wide_spans = st.builds(
    lambda start, width, label: EntitySpan(start, start + width, label),
    st.integers(0, 30), st.integers(1, 25), st.sampled_from(LABELS),
)


class TestErrorCategories:
    @DETERMINISTIC
    @given(st.lists(spans, max_size=12, unique=True),
           st.lists(spans, max_size=12, unique=True))
    def test_each_unmatched_same_label_overlap_is_one_split_row(self, gold, pred):
        text = "x" * 40
        breakdown = categorize_errors([Document("d", text, gold)], [Document("d", text, pred)])
        matched = {id(p) for _, p in error_pairs(gold, pred)}
        fragments = [p for p in pred if id(p) not in matched
                     and any(g.label == p.label and g.overlaps(p) for g in gold)]
        split = breakdown.cases["split"]
        assert sorted(case.pred for case in split) == sorted(fragments)
        for case in split:
            assert case.gold in gold
            assert case.gold.label == case.pred.label and case.gold.overlaps(case.pred)

    @settings(DETERMINISTIC, max_examples=300)
    @given(st.lists(st.tuples(st.lists(wide_spans, max_size=12, unique=True),
                              st.lists(wide_spans, max_size=12, unique=True)), max_size=3))
    def test_rows_equal_the_nested_scan(self, docs):
        text = "x" * 60
        gold = [Document(f"d{i}", text, g) for i, (g, _) in enumerate(docs)]
        pred = [Document(f"d{i}", text, p) for i, (_, p) in enumerate(docs)]
        # every category's rows, in the same order: errors.tsv keeps its bytes
        assert categorize_errors(gold, pred).cases == reference_categorize_errors(gold, pred).cases

    @DETERMINISTIC
    @given(st.lists(spans, max_size=12, unique=True),
           st.lists(spans, max_size=12, unique=True))
    def test_every_exact_error_is_named(self, gold, pred):
        text = "x" * 40
        breakdown = categorize_errors([Document("d", text, gold)], [Document("d", text, pred)])
        pairs = error_pairs(gold, pred)
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

    @settings(DETERMINISTIC, max_examples=300)
    @given(st.lists(wide_spans, max_size=12, unique=True),
           st.lists(wide_spans, max_size=12, unique=True))
    def test_rows_add_up_to_the_exact_fp_and_fn_of_each_label(self, gold, pred):
        # Each exact fn has one row and each exact fp has one row; a
        # boundary_mismatch row, and a type_confusion row that both spans'
        # rules name, stands for one of each.
        text = "x" * 60
        breakdown = categorize_errors([Document("d", text, gold)], [Document("d", text, pred)])
        exact = match_spans(gold, pred, "exact")
        paired = {span for case in breakdown.cases["boundary_mismatch"]
                  for span in (case.gold, case.pred)}
        fn_left = set(exact.unmatched_gold) - paired
        fp_left = set(exact.unmatched_pred) - paired

        def sides(name, case):
            if name != "type_confusion":
                return name in ("boundary_mismatch", "missing"), name != "missing"
            g, p = case.gold, case.pred
            first_confused = next(q for q in pred if q.overlaps(g) and q.label != g.label)
            first_overlapped = next(h for h in gold if h.overlaps(p))
            fn = g in fn_left and p == first_confused
            fp = p in fp_left and g == first_overlapped and not any(
                h.label == p.label and h.overlaps(p) for h in gold)
            return fn, fp

        fn, fp = {label: 0 for label in LABELS}, {label: 0 for label in LABELS}
        for name, cases in breakdown.cases.items():
            for case in cases:
                is_fn, is_fp = sides(name, case)
                if is_fn:
                    fn[case.gold.label] += 1
                if is_fp:
                    fp[case.pred.label] += 1
        counts = exact.counts
        assert fn == {label: counts[label].fn for label in LABELS}
        assert fp == {label: counts[label].fp for label in LABELS}


PAD_CONFIG = ModelConfig(vocab_size=len(VOCAB), max_positions=24)


@cache
def pad_params():
    return init_params(PAD_CONFIG)


@st.composite
def padded_batches(draw, max_rows=6):
    """(ids, the same ids with others at the pads, mask): rows of real
    positions followed by padding, at least one pad in the batch."""
    rows, positions = draw(st.integers(1, max_rows)), draw(st.integers(3, 24))
    lengths = draw(st.lists(st.integers(1, positions), min_size=rows, max_size=rows))
    lengths[draw(st.integers(0, rows - 1))] = draw(st.integers(1, positions - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = (np.arange(positions) < np.array(lengths)[:, None]).astype(np.float64)
    ids = rng.integers(0, len(VOCAB), (rows, positions))
    other = np.where(mask > 0, ids, rng.integers(0, len(VOCAB), (rows, positions)))
    return ids, other, mask


class TestPadInvariance:
    """Masked keys get probability exactly 0, so the ids at padded positions
    change no real position's hidden state and no gradient, bit for bit.
    The forward relies on it to skip the GELU's normal CDF at the pads, and
    the losses, whose gradient is exactly 0 on every hidden state they do not
    read, to skip it in the last layer at those positions too."""

    @settings(DETERMINISTIC, max_examples=60)
    @given(padded_batches())
    def test_pad_ids_change_no_real_hidden_state_and_no_gradient(self, batch):
        ids, other, mask = batch
        params, real = pad_params(), mask > 0
        tags = np.where(real, ids % PAD_CONFIG.n_tags, -1)
        pos_b, pos_s = np.nonzero(real)
        runs = []
        for x in (ids, other):
            h, _ = forward_hidden(params, PAD_CONFIG, x, mask, keep_cache=False)
            _, _, ner = ner_loss_and_grads(params, PAD_CONFIG, x, mask, tags)
            _, _, mlm = mlm_loss_and_grads(params, PAD_CONFIG, x, mask, pos_b, pos_s, ids[real])
            runs.append((h[real], ner, mlm))
        (h, ner, mlm), (h2, ner2, mlm2) = runs
        assert np.array_equal(h, h2)
        for grads, grads2 in ((ner, ner2), (mlm, mlm2)):
            assert all(np.array_equal(grads[k], grads2[k]) for k in grads)

    @settings(DETERMINISTIC, max_examples=60)
    @given(padded_batches(), st.integers(0, 2**32 - 1))
    def test_the_last_layer_cdf_only_where_the_loss_reads_changes_no_bit(self, batch, seed):
        ids, _, mask = batch
        params, real = pad_params(), mask > 0
        rng = np.random.default_rng(seed)
        # some real positions carry no tag or are left unmasked; (0, 0) is
        # real in every row set, so each loss reads one position at least
        tagged, masked = (real & (rng.random(real.shape) < share) for share in (0.6, 0.3))
        tagged[0, 0] = masked[0, 0] = True
        tags = np.where(tagged, ids % PAD_CONFIG.n_tags, IGNORE_ID)
        pos_b, pos_s = np.nonzero(masked)

        def every_real(*args, read=None, **kwargs):  # the CDF at every real position
            return forward_hidden(*args, **kwargs)

        runs = []
        for forward in (forward_hidden, every_real):
            with mock.patch.object(model_module, "forward_hidden", forward):
                runs.append((
                    ner_loss_and_grads(params, PAD_CONFIG, ids, mask, tags),
                    mlm_loss_and_grads(params, PAD_CONFIG, ids, mask, pos_b, pos_s, ids[masked]),
                ))
        for (loss, acc, grads), (loss2, acc2, grads2) in zip(*runs):
            assert (loss, acc) == (loss2, acc2)
            assert all(np.array_equal(grads[k], grads2[k]) for k in grads)
        h = forward_hidden(params, PAD_CONFIG, ids, mask, read=tagged)[0]
        assert np.array_equal(h[tagged], forward_hidden(params, PAD_CONFIG, ids, mask)[0][tagged])


class TestBlockedStep:
    """A training step cuts its batch into blocks of sorted rows, each cut to
    its own longest row, and adds their losses and gradients in block order:
    the sums of one unblocked batch, up to rounding."""

    @settings(DETERMINISTIC, max_examples=40)
    @given(padded_batches(max_rows=3 * model_module._BLOCK_ROWS), st.integers(0, 2**32 - 1))
    def test_blocked_loss_and_gradients_equal_one_unblocked_batch(self, batch, seed):
        ids, _, mask = batch
        params, real = pad_params(), mask > 0
        rng = np.random.default_rng(seed)
        tagged, masked = (real & (rng.random(real.shape) < share) for share in (0.6, 0.3))
        tagged[0, 0] = masked[0, 0] = True
        tags = np.where(tagged, ids % PAD_CONFIG.n_tags, IGNORE_ID)
        pos_b, pos_s = np.nonzero(masked)
        runs = []
        for block_rows in (model_module._BLOCK_ROWS, len(ids)):  # the second: one block
            with mock.patch.object(model_module, "_BLOCK_ROWS", block_rows):
                runs.append((
                    ner_loss_and_grads(params, PAD_CONFIG, ids, mask, tags),
                    mlm_loss_and_grads(params, PAD_CONFIG, ids, mask, pos_b, pos_s, ids[masked]),
                ))
        for (loss, acc, grads), (loss2, acc2, grads2) in zip(*runs):
            assert acc == acc2
            assert abs(loss - loss2) <= 1e-12 * abs(loss2)
            flat, flat2 = (model_module._flat_buffer(g) for g in (grads, grads2))
            assert np.abs(flat - flat2).max() <= 1e-12 * np.abs(flat2).max()


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
