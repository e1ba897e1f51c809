import collections
import hashlib
import importlib
import itertools
import math
import platform
import subprocess
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from conftest import child_env, explode_sentences, make_vocab
from phenotag.basevocab import default_vocabulary
from phenotag.corpus import (
    IGNORE_ID,
    TAG_TO_ID,
    Document,
    EntityLabel,
    EntitySpan,
    decode_bio,
    encode_corpus,
    save_corpus,
    split_sentences,
)
from phenotag.encoder import (
    Adam,
    FinetuneConfig,
    ModelConfig,
    finetune_ner,
    format_trace,
    init_model,
    masked_accuracy,
    predict,
    predict_corpus,
    pretrain_mlm,
    save_checkpoint,
)
from phenotag.encoder import model as model_module
from phenotag.encoder import training
from phenotag.encoder.model import (
    init_params,
    mlm_loss_and_grads,
    ner_loss_and_grads,
    tag_logits,
)
from phenotag.errors import ConfigurationError, TrainingError, ValidationError
from phenotag.synthesis import generate_synthetic
from phenotag.tokenizer import Vocabulary, tokenize

CL = EntityLabel.CANCER_LATERALITY
HRT = EntityLabel.HORMONE_RECEPTOR_TYPE


@pytest.fixture(scope="module")
def small_setup():
    vocab = default_vocabulary()
    docs = generate_synthetic(3, 6)
    config = ModelConfig(vocab_size=len(vocab), n_layers=1, d_model=16, n_heads=2,
                         d_ff=32, max_positions=64, seed=0)
    return vocab, docs, init_model(config, vocab)


class TestMaskingConfig:
    """The mask fraction is the one masking setting; the 80/10/10 split is fixed."""

    def test_zero_mask_frac_rejected(self, small_setup):
        vocab, docs, ck = small_setup
        with pytest.raises(ConfigurationError, match="mask_frac"):
            pretrain_mlm(ck, docs, vocab, steps=1, mask_frac=0.0)

    def test_mask_frac_above_one_rejected(self, small_setup):
        vocab, docs, ck = small_setup
        with pytest.raises(ConfigurationError, match="mask_frac"):
            pretrain_mlm(ck, docs, vocab, steps=1, mask_frac=1.5)
        with pytest.raises(ConfigurationError, match="mask_frac"):
            masked_accuracy(ck, docs, vocab, mask_frac=1.5)


class TestPretrain:
    def test_zero_steps_is_identity(self, small_setup):
        vocab, docs, ck = small_setup
        out, records = pretrain_mlm(ck, docs, vocab, steps=0)
        assert records == []
        for k in ck.params:
            np.testing.assert_array_equal(out.params[k], ck.params[k])

    def test_input_checkpoint_not_mutated(self, small_setup):
        vocab, docs, ck = small_setup
        before = {k: v.copy() for k, v in ck.params.items()}
        pretrain_mlm(ck, docs, vocab, steps=3, seed=0)
        for k in before:
            np.testing.assert_array_equal(ck.params[k], before[k])

    def test_deterministic_trace(self, small_setup):
        vocab, docs, ck = small_setup
        _, a = pretrain_mlm(ck, docs, vocab, steps=5, seed=4)
        _, b = pretrain_mlm(ck, docs, vocab, steps=5, seed=4)
        assert a == b

    def test_seed_changes_trace(self, small_setup):
        vocab, docs, ck = small_setup
        _, a = pretrain_mlm(ck, docs, vocab, steps=5, seed=4)
        _, b = pretrain_mlm(ck, docs, vocab, steps=5, seed=5)
        assert a != b

    def test_loss_decreases(self, small_setup):
        vocab, docs, ck = small_setup
        _, records = pretrain_mlm(ck, docs, vocab, steps=60, seed=0)
        first = np.mean([r.loss for r in records[:10]])
        last = np.mean([r.loss for r in records[-10:]])
        assert last < first

    def test_empty_corpus_rejected(self, small_setup):
        vocab, _, ck = small_setup
        with pytest.raises(ValidationError, match="no sentences"):
            pretrain_mlm(ck, [], vocab, steps=1)

    def test_step_counter_advances(self, small_setup):
        vocab, docs, ck = small_setup
        out, _ = pretrain_mlm(ck, docs, vocab, steps=4, seed=0)
        assert out.step == 4
        again, _ = pretrain_mlm(out, docs, vocab, steps=3, seed=0)
        assert again.step == 7

    def test_tied_decoder_embedding_updates(self, small_setup):
        # the MLM decoder reads the embedding matrix itself, so embedding rows
        # of masked tokens must move during training
        vocab, docs, ck = small_setup
        out, _ = pretrain_mlm(ck, docs, vocab, steps=5, seed=0)
        assert not np.array_equal(out.params["tok_emb"], ck.params["tok_emb"])
        assert "mlm_decoder" not in out.params

    def test_vocab_size_mismatch(self, small_setup):
        vocab, docs, ck = small_setup
        other = make_vocab("her")
        with pytest.raises(ValidationError, match="vocab"):
            pretrain_mlm(ck, docs, other, steps=1)


class TestFinetune:
    def test_digest_mismatch_rejected(self, small_setup):
        vocab, docs, ck = small_setup
        trained, _ = pretrain_mlm(ck, docs, vocab, steps=1, seed=0)
        other_tokens = list(vocab.tokens)
        other_tokens[vocab.placeholder_ids[0]] = "novelword"
        other = Vocabulary(tuple(other_tokens))
        with pytest.raises(ValidationError, match="digest"):
            finetune_ner(trained, docs, other)

    def test_defaults_echo_128_32_10(self):
        hyper = FinetuneConfig()
        max_positions = ModelConfig(vocab_size=1).max_positions
        assert (max_positions, hyper.batch_size, hyper.epochs) == (128, 32, 10)

    def test_sentence_longer_than_16_positions_trains(self):
        vocab = default_vocabulary()
        config = ModelConfig(vocab_size=len(vocab), n_layers=1, d_model=16, n_heads=2,
                             d_ff=32, max_positions=16, seed=0)
        text = " ".join(["her2"] * 20)
        assert len(tokenize(text, vocab)) == 40
        docs = [Document("long", text, [EntitySpan(0, 4, HRT)])]
        _, records = finetune_ner(init_model(config, vocab), docs, vocab,
                                  FinetuneConfig(epochs=1))
        assert len(records) == 1 and np.isfinite(records[0].loss)

    def test_zero_epochs_leaves_params_and_gives_chance_predictions(self, small_setup):
        vocab, docs, ck = small_setup
        out, records = finetune_ner(ck, docs, vocab, FinetuneConfig(epochs=0))
        assert records == []
        for k in ck.params:
            np.testing.assert_array_equal(out.params[k], ck.params[k])
        from phenotag.evaluation import score

        report = score(docs, predict_corpus(out, docs, vocab))
        assert report.exact.micro_f1 < 0.5

    def test_deterministic(self, small_setup):
        vocab, docs, ck = small_setup
        a, ra = finetune_ner(ck, docs, vocab, FinetuneConfig(epochs=1, seed=2))
        b, rb = finetune_ner(ck, docs, vocab, FinetuneConfig(epochs=1, seed=2))
        assert ra == rb
        np.testing.assert_array_equal(a.params["ner_w"], b.params["ner_w"])

    def test_trace_format(self, small_setup):
        vocab, docs, ck = small_setup
        pretrained, _ = pretrain_mlm(ck, docs, vocab, steps=2, seed=0)
        out, records = finetune_ner(pretrained, docs, vocab, FinetuneConfig(epochs=1, seed=0))
        text = format_trace(records)
        lines = text.strip().splitlines()
        assert lines[0] == "step,loss,accuracy"
        assert len(lines) == len(records) + 1
        # fine-tuning numbers its own steps from 1 and keeps the pre-training count
        assert [r.step for r in records] == list(range(1, len(records) + 1))
        assert out.step == pretrained.step == 2


class TestNonFiniteLoss:
    """A non-finite loss stops training at once, naming the step."""

    @pytest.mark.parametrize("trainer, loss_fn, message", [
        ("pretrain", "mlm_loss_and_grads", "non-finite masked-LM loss at step 7"),
        ("finetune", "ner_loss_and_grads", "non-finite tag loss at step 2"),
    ])
    def test_nan_at_the_second_step_raises(self, small_setup, monkeypatch, trainer,
                                           loss_fn, message):
        vocab, docs, ck = small_setup
        ck = ck.copy()
        ck.step = 5  # pre-training counts on from here; fine-tuning starts at 1
        before = {k: v.copy() for k, v in ck.params.items()}
        real = getattr(training, loss_fn)
        calls = []

        def nan_at_second_call(*args):
            calls.append(1)
            loss, acc, grads = real(*args)
            return (float("nan") if len(calls) == 2 else loss), acc, grads

        monkeypatch.setattr(training, loss_fn, nan_at_second_call)
        with pytest.raises(TrainingError, match=f"^{message}$"):
            if trainer == "pretrain":
                pretrain_mlm(ck, docs, vocab, steps=4, seed=0)
            else:
                finetune_ner(ck, docs, vocab, FinetuneConfig(epochs=2, batch_size=4))
        assert len(calls) == 2
        assert ck.step == 5
        for k in before:
            np.testing.assert_array_equal(ck.params[k], before[k])


class TestSentenceCut:
    """A sentence over the position budget becomes one max_positions-long row:
    [CLS], its first max_positions - 2 pieces, [SEP]."""

    @pytest.fixture(scope="class")
    def long_setup(self):
        vocab = default_vocabulary()
        config = ModelConfig(vocab_size=len(vocab), n_layers=1, d_model=16, n_heads=2,
                             d_ff=32, max_positions=128, seed=0)
        docs = [Document("long", " ".join(["her"] * 200), [EntitySpan(0, 3, HRT)])]
        return vocab, init_model(config, vocab), docs

    def spy(self, monkeypatch, name):
        seen = []
        real = getattr(training, name)

        def record(params, config, ids, mask, *rest):
            seen.append((ids, mask, *rest))
            return real(params, config, ids, mask, *rest)

        monkeypatch.setattr(training, name, record)
        return seen

    def test_pretrain_cuts_to_126_pieces(self, long_setup, monkeypatch):
        vocab, ck, docs = long_setup
        seen = self.spy(monkeypatch, "mlm_loss_and_grads")
        pretrain_mlm(ck, docs, vocab, steps=1, batch_size=1, seed=0)
        ids, mask = seen[0][:2]
        assert ids.shape == (1, 128) and mask.sum() == 128
        assert ids[0, 0] == vocab.cls_id and ids[0, -1] == vocab.sep_id

    def test_finetune_cuts_ids_and_tags_to_126_pieces(self, long_setup, monkeypatch):
        vocab, ck, docs = long_setup
        seen = self.spy(monkeypatch, "ner_loss_and_grads")
        finetune_ner(ck, docs, vocab, FinetuneConfig(epochs=1, batch_size=1))
        ids, mask, tags = seen[0][:3]
        her = vocab.id_of("her")
        assert ids[0].tolist() == [vocab.cls_id] + [her] * 126 + [vocab.sep_id]
        assert mask.sum() == 128
        b_hrt, o = TAG_TO_ID["B-HormoneReceptorType"], TAG_TO_ID["O"]
        assert tags[0].tolist() == [IGNORE_ID, b_hrt] + [o] * 125 + [IGNORE_ID]


class TestPredict:
    def test_empty_document(self, small_setup):
        vocab, _, ck = small_setup
        assert predict(ck, [Document("e", "", [])], vocab) == [[]]

    def test_deterministic(self, small_setup):
        vocab, docs, ck = small_setup
        a = predict(ck, docs[:1], vocab)
        b = predict(ck, docs[:1], vocab)
        assert a == b

    def test_long_sentence_windowing(self):
        vocab = default_vocabulary()
        config = ModelConfig(vocab_size=len(vocab), n_layers=1, d_model=16, n_heads=2,
                             d_ff=32, max_positions=16, seed=0)
        ck = init_model(config, vocab)
        text = " ".join(["her2 positive finding"] * 30)  # far beyond one window
        [spans] = predict(ck, [Document("long", text, [])], vocab)
        for s in spans:
            assert 0 <= s.start_char < s.end_char <= len(text)

    def test_windowing_matches_single_window_on_short_text(self):
        vocab = default_vocabulary()
        small = ModelConfig(vocab_size=len(vocab), n_layers=1, d_model=16, n_heads=2,
                            d_ff=32, max_positions=16, seed=0)
        big = ModelConfig(vocab_size=len(vocab), n_layers=1, d_model=16, n_heads=2,
                          d_ff=32, max_positions=64, seed=0)
        doc = Document("d", " ".join(["left breast imaging today"] * 5), [])
        [a] = predict(init_model(small, vocab), [doc], vocab)
        [b] = predict(init_model(big, vocab), [doc], vocab)
        # both run; spans stay in bounds (predictions differ since windows differ)
        for s in a + b:
            assert 0 <= s.start_char < s.end_char <= len(doc.text)

    def test_other_vocabulary_rejected(self, small_setup):
        vocab, docs, ck = small_setup
        tokens = list(vocab.tokens)
        tokens[vocab.placeholder_ids[0]] = "novelword"
        other = Vocabulary(tuple(tokens))
        with pytest.raises(ValidationError, match="digest"):
            predict(ck, docs[:1], other)
        with pytest.raises(ValidationError, match="digest"):
            predict_corpus(ck, docs, other)
        with pytest.raises(ValidationError, match="vocab_size"):
            predict(ck, docs[:1], make_vocab("her"))

    def test_predicted_corpus_keeps_ids_and_text(self, small_setup):
        vocab, docs, ck = small_setup
        predicted = predict_corpus(ck, docs, vocab)
        assert [d.doc_id for d in predicted] == [d.doc_id for d in docs]
        assert all(p.text == d.text for p, d in zip(predicted, docs))


def _reference_windows(n_pieces, budget, stride):
    if n_pieces <= budget:
        return [(0, n_pieces)]
    starts = list(range(0, n_pieces - budget + 1, stride))
    if starts[-1] + budget < n_pieces:
        starts.append(n_pieces - budget)
    return [(s, s + budget) for s in starts]


def _reference_predict(ckpt, docs, vocab):
    """Prediction as it ran before batching: one tag_logits call per window."""
    budget = ckpt.config.max_positions - 2
    stride = max(1, budget // 2)
    out = [[] for _ in docs]
    for sent in encode_corpus(docs, vocab):
        n = len(sent.ids)
        best_dist = [float("inf")] * n
        tag_of = [0] * n
        for ws, we in _reference_windows(n, budget, stride):
            ids = np.array(
                [[vocab.cls_id] + sent.ids[ws:we] + [vocab.sep_id]], dtype=np.int64
            )
            mask = np.ones_like(ids, dtype=np.float64)
            logits = tag_logits(ckpt.params, ckpt.config, ids, mask)[0]
            window_tags = logits[1 : 1 + (we - ws)].argmax(-1)
            center = (ws + we - 1) / 2.0
            for p in range(ws, we):
                dist = abs(p - center)
                if dist < best_dist[p]:
                    best_dist[p] = dist
                    tag_of[p] = int(window_tags[p - ws])
        for span in decode_bio(tag_of, sent.tokens):
            out[sent.doc].append(EntitySpan(
                span.start_char + sent.offset, span.end_char + sent.offset, span.label
            ))
    for spans in out:
        spans.sort(key=lambda s: (s.start_char, s.end_char, s.label.value))
    return out


# tag_logits on rows stacked at one length against each row alone
_STACKED_ROWS_CHECK = """
import numpy as np
from phenotag.encoder.config import ModelConfig
from phenotag.encoder.model import init_params, tag_logits

config = ModelConfig(vocab_size=2585)
params = init_params(config)
rng = np.random.default_rng(0)
for length in (3, 17, 64, 128):
    for rows in (2, 8, 64):
        ids = rng.integers(5, config.vocab_size, (rows, length))
        stacked = tag_logits(params, config, ids, np.ones(ids.shape))
        for r in range(rows):
            alone = tag_logits(params, config, ids[r : r + 1], np.ones((1, length)))
            assert np.array_equal(stacked[r : r + 1], alone), (length, rows, r)
print("equal")
"""


@pytest.fixture(scope="module")
def mixed_docs():
    docs = generate_synthetic(11, 60)
    # every other document merges its sentences, as the infer-mixed corpus does
    mixed = [
        Document(d.doc_id, d.text.replace(". ", "; "), list(d.entities))
        if i % 2 == 0 else d
        for i, d in enumerate(docs)
    ]
    mixed.insert(3, Document("empty", "", []))
    mixed.append(Document("long", " ".join(["her2 positive left breast"] * 40), []))
    return mixed


@pytest.fixture(scope="module")
def repeated_docs():
    """Sentences repeated within and across documents at other offsets, with
    variants of one sentence that differ only in case or spacing."""
    long = " ".join(["her2 positive left breast"] * 12) + "."
    return generate_synthetic(13, 8) + [
        Document("a", "HER2 positive. Left breast. HER2 positive.\nher2  positive.", []),
        Document("b", f"  Left breast. {long} HER2 positive.", []),
        Document("c", f"{long}\n\n{long.upper()} Left  breast. HER2 positive.", []),
    ] + generate_synthetic(13, 8)


@pytest.fixture
def pool_size(monkeypatch):
    """Sets the encoder's pool to run every call on ``threads`` threads: the
    pool is remade with a thread per usable CPU but the caller's, and each
    run takes all of them."""

    def set_size(threads):
        monkeypatch.setattr(model_module, "_workers", lambda: threads)
        monkeypatch.setattr(model_module, "_run_threads", lambda: threads)
        model_module._pool.cache_clear()

    yield set_size
    model_module._pool.cache_clear()  # its threads end with the pool


def _tiny_model(vocab, max_positions):
    config = ModelConfig(vocab_size=len(vocab), n_layers=1, d_model=16, n_heads=2,
                         d_ff=32, max_positions=max_positions, seed=0)
    return init_model(config, vocab)


class TestBatchedPrediction:
    """Windows of equal length are stacked across sentences and documents;
    the spans are those of one tag_logits call per window."""

    predict_module = importlib.import_module("phenotag.encoder.predict")

    @pytest.mark.parametrize("max_positions", [8, 16, 40])
    def test_spans_equal_the_per_window_loop(self, mixed_docs, max_positions):
        vocab = default_vocabulary()
        ck = _tiny_model(vocab, max_positions)
        expected = _reference_predict(ck, mixed_docs, vocab)
        assert sum(map(len, expected)) > 0
        predicted = predict_corpus(ck, mixed_docs, vocab)
        assert [d.entities for d in predicted] == expected

    def test_fewer_calls_than_windows_and_one_row_per_window(self, mixed_docs, monkeypatch):
        vocab = default_vocabulary()
        ck = _tiny_model(vocab, 16)
        shapes = []
        real = self.predict_module.tag_logits

        def counting(params, config, ids, mask):
            shapes.append(ids.shape)
            return real(params, config, ids, mask)

        monkeypatch.setattr(self.predict_module, "tag_logits", counting)
        predict_corpus(ck, mixed_docs, vocab)
        distinct = {tuple(sent.ids) for sent in encode_corpus(mixed_docs, vocab)}
        windows = sum(len(_reference_windows(len(ids), 14, 7)) for ids in distinct)
        assert sum(rows for rows, _ in shapes) == windows  # one row per distinct window
        assert len(shapes) < windows / 4
        batch_tokens = self.predict_module.BATCH_TOKENS
        assert all(rows == 1 or rows * length <= batch_tokens for rows, length in shapes)

    def test_every_call_is_full_but_the_last_of_each_length(self, monkeypatch):
        # Each note ends with two measurements no other note has, so its
        # distinct sentences are spread through the corpus; all of them are
        # stacked at once, so only one call per window length is short.
        docs = [
            Document(d.doc_id, f"{d.text} Tumor size {2 * i} mm. Tumor size {2 * i + 1} mm.", [])
            for i, d in enumerate(generate_synthetic(21, 300))
        ]
        vocab = default_vocabulary()
        ck = _tiny_model(vocab, 16)
        calls = []
        real = self.predict_module.tag_logits

        def counting(params, config, ids, mask):
            calls.append(ids.shape)
            return real(params, config, ids, mask)

        monkeypatch.setattr(self.predict_module, "tag_logits", counting)
        predict(ck, docs, vocab)
        distinct = {tuple(sent.ids) for sent in encode_corpus(docs, vocab)}
        assert len(distinct) > 800
        windows = collections.Counter(
            we - ws for ids in distinct for ws, we in _reference_windows(len(ids), 14, 7)
        )
        batch_tokens = self.predict_module.BATCH_TOKENS
        assert len(calls) == sum(
            math.ceil(n / (batch_tokens // (length + 2))) for length, n in windows.items()
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_repeated_sentences_tagged_once_with_their_own_spans(
        self, repeated_docs, pool_size, workers
    ):
        pool_size(workers)
        vocab = default_vocabulary()
        ck = _tiny_model(vocab, 16)
        expected = _reference_predict(ck, repeated_docs, vocab)
        assert sum(map(len, expected)) > 0
        assert [d.entities for d in predict_corpus(ck, repeated_docs, vocab)] == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_distinct_sentence_decoded_once(
        self, repeated_docs, pool_size, monkeypatch, workers
    ):
        pool_size(workers)
        vocab = default_vocabulary()
        ck = _tiny_model(vocab, 16)
        expected = _reference_predict(ck, repeated_docs, vocab)
        assert sum(map(len, expected)) > 0
        decoded = []
        real = self.predict_module.decode_bio

        def counting(tag_ids, tokenized):
            decoded.append(tokenized)
            return real(tag_ids, tokenized)

        monkeypatch.setattr(self.predict_module, "decode_bio", counting)
        assert [d.entities for d in predict_corpus(ck, repeated_docs, vocab)] == expected
        sentences = [s for d in repeated_docs for s, _ in split_sentences(d.text)]
        assert len(decoded) == len(set(sentences)) < len(sentences)

    def test_sentences_with_the_same_ids_share_one_row(self, monkeypatch):
        vocab = default_vocabulary()
        ck = _tiny_model(vocab, 16)
        rows = []
        real = self.predict_module.tag_logits

        def counting(params, config, ids, mask):
            rows.append(ids[:, 1:-1].tolist())
            return real(params, config, ids, mask)

        monkeypatch.setattr(self.predict_module, "tag_logits", counting)
        docs = [Document("a", "HER2 positive. her2  positive.", []),
                Document("b", "Her2 Positive.", [])]
        assert predict(ck, docs, vocab) == _reference_predict(ck, docs, vocab)
        her2 = [vocab.id_of(p) for p in ("her", "##2", "positive", ".")]
        assert rows == [[her2]]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_stacked_rows_equal_one_row_calls(self, threads):
        proc = subprocess.run(
            [sys.executable, "-c", _STACKED_ROWS_CHECK],
            capture_output=True, text=True, timeout=300,
            env=child_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "equal"


# pooled prediction in a child process: one span digest per pool size
_POOLED_PREDICT_CHECK = """
import hashlib, importlib, sys
from phenotag.basevocab import default_vocabulary
from phenotag.corpus import load_corpus
from phenotag.encoder import ModelConfig, init_model, predict

module = importlib.import_module("phenotag.encoder.model")
vocab = default_vocabulary()
ckpt = init_model(ModelConfig(vocab_size=len(vocab)), vocab)
docs = load_corpus(sys.argv[1])
for workers in (1, 2, 4):
    module._workers = module._run_threads = lambda: workers
    module._pool.cache_clear()
    print(hashlib.sha256(repr(predict(ckpt, docs, vocab)).encode()).hexdigest())
"""


# a fine-tuning step frees its activations; pooled 1,024-position calls follow
_POOLED_MEMORY_CHECK = """
import importlib, resource
import numpy as np
from phenotag.basevocab import default_vocabulary
from phenotag.corpus import Document
from phenotag.encoder import Adam, ModelConfig, init_model, predict
from phenotag.encoder.model import ner_loss_and_grads

model = importlib.import_module("phenotag.encoder.model")
model._workers = model._run_threads = lambda: 2
vocab = default_vocabulary()
ckpt = init_model(ModelConfig(vocab_size=len(vocab)), vocab)
rng = np.random.default_rng(0)
ids = rng.integers(5, len(vocab), (32, 40))
tags = rng.integers(0, ckpt.config.n_tags, (32, 40))
_, _, grads = ner_loss_and_grads(ckpt.params, ckpt.config, ids, np.ones(ids.shape), tags)
Adam(ckpt.params, 1e-3).step(ckpt.params, grads)
del grads
docs = [Document(str(i), " ".join(["her2 positive left breast"] * (30 + i)), [])
        for i in range(24)]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
predict(ckpt, docs, vocab)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


class TestPooledPrediction:
    """The tag_logits calls run on the encoder's thread pool; the spans are
    those of one call per window, whatever the pool size and BLAS thread
    count."""

    predict_module = TestBatchedPrediction.predict_module

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_spans_equal_the_per_window_loop(self, mixed_docs, pool_size, workers):
        pool_size(workers)
        vocab = default_vocabulary()
        ck = _tiny_model(vocab, 16)
        expected = _reference_predict(ck, mixed_docs, vocab)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads trade the interpreter often
        try:
            predicted = predict_corpus(ck, mixed_docs, vocab)
        finally:
            sys.setswitchinterval(interval)
        assert [d.entities for d in predicted] == expected

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_spans_equal_the_per_window_loop_in_a_child(self, mixed_docs, tmp_path, threads):
        vocab = default_vocabulary()
        ck = init_model(ModelConfig(vocab_size=len(vocab)), vocab)
        expected = _reference_predict(ck, mixed_docs, vocab)
        corpus = tmp_path / "mixed.jsonl"
        save_corpus(mixed_docs, corpus)
        proc = subprocess.run(
            [sys.executable, "-c", _POOLED_PREDICT_CHECK, str(corpus)],
            capture_output=True, text=True, timeout=300,
            env=child_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(repr(expected).encode()).hexdigest()
        assert proc.stdout.split() == [digest] * 3

    def test_two_threads_run_calls_at_pool_size_2(self, mixed_docs, pool_size, monkeypatch):
        # the first two calls wait for each other: one thread alone would
        # break the barrier at its timeout
        real = self.predict_module.tag_logits
        barrier = threading.Barrier(2, timeout=60)
        started = itertools.count()
        threads = set()

        def meeting(params, config, ids, mask):
            if next(started) < 2:
                threads.add(threading.current_thread())
                barrier.wait()
            return real(params, config, ids, mask)

        monkeypatch.setattr(self.predict_module, "tag_logits", meeting)
        pool_size(2)
        vocab = default_vocabulary()
        predict_corpus(_tiny_model(vocab, 16), mixed_docs, vocab)
        assert len(threads) == 2

    def test_error_in_a_call_propagates_and_cancels_the_rest(self, mixed_docs, pool_size,
                                                                monkeypatch):
        monkeypatch.setattr(self.predict_module, "BATCH_TOKENS", 32)  # many calls
        vocab = default_vocabulary()
        ck = _tiny_model(vocab, 16)
        real = self.predict_module.tag_logits
        every = []

        def counting(params, config, ids, mask):
            every.append(ids.shape)
            return real(params, config, ids, mask)

        monkeypatch.setattr(self.predict_module, "tag_logits", counting)
        predict_corpus(ck, mixed_docs, vocab)
        error = ConfigurationError("second call failed")
        started = itertools.count()

        def failing(params, config, ids, mask):
            if next(started) == 1:
                raise error
            return real(params, config, ids, mask)

        monkeypatch.setattr(self.predict_module, "tag_logits", failing)
        pool_size(2)
        with pytest.raises(ConfigurationError) as raised:
            predict_corpus(ck, mixed_docs, vocab)
        assert raised.value is error
        assert next(started) < len(every) / 2, len(every)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator tunables are set only under glibc")
    def test_pooled_calls_reuse_memory_freed_by_training(self):
        proc = subprocess.run(
            [sys.executable, "-c", _POOLED_MEMORY_CHECK],
            capture_output=True, text=True, timeout=300,
            env=child_env(OPENBLAS_NUM_THREADS="1"),
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 20.0, proc.stdout  # MB


class TestMaskedAccuracy:
    def test_range_and_determinism(self, small_setup):
        vocab, docs, ck = small_setup
        a = masked_accuracy(ck, docs, vocab, seed=1)
        b = masked_accuracy(ck, docs, vocab, seed=1)
        assert a == b
        assert 0.0 <= a <= 1.0


# the CLI's training chain in a child: argv is the data directory, the output
# directory and the checkpoint that fine-tuning starts from
_TRAINING_CHAIN = """
import sys
from phenotag.cli import main

data, out, start = sys.argv[1:]
train = f"{data}/c.train.jsonl"
for argv in (
    ["pretrain", "--corpus", train, "--steps", "20", "--out", f"{out}/pretrained.ckpt"],
    ["resize", "--ckpt", f"{out}/pretrained.ckpt", "--old-vocab", "default",
     "--new-vocab", f"{data}/freq.txt", "--out", f"{out}/resized.ckpt"],
    ["pretrain", "--corpus", train, "--vocab", f"{data}/freq.txt",
     "--init-from", f"{out}/resized.ckpt", "--steps", "10", "--out", f"{out}/adapted.ckpt"],
    ["finetune", "--ckpt", start, "--corpus", train, "--epochs", "1",
     "--out", f"{out}/finetuned.ckpt"],
):
    if main(argv):
        sys.exit(1)
"""

_BLAS_SETTINGS = ("1", "2", "4", None)  # None: OPENBLAS_NUM_THREADS unset


@pytest.fixture(scope="class")
def chain_digests(tmp_path_factory):
    """{checkpoint name: [sha256 under each of _BLAS_SETTINGS]} for the
    training chain, one child process per setting. Every child fine-tunes
    from the one-thread child's pre-trained checkpoint; its epoch ends in a
    16-row batch, two blocks whose weight-gradient products each sum over
    hundreds of positions."""
    from phenotag.cli import main

    data = tmp_path_factory.mktemp("chain")
    assert main(["synth", "--seed", "1", "--docs", "40", "--out", str(data / "c.jsonl")]) == 0
    assert main(["build-vocab", "--mode", "freq", "--corpus", str(data / "c.train.jsonl"),
                 "--out", str(data / "freq.txt")]) == 0
    start = data / "1" / "pretrained.ckpt"
    digests = collections.defaultdict(list)
    for threads in _BLAS_SETTINGS:
        out = data / str(threads)
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _TRAINING_CHAIN, str(data), str(out), str(start)],
            capture_output=True, text=True, timeout=600,
            env=child_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        for path in sorted(out.glob("*.ckpt")):
            digests[path.stem].append(hashlib.sha256(path.read_bytes()).hexdigest())
    return digests


class TestDeterminismAcrossBlasThreads:
    """Importing the encoder holds numpy's OpenBLAS at one thread, so every
    checkpoint has the same bytes whatever ``OPENBLAS_NUM_THREADS`` says: a
    training step's one parallel seam is its blocks of rows, each run by one
    thread of the encoder's pool, and BLAS adds none of its own. The kernel
    that ``OPENBLAS_CORETYPE`` picks does change them."""

    @pytest.mark.parametrize("name", ["pretrained", "resized", "adapted", "finetuned"])
    def test_chain_checkpoint_bytes_equal_under_1_2_4_and_unset_threads(
        self, chain_digests, name
    ):
        assert len(chain_digests[name]) == len(_BLAS_SETTINGS)
        assert len(set(chain_digests[name])) == 1, chain_digests[name]

    def test_finetune_checkpoint_bytes_equal_under_1_and_2_threads(self, tmp_path):
        vocab = default_vocabulary()
        corpus = tmp_path / "c.jsonl"
        save_corpus(generate_synthetic(5, 16), corpus)
        start = tmp_path / "start.ckpt"
        save_checkpoint(init_model(ModelConfig(vocab_size=len(vocab)), vocab), start)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"ft{threads}.ckpt"
            proc = subprocess.run(
                [sys.executable, "-m", "phenotag", "finetune", "--ckpt", str(start),
                 "--corpus", str(corpus), "--epochs", "1", "--out", str(out)],
                capture_output=True, text=True, timeout=300,
                env=child_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# the OpenBLAS kernel's name, then pre-trained and fine-tuned checkpoint
# digests, one line per pool size
_SHARDED_TRAINING_CHECK = '''
import ctypes, hashlib, sys
from pathlib import Path
import numpy as np
from phenotag.basevocab import default_vocabulary
from phenotag.encoder import (
    FinetuneConfig, ModelConfig, finetune_ner, init_model, pretrain_mlm, save_checkpoint,
)
from phenotag.encoder import model
from phenotag.synthesis import generate_synthetic

try:
    corename = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    print(corename().decode())
except (OSError, AttributeError):  # numpy links another BLAS
    print("unknown")
vocab = default_vocabulary()
docs = generate_synthetic(5, 12)
cases = (  # (config, pre-training batch, fine-tuning batch)
    (ModelConfig(vocab_size=len(vocab)), 5, 7),
    (ModelConfig(vocab_size=len(vocab), max_positions=3), 3, 2),
    (ModelConfig(vocab_size=len(vocab)), 19, 20),
)
path = Path(sys.argv[1]) / "out.ckpt"
for workers in (1, 2, 3, 4):
    model._run_threads = lambda: workers
    digests = []
    for config, pretrain_batch, finetune_batch in cases:
        pre, _ = pretrain_mlm(init_model(config, vocab), docs, vocab, steps=3,
                              batch_size=pretrain_batch, seed=0)
        tuned, _ = finetune_ner(pre, docs, vocab,
                                FinetuneConfig(batch_size=finetune_batch, epochs=1))
        for ckpt in (pre, tuned):
            save_checkpoint(ckpt, path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    print(" ".join(digests))
'''

# the same checkpoints written by the serial step, per OpenBLAS kernel
_SERIAL_DIGESTS = {
    "SkylakeX": [
        "4967c62952d531d1237b3913ee64a5b1d0fc21ad88c3cafea739432f70c2ec1e",
        "f41b8e53af5bedad78cb82f68f29a482dd626017cc0420e712577e71b302b51b",
        "241ed38fd3331d1b2339a9f70f21588bf9f45e2dac2d6b317be0e02db9a57aea",
        "33972c04c587c910d065a473c79f688b79849d85a4945f0556ccc31323abd3fd",
        "3fa8ab5d5dd08db10ab14bae5e38bb7e6da754c6493e21cbcdceb10aa92026db",
        "bb061e091a9b82a823f464661cbfa20cf3c624f7d3b3a8e480a4238da71e2793",
    ],
    "Haswell": [
        "011ac56308147b585704fcac3a13a88a02ee867b75103473b9103946882e0581",
        "5eff81f6a84a988e58e7ff467aa578d5108eccccd096aefd24446a58a49714a9",
        "95ce665e69db6bf7ffb38882387631225ccdda6de6881e3036582305bf947324",
        "13cabb00205f9aff7ec63cb06da7045518d56b0f73463318e7e57d4c69c4f4e2",
        "1c503f517eed9aabe271ea3a203d3adda675a24dd75f42523659a4f2f167e25c",
        "8ae278ad22d3c79d28ede592271fe8eddc30a5a09a54546645b3ed1400c3b4ef",
    ],
    "Sandybridge": [
        "bd064ca5fc9d60f06585205156aff278884d9544ff16cbe10e65dd0aa95690f8",
        "a648a7f6375e53a5ab0eb7f0a1c358f82c6723640548b8c49f0dbc9481a236ba",
        "d691a3dd67c80bf566f81bde9c0e82ed3369c720152c60cdcea863a467b86283",
        "89567bf152121eff44ae10311c17631592c56c5b3bddfb9efe3d8715cfefeca8",
        "d748186ea5a33bbd2d1022be335963bcd2662e50e2297ad4266b2c51199438b7",
        "7d424de5e533ffe9c396f447d949e1a2716d4fdd42593672a9f2c7689ca1932c",
    ],
}

# the CPU flags each forced kernel needs: without them its child dies of SIGILL
_KERNEL_FLAGS = {None: set(), "Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}}


def _cpu_flags() -> set[str]:
    """The flags /proc/cpuinfo lists for the first CPU (none where unknown)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


class TestShardedTraining:
    """A training step cuts its batch into blocks by a rule of the batch
    alone: its rows, sorted by length (longest first, ties in batch order),
    in blocks of ``_BLOCK_ROWS``, each cut to its own longest row. The blocks
    run on a thread pool, each a serial forward and backward into gradients
    of its own, and the step adds them in block order. Checkpoints have the
    serial step's bytes at any pool size, whatever OpenBLAS kernel runs."""

    @pytest.mark.parametrize("kernel", [None, "Haswell", "Sandybridge"],
                             ids=["native", "Haswell", "Sandybridge"])
    def test_checkpoints_equal_the_serial_bytes_at_pool_sizes_1_to_4(self, tmp_path, kernel):
        # Batches of 5, 7, 3 and 2 rows run as one block, on one thread of
        # the pool; the second model's rows are [CLS] piece [SEP]. Batches of
        # 19 and 20 rows run as three blocks, the last of 3 or 4 rows. BLAS
        # runs one thread: the tied decoder's bytes still depend on that
        # count.
        if not _KERNEL_FLAGS[kernel] <= _cpu_flags():
            pytest.skip(f"this CPU cannot run OpenBLAS's {kernel} kernel")
        proc = subprocess.run(
            [sys.executable, "-c", _SHARDED_TRAINING_CHECK, str(tmp_path)],
            capture_output=True, text=True, timeout=300,
            env=child_env(OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE=kernel),
        )
        assert proc.returncode == 0, proc.stderr
        name, *lines = proc.stdout.splitlines()
        if kernel is not None and name != kernel:
            pytest.skip(f"OPENBLAS_CORETYPE={kernel} runs the {name} kernel")
        digests = [line.split() for line in lines]
        assert len(digests) == 4 and digests[1:] == [digests[0]] * 3, (name, digests)
        if name in _SERIAL_DIGESTS:
            assert digests[0] == _SERIAL_DIGESTS[name]

    @pytest.mark.parametrize("lengths, blocks", [
        ([18, 16], [(2, 18)]),  # fewer rows than a block
        ([5, 9, 9, 3, 7, 9, 2, 4, 6, 8], [(8, 9), (2, 3)]),  # ties keep batch order
        ([10] * 16, [(8, 10), (8, 10)]),
        ([3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
         [(8, 19), (8, 11), (1, 3)]),
    ])
    def test_the_blocks_are_sorted_rows_cut_to_their_longest_row(
        self, pool_size, monkeypatch, lengths, blocks
    ):
        # The first real position of each row is the row's length, so a
        # block's ids name its rows.
        real_forward = model_module.forward_hidden
        calls = collections.defaultdict(list)

        def recording_forward(params, config, ids, mask, **kwargs):
            calls[threads].append(ids.copy())
            return real_forward(params, config, ids, mask, **kwargs)

        monkeypatch.setattr(model_module, "forward_hidden", recording_forward)
        config = ModelConfig(vocab_size=2585)
        rows, positions = len(lengths), max(lengths) + 2
        rng = np.random.default_rng(rows)
        ids = rng.integers(5, config.vocab_size, (rows, positions))
        ids[:, 0] = lengths
        mask = (np.arange(positions) < np.array(lengths)[:, None]).astype(np.float64)
        tags = np.where(mask > 0, rng.integers(0, config.n_tags, (rows, positions)), -1)
        grads = []
        for threads in (1, 2):
            pool_size(threads)
            grads.append(ner_loss_and_grads(init_params(config), config, ids, mask, tags)[2])
        order = sorted(range(rows), key=lambda r: -lengths[r])
        expected = [ids[order[lo : lo + n], :length] for lo, (n, length) in
                    zip(itertools.accumulate([0] + [n for n, _ in blocks]), blocks)]
        def by_length(arrays):  # the order of a run's calls is the pool's
            return sorted(arrays, key=lambda a: (-a.shape[1], a.tobytes()))

        for threads in (1, 2):
            got = by_length(calls[threads])
            assert [a.shape for a in got] == blocks
            assert all(np.array_equal(a, b) for a, b in zip(got, by_length(expected)))
        assert all(np.array_equal(grads[0][k], grads[1][k]) for k in grads[0])

    def test_the_order_of_a_runs_calls_changes_no_bit(self, pool_size, monkeypatch):
        # Each block writes gradients of its own: a runner that takes a
        # run's calls one after another in reverse order gives the pool's
        # bits, whatever order a run lists them in.
        config = ModelConfig(vocab_size=2585)
        rng = np.random.default_rng(11)
        ids = rng.integers(5, config.vocab_size, (20, 30))
        mask = (np.arange(30) < rng.integers(10, 31, (20, 1))).astype(np.float64)
        tags = np.where(mask > 0, rng.integers(-1, config.n_tags, (20, 30)), -1)
        pos_b, pos_s = np.nonzero((mask > 0) & (rng.random((20, 30)) < 0.15))

        def steps():
            params = init_params(config)
            adam = Adam(params, 1e-3)
            out = []
            for loss_fn, args in ((mlm_loss_and_grads, (pos_b, pos_s, ids[pos_b, pos_s])),
                                  (ner_loss_and_grads, (tags,))):
                loss, _, grads = loss_fn(params, config, ids, mask, *args)
                adam.step(params, grads)
                out.append((loss, grads))
            return out, params

        def reversed_run_all(calls):
            results = [None] * len(calls)
            for i in reversed(range(len(calls))):
                results[i] = calls[i]()
            return results

        pool_size(3)  # three blocks, of 8, 8 and 4 rows, in every step
        pooled_steps, pooled_params = steps()
        monkeypatch.setattr(model_module, "_run_all", reversed_run_all)
        serial_steps, serial_params = steps()
        for (loss, grads), (loss2, grads2) in zip(serial_steps, pooled_steps):
            assert loss == loss2
            assert all(np.array_equal(grads[k], grads2[k]) for k in grads)
        assert all(np.array_equal(serial_params[k], pooled_params[k]) for k in serial_params)

    def test_four_threads_switching_often_give_the_serial_steps(self, pool_size):
        # more threads than a 2-core machine has, trading the interpreter
        # every 10 us: a lost, doubled or twice-taken call would change the bits
        config = ModelConfig(vocab_size=2585)
        rng = np.random.default_rng(3)
        ids = rng.integers(5, config.vocab_size, (19, 23))  # blocks of 8, 8 and 3 rows
        mask = (np.arange(23) < rng.integers(3, 24, (19, 1))).astype(np.float64)
        tags = np.where(mask > 0, rng.integers(0, config.n_tags, (19, 23)), -1)
        trained = []
        for threads in (1, 4):
            pool_size(threads)
            params = init_params(config)
            adam = Adam(params, 1e-3)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for _ in range(3):
                    _, _, grads = ner_loss_and_grads(params, config, ids, mask, tags)
                    adam.step(params, grads)
            finally:
                sys.setswitchinterval(interval)
            trained.append(params)
        assert all(np.array_equal(trained[0][k], trained[1][k]) for k in trained[0])

    def test_error_in_a_pool_thread_reaches_the_caller_after_every_shard_ends(
        self, pool_size
    ):
        # Four threads each take one of the first four calls and meet at a
        # barrier; then call 1 raises while the others are still running,
        # and none of the eight calls left may start.
        barrier = threading.Barrier(4, timeout=60)
        error = ConfigurationError("shard failed")
        started, ended = [], []

        def shard(i):
            started.append(i)
            if i < 4:
                barrier.wait()
            if i == 1:
                raise error
            time.sleep(0.3)  # still running when call 1 raises
            ended.append(i)

        pool_size(4)
        with pytest.raises(ConfigurationError) as raised:
            model_module._run_all([partial(shard, i) for i in range(12)])
        assert raised.value is error
        assert sorted(started) == [0, 1, 2, 3]
        assert sorted(ended) == [0, 2, 3]

    def test_steps_of_any_thread_count_share_one_pool(self, monkeypatch):
        # Every call waits for all the others, so each needs a thread of its
        # own; the run sizes follow the machine's load, and a pool per size
        # would leave 1 + 2 + 3 idle threads behind.
        monkeypatch.setattr(model_module, "_workers", lambda: 4)
        model_module._pool.cache_clear()
        before = set(threading.enumerate())
        try:
            for threads in (2, 3, 4):
                monkeypatch.setattr(model_module, "_run_threads", lambda: threads)
                barrier = threading.Barrier(threads, timeout=60)
                model_module._run_all([barrier.wait] * threads)
            started = set(threading.enumerate()) - before
            assert len(started) <= 3, len(started)
        finally:
            model_module._pool.cache_clear()  # its threads end with the pool


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator tunables are set only under glibc")
def test_training_step_reuses_memory_without_page_faults(monkeypatch):
    """Freed activations stay in the process: after warm-up a fine-tuning step
    at batch 32 x 40 on two training threads first-touches almost no new pages."""
    import resource  # POSIX only, like the glibc this test needs

    monkeypatch.setattr(model_module, "_run_threads", lambda: 2)

    config = ModelConfig(vocab_size=2585)
    params = init_params(config)
    rng = np.random.default_rng(0)
    ids = rng.integers(5, config.vocab_size, (32, 40))
    mask = (np.arange(40) < rng.integers(8, 41, (32, 1))).astype(np.float64)
    tags = np.where(mask > 0, rng.integers(0, config.n_tags, (32, 40)), -1)
    adam = Adam(params, 1e-3)

    def step():
        _, _, grads = ner_loss_and_grads(params, config, ids, mask, tags)
        adam.step(params, grads)

    for _ in range(3):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        step()
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
    assert per_step < 1000, per_step
