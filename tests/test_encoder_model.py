import numpy as np
import pytest
from scipy.special import ndtr

from conftest import edit_metadata, make_vocab, sized_vocab, with_removed_settings
from phenotag.encoder import (
    Adam,
    Checkpoint,
    ModelConfig,
    export_embeddings,
    init_model,
    load_checkpoint,
    resize_for_vocab,
    save_checkpoint,
)
from phenotag.encoder.model import (
    _INV_SQRT_2PI,
    LN_EPS,
    _add_layernorm_grads,
    _gelu,
    _gelu_backward,
    _layernorm,
    _layernorm_dx,
    _softmax_backward,
    _softmax_last,
    forward_hidden,
    init_params,
    tag_logits,
    zero_grads,
)
from phenotag.errors import ConfigurationError, ParseError, ValidationError
from phenotag.tokenizer import UNK, wordpiece
from phenotag.vocab_expand import expand_frequency

TINY = ModelConfig(vocab_size=30, n_layers=2, d_model=16, n_heads=2, d_ff=32, max_positions=16)
TINY_VOCAB = sized_vocab(30)


class TestInit:
    def test_deterministic_bit_identical(self):
        a = init_model(TINY, TINY_VOCAB)
        b = init_model(TINY, TINY_VOCAB)
        assert set(a.params) == set(b.params)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k]), k

    def test_non_divisible_heads_rejected(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            init_model(ModelConfig(vocab_size=10, d_model=64, n_heads=5), sized_vocab(10))

    def test_embedding_shape(self):
        ck = init_model(ModelConfig(vocab_size=100, d_model=8, n_heads=2, d_ff=16),
                        sized_vocab(100))
        assert ck.params["tok_emb"].shape == (100, 8)

    def test_layernorm_at_identity(self):
        ck = init_model(TINY, TINY_VOCAB)
        assert np.array_equal(ck.params["emb_ln_g"], np.ones(16))
        assert np.array_equal(ck.params["emb_ln_b"], np.zeros(16))

    def test_other_tag_count_rejected(self):
        # the tag head speaks the BIO codec's 17 tag ids, no other count
        with pytest.raises(ConfigurationError, match="n_tags must be 17: 40"):
            init_model(ModelConfig(**{**TINY.to_dict(), "n_tags": 40}), TINY_VOCAB)

    def test_vocabulary_of_another_size_rejected(self):
        with pytest.raises(ValidationError, match="vocab_size 30 != vocabulary size 31"):
            init_model(TINY, sized_vocab(31))

    def test_seed_changes_weights(self):
        a = init_model(TINY, TINY_VOCAB)
        b = init_model(ModelConfig(**{**TINY.to_dict(), "seed": 1}), TINY_VOCAB)
        assert not np.array_equal(a.params["tok_emb"], b.params["tok_emb"])


class TestForward:
    def test_pad_id_does_not_leak_into_masked_outputs(self):
        ck = init_model(TINY, TINY_VOCAB)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, TINY.vocab_size, size=(1, 10))
        mask = np.ones((1, 10))
        mask[0, 7:] = 0.0
        h1 = forward_hidden(ck.params, TINY, ids, mask)[0]
        ids2 = ids.copy()
        ids2[0, 7:] = (ids2[0, 7:] + 3) % TINY.vocab_size
        h2 = forward_hidden(ck.params, TINY, ids2, mask)[0]
        np.testing.assert_array_equal(h1[0, :7], h2[0, :7])

    def test_zero_layer_is_layernormed_embedding_sum(self):
        cfg = ModelConfig(vocab_size=12, n_layers=0, d_model=8, n_heads=1, d_ff=8, max_positions=8)
        ck = init_model(cfg, sized_vocab(12))
        ids = np.array([[1, 2, 3]])
        mask = np.ones((1, 3))
        h = forward_hidden(ck.params, cfg, ids, mask)[0]
        e = ck.params["tok_emb"][ids[0]] + ck.params["pos_emb"][:3]
        mu = e.mean(-1, keepdims=True)
        var = ((e - mu) ** 2).mean(-1, keepdims=True)
        expected = (e - mu) / np.sqrt(var + 1e-12)
        np.testing.assert_allclose(h[0], expected, atol=1e-12)

    def test_identical_rows_in_batch(self):
        ck = init_model(TINY, TINY_VOCAB)
        ids = np.array([[3, 4, 5], [3, 4, 5]])
        mask = np.ones((2, 3))
        h = forward_hidden(ck.params, TINY, ids, mask)[0]
        np.testing.assert_array_equal(h[0], h[1])

    def test_overlong_sequence_rejected(self):
        ck = init_model(TINY, TINY_VOCAB)
        ids = np.zeros((1, TINY.max_positions + 1), dtype=np.int64)
        with pytest.raises(ConfigurationError, match="max_positions"):
            forward_hidden(ck.params, TINY, ids, np.ones_like(ids, dtype=float))

    def test_inference_deterministic(self):
        ck = init_model(TINY, TINY_VOCAB)
        ids = np.array([[1, 2, 3, 4]])
        mask = np.ones((1, 4))
        a = forward_hidden(ck.params, ck.config, ids, mask)[0]
        b = forward_hidden(ck.params, ck.config, ids, mask)[0]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("length", [3, 64, 128])
    def test_cache_free_forward_equals_training_forward(self, length):
        config = ModelConfig(vocab_size=2585)
        params = init_params(config)
        rng = np.random.default_rng(length)
        ids = rng.integers(5, config.vocab_size, (8, length))
        mask = (np.arange(length) < rng.integers(1, length + 1, (8, 1))).astype(float)
        trained, cache = forward_hidden(params, config, ids, mask)
        inferred, none = forward_hidden(params, config, ids, mask, keep_cache=False)
        assert len(cache["layers"]) == config.n_layers and none is None
        assert np.array_equal(inferred, trained)
        expected = trained @ params["ner_w"] + params["ner_b"]
        assert np.array_equal(tag_logits(params, config, ids, mask), expected)


def mixed_normal(rng, *shape):
    """Normal draws with |x| > 8 in the tails and some exact zeros."""
    x = rng.normal(0.0, 4.0, shape)
    x[rng.random(shape) < 0.1] = 0.0
    x.flat[:3] = (9.5, -12.0, 30.0)
    return x


class TestKernelsMatchPlainExpressions:
    """The in-place kernels against the plain expressions they replace,
    compared bit for bit."""

    def test_gelu_and_backward(self):
        rng = np.random.default_rng(11)
        x, dy = mixed_normal(rng, 3, 5, 32), mixed_normal(rng, 3, 5, 32)
        x0, dy0 = x.copy(), dy.copy()
        act, cdf = _gelu(x)
        np.testing.assert_array_equal(act, x0 * ndtr(x0))
        dx = _gelu_backward(dy, x, cdf)
        phi = np.exp(-0.5 * x0 * x0) * _INV_SQRT_2PI
        assert np.array_equal(dx, dy0 * (ndtr(x0) + x0 * phi))
        assert np.array_equal(x, x0) and np.array_equal(dy, dy0)

    def test_softmax_and_backward(self):
        rng = np.random.default_rng(12)
        x, dp = mixed_normal(rng, 2, 3, 6, 6), mixed_normal(rng, 2, 3, 6, 6)
        x[..., -2:] -= 1e9  # masked keys
        x0, dp0 = x.copy(), dp.copy()
        p = _softmax_last(x)
        ex = np.exp(x0 - x0.max(-1, keepdims=True))
        assert np.array_equal(p, ex / ex.sum(-1, keepdims=True))
        dx = _softmax_backward(dp, p)
        assert np.array_equal(dx, p * (dp0 - (dp0 * p).sum(-1, keepdims=True)))
        assert np.array_equal(x, x0) and np.array_equal(dp, dp0)

    def test_layernorm_and_backward(self):
        rng = np.random.default_rng(13)
        x, dy = mixed_normal(rng, 3, 5, 16), mixed_normal(rng, 3, 5, 16)
        x[0, 0] = 0.0  # a constant row: zero variance
        g, b = mixed_normal(rng, 16), mixed_normal(rng, 16)
        x0, dy0 = x.copy(), dy.copy()
        y, cache = _layernorm(x, g, b)
        xc = x0 - x0.mean(-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(-1, keepdims=True) + LN_EPS)
        xhat = xc * inv
        assert np.array_equal(y, g * xhat + b)
        assert np.array_equal(cache[0], xhat) and np.array_equal(cache[1], inv)
        dx = _layernorm_dx(dy, *cache)
        grads = {"ln_g": np.zeros(16), "ln_b": np.zeros(16)}
        _add_layernorm_grads(grads, "ln", dy, cache[0])
        dg, db = grads["ln_g"], grads["ln_b"]
        dxhat = dy0 * g
        ref = inv * (
            dxhat
            - dxhat.mean(-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(-1, keepdims=True)
        )
        assert np.array_equal(dx, ref)
        assert np.array_equal(dg, (dy0 * xhat).sum(axis=(0, 1)))
        assert np.array_equal(db, dy0.sum(axis=(0, 1)))
        assert np.array_equal(x, x0) and np.array_equal(dy, dy0)

    def test_five_adam_steps(self):
        rng = np.random.default_rng(14)
        params = {"w": mixed_normal(rng, 6, 4), "b": mixed_normal(rng, 4)}
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        adam = Adam(params, 4e-3)
        for t in range(1, 6):
            grads = {k: mixed_normal(rng, *p.shape) for k, p in params.items()}
            grads["w"][2] = 0.0
            flat = zero_grads(params)  # a step takes gradients in the flat layout
            for k, g in grads.items():
                flat[k][...] = g
            adam.step(params, flat)
            bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
                ref[k] -= 4e-3 * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8)
        lo = 0  # the moments are flat, over the tensors in the params' order
        for k in params:
            assert np.array_equal(params[k], ref[k])
            r = slice(lo, lo + params[k].size)
            assert np.array_equal(adam.m[r], m[k].ravel())
            assert np.array_equal(adam.v[r], v[k].ravel())
            lo += params[k].size
        assert lo == adam.m.size == adam.v.size


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        ck = init_model(TINY, TINY_VOCAB)
        ck.step = 17
        ck.vocab_digest = "abc123"
        path = tmp_path / "model.ckpt"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back.config == TINY
        assert back.step == 17
        assert back.vocab_digest == "abc123"
        for k in ck.params:
            np.testing.assert_array_equal(back.params[k], ck.params[k])

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_truncated_or_padded_file_names_itself(self, tmp_path):
        src = tmp_path / "model.ckpt"
        save_checkpoint(init_model(TINY, TINY_VOCAB), src)
        data = src.read_bytes()
        meta_end = 12 + int.from_bytes(data[8:12], "little")
        cuts = [0, 5, 8, 10, 12, 40, meta_end, meta_end + 3, meta_end + 7,
                1000, len(data) // 2, len(data) - 8, len(data) - 1]
        cases = [data[:n] for n in cuts] + [data + b"\0"]
        for i, blob in enumerate(cases):
            path = tmp_path / f"bad{i}.ckpt"
            path.write_bytes(blob)
            with pytest.raises(ParseError, match=f"bad{i}.ckpt"):
                load_checkpoint(path)

    def test_bad_metadata_and_oversized_shape(self, tmp_path):
        src = tmp_path / "model.ckpt"
        save_checkpoint(init_model(TINY, TINY_VOCAB), src)
        data = src.read_bytes()
        meta_len = int.from_bytes(data[8:12], "little")
        bad_json = data[:12] + b"{" * meta_len + data[12 + meta_len:]
        # the first tensor's first dimension claims 2**62 rows
        name_len = int.from_bytes(data[16 + meta_len:18 + meta_len], "little")
        dim_at = 18 + meta_len + name_len + 1
        huge = data[:dim_at] + (2**62).to_bytes(8, "little") + data[dim_at + 8:]
        for name, blob in [("json", bad_json), ("shape", huge)]:
            path = tmp_path / f"{name}.ckpt"
            path.write_bytes(blob)
            with pytest.raises(ParseError, match=f"{name}.ckpt"):
                load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("max_positions", 2, "max_positions must be >= 3: 2"),
        ("n_heads", 0, r"d_model \(16\) must be divisible by n_heads \(0\)"),
        ("n_tags", 40, "n_tags must be 17: 40"),
    ], ids=["max_positions-2", "n_heads-0", "n_tags-40"])
    def test_metadata_with_invalid_config_rejected(self, tmp_path, key, value, message):
        src, bad = tmp_path / "model.ckpt", tmp_path / "bad.ckpt"
        save_checkpoint(init_model(TINY, TINY_VOCAB), src)
        edit_metadata(src, bad, lambda meta: meta["config"].update({key: value}))
        with pytest.raises(ParseError, match=f"bad.ckpt: bad checkpoint metadata: {message}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit, message", [
        (lambda params: params.update(pos_emb=params["pos_emb"][:4]),
         r"tensor 'pos_emb' has shape \(4, 16\), its config needs \(128, 16\)"),
        (lambda params: params.pop("ner_b"), "no tensor 'ner_b'"),
        (lambda params: params.update(mlm_decoder=np.zeros((16, 30))),
         "unexpected tensor 'mlm_decoder'"),
    ], ids=["short-pos_emb", "no-ner_b", "extra-tensor"])
    def test_tensors_that_do_not_match_the_config_rejected(self, tmp_path, edit, message):
        # before the check, predict on the first two ended in a broadcast
        # ValueError and a KeyError traceback
        ck = init_model(ModelConfig(**{**TINY.to_dict(), "max_positions": 128}), TINY_VOCAB)
        edit(ck.params)
        save_checkpoint(ck, tmp_path / "bad.ckpt")
        with pytest.raises(ParseError, match=f"bad.ckpt: {message}"):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_empty_vocabulary_digest_matches_no_vocabulary(self, tmp_path):
        # an empty digest used to let any vocabulary of the model's size through
        save_checkpoint(init_model(TINY, TINY_VOCAB), tmp_path / "m.ckpt")
        edit_metadata(tmp_path / "m.ckpt", tmp_path / "blank.ckpt",
                      lambda meta: meta.update(vocab_digest=""))
        ck = load_checkpoint(tmp_path / "blank.ckpt")
        with pytest.raises(ValidationError, match="vocabulary digest mismatch"):
            ck.check_vocab(TINY_VOCAB)

    def test_metadata_with_removed_settings_rejected(self, tmp_path):
        save_checkpoint(init_model(TINY, TINY_VOCAB), tmp_path / "new.ckpt")
        with_removed_settings(tmp_path / "new.ckpt", tmp_path / "old.ckpt")
        expected = r"old\.ckpt: bad checkpoint metadata: .*'dropout_rate'"
        with pytest.raises(ParseError, match=expected):
            load_checkpoint(tmp_path / "old.ckpt")


def expanded_pair():
    vocab = make_vocab("her", "##2", "left", placeholders=4)
    ck = init_model(
        ModelConfig(vocab_size=len(vocab), n_layers=1, d_model=8, n_heads=2, d_ff=16,
                    max_positions=8),
        vocab,
    )
    new = expand_frequency(vocab, ["her2", "qzx"], k=2)
    return vocab, new, ck


class TestResize:
    def test_subword_mean_row(self):
        old, new, ck = expanded_pair()
        resized = resize_for_vocab(ck, old, new)
        slot = new.rewritten_ids[0]
        assert new.tokens[slot] == "her2"
        expected = (
            ck.params["tok_emb"][old.id_of("her")] + ck.params["tok_emb"][old.id_of("##2")]
        ) / 2.0
        np.testing.assert_allclose(resized.params["tok_emb"][slot], expected, atol=1e-15)

    def test_unk_decomposition_falls_back_to_seeded_random(self):
        old, new, ck = expanded_pair()
        assert wordpiece("qzx", old) == [UNK]
        slot = new.rewritten_ids[1]
        a = resize_for_vocab(ck, old, new)
        b = resize_for_vocab(ck, old, new)
        np.testing.assert_array_equal(a.params["tok_emb"][slot], b.params["tok_emb"][slot])
        assert not np.array_equal(a.params["tok_emb"][slot], ck.params["tok_emb"][slot])

    def test_only_rewritten_rows_change(self):
        old, new, ck = expanded_pair()
        resized = resize_for_vocab(ck, old, new)
        changed = set(new.rewritten_ids)
        for k in ck.params:
            if k == "tok_emb":
                continue
            np.testing.assert_array_equal(resized.params[k], ck.params[k]), k
        for row in range(len(old)):
            same = np.array_equal(resized.params["tok_emb"][row], ck.params["tok_emb"][row])
            assert same == (row not in changed)

    def test_no_rewritten_slots_is_identity(self):
        vocab = make_vocab("her", placeholders=2)
        ck = init_model(
            ModelConfig(vocab_size=len(vocab), n_layers=0, d_model=8, n_heads=1, d_ff=8,
                        max_positions=4),
            vocab,
        )
        out = resize_for_vocab(ck, vocab, vocab)
        for k in ck.params:
            np.testing.assert_array_equal(out.params[k], ck.params[k])

    def test_size_mismatch_rejected(self):
        old, new, ck = expanded_pair()
        bigger = make_vocab("her", "##2", "left", "extra", placeholders=4)
        with pytest.raises(ValidationError, match="slot replacement"):
            resize_for_vocab(ck, old, bigger)

    def test_checkpoint_of_another_vocabulary_rejected(self):
        old, new, ck = expanded_pair()
        with pytest.raises(ValidationError, match="vocabulary digest mismatch"):
            resize_for_vocab(ck, new, new)

    def test_non_placeholder_change_rejected(self):
        vocab = make_vocab("her", placeholders=1)
        tokens = list(vocab.tokens)
        tokens[tokens.index("her")] = "him"
        from phenotag.tokenizer import Vocabulary

        other = Vocabulary(tuple(tokens))
        ck = init_model(
            ModelConfig(vocab_size=len(vocab), n_layers=0, d_model=8, n_heads=1, d_ff=8,
                        max_positions=4),
            vocab,
        )
        with pytest.raises(ValidationError, match="placeholder"):
            resize_for_vocab(ck, vocab, other)


class TestExportEmbeddings:
    def test_in_vocab_token_exact_row(self):
        vocab = make_vocab("her", "##2", "left")
        ck = init_model(
            ModelConfig(vocab_size=len(vocab), n_layers=0, d_model=8, n_heads=1, d_ff=8,
                        max_positions=4),
            vocab,
        )
        matrix, labels = export_embeddings(ck, vocab, ["left"])
        np.testing.assert_array_equal(matrix[0], ck.params["tok_emb"][vocab.id_of("left")])
        assert labels == ["left"]

    def test_oov_token_mean_of_pieces(self):
        vocab = make_vocab("her", "##2")
        ck = init_model(
            ModelConfig(vocab_size=len(vocab), n_layers=0, d_model=8, n_heads=1, d_ff=8,
                        max_positions=4),
            vocab,
        )
        matrix, _ = export_embeddings(ck, vocab, ["her2"])
        emb = ck.params["tok_emb"]
        expected = (emb[vocab.id_of("her")] + emb[vocab.id_of("##2")]) / 2.0
        np.testing.assert_allclose(matrix[0], expected, atol=1e-15)

    def test_empty_list(self):
        vocab = make_vocab("her")
        ck = init_model(
            ModelConfig(vocab_size=len(vocab), n_layers=0, d_model=8, n_heads=1, d_ff=8,
                        max_positions=4),
            vocab,
        )
        matrix, labels = export_embeddings(ck, vocab, [])
        assert matrix.shape == (0, 8) and labels == []

    def test_other_vocabulary_rejected(self):
        vocab = make_vocab("aa", "bb")
        ck = init_model(
            ModelConfig(vocab_size=len(vocab), n_layers=0, d_model=8, n_heads=1, d_ff=8,
                        max_positions=4),
            vocab,
        )
        with pytest.raises(ValidationError, match="digest"):
            export_embeddings(ck, make_vocab("aa", "cc"), ["aa"])

    def test_row_order_is_input_order(self):
        vocab = make_vocab("aa", "bb")
        ck = init_model(
            ModelConfig(vocab_size=len(vocab), n_layers=0, d_model=8, n_heads=1, d_ff=8,
                        max_positions=4),
            vocab,
        )
        matrix, labels = export_embeddings(ck, vocab, ["bb", "aa"])
        np.testing.assert_array_equal(matrix[0], ck.params["tok_emb"][vocab.id_of("bb")])
        assert labels == ["bb", "aa"]
