import sys

import numpy as np
import pytest

import phenotag.encoder.gradcheck as gradcheck_module
from phenotag.encoder import DEFAULT_TINY_CONFIG, ModelConfig, grad_check
from phenotag.errors import ConfigurationError

ZERO_LAYER = ModelConfig(
    vocab_size=24, n_layers=0, d_model=8, n_heads=1, d_ff=8, max_positions=8
)


class TestGradCheck:
    def test_tiny_config_within_tolerance(self):
        result = grad_check()
        assert result.max_rel_error <= 1e-4

    def test_zero_layer_linear_softmax_tight(self):
        result = grad_check(ZERO_LAYER)
        assert result.max_rel_error <= 1e-8

    def test_covers_every_tensor_for_both_losses(self):
        result = grad_check(ZERO_LAYER)
        names = set(result.per_tensor)
        for tensor in ("tok_emb", "pos_emb", "mlm_bias", "ner_w", "ner_b"):
            assert f"mlm:{tensor}" in names
            assert f"ner:{tensor}" in names

    def test_big_config_rejected(self):
        with pytest.raises(ConfigurationError, match="tiny"):
            grad_check(ModelConfig(vocab_size=50, n_layers=3, d_model=16, n_heads=2, d_ff=32))

    @pytest.mark.parametrize("coords", [0, -1])
    def test_no_coordinates_rejected(self, coords):
        with pytest.raises(ConfigurationError, match="coords_per_tensor"):
            grad_check(ZERO_LAYER, coords_per_tensor=coords)

    def test_corrupted_gradient_detected(self, monkeypatch):
        # sensitivity control: a broken attention gradient must blow the check
        real = gradcheck_module.mlm_loss_and_grads

        def corrupted(*args, **kwargs):
            loss, acc, grads = real(*args, **kwargs)
            grads["l0.attn_wq"] = grads["l0.attn_wq"] + 0.5
            return loss, acc, grads

        monkeypatch.setattr(gradcheck_module, "mlm_loss_and_grads", corrupted)
        result = grad_check(coords_per_tensor=8)
        assert result.max_rel_error > 1e-2

    def test_deterministic(self):
        a = grad_check(ZERO_LAYER, coords_per_tensor=16)
        b = grad_check(ZERO_LAYER, coords_per_tensor=16)
        assert a.max_rel_error == b.max_rel_error


def test_one_row_shards_give_the_serial_gradients(monkeypatch):
    # At pool size 2 the 2-row probe's forward and each layer's backward chain
    # both run as two 1-row shards.
    from phenotag.encoder import model

    real_shards = model._row_shards
    cuts, grads = {}, {}

    def recording_shards(rows):  # by pool size and calling function
        caller = sys._getframe(1).f_code.co_name
        cuts.setdefault((workers, caller), []).append(real_shards(rows))
        return cuts[(workers, caller)][-1]

    def first_grads(name, real):
        def record(*args):
            loss, acc, g = real(*args)
            grads.setdefault((workers, name), g)
            return loss, acc, g
        return record

    monkeypatch.setattr(model, "_row_shards", recording_shards)
    for name in ("mlm_loss_and_grads", "ner_loss_and_grads"):
        monkeypatch.setattr(gradcheck_module, name,
                            first_grads(name, getattr(gradcheck_module, name)))
    for workers in (1, 2):
        monkeypatch.setattr(model, "_run_threads", lambda: workers)
        assert grad_check().max_rel_error <= 1e-4
    assert set(cuts) == {(w, f) for w in (1, 2) for f in ("forward_hidden", "backward_hidden")}
    for caller in ("forward_hidden", "backward_hidden"):
        assert all(cut == [slice(0, 1), slice(1, 2)] for cut in cuts[(2, caller)])
    for name in ("mlm_loss_and_grads", "ner_loss_and_grads"):
        serial, sharded = grads[(1, name)], grads[(2, name)]
        assert all(np.array_equal(serial[k], sharded[k]) for k in serial)
