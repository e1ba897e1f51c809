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


def test_the_probe_spans_two_blocks_of_unequal_length(monkeypatch):
    # The probe's batch runs as a full block and a block of shorter rows, the
    # rule that training runs, and gives the same gradients at pool sizes 1
    # and 2.
    from phenotag.encoder import model

    real_forward = model.forward_hidden
    shapes, grads = {}, {}

    def recording_forward(params, config, ids, mask, **kwargs):
        shapes.setdefault(workers, set()).add(ids.shape)
        return real_forward(params, config, ids, mask, **kwargs)

    def first_grads(name, real):
        def record(*args):
            loss, acc, g = real(*args)
            grads.setdefault((workers, name), g)
            return loss, acc, g
        return record

    monkeypatch.setattr(model, "forward_hidden", recording_forward)
    for name in ("mlm_loss_and_grads", "ner_loss_and_grads"):
        monkeypatch.setattr(gradcheck_module, name,
                            first_grads(name, getattr(gradcheck_module, name)))
    for workers in (1, 2):
        monkeypatch.setattr(model, "_run_threads", lambda: workers)
        assert grad_check().max_rel_error <= 1e-4
    assert shapes[1] == shapes[2] == {(model._BLOCK_ROWS, 10), (2, 6)}
    for name in ("mlm_loss_and_grads", "ner_loss_and_grads"):
        serial, pooled = grads[(1, name)], grads[(2, name)]
        assert all(np.array_equal(serial[k], pooled[k]) for k in serial)
