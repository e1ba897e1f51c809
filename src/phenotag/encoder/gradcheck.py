"""Numerical validation of the analytic gradients against central finite
differences, for both training losses.

Every parameter tensor is probed at sampled coordinates (at least 64, or all
of them for small tensors), a central step of ``EPSILON`` either side. The
reported figure per coordinate is |analytic - numeric| / max(1, |analytic| +
|numeric|), so near-zero gradients are compared absolutely and large ones
relatively; the check passes when the worst figure is at most ``TOLERANCE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .config import ModelConfig
from .model import _BLOCK_ROWS, init_params, mlm_loss_and_grads, ner_loss_and_grads

DEFAULT_TINY_CONFIG = ModelConfig(
    vocab_size=32,
    n_layers=2,
    d_model=16,
    n_heads=2,
    d_ff=32,
    max_positions=12,
    seed=0,
)
EPSILON = 1e-5
TOLERANCE = 1e-4


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    per_tensor: dict[str, float]


def _rel_errors(
    params: dict[str, np.ndarray],
    loss_fn,
    grads: dict[str, np.ndarray],
    coords_per_tensor: int,
    rng: np.random.Generator,
) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        n = flat.size
        if n <= coords_per_tensor:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=coords_per_tensor, replace=False)
        worst = 0.0
        gflat = grads[name].reshape(-1)
        for c in coords:
            original = flat[c]
            flat[c] = original + EPSILON
            f_plus = loss_fn()
            flat[c] = original - EPSILON
            f_minus = loss_fn()
            flat[c] = original
            numeric = (f_plus - f_minus) / (2.0 * EPSILON)
            analytic = gflat[c]
            denom = max(1.0, abs(analytic) + abs(numeric))
            worst = max(worst, abs(analytic - numeric) / denom)
        out[name] = worst
    return out


def grad_check(
    config: ModelConfig | None = None,
    coords_per_tensor: int = 64,
    seed: int = 0,
) -> GradCheckResult:
    """Compare analytic and central-difference gradients for both losses.

    Requires a tiny configuration (n_layers <= 2, d_model <= 16) so the full
    probe finishes in seconds. Returns the worst error over all tensors for
    both the masked-LM and the tag-classification loss.
    """
    cfg = config if config is not None else DEFAULT_TINY_CONFIG
    cfg.validate()
    if cfg.n_layers > 2 or cfg.d_model > 16:
        raise ConfigurationError(
            "grad_check requires a tiny config (n_layers <= 2, d_model <= 16)"
        )
    if coords_per_tensor < 1:
        raise ConfigurationError(
            f"coords_per_tensor must be >= 1, got {coords_per_tensor}"
        )
    rng = np.random.default_rng(seed)
    params = init_params(cfg)

    # Rows of falling length, two more than a training block holds: the loss
    # runs a full block and a block of two shorter rows, as training does,
    # and the attention-mask path at the pads.
    b, s = _BLOCK_ROWS + 2, min(10, cfg.max_positions)
    ids = rng.integers(0, cfg.vocab_size, size=(b, s))
    lengths = s - np.arange(b) * (s // 2) // b
    mask = (np.arange(s) < lengths[:, None]).astype(np.float64)

    # masked-LM probe: a few supervised positions in each block's rows
    pos_b, pos_s = [], []
    for rows in (range(_BLOCK_ROWS), range(_BLOCK_ROWS, b)):
        flat_positions = [(r, p) for r in rows for p in range(lengths[r])]
        for i in rng.choice(len(flat_positions), size=3, replace=False):
            pos_b.append(flat_positions[int(i)][0])
            pos_s.append(flat_positions[int(i)][1])
    pos_b, pos_s = np.array(pos_b), np.array(pos_s)
    labels = rng.integers(0, cfg.vocab_size, size=len(pos_b))

    _, _, mlm_grads = mlm_loss_and_grads(params, cfg, ids, mask, pos_b, pos_s, labels)
    mlm_errors = _rel_errors(
        params,
        lambda: mlm_loss_and_grads(params, cfg, ids, mask, pos_b, pos_s, labels)[0],
        mlm_grads,
        coords_per_tensor,
        rng,
    )

    # tag probe: random tags with IGNORE sprinkled in
    tag_ids = rng.integers(0, cfg.n_tags, size=(b, s))
    tag_ids[mask == 0.0] = -1
    tag_ids[0, 0] = -1
    _, _, ner_grads = ner_loss_and_grads(params, cfg, ids, mask, tag_ids)
    ner_errors = _rel_errors(
        params,
        lambda: ner_loss_and_grads(params, cfg, ids, mask, tag_ids)[0],
        ner_grads,
        coords_per_tensor,
        rng,
    )

    per_tensor = {f"mlm:{k}": v for k, v in mlm_errors.items()}
    per_tensor.update({f"ner:{k}": v for k, v in ner_errors.items()})
    return GradCheckResult(max(per_tensor.values()), per_tensor)
