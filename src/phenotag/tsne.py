"""Exact (non-approximated) t-SNE projection to two dimensions.

Per-point Gaussian bandwidths are calibrated by binary search so every
conditional distribution hits the target perplexity; affinities are
symmetrized and normalized, low-dimensional similarities use a Student-t
kernel with one degree of freedom, and optimization is plain gradient descent
with early exaggeration, a momentum switch and a learning rate that scales
with the number of points. Deterministic given the seed.

numpy is imported inside each function, so `import phenotag` loads none.
"""

from __future__ import annotations

import logging
import math

from .errors import ConfigurationError, ValidationError

logger = logging.getLogger(__name__)

_P_MIN = 1e-12
_TOL = 1e-5
_MAX_STEPS = 50
# The optimisation schedule of exact t-SNE (van der Maaten and Hinton, 2008),
# with a learning rate of n / early exaggeration (Belkina et al., Nature
# Communications 2019): a fixed rate of 200 left a 100-point layout's outcome
# to the BLAS kernel's rounding.
_EARLY_EXAGGERATION = 12.0
_EXAGGERATION_ITERS = 250
_MOMENTUM_SWITCH = 250


def _squared_distances(x: np.ndarray) -> np.ndarray:
    import numpy as np

    sq = (x * x).sum(1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _entropy_and_probs(dist_row: np.ndarray, beta: float):
    import numpy as np

    p = np.exp(-dist_row * beta)
    sum_p = p.sum()
    if sum_p <= 0.0:
        return 0.0, np.zeros_like(p)
    h = np.log(sum_p) + beta * float((dist_row * p).sum()) / sum_p
    return h, p / sum_p

def joint_probabilities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized, normalized pairwise affinities for the given perplexity.

    Each point's Gaussian precision is found by bisection until the entropy
    of its conditional distribution matches log(perplexity) within ``_TOL``
    (at most ``_MAX_STEPS`` halvings/doublings).
    """
    import numpy as np

    n = x.shape[0]
    d2 = _squared_distances(x)
    target = np.log(perplexity)
    cond = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        h, p = _entropy_and_probs(row, beta)
        for _ in range(_MAX_STEPS):
            if abs(h - target) < _TOL:
                break
            if h > target:
                beta_min = beta
                beta = beta * 2.0 if np.isinf(beta_max) else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if np.isinf(beta_min) else (beta + beta_min) / 2.0
            h, p = _entropy_and_probs(row, beta)
        cond[i, np.arange(n) != i] = p
    p_joint = cond + cond.T
    p_joint /= p_joint.sum()
    p_joint = np.maximum(p_joint, _P_MIN)
    p_joint /= p_joint.sum()
    return p_joint


def _student_t_q(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    num = 1.0 / (1.0 + _squared_distances(y))
    np.fill_diagonal(num, 0.0)
    q = np.maximum(num / num.sum(), _P_MIN)
    return q, num


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    import numpy as np

    mask = ~np.eye(p.shape[0], dtype=bool)
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def tsne(
    embeddings: np.ndarray,
    perplexity: float = 10.0,
    iterations: int = 1000,
    seed: int = 0,
) -> tuple[np.ndarray, list[float]]:
    """Project points to 2-D; returns (coords [n, 2], KL trace).

    The KL trace holds the divergence against the true (non-exaggerated)
    affinities, starting at the initial layout, one entry per iteration
    thereafter. Requires n >= 4; perplexity above (n-1)/3 is clamped with a
    notice; duplicate points get a seeded epsilon jitter.
    """
    if not (math.isfinite(perplexity) and perplexity > 0):
        raise ConfigurationError(
            f"perplexity must be a positive finite number, got {perplexity}"
        )
    if iterations < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
    import numpy as np

    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("embeddings must be a 2-D matrix")
    n = x.shape[0]
    if n < 4:
        raise ValidationError(f"t-SNE needs at least 4 points, got {n}")
    rng = np.random.default_rng(seed)

    d2 = _squared_distances(x)
    off_diag = d2 + np.eye(n)
    if (off_diag == 0.0).any():
        logger.warning("duplicate points detected; applying seeded jitter")
        scale = max(float(np.sqrt(d2.max())), 1.0)
        x = x + rng.normal(0.0, 1e-8 * scale, x.shape)

    max_perplexity = (n - 1) / 3.0
    if perplexity > max_perplexity:
        logger.warning(
            "perplexity %.1f too large for %d points; clamped to %.2f",
            perplexity, n, max_perplexity,
        )
        perplexity = max_perplexity

    p = joint_probabilities(x, perplexity)
    learning_rate = n / _EARLY_EXAGGERATION
    y = rng.normal(0.0, 1e-4, (n, 2))
    update = np.zeros_like(y)

    q, num = _student_t_q(y)  # of the current layout, for its KL and its step
    kl_trace = [_kl(p, q)]
    for t in range(1, iterations + 1):
        p_eff = p * _EARLY_EXAGGERATION if t <= _EXAGGERATION_ITERS else p
        pq = (p_eff - q) * num
        grad = 4.0 * ((np.diag(pq.sum(1)) - pq) @ y)
        momentum = 0.5 if t <= _MOMENTUM_SWITCH else 0.8
        update = momentum * update - learning_rate * grad
        y = y + update
        y = y - y.mean(0)
        q, num = _student_t_q(y)
        kl_trace.append(_kl(p, q))
    if not np.isfinite(y).all():
        raise ValidationError("t-SNE diverged to non-finite coordinates")
    return y, kl_trace
