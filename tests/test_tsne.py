import importlib
import logging

import numpy as np
import pytest

from phenotag.errors import ValidationError
from phenotag.tsne import joint_probabilities, tsne

tsne_module = importlib.import_module("phenotag.tsne")  # the package exports tsne()


def two_clusters(n_per=50, dim=10, separation=10.0, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per, dim))
    b = rng.normal(0.0, 1.0, (n_per, dim))
    b[:, 0] += separation
    return np.vstack([a, b])


class TestJointProbabilities:
    def test_matrix_invariants(self):
        x = two_clusters(20, dim=5)
        p = joint_probabilities(x, perplexity=8.0)
        assert p.shape == (40, 40)
        assert (p >= 0).all()
        np.testing.assert_allclose(p, p.T, atol=1e-15)
        assert abs(p.sum() - 1.0) <= 1e-9

    def test_perplexity_calibration(self):
        # entropy of each conditional distribution should match the target
        x = two_clusters(25, dim=4, seed=9)
        n = x.shape[0]
        perplexity = 10.0
        sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        target = np.log(perplexity)
        for i in range(0, n, 7):
            row = np.delete(sq[i], i)
            # recover the conditional from the symmetrized joint is fiddly;
            # recompute the binary search independently instead
            beta_lo, beta_hi = 1e-6, 1e6
            for _ in range(200):
                beta = np.sqrt(beta_lo * beta_hi)
                w = np.exp(-row * beta)
                s = w.sum()
                h = np.log(s) + beta * (row * w).sum() / s if s > 0 else -np.inf
                if h > target:
                    beta_lo = beta
                else:
                    beta_hi = beta
            w = np.exp(-row * beta)
            p_i = w / w.sum()
            entropy = -(p_i[p_i > 0] * np.log(p_i[p_i > 0])).sum()
            assert abs(entropy - target) < 1e-3


class TestTsne:
    def test_two_cluster_geometry(self):
        x = two_clusters()
        coords, kl_trace = tsne(x, perplexity=15.0, iterations=400, seed=0)
        assert coords.shape == (100, 2)
        assert np.isfinite(coords).all()
        assert kl_trace[-1] < kl_trace[0]
        a, b = coords[:50], coords[50:]

        def mean_pairwise(u, v):
            return float(np.linalg.norm(u[:, None, :] - v[None, :, :], axis=-1).mean())

        intra = (mean_pairwise(a, a) + mean_pairwise(b, b)) / 2.0
        inter = mean_pairwise(a, b)
        assert intra < inter

    def test_deterministic(self):
        x = two_clusters(10, dim=3)
        c1, t1 = tsne(x, perplexity=5.0, iterations=50, seed=42)
        c2, t2 = tsne(x, perplexity=5.0, iterations=50, seed=42)
        np.testing.assert_array_equal(c1, c2)
        assert t1 == t2

    def test_seed_changes_layout(self):
        x = two_clusters(10, dim=3)
        c1, _ = tsne(x, perplexity=5.0, iterations=50, seed=1)
        c2, _ = tsne(x, perplexity=5.0, iterations=50, seed=2)
        assert not np.array_equal(c1, c2)

    def test_too_few_points(self):
        with pytest.raises(ValidationError, match="at least 4"):
            tsne(np.zeros((3, 5)))

    def test_perplexity_clamped_with_notice(self, caplog):
        x = two_clusters(5, dim=3)  # n=10, max perplexity 3
        with caplog.at_level(logging.WARNING):
            coords, _ = tsne(x, perplexity=50.0, iterations=30, seed=0)
        assert "clamped" in caplog.text
        assert np.isfinite(coords).all()

    def test_duplicate_points_jittered(self, caplog):
        x = np.zeros((8, 4))
        x[4:] += 1.0  # two groups of exact duplicates
        with caplog.at_level(logging.WARNING):
            coords, kl = tsne(x, perplexity=2.0, iterations=30, seed=0)
        assert "jitter" in caplog.text
        assert np.isfinite(coords).all()

    def test_kl_trace_length(self):
        x = two_clusters(5, dim=3)
        _, trace = tsne(x, perplexity=3.0, iterations=25, seed=0)
        assert len(trace) == 26  # initial + one per iteration


def _reference_tsne(x, perplexity, iterations, seed):
    """The optimisation loop as it ran before each layout's affinities were
    kept: one Student-t evaluation for the step and another for the KL."""
    m = tsne_module
    rng = np.random.default_rng(seed)
    p = joint_probabilities(x, perplexity)
    y = rng.normal(0.0, 1e-4, (x.shape[0], 2))
    update = np.zeros_like(y)
    q, _ = m._student_t_q(y)
    trace = [m._kl(p, q)]
    for t in range(1, iterations + 1):
        p_eff = p * m._EARLY_EXAGGERATION if t <= m._EXAGGERATION_ITERS else p
        q, num = m._student_t_q(y)
        pq = (p_eff - q) * num
        grad = 4.0 * ((np.diag(pq.sum(1)) - pq) @ y)
        momentum = 0.5 if t <= m._MOMENTUM_SWITCH else 0.8
        update = momentum * update - x.shape[0] / m._EARLY_EXAGGERATION * grad
        y = y + update
        y = y - y.mean(0)
        q, _ = m._student_t_q(y)
        trace.append(m._kl(p, q))
    return y, trace


class TestAffinitiesOncePerLayout:
    def test_same_layout_and_trace_as_the_two_evaluation_loop(self):
        x = two_clusters(15, dim=6, seed=5)
        coords, trace = tsne(x, perplexity=6.0, iterations=300, seed=4)
        ref_coords, ref_trace = _reference_tsne(x, 6.0, 300, 4)
        np.testing.assert_array_equal(coords, ref_coords)
        assert trace == ref_trace

    def test_one_student_t_evaluation_per_layout(self, monkeypatch):
        calls = []
        real = tsne_module._student_t_q

        def counting(y):
            calls.append(y.shape)
            return real(y)

        monkeypatch.setattr(tsne_module, "_student_t_q", counting)
        tsne(two_clusters(5, dim=3), perplexity=3.0, iterations=25, seed=0)
        assert len(calls) == 26  # the initial layout, then one per iteration
