"""Transformer encoder core: parameter initialization, forward pass, and
hand-written backpropagation in float64.

The architecture is a standard post-layer-norm encoder: token plus learned
position embeddings with a layer norm, then per layer multi-head self
attention and a GELU feed-forward block, each wrapped in residual + layer
norm. The masked-LM decoder is weight-tied to the token embedding matrix
(same array; gradients from the input and output paths accumulate into it),
plus a per-token output bias. A linear head over hidden states produces tag
logits for token classification.

All parameters live in a flat ``dict[str, np.ndarray]``. The public functions
are pure: they never mutate their inputs. The private kernels work in place
on temporaries they allocated themselves, in the operation order of the
plain expressions, so results are bitwise the same with fewer allocations.

``tag_logits`` runs the training forward's kernels in the same order but
keeps no backward cache, so a call never holds every layer's activations.

Importing this module sets three glibc ``mallopt`` tunables for the process,
so the activation memory each training step frees (~23 MB at batch 32 x 40)
stays in the heap for the next step instead of going back to the OS and
being page-faulted in again: blocks up to 32 MiB come from the heap, and the
heap is trimmed only above 64 MiB free (setting only one of these would fix
glibc's dynamic mmap threshold at 128 KiB). The third caps malloc at one
arena, so prediction's worker threads reuse what training freed instead of
each growing an arena. Other C libraries are left alone.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np
from scipy.special import ndtr

from ..errors import ConfigurationError
from .config import ModelConfig

LN_EPS = 1e-12
_NEG_BIG = 1e9
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed memory for reuse (see module docstring)."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # AttributeError outside glibc
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 * 1024 * 1024)
    mallopt(_M_TRIM_THRESHOLD, 64 * 1024 * 1024)
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_memory()


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor's name and shape, in the order ``init_params`` draws them."""
    d, dff, v, t = config.d_model, config.d_ff, config.vocab_size, config.n_tags
    layer = {
        "attn_wq": (d, d), "attn_bq": (d,), "attn_wk": (d, d), "attn_bk": (d,),
        "attn_wv": (d, d), "attn_bv": (d,), "attn_wo": (d, d), "attn_bo": (d,),
        "attn_ln_g": (d,), "attn_ln_b": (d,), "ffn_w1": (d, dff), "ffn_b1": (dff,),
        "ffn_w2": (dff, d), "ffn_b2": (d,), "ffn_ln_g": (d,), "ffn_ln_b": (d,),
    }
    shapes = {
        "tok_emb": (v, d), "pos_emb": (config.max_positions, d),
        "emb_ln_g": (d,), "emb_ln_b": (d,),
    }
    for i in range(config.n_layers):
        shapes.update({f"l{i}.{name}": shape for name, shape in layer.items()})
    shapes.update(mlm_bias=(v,), ner_w=(d, t), ner_b=(t,))
    return shapes


def init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    """Seeded initialization: weights ~ N(0, 0.02), layer norms at identity."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config).items():
        if len(shape) == 2:
            params[name] = rng.normal(0.0, 0.02, shape)
        elif name.endswith("_g"):
            params[name] = np.ones(shape)
        else:
            params[name] = np.zeros(shape)
    return params


def zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# primitive blocks


def _layernorm(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xhat = x - mu
    sq = xhat * xhat
    var = sq.mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    y = np.multiply(g, xhat, out=sq)
    y += b
    return y, (xhat, inv, g)


def _layernorm_backward(dy, cache):
    xhat, inv, g = cache
    axes = tuple(range(dy.ndim - 1))
    dx = dy * g
    tmp = dy * xhat
    dg = tmp.sum(axis=axes)
    db = dy.sum(axis=axes)
    np.multiply(dx, xhat, out=tmp)
    m2 = tmp.mean(-1, keepdims=True)
    dx -= dx.mean(-1, keepdims=True)
    np.multiply(xhat, m2, out=tmp)
    dx -= tmp
    dx *= inv
    return dx, dg, db


def _gelu(x):
    """GELU with the exact normal CDF; returns (activation, cdf)."""
    cdf = ndtr(x)
    return x * cdf, cdf


def _gelu_backward(dy, x, cdf):
    """dy * d/dx[x * cdf(x)] = dy * (cdf + x * pdf), with cdf from the forward."""
    g = -0.5 * x
    g *= x
    np.exp(g, out=g)
    g *= _INV_SQRT_2PI
    g *= x
    g += cdf
    g *= dy
    return g


def _softmax_last(x):
    ex = x - x.max(-1, keepdims=True)
    np.exp(ex, out=ex)
    ex /= ex.sum(-1, keepdims=True)
    return ex


def _softmax_backward(dp, p):
    d = dp * p
    np.subtract(dp, d.sum(-1, keepdims=True), out=d)
    d *= p
    return d


def _split_heads(x, n_heads):
    b, s, d = x.shape
    return x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, s, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dk)


def _affine(x, w, b):
    """x @ w + b, adding the bias into the product's buffer."""
    y = x @ w
    y += b
    return y


def _linear_backward(dy, x, w):
    """Grads for y = x @ w + b with x of shape [..., din]."""
    din, dout = w.shape
    x2 = x.reshape(-1, din)
    dy2 = dy.reshape(-1, dout)
    dw = x2.T @ dy2
    db = dy2.sum(0)
    dx = (dy2 @ w.T).reshape(x.shape)
    return dx, dw, db


# ---------------------------------------------------------------------------
# backbone forward / backward


def forward_hidden(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    *,
    keep_cache: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Run the encoder: hidden states [B, S, d] and, if kept, a backward cache."""
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    b, s = ids.shape
    if s > config.max_positions:
        raise ConfigurationError(
            f"sequence length {s} exceeds max_positions {config.max_positions}"
        )
    layers: list[dict] = []

    e = params["tok_emb"][ids]
    e += params["pos_emb"][:s]
    h, emb_ln = _layernorm(e, params["emb_ln_g"], params["emb_ln_b"])

    key_bias = (mask[:, None, None, :] - 1.0) * _NEG_BIG
    scale = 1.0 / math.sqrt(config.d_model // config.n_heads)
    for i in range(config.n_layers):
        pre = f"l{i}."
        x = h
        q = _affine(x, params[pre + "attn_wq"], params[pre + "attn_bq"])
        k = _affine(x, params[pre + "attn_wk"], params[pre + "attn_bk"])
        v = _affine(x, params[pre + "attn_wv"], params[pre + "attn_bv"])
        qh = _split_heads(q, config.n_heads)
        kh = _split_heads(k, config.n_heads)
        vh = _split_heads(v, config.n_heads)
        scores = qh @ kh.transpose(0, 1, 3, 2)
        scores *= scale
        scores += key_bias
        probs = _softmax_last(scores)
        ctx = _merge_heads(probs @ vh)
        attn = _affine(ctx, params[pre + "attn_wo"], params[pre + "attn_bo"])
        attn += x  # residual
        n1, ln1 = _layernorm(attn, params[pre + "attn_ln_g"], params[pre + "attn_ln_b"])
        hmid = _affine(n1, params[pre + "ffn_w1"], params[pre + "ffn_b1"])
        act, cdf = _gelu(hmid)
        f = _affine(act, params[pre + "ffn_w2"], params[pre + "ffn_b2"])
        f += n1  # residual
        h, ln2 = _layernorm(f, params[pre + "ffn_ln_g"], params[pre + "ffn_ln_b"])
        if keep_cache:
            layers.append({
                "x": x, "qh": qh, "kh": kh, "vh": vh, "probs": probs,
                "ctx": ctx, "ln1": ln1, "n1": n1, "hmid": hmid, "cdf": cdf,
                "act": act, "ln2": ln2,
            })
    cache = {"ids": ids, "config": config, "emb_ln": emb_ln, "layers": layers}
    return h, cache if keep_cache else None


def backward_hidden(
    dh: np.ndarray,
    cache: dict,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
) -> None:
    """Backpropagate a gradient on hidden states into ``grads`` (accumulating)."""
    config: ModelConfig = cache["config"]
    ids = cache["ids"]
    scale = 1.0 / math.sqrt(config.d_model // config.n_heads)

    for i in reversed(range(config.n_layers)):
        pre = f"l{i}."
        lc = cache["layers"][i]
        dr2, dg2, db2 = _layernorm_backward(dh, lc["ln2"])
        grads[pre + "ffn_ln_g"] += dg2
        grads[pre + "ffn_ln_b"] += db2
        dact, dw2, db2f = _linear_backward(dr2, lc["act"], params[pre + "ffn_w2"])
        grads[pre + "ffn_w2"] += dw2
        grads[pre + "ffn_b2"] += db2f
        dhmid = _gelu_backward(dact, lc["hmid"], lc["cdf"])
        dn1, dw1, db1f = _linear_backward(dhmid, lc["n1"], params[pre + "ffn_w1"])
        grads[pre + "ffn_w1"] += dw1
        grads[pre + "ffn_b1"] += db1f
        dn1 += dr2  # residual around the feed-forward block
        dr1, dg1, db1 = _layernorm_backward(dn1, lc["ln1"])
        grads[pre + "attn_ln_g"] += dg1
        grads[pre + "attn_ln_b"] += db1
        dctx, dwo, dbo = _linear_backward(dr1, lc["ctx"], params[pre + "attn_wo"])
        grads[pre + "attn_wo"] += dwo
        grads[pre + "attn_bo"] += dbo
        dctx_h = _split_heads(dctx, config.n_heads)
        dprobs = dctx_h @ lc["vh"].transpose(0, 1, 3, 2)
        dvh = lc["probs"].transpose(0, 1, 3, 2) @ dctx_h
        dscores = _softmax_backward(dprobs, lc["probs"])
        dqh = dscores @ lc["kh"]
        dqh *= scale
        dkh = dscores.transpose(0, 1, 3, 2) @ lc["qh"]
        dkh *= scale
        dq = _merge_heads(dqh)
        dk = _merge_heads(dkh)
        dv = _merge_heads(dvh)
        dx = dr1  # residual around attention
        for name, dout in (("attn_wq", dq), ("attn_wk", dk), ("attn_wv", dv)):
            dxi, dw, db = _linear_backward(dout, lc["x"], params[pre + name])
            grads[pre + name] += dw
            grads[pre + name.replace("w", "b")] += db
            dx += dxi
        dh = dx

    de, dg, db = _layernorm_backward(dh, cache["emb_ln"])
    grads["emb_ln_g"] += dg
    grads["emb_ln_b"] += db
    np.add.at(grads["tok_emb"], ids, de)
    grads["pos_emb"][: de.shape[1]] += de.sum(0)


# ---------------------------------------------------------------------------
# losses


def _softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy over rows; returns (loss, accuracy, dlogits)."""
    m = logits.max(-1, keepdims=True)
    ex = np.exp(logits - m)
    z = ex.sum(-1, keepdims=True)
    probs = ex / z
    n = logits.shape[0]
    idx = np.arange(n)
    logp = logits[idx, labels] - (m[:, 0] + np.log(z[:, 0]))
    loss = -logp.mean()
    acc = float((logits.argmax(-1) == labels).mean())
    dlogits = probs
    dlogits[idx, labels] -= 1.0
    dlogits /= n
    return float(loss), acc, dlogits


def mlm_loss_and_grads(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    pos_b: np.ndarray,
    pos_s: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Masked-token cross entropy at the given positions, with full gradients.

    Logits are hidden states against the (tied) token embedding matrix plus
    the output bias; loss and accuracy are computed only at masked positions.
    """
    if len(labels) == 0:
        raise ConfigurationError("no masked positions: nothing to supervise")
    h, cache = forward_hidden(params, config, ids, mask)
    hm = h[pos_b, pos_s]
    logits = _affine(hm, params["tok_emb"].T, params["mlm_bias"])
    loss, acc, dlogits = _softmax_xent(logits, labels)
    grads = zero_grads(params)
    grads["mlm_bias"] += dlogits.sum(0)
    grads["tok_emb"] += dlogits.T @ hm  # decoder side of the tied embedding
    dh = np.zeros_like(h)
    np.add.at(dh, (pos_b, pos_s), dlogits @ params["tok_emb"])
    backward_hidden(dh, cache, params, grads)
    return loss, acc, grads


def ner_loss_and_grads(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    tag_ids: np.ndarray,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Per-token tag cross entropy; positions tagged -1 are excluded."""
    tag_ids = np.asarray(tag_ids, dtype=np.int64)
    sel = tag_ids >= 0
    if not sel.any():
        raise ConfigurationError("no supervised token positions in batch")
    h, cache = forward_hidden(params, config, ids, mask)
    hs = h[sel]
    logits = _affine(hs, params["ner_w"], params["ner_b"])
    loss, acc, dlogits = _softmax_xent(logits, tag_ids[sel])
    grads = zero_grads(params)
    grads["ner_w"] += hs.T @ dlogits
    grads["ner_b"] += dlogits.sum(0)
    dh = np.zeros_like(h)
    dh[sel] = dlogits @ params["ner_w"].T
    backward_hidden(dh, cache, params, grads)
    return loss, acc, grads


def tag_logits(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Inference-mode tag logits [B, S, n_tags], from the cache-free forward."""
    h, _ = forward_hidden(params, config, ids, mask, keep_cache=False)
    return _affine(h, params["ner_w"], params["ner_b"])
