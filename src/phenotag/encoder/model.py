"""Transformer encoder core: parameter initialization, forward pass, and
hand-written backpropagation in float64.

The architecture is a standard post-layer-norm encoder: token plus learned
position embeddings with a layer norm, then per layer multi-head self
attention and a GELU feed-forward block, each wrapped in residual + layer
norm. The masked-LM decoder is weight-tied to the token embedding matrix
(same array; gradients from the input and output paths accumulate into it),
plus a per-token output bias. A linear head over hidden states produces tag
logits for token classification.

All parameters live in a flat ``dict[str, np.ndarray]``. ``zero_grads`` lays
out gradients as views of one flat buffer, in the dict's order, and the
optimizer lays the parameters it trains out the same way, so an Adam step
runs over one buffer of each. The public functions never mutate their
inputs, but ``backward_hidden`` adds into the gradients it is given and
spends the cache. The private kernels work in place on temporaries they
allocated themselves, in the operation order of the plain expressions, so
results are bitwise the same with fewer allocations.

``tag_logits`` runs the training forward's kernels in the same order but
keeps no backward cache, so a call never holds every layer's activations.

Training and prediction share one thread pool and one runner, ``_run_all``, on
the CPUs that other processes leave free. A training step has one parallel
seam, fixed by its batch alone, never by the thread count: the rows, sorted
by length (longest first, ties in batch order), are cut into blocks of
``_BLOCK_ROWS`` rows, and each block is cut to its own longest row, so it
carries less padding than the batch. One run takes the blocks, longest first,
each a call that runs a serial forward, the loss head and a serial backward
into gradients of its own; the loss is divided by the whole batch's count of
supervised positions, and the step adds the blocks' losses and gradients in
block order. So a step's bits are the same at any thread count, and they
equal the unblocked batch's up to rounding (a pad's gradients are exactly 0,
below). Goyal et al. ("Accurate, Large Minibatch SGD", arXiv 1706.02677) sum
per-shard gradients this way; padding each block to its own longest row is
the dynamic padding of BERT fine-tuning (Devlin et al., arXiv 1810.04805).
The cache-free forward never calls the runner, so prediction's calls on the
pool never wait on it.

Masked keys get attention probability exactly 0, so no real position reads a
pad's activations, and a pad's gradients are exactly 0. The forward therefore
computes the GELU's normal CDF, its costliest kernel, only at real positions.
In the last layer it computes it only where the caller reads the hidden
state (the masked positions of pre-training, the tagged ones of
fine-tuning): a position the loss does not read reaches nothing after the
last layer, its gradient there is exactly ±0, so its activation and CDF meet
only ±0 in the GELU's backward and in the weight gradients' sums.

Importing this module holds numpy's OpenBLAS at one thread for the process,
so a product's bytes never follow the caller's thread settings, and sets
three glibc ``mallopt`` tunables: the activation memory each training step
frees (~23 MB at batch 32 x 40) then stays in the heap for the next step
instead of going back to the OS and being page-faulted in again. Blocks up
to 32 MiB come from the heap, and the heap is trimmed only above 64 MiB free
(setting only one of these would fix glibc's dynamic mmap threshold at
128 KiB). The third caps malloc at one arena, so the pool's threads reuse
what any thread freed, prediction's calls what training freed, instead of
each growing an arena. Other C libraries are left alone.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import cache, partial
from typing import Callable

import numpy as np

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


try:  # the symbol is local to numpy's extension: look it up through its handle
    _set_blas_threads = ctypes.CDLL(
        np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    _set_blas_threads.argtypes, _set_blas_threads.restype = (ctypes.c_int,), None
    _set_blas_threads(1)
except (OSError, AttributeError):  # numpy links another BLAS
    _set_blas_threads = None


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
    """Zeroed float64 arrays shaped as ``params``' tensors, in their order:
    the one layout of a flat buffer, of which each array is a view."""
    flat = np.zeros(sum(p.size for p in params.values()))
    views, lo = {}, 0
    for name, p in params.items():
        views[name] = flat[lo : lo + p.size].reshape(p.shape)
        lo += p.size
    return views


def _flat_buffer(views: dict[str, np.ndarray]) -> np.ndarray:
    """The buffer that ``zero_grads`` made ``views`` as views of."""
    flat = next(iter(views.values())).base
    if flat is None or any(a.base is not flat for a in views.values()):
        raise ValueError("the arrays are not views of one flat buffer")
    return flat


# ---------------------------------------------------------------------------
# primitive blocks


def _layernorm(x, g, b):
    """Layer norm over the last axis; returns (y, (xhat, inv, g))."""
    mu = x.mean(-1, keepdims=True)
    xhat = np.subtract(x, mu)
    sq = np.multiply(xhat, xhat)
    var = sq.mean(-1, keepdims=True)
    inv = np.divide(1.0, np.sqrt(var + LN_EPS))
    xhat *= inv
    y = np.multiply(g, xhat, out=sq)
    y += b
    return y, (xhat, inv, g)


def _layernorm_dx(dy, xhat, inv, g):
    """Layer norm's gradient on its input, row by row."""
    dx = np.multiply(dy, g)
    tmp = np.multiply(dx, xhat)
    m2 = tmp.mean(-1, keepdims=True)
    dx -= dx.mean(-1, keepdims=True)
    np.multiply(xhat, m2, out=tmp)
    dx -= tmp
    dx *= inv
    return dx


def _add_layernorm_grads(grads, name, dy, xhat):
    """Add layer norm ``name``'s gradients on its gain and bias, sums over
    every row, to ``grads``."""
    axes = tuple(range(dy.ndim - 1))
    grads[name + "_g"] += (dy * xhat).sum(axis=axes)
    grads[name + "_b"] += dy.sum(axis=axes)


def _gelu(x, real=None):
    """GELU with the exact normal CDF; returns (activation, cdf).

    Given ``real``, a boolean mask over the leading axes of ``x``, the CDF is
    computed only where it is true and is 0 elsewhere. ``scipy.special`` is
    imported here, at the first GELU, so a command that runs no forward pass
    does not pay for it.
    """
    from scipy.special import ndtr

    if real is None:
        cdf = ndtr(x)
    else:
        cdf = np.zeros_like(x)
        cdf[real] = ndtr(x[real])
    return np.multiply(x, cdf), cdf


def _gelu_backward(dy, x, cdf):
    """dy * d/dx[x * cdf(x)] = dy * (cdf + x * pdf), with cdf from the forward."""
    g = np.multiply(-0.5, x)
    g *= x
    np.exp(g, out=g)
    g *= _INV_SQRT_2PI
    g *= x
    g += cdf
    g *= dy
    return g


def _softmax_last(x, out=None):
    ex = np.subtract(x, x.max(-1, keepdims=True), out=out)
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


def _affine(x, w, b):
    """x @ w + b, adding the bias into the product's buffer."""
    y = np.matmul(x, w)
    y += b
    return y


def _linear_dx(dy, w):
    """dx = dy @ w.T for y = x @ w + b, one product over every position."""
    return (dy.reshape(-1, dy.shape[-1]) @ w.T).reshape(*dy.shape[:-1], w.shape[0])


def _add_linear_grads(grads, w, b, x, dy):
    """Add x^T dy and dy summed over rows to the grads of ``w`` and ``b``."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    grads[w] += x2.T @ dy2
    grads[b] += dy2.sum(0)


# ---------------------------------------------------------------------------
# the thread pool


def _workers() -> int:
    """The CPUs this process may run on (all of them where that is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run_threads() -> int:
    """Threads for a ``_run_all``: one per usable CPU that no other thread is
    running on now (``/proc/loadavg`` counts them with the caller), all of
    them where that is unknown; one where numpy links another BLAS than the
    OpenBLAS pinned at import, whose own threads would contend with the pool's."""
    if _set_blas_threads is None:
        return 1
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            runnable = int(f.read().split()[3].split("/")[0])
    except (OSError, ValueError, IndexError):
        return _workers()
    return max(1, _workers() - runnable + 1)


try:
    _current_cpu = ctypes.CDLL(None).sched_getcpu  # glibc
    _current_cpu.argtypes, _current_cpu.restype = (), ctypes.c_int
except (OSError, AttributeError):
    _current_cpu = None


def _other_cpus() -> set[int] | None:
    """The calling thread's usable CPUs but the one it runs on, where known.

    Linux wakes a sleeping thread on its waker's CPU when the thread's last
    CPU is busy, and on two CPUs it does not then look for an idle one, so a
    pool thread woken by the caller would queue behind it. A pool thread
    moves itself to these CPUs before it takes a call.
    """
    if _current_cpu is None or not hasattr(os, "sched_setaffinity"):
        return None
    return os.sched_getaffinity(0) - {_current_cpu()} or None


@cache
def _pool() -> ThreadPoolExecutor:
    """The process's one pool: a thread per usable CPU but the caller's,
    however many threads each run asks for."""
    return ThreadPoolExecutor(max(1, _workers() - 1))


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _run_all(calls: list[Callable[[], object]]) -> list:
    """Run the calls on the calling thread and up to ``_run_threads() - 1``
    pool threads, each taking the next call that none has taken; returns the
    results in call order. Threads take calls in list order, so a run (a
    training step's blocks, prediction's batches, Adam's shares) lists its
    longest call first, lest one thread end the run with it while the
    others idle. After a call raises no call starts, and once the running
    ones end the first exception, the calling thread's before the pool's,
    propagates unchanged. A call must never call ``_run_all``: the pool's
    threads could all wait on one another."""
    results: list = [None] * len(calls)
    # One iterator for every thread: a next() on it is one C call that runs
    # under the GIL, so no two threads take the same call.
    todo = iter(enumerate(calls))

    def run(cpus: set[int] | None = None) -> None:
        if cpus:
            try:
                os.sched_setaffinity(0, cpus)
            except OSError:  # a placement hint only
                pass
        for i, call in todo:
            try:
                results[i] = call()
            except BaseException:
                for _ in todo:  # take every call left, so that none starts
                    pass
                raise

    threads = min(_run_threads(), len(calls))
    cpus = _other_cpus() if threads > 1 else None
    futures = [_pool().submit(run, cpus) for _ in range(1, threads)]
    try:
        run()
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return results


def _row_shards(rows: int) -> list[slice]:
    """``rows`` cut into one contiguous slice per thread of a run, or one per
    row if there are fewer rows."""
    n = max(1, min(_run_threads(), rows))
    cuts = [rows * i // n for i in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


# ---------------------------------------------------------------------------
# backbone forward / backward


def _forward(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    read: np.ndarray | None,
    stages: list[dict[str, np.ndarray]] | None,
) -> np.ndarray:
    """The encoder over the rows ``ids``. Returns h, which the last layer
    computes only at the positions ``read`` (at every real one if it is
    None). Given a list ``stages``, appends the embedding's, then each
    layer's, activations to it."""
    s = ids.shape[1]
    e = params["tok_emb"][ids]
    e += params["pos_emb"][:s]
    h, (xhat, inv, _) = _layernorm(e, params["emb_ln_g"], params["emb_ln_b"])
    if stages is not None:
        stages.append({"h": h, "xhat": xhat, "inv": inv})

    # Unpadded, the key bias would be +0.0 everywhere: it changes only a -0.0
    # score, and exp maps both to 1.
    real = mask > 0
    if real.all():
        real = key_bias = None
    else:
        key_bias = (mask[:, None, None, :] - 1.0) * _NEG_BIG
    # What the caller reads never depends on a pad's GELU output, nor on the
    # last layer's outside ``read``.
    cdf_at = [real] * config.n_layers
    if read is not None and cdf_at:
        cdf_at[-1] = None if read.all() else read
    scale = 1.0 / math.sqrt(config.d_model // config.n_heads)
    for i in range(config.n_layers):
        pre = f"l{i}."
        x = h
        q = _affine(x, params[pre + "attn_wq"], params[pre + "attn_bq"])
        k = _affine(x, params[pre + "attn_wk"], params[pre + "attn_bk"])
        v = _affine(x, params[pre + "attn_wv"], params[pre + "attn_bv"])
        qh, kh, vh = (_split_heads(a, config.n_heads) for a in (q, k, v))
        scores = np.matmul(qh, kh.transpose(0, 1, 3, 2))
        scores *= scale
        if key_bias is not None:
            scores += key_bias
        probs = _softmax_last(scores, out=scores)
        ctx = np.empty_like(x)
        _split_heads(ctx, config.n_heads)[...] = probs @ vh
        attn = _affine(ctx, params[pre + "attn_wo"], params[pre + "attn_bo"])
        attn += x  # residual
        n1, (xhat1, inv1, _) = _layernorm(attn, params[pre + "attn_ln_g"],
                                          params[pre + "attn_ln_b"])
        hmid = _affine(n1, params[pre + "ffn_w1"], params[pre + "ffn_b1"])
        act, cdf = _gelu(hmid, cdf_at[i])
        f = _affine(act, params[pre + "ffn_w2"], params[pre + "ffn_b2"])
        f += n1  # residual
        h, (xhat2, inv2, _) = _layernorm(f, params[pre + "ffn_ln_g"], params[pre + "ffn_ln_b"])
        if stages is not None:
            stages.append({
                "q": q, "k": k, "v": v, "probs": probs, "ctx": ctx, "n1": n1,
                "xhat1": xhat1, "inv1": inv1, "hmid": hmid, "cdf": cdf, "act": act,
                "h": h, "xhat2": xhat2, "inv2": inv2,
            })
    return h


def forward_hidden(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    *,
    keep_cache: bool = True,
    read: np.ndarray | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Run the encoder on the calling thread: hidden states [B, S, d] and, if
    kept, a backward cache.

    ``read``, a boolean [B, S] mask, marks the positions whose hidden state
    the caller reads, every real one by default; elsewhere the returned h is
    not the encoder's. Without the cache, a layer's arrays are dropped as the
    next layer replaces them.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    if ids.shape[1] > config.max_positions:
        raise ConfigurationError(
            f"sequence length {ids.shape[1]} exceeds max_positions {config.max_positions}"
        )
    stages = [] if keep_cache else None
    h = _forward(params, config, ids, mask, read, stages)
    if not keep_cache:
        return h, None
    return h, {"ids": ids, "config": config, "emb": stages[0], "layers": stages[1:]}


def _attention_backward(config, o, dctx):
    """Attention's gradients on q, k and v, from that on its merged context
    ``dctx`` and the layer's activations ``o``."""
    n_heads = config.n_heads
    scale = 1.0 / math.sqrt(config.d_model // n_heads)
    dctx_h = _split_heads(dctx, n_heads)
    qh, kh, vh = (_split_heads(o[name], n_heads) for name in ("q", "k", "v"))
    dq, dk, dv = (np.empty_like(dctx) for _ in range(3))
    dqh, dkh, dvh = (_split_heads(a, n_heads) for a in (dq, dk, dv))
    probs = o["probs"]
    dprobs = dctx_h @ vh.transpose(0, 1, 3, 2)
    dvh[...] = probs.transpose(0, 1, 3, 2) @ dctx_h
    dscores = _softmax_backward(dprobs, probs)
    np.multiply(dscores @ kh, scale, out=dqh)
    np.multiply(dscores.transpose(0, 1, 3, 2) @ qh, scale, out=dkh)
    return dq, dk, dv


def _layer_backward(params, grads, config, pre, o, x, dh):
    """Backpropagate ``dh`` through the layer ``pre`` with activations ``o``
    and input ``x``: adds its weight and layer-norm gradients to ``grads``
    and returns the gradient on ``x``."""

    def w(name):
        return params[pre + name]

    def add_linear(name, a, dy):
        _add_linear_grads(grads, pre + name, pre + name.replace("_w", "_b"), a, dy)

    dr2 = _layernorm_dx(dh, o["xhat2"], o["inv2"], w("ffn_ln_g"))
    _add_layernorm_grads(grads, pre + "ffn_ln", dh, o["xhat2"])
    add_linear("ffn_w2", o["act"], dr2)
    dhmid = _gelu_backward(_linear_dx(dr2, w("ffn_w2")), o["hmid"], o["cdf"])
    add_linear("ffn_w1", o["n1"], dhmid)
    dn1 = _linear_dx(dhmid, w("ffn_w1"))
    dn1 += dr2  # residual around the feed-forward block
    dr1 = _layernorm_dx(dn1, o["xhat1"], o["inv1"], w("attn_ln_g"))
    _add_layernorm_grads(grads, pre + "attn_ln", dn1, o["xhat1"])
    add_linear("attn_wo", o["ctx"], dr1)
    dq, dk, dv = _attention_backward(config, o, _linear_dx(dr1, w("attn_wo")))
    add_linear("attn_wq", x, dq)
    add_linear("attn_wk", x, dk)
    add_linear("attn_wv", x, dv)
    dx = _linear_dx(dq, w("attn_wq"))
    dx += dr1  # residual around attention
    dx += _linear_dx(dk, w("attn_wk"))
    dx += _linear_dx(dv, w("attn_wv"))
    return dx


def _embedding_backward(grads, ids, emb, gain, dh) -> None:
    """Backpropagate ``dh`` through the embedding's layer norm ``emb`` with
    gain ``gain`` into ``grads``."""
    de = _layernorm_dx(dh, emb["xhat"], emb["inv"], gain)
    _add_layernorm_grads(grads, "emb_ln", dh, emb["xhat"])
    np.add.at(grads["tok_emb"], ids, de)
    grads["pos_emb"][: de.shape[1]] += de.sum(0)


def backward_hidden(
    dh: np.ndarray,
    cache: dict,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
) -> None:
    """Backpropagate a gradient on hidden states into ``grads`` (accumulating),
    on the calling thread. Each layer's activations leave ``cache`` as its
    backward ends, so the cache is spent."""
    config: ModelConfig = cache["config"]
    layers = cache["layers"]
    for i in reversed(range(config.n_layers)):
        o = layers.pop()
        x = layers[-1]["h"] if layers else cache["emb"]["h"]
        dh = _layer_backward(params, grads, config, f"l{i}.", o, x, dh)
    _embedding_backward(grads, cache["ids"], cache["emb"], params["emb_ln_g"], dh)


# ---------------------------------------------------------------------------
# losses

# Rows a training block holds: a batch's rows, longest first, are cut into
# blocks of this many (see the module docstring).
_BLOCK_ROWS = 8


def _softmax_xent(logits: np.ndarray, labels: np.ndarray, n: int):
    """Cross entropy summed over rows and divided by ``n``; returns (loss,
    count of rows whose argmax is the label, dlogits)."""
    m = logits.max(-1, keepdims=True)
    ex = np.exp(logits - m)
    z = ex.sum(-1, keepdims=True)
    probs = ex / z
    idx = np.arange(logits.shape[0])
    logp = logits[idx, labels] - (m[:, 0] + np.log(z[:, 0]))
    loss = -logp.sum() / n
    correct = int((logits.argmax(-1) == labels).sum())
    dlogits = probs
    dlogits[idx, labels] -= 1.0
    dlogits /= n
    return float(loss), correct, dlogits


def _blocked_step(params, config, ids, mask, read, n, head):
    """A training step's loss, accuracy and gradients, block by block.

    A row's length is the position after its last real or ``read`` one. The
    rows, longest first (ties in batch order), are cut into blocks of
    ``_BLOCK_ROWS``, each cut to its own longest row; one ``_run_all`` runs
    the blocks, longest first, each a forward, ``head`` and a backward into
    gradients of its own. ``head(rows, h, grads)`` scores the block of batch
    rows ``rows`` from their hidden states ``h``, with its loss divided by
    the batch's ``n`` supervised positions: it adds the head's gradients to
    ``grads`` and returns (loss, correct, dh). The blocks' losses, counts and
    gradients are added in block order.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    keep = (mask > 0) | read
    lengths = np.where(keep.any(1), keep.shape[1] - keep[:, ::-1].argmax(1), 0)
    order = np.argsort(-lengths, kind="stable")

    def block(rows):
        s = max(int(lengths[rows[0]]), 1)
        h, cache = forward_hidden(params, config, ids[rows, :s], mask[rows, :s],
                                  read=read[rows, :s])
        grads = zero_grads(params)
        loss, correct, dh = head(rows, h, grads)
        backward_hidden(dh, cache, params, grads)
        return loss, correct, grads

    blocks = _run_all([partial(block, order[lo : lo + _BLOCK_ROWS])
                       for lo in range(0, len(order), _BLOCK_ROWS)])
    loss, correct, grads = blocks[0]
    flat = _flat_buffer(grads)
    for block_loss, block_correct, block_grads in blocks[1:]:
        loss += block_loss
        correct += block_correct
        flat += _flat_buffer(block_grads)
    return loss, correct / n, grads


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
    pos_b, pos_s, labels = (np.asarray(a, dtype=np.int64) for a in (pos_b, pos_s, labels))
    read = np.zeros(np.shape(ids), dtype=bool)
    read[pos_b, pos_s] = True

    def head(rows, h, grads):
        local = np.full(len(read), -1)
        local[rows] = np.arange(len(rows))
        at = local[pos_b] >= 0  # the positions in this block, in the given order
        pb, ps = local[pos_b[at]], pos_s[at]
        hm = h[pb, ps]
        logits = _affine(hm, params["tok_emb"].T, params["mlm_bias"])
        loss, correct, dlogits = _softmax_xent(logits, labels[at], len(labels))
        grads["mlm_bias"] += dlogits.sum(0)
        grads["tok_emb"] += dlogits.T @ hm  # decoder side of the tied embedding
        dh = np.zeros_like(h)
        np.add.at(dh, (pb, ps), dlogits @ params["tok_emb"])
        return loss, correct, dh

    return _blocked_step(params, config, ids, mask, read, len(labels), head)


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
    n = int(sel.sum())

    def head(rows, h, grads):
        at = sel[rows, : h.shape[1]]
        hs = h[at]
        logits = _affine(hs, params["ner_w"], params["ner_b"])
        loss, correct, dlogits = _softmax_xent(logits, tag_ids[rows, : h.shape[1]][at], n)
        grads["ner_w"] += hs.T @ dlogits
        grads["ner_b"] += dlogits.sum(0)
        dh = np.zeros_like(h)
        dh[at] = dlogits @ params["ner_w"].T
        return loss, correct, dh

    return _blocked_step(params, config, ids, mask, sel, n, head)


def tag_logits(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Inference-mode tag logits [B, S, n_tags], from the cache-free forward."""
    h, _ = forward_hidden(params, config, ids, mask, keep_cache=False)
    return _affine(h, params["ner_w"], params["ner_b"])
