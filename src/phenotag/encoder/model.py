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
never mutate their inputs, but ``backward_hidden`` adds into the gradients it
is given and spends the cache. The private kernels work in place
on temporaries they allocated themselves, in the operation order of the
plain expressions, so results are bitwise the same with fewer allocations.

``tag_logits`` runs the training forward's kernels in the same order but
keeps no backward cache, so a call never holds every layer's activations.

Training and prediction share one thread pool and one runner, ``_run_all``, on
the CPUs that other processes leave free. A training step gives the bits of a
serial step at any thread count. The forward with a cache cuts the padded
batch into one row slice per thread, never re-padded, and runs the slices as
calls, each writing its rows of whole-batch arrays. Every forward kernel
computes a row from that row alone (numpy calls BLAS once per row for the 3-D
products, and once per row and head in attention), so a slice writes the bits
the whole batch would. The backward cuts each layer's activation-gradient
chain (the layer-norm, GELU and attention gradients and the products
``dy @ w.T`` between them) into row shards the same way. A shard flattens its
rows into one 2-D product per weight, and OpenBLAS rounds a row of a product
of at most 1,200 output elements differently (it switches to a small-matrix
kernel), so the chain is cut only where every shard's products are larger,
and otherwise runs as one call. What sums over rows stays whole: each weight's
and each layer norm's gradient is one call in the serial operands and order,
run with the chain shards of the layer below. The loss heads run on the
calling thread, and the cache-free forward never calls the runner, so
prediction's calls on the pool never wait on it.

Masked keys get attention probability exactly 0, so no real position reads a
pad's activations, and a pad's gradients are exactly 0. The forward therefore
computes the GELU's normal CDF, its costliest kernel, only at real positions.

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
from typing import Callable, Iterator

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
    return {k: np.zeros_like(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# primitive blocks


def _layernorm(x, g, b, out=(None, None, None)):
    """Layer norm over the last axis; ``out`` takes (y, xhat, inv) if given."""
    y, xhat, inv = out
    mu = x.mean(-1, keepdims=True)
    xhat = np.subtract(x, mu, out=xhat)
    sq = np.multiply(xhat, xhat, out=y)
    var = sq.mean(-1, keepdims=True)
    inv = np.divide(1.0, np.sqrt(var + LN_EPS), out=inv)
    xhat *= inv
    y = np.multiply(g, xhat, out=sq)
    y += b
    return y, (xhat, inv, g)


def _layernorm_dx(dy, xhat, inv, g, out=None):
    """Layer norm's gradient on its input, row by row."""
    dx = np.multiply(dy, g, out=out)
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


def _gelu(x, out=(None, None), real=None):
    """GELU with the exact normal CDF; returns (activation, cdf).

    Given ``real``, a boolean mask over the leading axes of ``x``, the CDF
    (into ``out``'s, which must then be given) is computed only where it is
    true and is 0 elsewhere. ``scipy.special`` is imported here, at the first
    GELU, so a command that runs no forward pass does not pay for it.
    """
    from scipy.special import ndtr

    act, cdf = out
    if real is None:
        cdf = ndtr(x, out=cdf)
    else:
        cdf.fill(0.0)
        cdf[real] = ndtr(x[real])
    return np.multiply(x, cdf, out=act), cdf


def _gelu_backward(dy, x, cdf, out=None):
    """dy * d/dx[x * cdf(x)] = dy * (cdf + x * pdf), with cdf from the forward."""
    g = np.multiply(-0.5, x, out=out)
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


def _affine(x, w, b, out=None):
    """x @ w + b, adding the bias into the product's buffer."""
    y = np.matmul(x, w, out=out)
    y += b
    return y


def _linear_dx(dy, w, out=None):
    """dx = dy @ w.T for y = x @ w + b, over the rows flattened to 2-D; ``out``
    must be C-contiguous."""
    din, dout = w.shape
    if out is None:
        out = np.empty(dy.shape[:-1] + (din,))
    np.matmul(dy.reshape(-1, dout), w.T, out=out.reshape(-1, din))
    return out


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
    results in call order. After a call raises no call starts, and once the
    running ones end the first exception, the calling thread's before the
    pool's, propagates unchanged. A call must never call ``_run_all``: the
    pool's threads could all wait on one another."""
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


def _row_shards(rows: int, min_rows: int = 1) -> list[slice]:
    """``rows`` cut into one contiguous slice per thread of a run, or fewer
    so that each has at least ``min_rows`` rows."""
    n = max(1, min(_run_threads(), rows // min_rows))
    cuts = [rows * i // n for i in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


# ---------------------------------------------------------------------------
# backbone forward / backward


def _stage_arrays(config: ModelConfig, b: int, s: int) -> Iterator[dict[str, np.ndarray]]:
    """Empty arrays for the embedding's, then each layer's, activations over
    ``b`` rows of ``s`` positions, made as they are asked for."""
    d, f = config.d_model, config.d_ff
    yield {"h": np.empty((b, s, d)), "xhat": np.empty((b, s, d)), "inv": np.empty((b, s, 1))}
    widths = {"q": d, "k": d, "v": d, "ctx": d, "n1": d, "xhat1": d, "inv1": 1,
              "hmid": f, "cdf": f, "act": f, "h": d, "xhat2": d, "inv2": 1}
    for _ in range(config.n_layers):
        arrays = {name: np.empty((b, s, width)) for name, width in widths.items()}
        arrays["probs"] = np.empty((b, config.n_heads, s, s))
        yield arrays


def _forward_rows(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    stages: Iterator[dict[str, np.ndarray]],
) -> np.ndarray:
    """The encoder over the rows ``ids``: the embedding, then each layer,
    writes its activations into the next dict of ``stages``. Returns h."""
    s = ids.shape[1]
    o = next(stages)
    e = params["tok_emb"][ids]
    e += params["pos_emb"][:s]
    h, _ = _layernorm(e, params["emb_ln_g"], params["emb_ln_b"], (o["h"], o["xhat"], o["inv"]))

    # Unpadded, the key bias would be +0.0 everywhere: it changes only a -0.0
    # score, and exp maps both to 1.
    real = mask > 0
    if real.all():
        real = key_bias = None
    else:
        key_bias = (mask[:, None, None, :] - 1.0) * _NEG_BIG
    scale = 1.0 / math.sqrt(config.d_model // config.n_heads)
    for i, o in zip(range(config.n_layers), stages):
        pre = f"l{i}."
        x = h
        q = _affine(x, params[pre + "attn_wq"], params[pre + "attn_bq"], o["q"])
        k = _affine(x, params[pre + "attn_wk"], params[pre + "attn_bk"], o["k"])
        v = _affine(x, params[pre + "attn_wv"], params[pre + "attn_bv"], o["v"])
        qh, kh, vh = (_split_heads(a, config.n_heads) for a in (q, k, v))
        scores = np.matmul(qh, kh.transpose(0, 1, 3, 2), out=o["probs"])
        scores *= scale
        if key_bias is not None:
            scores += key_bias
        probs = _softmax_last(scores, out=scores)
        _split_heads(o["ctx"], config.n_heads)[...] = probs @ vh
        attn = _affine(o["ctx"], params[pre + "attn_wo"], params[pre + "attn_bo"])
        attn += x  # residual
        n1, _ = _layernorm(attn, params[pre + "attn_ln_g"], params[pre + "attn_ln_b"],
                           (o["n1"], o["xhat1"], o["inv1"]))
        hmid = _affine(n1, params[pre + "ffn_w1"], params[pre + "ffn_b1"], o["hmid"])
        act, _ = _gelu(hmid, (o["act"], o["cdf"]), real)
        f = _affine(act, params[pre + "ffn_w2"], params[pre + "ffn_b2"])
        f += n1  # residual
        h, _ = _layernorm(f, params[pre + "ffn_ln_g"], params[pre + "ffn_ln_b"],
                          (o["h"], o["xhat2"], o["inv2"]))
    return h


def forward_hidden(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    *,
    keep_cache: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Run the encoder: hidden states [B, S, d] and, if kept, a backward cache.

    With the cache, row shards run on the pool into whole-batch arrays.
    Without it, the calling thread runs every row, and a layer's arrays are
    dropped as the next layer replaces them.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    b, s = ids.shape
    if s > config.max_positions:
        raise ConfigurationError(
            f"sequence length {s} exceeds max_positions {config.max_positions}"
        )
    if not keep_cache:
        return _forward_rows(params, config, ids, mask, _stage_arrays(config, b, s)), None
    stages = list(_stage_arrays(config, b, s))
    _run_all([
        partial(_forward_rows, params, config, ids[rows], mask[rows],
                iter([{name: a[rows] for name, a in o.items()} for o in stages]))
        for rows in _row_shards(b)
    ])
    cache = {"ids": ids, "config": config, "emb": stages[0], "layers": stages[1:]}
    return stages[-1]["h"], cache


# OpenBLAS (0.3.31, x86-64) runs a double product of at most this many output
# elements on its small-matrix kernel, which rounds a row differently from the
# kernel of a larger product. Measured for output widths 8 to 256 and inner
# widths 32 to 256 (at 8 and 16 only 1-row products differ): row slices of
# dy @ w.T equal the whole product's rows from 19 rows at width 64 and from 5
# at width 256.
_SMALL_PRODUCT_ELEMENTS = 1200

# what only a layer's activation-gradient chain reads of its activations
_CHAIN_ONLY = ("q", "k", "v", "probs", "hmid", "cdf", "inv1", "inv2")


def _attention_backward(config, o, dctx, out):
    """Attention's gradients on q, k and v, written to the three arrays of
    ``out``, from that on its merged context ``dctx`` and the layer's
    activations ``o``."""
    n_heads = config.n_heads
    scale = 1.0 / math.sqrt(config.d_model // n_heads)
    dctx_h = _split_heads(dctx, n_heads)
    qh, kh, vh = (_split_heads(o[name], n_heads) for name in ("q", "k", "v"))
    dqh, dkh, dvh = (_split_heads(a, n_heads) for a in out)
    probs = o["probs"]
    dprobs = dctx_h @ vh.transpose(0, 1, 3, 2)
    dvh[...] = probs.transpose(0, 1, 3, 2) @ dctx_h
    dscores = _softmax_backward(dprobs, probs)
    np.multiply(dscores @ kh, scale, out=dqh)
    np.multiply(dscores.transpose(0, 1, 3, 2) @ qh, scale, out=dkh)


def _chain_rows(params, config, pre, o, dh, g) -> None:
    """Backpropagate ``dh`` through one layer, row by row: writes the
    gradients on its activations ``o`` into the arrays of ``g``, and that on
    its input into ``g["dx"]``. Every array covers the same rows."""

    def w(name):
        return params[pre + name]

    dr2 = _layernorm_dx(dh, o["xhat2"], o["inv2"], w("ffn_ln_g"), g["dr2"])
    dhmid = _gelu_backward(_linear_dx(dr2, w("ffn_w2")), o["hmid"], o["cdf"], g["dhmid"])
    dn1 = _linear_dx(dhmid, w("ffn_w1"), g["dn1"])
    dn1 += dr2  # residual around the feed-forward block
    dr1 = _layernorm_dx(dn1, o["xhat1"], o["inv1"], w("attn_ln_g"), g["dr1"])
    _attention_backward(config, o, _linear_dx(dr1, w("attn_wo")), (g["dq"], g["dk"], g["dv"]))
    dx = _linear_dx(g["dq"], w("attn_wq"), g["dx"])
    dx += dr1  # residual around attention
    dx += _linear_dx(g["dk"], w("attn_wk"))
    dx += _linear_dx(g["dv"], w("attn_wv"))


def _layer_sums(grads, pre, o, x, dh, g) -> list[Callable[[], None]]:
    """The calls that add one layer's weight and layer-norm gradients, each a
    sum over every row, to ``grads``, once ``_chain_rows`` has written ``g``."""
    linear = (("ffn_w2", o["act"], g["dr2"]), ("ffn_w1", o["n1"], g["dhmid"]),
              ("attn_wo", o["ctx"], g["dr1"]), ("attn_wq", x, g["dq"]),
              ("attn_wk", x, g["dk"]), ("attn_wv", x, g["dv"]))
    return [
        *(partial(_add_linear_grads, grads, pre + w, pre + w.replace("_w", "_b"), a, dy)
          for w, a, dy in linear),
        partial(_add_layernorm_grads, grads, pre + "ffn_ln", dh, o["xhat2"]),
        partial(_add_layernorm_grads, grads, pre + "attn_ln", g["dn1"], o["xhat1"]),
    ]


def _embedding_backward(grads, ids, emb, gain, dh) -> None:
    """Backpropagate ``dh`` through the embedding's layer norm ``emb`` with
    gain ``gain`` into ``grads``, every row at once."""
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
    """Backpropagate a gradient on hidden states into ``grads`` (accumulating).

    Each layer's activation-gradient chain runs as row shards, in one run of
    ``_run_all`` with the sums over rows of the layer above it. As a layer's
    chain ends, the activations only it reads leave ``cache``, which is
    then spent.
    """
    config: ModelConfig = cache["config"]
    stages = [cache["emb"], *cache["layers"]]
    b, s, d = dh.shape
    # every product of a shard's chain (output widths d_model and d_ff) must
    # have more than _SMALL_PRODUCT_ELEMENTS outputs
    positions = _SMALL_PRODUCT_ELEMENTS // min(d, config.d_ff) + 1
    shards = _row_shards(b, -(-positions // s))
    widths = {"dr2": d, "dhmid": config.d_ff, "dn1": d, "dr1": d,
              "dq": d, "dk": d, "dv": d, "dx": d}
    sums: list[Callable[[], None]] = []
    for i in reversed(range(config.n_layers)):
        pre, o = f"l{i}.", stages[i + 1]
        g = {name: np.empty((b, s, width)) for name, width in widths.items()}
        _run_all([
            *(partial(_chain_rows, params, config, pre, {k: a[rows] for k, a in o.items()},
                      dh[rows], {k: a[rows] for k, a in g.items()}) for rows in shards),
            *sums,
        ])
        for name in _CHAIN_ONLY:
            del o[name]
        sums = _layer_sums(grads, pre, o, stages[i]["h"], dh, g)
        dh = g["dx"]
    _run_all([*sums, partial(_embedding_backward, grads, cache["ids"], stages[0],
                             params["emb_ln_g"], dh)])


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
