"""Shared test oracles: finite differences and brute-force references."""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from moefix import autodiff as ad
from moefix import model, moe, training


def finite_difference_grad(loss_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``loss_fn()`` w.r.t. the array ``x``.

    ``loss_fn`` must recompute the loss from scratch, reading ``x`` in place.
    """
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fplus = loss_fn()
        flat[i] = orig - h
        fminus = loss_fn()
        flat[i] = orig
        gflat[i] = (fplus - fminus) / (2.0 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradcheck(build, params: list[ad.Tensor], tol: float = 1e-4, h: float = 1e-5) -> None:
    """Assert analytic gradients of ``build()`` match central differences.

    ``build`` runs the forward pass and returns a scalar Tensor; every Tensor
    in ``params`` must be float64 with requires_grad set.
    """
    ad.zero_grads(params)
    with ad.Graph():
        loss = build()
        ad.backward(loss)
    for p in params:
        assert p.data.dtype == np.float64, "gradcheck needs float64 parameters"
        numeric = finite_difference_grad(lambda: float(build().data), p.data, h=h)
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        err = max_rel_err(analytic, numeric)
        assert err <= tol, f"gradient mismatch: rel err {err:.3e} > {tol}"


def add(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Elementwise sum node of two tensors of one shape, for the test losses
    and the references."""
    if a.data.shape != b.data.shape:
        raise ad.ShapeError(f"add shapes differ: {a.data.shape} + {b.data.shape}")
    return ad._node(a.data + b.data, (a, b), lambda g: (g, g))


def matmul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """``a @ b`` node for matrices [n, k] and [k, m]."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ad.ShapeError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    return ad._node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def matmul_nt(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """``a @ b.T`` node for matrices [n, k] and [m, k]."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ad.ShapeError(f"matmul_nt shapes incompatible: {a.data.shape} x {b.data.shape}.T")
    return ad._node(a.data @ b.data.T, (a, b), lambda g: (g @ b.data, (a.data.T @ g).T))


def rms_norm(x: ad.Tensor, weight: ad.Tensor, eps: float) -> ad.Tensor:
    """Root-mean-square normalization node over the last axis, built on the
    ``rms_norm_forward`` and ``rms_norm_backward`` pair that the model's nodes
    share; the reference for their norms."""
    d = x.data.shape[-1]
    if weight.data.shape != (d,):
        raise ad.ShapeError(f"rms_norm weight shape {weight.data.shape} != ({d},)")
    if eps <= 0:
        raise ValueError(f"rms_norm eps must be positive, got {eps}")
    out, r = ad.rms_norm_forward(x.data, weight.data, eps)
    return ad._node(out, (x, weight), lambda g: ad.rms_norm_backward(g, x.data, weight.data, r))


def mul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Elementwise product node of two tensors of one shape, for the test
    losses."""
    return ad._node(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def sum_(x: ad.Tensor, axis=None, keepdims: bool = False) -> ad.Tensor:
    """Sum node, for the test losses."""
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape),)

    return ad._node(out, (x,), bwd)


def swiglu_reference(x: np.ndarray, expert) -> np.ndarray:
    """One SwiGLU expert in plain numpy, in the op order the MoE dispatch
    uses, so the two agree bitwise: down(silu(x @ gate_proj) * (x @ up))."""
    h = x @ expert.gate_proj.data
    sig = 1.0 / (1.0 + np.exp(-h))
    return (h * sig * (x @ expert.up.data)) @ expert.down.data


def moe_block_reference(x: np.ndarray, norm, eps: float, mixture) -> np.ndarray:
    """The oracle for the MoE node, which takes raw residual rows:
    ``x + mixture(rms_norm(x, norm))``, with ``mixture`` a function of the
    normed rows."""
    return x + mixture(ad.rms_norm_forward(x, norm.data, eps)[0])


def moe_backward_reference(x, norm, eps, layer, idx, g):
    """The MoE node's backward pass over whole expert blocks, the oracle for
    its tiled SwiGLU chain: arrays ``x`` [n, d] and ``g`` [n, d] (the input
    rows and the output gradient), the norm weight, the layer and the
    selected experts ``idx`` [n, K]. Returns what the node's backward
    returns: the gradients of x, the norm and the gate, then up, gate_proj
    and down per expert (None for an expert with no rows)."""
    n, k = idx.shape
    d = x.shape[1]
    experts = layer.experts
    h, r = ad.rms_norm_forward(x, norm.data, eps)
    picked = (np.arange(n)[:, None], idx)
    z = (h @ layer.gate.data)[picked]
    w = np.exp(z - z.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    order = np.argsort(idx.ravel(), kind="stable")
    bounds = np.searchsorted(idx.ravel()[order], np.arange(len(experts) + 1))
    hs = h[order // k]
    g_ys = (g[:, None, :] * w[:, :, None]).reshape(n * k, d)[order]
    g_hs = np.empty_like(hs)
    a = np.empty(n * k, dtype=hs.dtype)
    g_params = []
    for e, expert in enumerate(experts):
        lo, hi = bounds[e], bounds[e + 1]
        if lo == hi:
            g_params += [None, None, None]
            continue
        h_gate = hs[lo:hi] @ expert.gate_proj.data
        h_up = hs[lo:hi] @ expert.up.data
        sig = 1.0 / (1.0 + np.exp(-h_gate))
        act = h_gate * sig
        gated = act * h_up
        g_gated = g_ys[lo:hi] @ expert.down.data.T
        a[lo:hi] = np.einsum("ij,ij->i", g_gated, gated)
        g_h_up = g_gated * act
        g_h_gate = (g_gated * h_up) * (sig * (1.0 + h_gate * (1.0 - sig)))
        g_hs[lo:hi] = g_h_up @ expert.up.data.T + g_h_gate @ expert.gate_proj.data.T
        g_params += [hs[lo:hi].T @ g_h_up, hs[lo:hi].T @ g_h_gate, gated.T @ g_ys[lo:hi]]
    a_slots = np.empty_like(a)
    a_slots[order] = a
    a = a_slots.reshape(n, k)
    g_logits = np.zeros((n, len(experts)), dtype=hs.dtype)
    g_logits[picked] = a - w * a.sum(axis=1, keepdims=True)
    g_slots = np.empty_like(g_hs)
    g_slots[order] = g_hs
    g_h = g_slots.reshape(n, k, d).sum(axis=1) + g_logits @ layer.gate.data.T
    gx, g_norm = ad.rms_norm_backward(g_h, x, norm.data, r)
    return (g + gx, g_norm, h.T @ g_logits, *g_params)


def attend_reference(q, k, v, plan, lse=None):
    """The attention block loop over the whole batch at once, the oracle
    for ``model._attend``: each block of ``plan`` scores all of its live
    sequences in one product against the whole batch's transposed keys.
    Fills ``lse``, if given, and returns the head outputs."""
    k_t = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    merged = np.empty_like(q)
    for lo, hi, live, mask, n_keys in plan:
        s = model._block_scores(q[:live, :, lo:hi], k_t[:live], mask, n_keys)
        peak = s.max(axis=-1, keepdims=True)
        s -= peak
        np.exp(s, out=s)
        total = s.sum(axis=-1, keepdims=True)
        o = merged[:live, :, lo:hi]
        np.matmul(s, v[:live, :, :n_keys], out=o)
        o /= total
        if lse is not None:
            lse[:live, :, lo:hi] = (peak + np.log(total))[..., 0]
    return merged


def attend_backward_reference(q, k, v, lse, plan, d_out, delta):
    """The whole-batch backward loop, the oracle for
    ``model._attend_backward``: returns (dq, dk, dv), dq zero at the slots
    no block runs."""
    k_t = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    v_t = np.ascontiguousarray(np.swapaxes(v, -1, -2))
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for lo, hi, live, mask, n_keys in plan:
        p = model._block_scores(q[:live, :, lo:hi], k_t[:live], mask, n_keys)
        p -= lse[:live, :, lo:hi, None]
        np.exp(p, out=p)
        d_o = d_out[:live, :, lo:hi]
        dv[:live, :, :n_keys] += np.swapaxes(p, -1, -2) @ d_o
        ds = d_o @ v_t[:live, :, :, :n_keys]
        ds -= delta[:live, :, lo:hi, None]
        ds *= p
        dq[:live, :, lo:hi] = ds @ k[:live, :, :n_keys]
        dk[:live, :, :n_keys] += np.swapaxes(ds, -1, -2) @ q[:live, :, lo:hi]
    return dq, dk, dv


def adamw_reference(named, state, lr: float, config) -> None:
    """``training.adamw_step`` as a textbook formula with a fresh temporary
    per operation, the oracle its in-place version must equal bitwise."""
    state.t += 1
    bc1 = 1.0 - config.adam_beta1 ** state.t
    bc2 = 1.0 - config.adam_beta2 ** state.t
    for name, p in named:
        m, v = state.m[name], state.v[name]
        g = p.grad
        if g is None:
            m *= config.adam_beta1
            v *= config.adam_beta2
        else:
            m *= config.adam_beta1
            m += (1.0 - config.adam_beta1) * g
            v *= config.adam_beta2
            v += (1.0 - config.adam_beta2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + config.adam_eps)
        p.data -= lr * (update + config.weight_decay * p.data)


def masked_softmax_reference(logits: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Softmax over the kept logits of each row and exactly zero elsewhere,
    the oracle for the MoE gate weights: dropped logits count as -inf, and
    the sum runs over all columns in column order."""
    z = np.where(keep, logits, -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention_reference(x: np.ndarray, layer, config) -> np.ndarray:
    """Causal multi-head attention over a whole sequence in dense numpy, the
    oracle for ``model.causal_attention``: rotary q/k at positions 0..T-1, all
    [T, T] scores, masked above the diagonal and softmaxed row by row."""
    b, t, d = x.shape
    h, hd = config.n_heads, config.head_dim
    half = hd // 2
    angles = np.arange(t)[:, None] * config.rope_base ** (-np.arange(half) / half)
    cos, sin = np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]

    def heads(w, rotate):
        y = (x @ w.data).reshape(b, t, h, hd)
        if rotate:
            y1, y2 = y[..., :half], y[..., half:]
            y = np.concatenate([y1 * cos - y2 * sin, y2 * cos + y1 * sin], axis=-1)
        return y.transpose(0, 2, 1, 3)  # [B, H, T, hd]

    q, k, v = heads(layer.wq, True), heads(layer.wk, True), heads(layer.wv, False)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd)
    scores[..., np.triu(np.ones((t, t), dtype=bool), 1)] = -np.inf
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return (p @ v).transpose(0, 2, 1, 3).reshape(b, t, d) @ layer.wo.data


def attention_block_reference(x: np.ndarray, layer, config) -> np.ndarray:
    """The oracle for ``model.causal_attention``, which takes raw residual
    rows: ``x + attention_reference(rms_norm(x))``."""
    normed = ad.rms_norm_forward(x, layer.attn_norm.data, config.rms_eps)[0]
    return x + attention_reference(normed, layer, config)


def nll_reference(params, config, batch_arrays, task_routing: bool = True) -> ad.Tensor:
    """Per-sample oracle for ``training.nll_loss``: each sample runs alone
    through the whole forward pass, every position to the LM head, and the
    loss is the mean NLL of its loss rows weighted by its share of the loss
    tokens."""
    ids, targets, mask, task_experts, lengths = batch_arrays
    total = None
    for i, end in enumerate(np.cumsum(lengths)):
        seq = slice(end - lengths[i], end)
        forced = int(task_experts[i]) if task_routing else None
        logits, _ = model.forward(params, config, ids[seq], forced=forced, top_k=2)
        rows = np.flatnonzero(mask[seq])
        nll = ad.cross_entropy(ad.take(logits, rows), targets[seq][rows])
        share = ad.Tensor(np.asarray(mask[seq].sum() / mask.sum(), dtype=logits.dtype))
        total = mul(nll, share) if total is None else add(total, mul(nll, share))
    return total


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product, the independent oracle for matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def edit_distance_bruteforce(a, b) -> int:
    """Memoized recursive Levenshtein distance over arbitrary sequences."""
    from functools import lru_cache

    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j + 1), go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def greedy_reference(params, config, prompt, max_new_tokens, eos_id, top_k=None) -> np.ndarray:
    """Greedy decoding one cached token per step, the oracle for
    ``model.generate``: after the prompt, each step appends the argmax id and
    runs it alone through the cache, until EOS, ``max_new_tokens`` ids, or a
    full cache (``max_seq_len`` positions)."""
    cache = model.KVCache(params, config)
    logits, _ = model.forward_incremental(params, config, np.asarray(prompt), cache, top_k)
    out: list[int] = []
    while len(out) < max_new_tokens:
        out.append(int(np.argmax(logits[-1])))
        if out[-1] == eos_id or cache.length >= config.max_seq_len:
            break
        logits, _ = model.forward_incremental(params, config, np.array(out[-1:]), cache, top_k)
    return np.array(out, dtype=np.int64)


def lookup_reference(context, limit: int) -> list[int]:
    """Brute force, the oracle for ``model._lookup``: the ids, up to
    ``limit``, after the latest earlier occurrence of the longest suffix of
    ``context`` that has one, of at most ``model._NGRAM`` ids; an earlier
    occurrence ends before the last id."""
    c = [int(i) for i in context]
    n = len(c)
    for g in range(min(model._NGRAM, n - 1), 0, -1):
        for end in range(n - 2, g - 2, -1):
            if c[end - g + 1:end + 1] == c[n - g:]:
                return c[end + 1:end + 1 + limit]
    return []


def rewrite_header(src, dst, edit):
    """Copy the checkpoint file ``src`` to ``dst`` with its JSON header
    passed through ``edit``; returns ``dst``."""
    raw = Path(src).read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + header_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    Path(dst).write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + header_len:])
    return dst


def route_stats_reference(ckpt, samples):
    """Per-sample oracle for ``training.route_stats_over``: each sample that
    fits runs alone through the forward pass, and its decisions are counted
    one by one."""
    encoded, _ = training.encode_samples(samples, ckpt.tokenizer, ckpt.expert_map,
                                         ckpt.config.max_seq_len)
    routed = []
    for sample in encoded:
        _, decisions = model.forward(ckpt.params, ckpt.config, sample.ids)
        task = ckpt.registry.get(sample.task_name).id
        routed += [(np.full(len(sample.ids), task), d) for d in decisions]
    return moe.count_routes(routed, ckpt.registry.names, ckpt.config.n_experts)
