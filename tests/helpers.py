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


def nll_reference(params, config, batch_arrays, task_routing: bool = True) -> ad.Tensor:
    """Per-sample unpadded oracle for ``training.nll_loss``: each sample runs
    alone through the whole forward pass, every position to the LM head, and
    the loss is the mean NLL of its loss rows weighted by its share of the
    loss tokens."""
    ids, targets, mask, task_experts, lengths = batch_arrays
    total = None
    for i, n in enumerate(lengths):
        forced = int(task_experts[i]) if task_routing else None
        logits, _ = model.forward(params, config, ids[i, :n], forced=forced, top_k=2)
        rows = np.flatnonzero(mask[i, :n])
        nll = ad.cross_entropy(ad.take(logits, rows), targets[i, rows])
        share = ad.Tensor(np.asarray(mask[i].sum() / mask.sum(), dtype=logits.dtype))
        total = mul(nll, share) if total is None else ad.add(total, mul(nll, share))
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
