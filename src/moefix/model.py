"""Decoder-only transformer whose feed-forward blocks are MoE layers.

Pre-norm RMS blocks, rotary position encoding, SwiGLU experts, output
projection tied to the token embedding. During training the MoE layers run the
task-forced route; during inference they run plain top-K and never see the
task-to-expert mapping (the mapping is resolved by the caller, so this module
cannot read it by construction).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .moe import (
    ExpertParams,
    MoeLayerParams,
    RoutingDecision,
    load_balance_aux,
    moe_forward_infer,
    moe_forward_task,
)

INIT_STD = 0.02


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_layers: int = 4
    n_heads: int = 4
    d_ff: int = 256
    n_experts: int = 4
    top_k: int = 2
    max_seq_len: int = 384
    rope_base: float = 10000.0
    rms_eps: float = 1e-5

    def __post_init__(self) -> None:
        sizes = (self.vocab_size, self.d_model, self.n_layers, self.n_heads,
                 self.d_ff, self.n_experts, self.max_seq_len)
        if any(s < 1 for s in sizes):
            raise ValueError("all model sizes must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_model // self.n_heads % 2 != 0:
            raise ValueError("head dimension must be even for rotary encoding")
        if not 1 <= self.top_k <= self.n_experts:
            raise ValueError(f"top_k {self.top_k} out of range for {self.n_experts} experts")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class LayerParams:
    attn_norm: Tensor
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ffn_norm: Tensor
    moe: MoeLayerParams


@dataclass
class TransformerParams:
    embedding: Tensor  # [vocab, d_model]; also the (tied) output projection
    layers: list[LayerParams]
    final_norm: Tensor


def named_tensors(params: TransformerParams):
    yield "embedding", params.embedding
    for i, layer in enumerate(params.layers):
        for attr in ("attn_norm", "wq", "wk", "wv", "wo", "ffn_norm"):
            yield f"layers.{i}.{attr}", getattr(layer, attr)
        yield f"layers.{i}.moe.gate", layer.moe.gate
        for e, expert in enumerate(layer.moe.experts):
            yield f"layers.{i}.moe.experts.{e}.up", expert.up
            yield f"layers.{i}.moe.experts.{e}.gate_proj", expert.gate_proj
            yield f"layers.{i}.moe.experts.{e}.down", expert.down
    yield "final_norm", params.final_norm


def parameters(params: TransformerParams) -> list[Tensor]:
    return [t for _, t in named_tensors(params)]


def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 3 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 3 * std
    return out.astype(dtype)


def init_params(config: ModelConfig, seed: int, dtype: str = "f32") -> TransformerParams:
    """Fresh parameters: weights ~ N(0, 0.02^2) truncated at 3 sigma, unit norms."""
    np_dtype = ad.DTYPES[dtype]
    rng = np.random.default_rng(seed)
    d, dff, ne = config.d_model, config.d_ff, config.n_experts

    def weight(*shape):
        return Tensor(_trunc_normal(rng, shape, INIT_STD, np_dtype), requires_grad=True)

    def ones(n):
        return Tensor(np.ones(n, dtype=np_dtype), requires_grad=True)

    layers = []
    for _ in range(config.n_layers):
        experts = [ExpertParams(up=weight(d, dff), gate_proj=weight(d, dff), down=weight(dff, d))
                   for _ in range(ne)]
        layers.append(LayerParams(
            attn_norm=ones(d), wq=weight(d, d), wk=weight(d, d), wv=weight(d, d),
            wo=weight(d, d), ffn_norm=ones(d),
            moe=MoeLayerParams(gate=weight(d, ne), experts=experts),
        ))
    return TransformerParams(
        embedding=weight(config.vocab_size, d),
        layers=layers,
        final_norm=ones(d),
    )


def rope_tables(config: ModelConfig, positions: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin shaped [T, 1, head_dim/2]; the middle axis broadcasts over heads."""
    half = config.head_dim // 2
    inv_freq = config.rope_base ** (-np.arange(half, dtype=np.float64) / half)
    angles = positions[:, None].astype(np.float64) * inv_freq[None, :]
    return (np.cos(angles)[:, None, :].astype(dtype),
            np.sin(angles)[:, None, :].astype(dtype))


# Query rows per attention block. It bounds the scores held at once to
# [B, H, 64, keys], and it lets each block skip the keys past its last row.
_BLOCK = 64


def _rotate(y: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary encoding of [..., hd] features: each (first-half, second-half)
    pair turns by the angle of ``cos``/``sin``. Passing ``-sin`` turns it back."""
    h = y.shape[-1] // 2
    y1, y2 = y[..., :h], y[..., h:]
    return np.concatenate([y1 * cos - y2 * sin, y2 * cos + y1 * sin], axis=-1)


def _block_scores(q: np.ndarray, k: np.ndarray, pos: np.ndarray, scale) -> np.ndarray:
    """Scaled scores [B, H, rows, pos[-1] + 1] of the query rows at positions
    ``pos`` against the keys up to the last of them; future keys get -inf."""
    n_keys = pos[-1] + 1
    s = (q @ np.swapaxes(k[:, :, :n_keys], -1, -2)) * scale
    if len(pos) > 1:
        np.copyto(s, -np.inf, where=np.arange(n_keys) > pos[:, None])
    return s


def causal_attention(
    x: Tensor,
    layer: LayerParams,
    config: ModelConfig,
    positions: np.ndarray,
    cache: "KVCache | None" = None,
    layer_index: int = 0,
) -> Tensor:
    """Multi-head attention with rotary Q/K and a strict causal mask, from the
    normed ``x`` [B, T, d] through the output projection, as one graph node.

    Query rows run in blocks of ``_BLOCK``, and each block scores only the
    keys up to its last position. In a graph, the node saves q, k, v, the head
    outputs and each row's logsumexp, never the probabilities: the backward
    pass recomputes them block by block as exp(scores - logsumexp).

    Without a cache, ``x`` is the whole sequence. With one, ``x`` holds the
    tokens at ``positions`` right after the cached prefix: their keys and
    values are written into layer ``layer_index``'s buffers, and they attend
    over the prefix plus themselves. The cache path is inference-only.
    """
    b, t, d = x.data.shape
    end = t if cache is None else cache.length + t
    if end > config.max_seq_len:
        raise ValueError(f"sequence length {end} exceeds max_seq_len {config.max_seq_len}")
    h, hd = config.n_heads, config.head_dim
    dtype = x.data.dtype
    parents = (x, layer.wq, layer.wk, layer.wv, layer.wo)
    save = ad.recording(parents)
    if save and cache is not None:
        raise ValueError("the KV cache path is inference-only; run it outside a graph")
    cos, sin = rope_tables(config, positions, dtype)
    scale = np.asarray(1.0 / np.sqrt(hd), dtype=dtype)

    def heads(w):
        return (x.data @ w.data).reshape(b, t, h, hd)

    q = np.swapaxes(_rotate(heads(layer.wq), cos, sin), 1, 2)  # [B, H, T, hd]
    k = np.swapaxes(_rotate(heads(layer.wk), cos, sin), 1, 2)
    v = np.swapaxes(heads(layer.wv), 1, 2)
    if cache is not None:
        k, v = cache.write(layer_index, k, v, config)
    merged = np.empty((b, t, h, hd), dtype=dtype)  # head outputs, [B, T, H, hd]
    lse = np.empty((b, h, t), dtype=dtype) if save else None
    for lo in range(0, t, _BLOCK):
        hi = min(lo + _BLOCK, t)
        s = _block_scores(q[:, :, lo:hi], k, positions[lo:hi], scale)
        peak = s.max(axis=-1, keepdims=True)
        e = np.exp(s - peak)
        total = e.sum(axis=-1, keepdims=True)
        merged[:, lo:hi] = np.swapaxes((e / total) @ v[:, :, :s.shape[-1]], 1, 2)
        if save:
            lse[:, :, lo:hi] = (peak + np.log(total))[..., 0]
    merged = merged.reshape(b * t, d)
    out = (merged @ layer.wo.data).reshape(b, t, d)
    if not save:
        return Tensor(out)

    def bwd(g):
        g = g.reshape(b * t, d)
        g_wo = merged.T @ g
        d_out = np.swapaxes((g @ layer.wo.data.T).reshape(b, t, h, hd), 1, 2)
        # delta_i = sum_j p_ij dp_ij = dO_i . O_i, so no probability row is kept
        delta = (d_out * np.swapaxes(merged.reshape(b, t, h, hd), 1, 2)).sum(axis=-1)
        dq = np.empty_like(q)
        dk = np.zeros_like(k)
        dv = np.zeros_like(v)
        for lo in range(0, t, _BLOCK):
            hi = min(lo + _BLOCK, t)
            s = _block_scores(q[:, :, lo:hi], k, positions[lo:hi], scale)
            n_keys = s.shape[-1]
            p = np.exp(s - lse[:, :, lo:hi, None])
            dv[:, :, :n_keys] += np.swapaxes(p, -1, -2) @ d_out[:, :, lo:hi]
            ds = p * (d_out[:, :, lo:hi] @ np.swapaxes(v[:, :, :n_keys], -1, -2)
                      - delta[:, :, lo:hi, None])
            ds *= scale
            dq[:, :, lo:hi] = ds @ k[:, :, :n_keys]
            dk[:, :, :n_keys] += np.swapaxes(ds, -1, -2) @ q[:, :, lo:hi]
        dq = _rotate(np.swapaxes(dq, 1, 2), cos, -sin).reshape(b * t, d)
        dk = _rotate(np.swapaxes(dk, 1, 2), cos, -sin).reshape(b * t, d)
        dv = np.swapaxes(dv, 1, 2).reshape(b * t, d)
        x2 = x.data.reshape(b * t, d)
        g_x = dq @ layer.wq.data.T + dk @ layer.wk.data.T + dv @ layer.wv.data.T
        return g_x.reshape(b, t, d), x2.T @ dq, x2.T @ dk, x2.T @ dv, g_wo

    return ad._node(out, parents, bwd)


class KVCache:
    """Per-layer key/value buffers for incremental greedy decoding.

    ``k[i]`` and ``v[i]`` are [B, H, max_seq_len, head_dim] buffers, allocated
    on layer ``i``'s first write and written in place after that; only the
    first ``length`` positions hold keys and values.
    """

    def __init__(self, n_layers: int) -> None:
        self.k: list[np.ndarray | None] = [None] * n_layers
        self.v: list[np.ndarray | None] = [None] * n_layers
        self.length = 0

    def write(self, i: int, k: np.ndarray, v: np.ndarray,
              config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
        """Store [B, H, t, hd] keys/values after the prefix; return views of
        layer ``i``'s keys and values over the prefix plus the new positions."""
        b, h, t, hd = k.shape
        if self.k[i] is None:
            self.k[i] = np.zeros((b, h, config.max_seq_len, hd), dtype=k.dtype)
            self.v[i] = np.zeros_like(self.k[i])
        end = self.length + t
        self.k[i][:, :, self.length:end] = k
        self.v[i][:, :, self.length:end] = v
        return self.k[i][:, :, :end], self.v[i][:, :, :end]


def forward(
    params: TransformerParams,
    config: ModelConfig,
    tokens: np.ndarray,
    mode: str = "infer",
    task_experts=None,
    top_k: int | None = None,
    aux_out: list | None = None,
    cache: KVCache | None = None,
    lengths: np.ndarray | None = None,
) -> tuple[Tensor, list[RoutingDecision]]:
    """Next-token logits [.., T, vocab] plus one RoutingDecision per layer.

    ``tokens`` is [T] or [B, T] integer ids. In train mode ``task_experts``
    (scalar or one id per sequence) drives the task-forced route; in infer mode
    routing is plain top-K and any task argument is ignored. With a ``cache``
    (infer mode only), ``tokens`` continue the cached prefix, whose keys and
    values they attend to, and the cache grows by T positions.

    ``lengths`` (one per sequence; None: all T) marks the first positions of
    each row as real and the rest as right padding. Pad positions are never
    routed: their MoE output is zero and the decisions hold one row per real
    token, in row-major order. Under causal attention a pad position reaches
    no real one, so the real positions' logits do not depend on it.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "train" and task_experts is None:
        raise ValueError("train mode requires task_experts for the forced route")
    tokens = np.asarray(tokens)
    single = tokens.ndim == 1
    ids = tokens[None, :] if single else tokens
    b, t = ids.shape
    start = 0 if cache is None else cache.length
    positions = np.arange(start, start + t)

    x = ad.take(params.embedding, ids)
    d = config.d_model
    rows = None if lengths is None else np.flatnonzero(
        np.arange(t)[None, :] < np.asarray(lengths).reshape(b, 1))
    decisions: list[RoutingDecision] = []
    for i, layer in enumerate(params.layers):
        x = ad.add(x, causal_attention(ad.rms_norm(x, layer.attn_norm, config.rms_eps),
                                       layer, config, positions, cache, i))
        flat = ad.reshape(ad.rms_norm(x, layer.ffn_norm, config.rms_eps), (b * t, d))
        if mode == "train":
            per_seq = np.broadcast_to(np.asarray(task_experts, dtype=np.int64), (b,))
            y, decision = moe_forward_task(flat, layer.moe, np.repeat(per_seq, t), rows=rows)
        else:
            y, decision = moe_forward_infer(flat, layer.moe, top_k or config.top_k, rows=rows)
        if aux_out is not None:
            routed = flat if rows is None else ad.take(flat, rows)
            aux_out.append(load_balance_aux(routed, layer.moe.gate, decision))
        decisions.append(decision)
        x = ad.add(x, ad.reshape(y, (b, t, d)))

    x = ad.rms_norm(x, params.final_norm, config.rms_eps)
    logits = ad.matmul(x, ad.transpose(params.embedding))
    if single:
        logits = ad.reshape(logits, (t, config.vocab_size))
    if cache is not None:
        cache.length = start + t
    return logits, decisions


def forward_incremental(
    params: TransformerParams,
    config: ModelConfig,
    new_tokens: np.ndarray,
    cache: KVCache,
    top_k: int | None = None,
) -> tuple[np.ndarray, list[RoutingDecision]]:
    """Inference forward over appended tokens only; returns logits [t, vocab]."""
    logits, decisions = forward(params, config, new_tokens, top_k=top_k, cache=cache)
    return logits.data, decisions


def generate(
    params: TransformerParams,
    config: ModelConfig,
    prompt_ids: np.ndarray,
    max_new_tokens: int,
    eos_id: int,
    top_k: int | None = None,
) -> np.ndarray:
    """Greedy decoding after ``prompt_ids``; stops at EOS or the length caps."""
    cache = KVCache(config.n_layers)
    logits, _ = forward_incremental(params, config, np.asarray(prompt_ids), cache, top_k)
    out: list[int] = []
    next_id = int(np.argmax(logits[-1]))
    for _ in range(max_new_tokens):
        out.append(next_id)
        if next_id == eos_id or cache.length >= config.max_seq_len:
            break
        logits, _ = forward_incremental(params, config, np.array([next_id]), cache, top_k)
        next_id = int(np.argmax(logits[-1]))
    return np.array(out, dtype=np.int64)
