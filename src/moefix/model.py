"""Decoder-only transformer whose feed-forward blocks are MoE layers.

Pre-norm RMS blocks, rotary position encoding, SwiGLU experts, output
projection tied to the token embedding. During training the MoE layers run the
task-forced route; during inference they run plain top-K and never see the
task-to-expert mapping (the mapping is resolved by the caller, so this module
cannot read it by construction).
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .moe import (
    ExpertParams,
    MoeLayerParams,
    RoutingDecision,
    moe_forward_infer,
    moe_forward_task,
)

INIT_STD = 0.02


def require_finite(config) -> None:
    """Reject NaN or infinite float fields of ``config``: they pass any range check."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


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
        low = min(2, self.n_experts)  # a softmax over one pick gives the gate no gradient
        if not low <= self.top_k <= self.n_experts:
            raise ValueError(f"top_k must be in [{low}, {self.n_experts}] for "
                             f"{self.n_experts} experts, got {self.top_k}")
        require_finite(self)
        if self.rope_base <= 0 or self.rms_eps <= 0:
            raise ValueError(f"rope_base {self.rope_base} and rms_eps {self.rms_eps} must be positive")

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


def build_params(config: ModelConfig, make) -> TransformerParams:
    """The parameters of ``config``, each the array ``make(name, shape)``
    under its ``named_tensors`` name. ``make`` is called layer by layer, each
    layer's experts first, then the embedding and the final norm: the order
    in which ``init_params`` draws its random weights."""
    d, dff = config.d_model, config.d_ff

    def tensor(name, *shape):
        return Tensor(make(name, shape), requires_grad=True)

    layers = []
    for i in range(config.n_layers):
        p = f"layers.{i}."
        experts = [ExpertParams(up=tensor(f"{p}moe.experts.{e}.up", d, dff),
                                gate_proj=tensor(f"{p}moe.experts.{e}.gate_proj", d, dff),
                                down=tensor(f"{p}moe.experts.{e}.down", dff, d))
                   for e in range(config.n_experts)]
        layers.append(LayerParams(
            attn_norm=tensor(p + "attn_norm", d), wq=tensor(p + "wq", d, d),
            wk=tensor(p + "wk", d, d), wv=tensor(p + "wv", d, d), wo=tensor(p + "wo", d, d),
            ffn_norm=tensor(p + "ffn_norm", d),
            moe=MoeLayerParams(gate=tensor(p + "moe.gate", d, config.n_experts), experts=experts),
        ))
    return TransformerParams(
        embedding=tensor("embedding", config.vocab_size, d),
        layers=layers,
        final_norm=tensor("final_norm", d),
    )


def init_params(config: ModelConfig, seed: int, dtype: str = "f32") -> TransformerParams:
    """Fresh parameters: weights ~ N(0, 0.02^2) truncated at 3 sigma, unit norms."""
    np_dtype = ad.DTYPES[dtype]
    rng = np.random.default_rng(seed)

    def make(name, shape):
        if name.endswith("norm"):
            return np.ones(shape, dtype=np_dtype)
        return _trunc_normal(rng, shape, INIT_STD, np_dtype)

    return build_params(config, make)


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
_FUTURE = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)  # key after query, in one block


@dataclass
class RowLayout:
    """Where the n flat rows of B sequences sit in the [B, H, T, hd] heads of
    attention, and each row's rotary turn; built once per forward pass (by
    ``row_layout``, or ``KVCache.layout`` for a cached step) and shared by
    every layer.

    The sequences are sorted longest first, so the sequences still longer
    than a query block's start are a prefix of the heads.
    """

    shape: tuple[int, int]  # (B, T): sequences, and rows of the longest
    seq: np.ndarray     # [n] slot of each row's sequence in the heads
    pos: np.ndarray     # [n] position of each row in its sequence
    longer: np.ndarray  # [blocks] sequences longer than each block's start
    turn: np.ndarray    # [n, 2, 1, hd/2] each row's ``_turns``
    start: int          # position of each sequence's first row


def _turns(config: ModelConfig, positions: np.ndarray, dtype) -> np.ndarray:
    """e^(i angle) of the rotary angles at ``positions``, [T, 2, 1, hd/2]:
    for q times the score scale, then for k."""
    cos, sin = rope_tables(config, positions, dtype)
    turn = (cos + 1j * sin).astype(np.result_type(dtype, np.complex64))
    scale = np.asarray(1.0 / np.sqrt(config.head_dim), dtype=dtype)
    return np.stack([turn * scale, turn], axis=1)


def row_layout(config: ModelConfig, lengths, dtype) -> RowLayout:
    """The layout of sequences of ``lengths`` rows, for activations of
    ``dtype``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    b, n, t = len(lengths), int(lengths.sum()), int(lengths.max())
    order = np.argsort(-lengths, kind="stable")
    slot = np.empty(b, dtype=np.int64)
    slot[order] = np.arange(b)
    pos = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    longer = np.searchsorted(-lengths[order], -np.arange(0, t, _BLOCK))
    return RowLayout((b, t), np.repeat(slot, lengths), pos, longer,
                     _turns(config, np.arange(t), dtype)[pos], 0)


def _pair_order(config: ModelConfig) -> np.ndarray:
    """Column order of a q or k projection that interleaves each head's
    (first-half, second-half) feature pairs: each pair is then one complex
    number, and the rotary turn one complex product. The scores, sums over
    the features, do not depend on their order."""
    half = config.head_dim // 2
    in_head = np.arange(2 * half).reshape(2, half).T.ravel()
    return (np.arange(config.n_heads)[:, None] * 2 * half + in_head).ravel()


def _fused_projection(layer: LayerParams, config: ModelConfig) -> np.ndarray:
    """[wq | wk | wv] as one [d, 3d] matrix, q and k in ``_pair_order``."""
    cols = _pair_order(config)
    return np.concatenate([layer.wq.data[:, cols], layer.wk.data[:, cols], layer.wv.data], axis=1)


def _block_scores(q: np.ndarray, k_t: np.ndarray, lo: int, start: int) -> np.ndarray:
    """Scores [rows, H, r, start + lo + r] of the r query rows of a block that
    begins at position ``start + lo``, against the keys up to its last row;
    ``k_t`` holds the keys transposed, [rows, H, hd, keys]. Every key before
    the block is visible to every row; in the diagonal sub-block, keys after
    their query get -inf."""
    r = q.shape[2]
    s = q @ k_t[..., :start + lo + r]
    if r > 1:
        np.copyto(s[..., start + lo:], -np.inf, where=_FUTURE[:r, :r])
    return s


def causal_attention(
    x: Tensor,
    layer: LayerParams,
    config: ModelConfig,
    rows: RowLayout,
    cache: "KVCache | None" = None,
    layer_index: int = 0,
) -> Tensor:
    """Multi-head attention with rotary Q/K and a strict causal mask, from the
    normed ``x`` through the output projection, as one graph node.

    ``x`` [n, d] holds the real rows of B sequences back to back, laid out by
    ``rows`` (see ``row_layout``). The q/k/v and output projections run on
    the n rows only, and each sequence attends within itself. Each block of
    ``_BLOCK`` query rows scores only the sequences longer than its start
    against the keys up to its last position. A real query never sees a
    position past its own, so the pad tail of a shorter sequence needs no key
    mask: it holds zeros, and its outputs are never read.

    In a graph, the node saves q, k (also transposed), v, the head outputs
    and each row's logsumexp, never the probabilities: the backward pass
    recomputes them block by block as exp(scores - logsumexp).

    With a ``cache`` (one sequence; inference only), ``x`` holds the tokens
    right after the cached prefix: their keys and values are written into
    layer ``layer_index``'s buffers, and they attend over the prefix plus
    themselves.
    """
    n, d = x.data.shape
    b, t = rows.shape
    end = rows.start + t
    if end > config.max_seq_len:
        raise ValueError(f"sequence length {end} exceeds max_seq_len {config.max_seq_len}")
    h, hd = config.n_heads, config.head_dim
    dtype = x.data.dtype
    complex_dtype = np.result_type(dtype, np.complex64)
    if rows.turn.dtype != complex_dtype:
        raise ValueError(f"row layout built for {rows.turn.dtype}, activations are {dtype}")
    parents = (x, layer.wq, layer.wk, layer.wv, layer.wo)
    save = ad.recording(parents)
    if save and cache is not None:
        raise ValueError("the KV cache path is inference-only; run it outside a graph")
    seq, pos, start = rows.seq, rows.pos, rows.start

    w_qkv = _fused_projection(layer, config) if cache is None else cache.w_qkv[layer_index]
    qkv = (x.data @ w_qkv).reshape(n, 3, h, hd)
    qk = qkv[:, :2].view(complex_dtype)
    qk *= rows.turn
    if cache is None:
        heads = np.zeros((3, b, h, t, hd), dtype=dtype)
        heads[:, seq, :, pos] = qkv
        q, k, v = heads
        k_t = np.ascontiguousarray(np.swapaxes(k, -1, -2))  # scores read keys transposed
    else:
        q = np.ascontiguousarray(np.swapaxes(qkv[:, 0], 0, 1))[None]
        k, v = cache.write(layer_index, qkv[:, 1], qkv[:, 2])
        k_t = np.swapaxes(k, -1, -2)
    merged = np.empty((b, h, t, hd), dtype=dtype)  # head outputs
    lse = np.empty((b, h, t), dtype=dtype) if save else None
    for block, lo in enumerate(range(0, t, _BLOCK)):
        hi, live = min(lo + _BLOCK, t), rows.longer[block]
        s = _block_scores(q[:live, :, lo:hi], k_t[:live], lo, start)
        peak = s.max(axis=-1, keepdims=True)
        s -= peak
        np.exp(s, out=s)
        total = s.sum(axis=-1, keepdims=True)
        o = merged[:live, :, lo:hi]
        np.matmul(s, v[:live, :, :s.shape[-1]], out=o)
        o /= total
        if save:
            lse[:live, :, lo:hi] = (peak + np.log(total))[..., 0]
    merged = merged[seq, :, pos].reshape(n, d)
    out = merged @ layer.wo.data
    if not save:
        return Tensor(out)

    def bwd(g):
        g_wo = merged.T @ g
        d_merged = (g @ layer.wo.data.T).reshape(n, h, hd)
        d_out = np.zeros_like(q)
        d_out[seq, :, pos] = d_merged
        # delta_i = sum_j p_ij dp_ij = dO_i . O_i, so no probability row is kept
        delta = np.zeros_like(lse)
        delta[seq, :, pos] = (d_merged * merged.reshape(n, h, hd)).sum(axis=-1)
        v_t = np.ascontiguousarray(np.swapaxes(v, -1, -2))
        dq = np.empty_like(q)
        dk = np.zeros_like(k)
        dv = np.zeros_like(v)
        for block, lo in enumerate(range(0, t, _BLOCK)):
            hi, live = min(lo + _BLOCK, t), rows.longer[block]
            p = _block_scores(q[:live, :, lo:hi], k_t[:live], lo, start)
            p -= lse[:live, :, lo:hi, None]
            np.exp(p, out=p)
            n_keys = p.shape[-1]
            d_o = d_out[:live, :, lo:hi]
            dv[:live, :, :n_keys] += np.swapaxes(p, -1, -2) @ d_o
            ds = d_o @ v_t[:live, :, :, :n_keys]
            ds -= delta[:live, :, lo:hi, None]
            ds *= p
            dq[:live, :, lo:hi] = ds @ k[:live, :, :n_keys]
            dk[:live, :, :n_keys] += np.swapaxes(ds, -1, -2) @ q[:live, :, lo:hi]
        d_qkv = np.empty((n, 3, h, hd), dtype=dtype)
        for i, grad in enumerate((dq, dk, dv)):
            d_qkv[:, i] = grad[seq, :, pos]
        d_qk = d_qkv[:, :2].view(complex_dtype)
        d_qk *= rows.turn.conj()
        d_qkv = d_qkv.reshape(n, 3 * d)
        g_w = x.data.T @ d_qkv
        back = np.argsort(_pair_order(config))
        return (d_qkv @ w_qkv.T, g_w[:, :d][:, back], g_w[:, d:2 * d][:, back],
                g_w[:, 2 * d:], g_wo)

    return ad._node(out, parents, bwd)


class KVCache:
    """Per-layer key/value buffers of one sequence for incremental greedy
    decoding, built whole for the weights and precision of ``params``.

    ``k[i]`` and ``v[i]`` are [1, H, max_seq_len, head_dim] buffers written
    in place; only the first ``length`` positions hold keys and values. The
    keys are rotated, with each head's features in ``_pair_order``. Cached
    keys and values hold only for the weights that made them, so the cache
    also keeps each layer's fused projection ``w_qkv[i]`` and the rotary
    turns of every position.
    """

    def __init__(self, params: TransformerParams, config: ModelConfig) -> None:
        dtype = params.embedding.dtype
        shape = (1, config.n_heads, config.max_seq_len, config.head_dim)
        self.k = [np.zeros(shape, dtype=dtype) for _ in params.layers]
        self.v = [np.zeros(shape, dtype=dtype) for _ in params.layers]
        self.w_qkv = [_fused_projection(layer, config) for layer in params.layers]
        self.turns = _turns(config, np.arange(config.max_seq_len), dtype)
        self.length = 0

    def layout(self, t: int) -> RowLayout:
        """The layout of t tokens right after the cached prefix."""
        blocks = -(-t // _BLOCK)
        return RowLayout((1, t), np.zeros(t, dtype=np.int64), np.arange(t),
                         np.ones(blocks, dtype=np.int64),
                         self.turns[self.length:self.length + t], self.length)

    def write(self, i: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Store the [t, H, hd] keys/values of the t positions after the
        prefix; return [1, H, length + t, hd] views of layer ``i``'s keys and
        values over the prefix plus the new positions."""
        end = self.length + len(k)
        self.k[i][0, :, self.length:end] = np.swapaxes(k, 0, 1)
        self.v[i][0, :, self.length:end] = np.swapaxes(v, 0, 1)
        return self.k[i][:, :, :end], self.v[i][:, :, :end]

    def truncate(self, length: int) -> None:
        """Keep the first ``length`` positions; the next write overwrites the
        keys and values past them."""
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot truncate a cache of {self.length} positions to {length}")
        self.length = length


def forward(
    params: TransformerParams,
    config: ModelConfig,
    tokens: np.ndarray,
    forced=None,
    top_k: int | None = None,
    cache: KVCache | None = None,
    lengths: np.ndarray | None = None,
    logit_rows: np.ndarray | None = None,
) -> tuple[Tensor, list[RoutingDecision]]:
    """Next-token logits plus one RoutingDecision per layer.

    ``tokens`` is [T] or [B, T] integer ids. ``forced`` (an expert id, or one
    per sequence) drives the task-forced training route; without it routing
    is plain top-K. Both routes select K = ``top_k`` or the config's. With a ``cache``
    (inference, one sequence), ``tokens`` continue the cached prefix, whose
    keys and values they attend to, and the cache grows by T positions.

    ``lengths`` (one per sequence; None: all T) marks the first positions of
    each row as real and the rest as right padding. Only the n real positions
    are computed, as flat rows [n, d] in row-major order: pads are never
    embedded, attended to or routed, and each decision has one row per real
    position. The logits are [n, vocab], one row per real position: [T,
    vocab] for one unpadded sequence. ``logit_rows`` (indices into the n
    rows) runs the last layer's MoE, the final norm and the LM head on those
    rows only, so the logits and the last decision have one row per index.
    """
    tokens = np.asarray(tokens)
    ids = tokens[None, :] if tokens.ndim == 1 else tokens
    b, t = ids.shape
    if cache is not None and (b != 1 or lengths is not None):
        raise ValueError("the KV cache path takes one unpadded sequence")
    if lengths is None:
        lengths, real = np.full(b, t), ids.ravel()
    else:
        lengths = np.asarray(lengths).reshape(b)
        real = ids[np.arange(t)[None, :] < lengths[:, None]]
    rows = row_layout(config, lengths, params.embedding.dtype) if cache is None else cache.layout(t)

    x = ad.take(params.embedding, real)
    if forced is not None:  # one id per real row
        forced = np.repeat(np.broadcast_to(np.asarray(forced, dtype=np.int64), (b,)), lengths)
    last = len(params.layers) - 1
    decisions: list[RoutingDecision] = []
    for i, layer in enumerate(params.layers):
        x = ad.add(x, causal_attention(ad.rms_norm(x, layer.attn_norm, config.rms_eps),
                                       layer, config, rows, cache, i))
        if i == last and logit_rows is not None:
            x = ad.take(x, logit_rows)
            forced = None if forced is None else forced[logit_rows]
        h = ad.rms_norm(x, layer.ffn_norm, config.rms_eps)
        if forced is None:
            y, decision = moe_forward_infer(h, layer.moe, top_k or config.top_k)
        else:
            y, decision = moe_forward_task(h, layer.moe, forced, top_k or config.top_k)
        decisions.append(decision)
        x = ad.add(x, y)

    x = ad.rms_norm(x, params.final_norm, config.rms_eps)
    logits = ad.matmul_nt(x, params.embedding)
    if cache is not None:
        cache.length += t
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


# Most ids ``generate`` drafts into one cached pass, and the longest context
# suffix its draft lookup matches.
_DRAFT = 4
_NGRAM = 3


def _lookup(context: np.ndarray, limit: int) -> np.ndarray:
    """A draft of up to ``limit`` ids: those that followed the latest earlier
    occurrence of the longest suffix, of at most ``_NGRAM`` ids, of
    ``context``; none when its last id occurs nowhere before. This is
    reference-based drafting (LLMA, Yang et al. 2023): a corrector mostly
    copies its prompt, so the context predicts what follows."""
    n = len(context)
    ends = np.ones(n - 1, dtype=bool)  # where an earlier occurrence of the suffix may end
    last = None
    for g in range(1, min(_NGRAM, n - 1) + 1):
        ends[:g - 1] = False
        ends[g - 1:] &= context[:n - g] == context[n - g]
        hits = np.flatnonzero(ends)
        if not hits.size:
            break
        last = hits[-1]
    return context[:0] if last is None else context[last + 1:last + 1 + limit]


def generate(
    params: TransformerParams,
    config: ModelConfig,
    prompt_ids: np.ndarray,
    max_new_tokens: int,
    eos_id: int,
    top_k: int | None = None,
) -> np.ndarray:
    """Greedy decoding after ``prompt_ids``; stops at EOS or the length caps.

    Each cached pass drafts and verifies: it runs the last emitted id plus a
    draft from ``_lookup``, accepts the longest drafted prefix that equals
    the pass's own argmaxes and greedy's next id after it, and truncates the
    cache to the accepted positions. Without a draft the pass is a one-token
    step. The ids are greedy's, checked against the stops one by one in
    emission order; a draft never takes the cache past ``max_seq_len`` or the
    output past ``max_new_tokens``.
    """
    prompt = np.asarray(prompt_ids)
    cache = KVCache(params, config)
    logits, _ = forward_incremental(params, config, prompt, cache, top_k)
    if max_new_tokens < 1:
        return np.zeros(0, dtype=np.int64)
    p = n = len(prompt)
    context = np.empty(p + max_new_tokens, dtype=np.int64)  # prompt, output, draft
    context[:p] = prompt
    picks = [int(np.argmax(logits[-1]))]
    while True:
        for token in picks:
            context[n] = token
            n += 1
            if token == eos_id or n - p == max_new_tokens or n > config.max_seq_len:
                return context[p:n].copy()
        # the cache holds context[:n - 1]; the pass appends the last pick and the draft
        draft = _lookup(context[:n], min(_DRAFT, config.max_seq_len - n, p + max_new_tokens - n - 1))
        m = len(draft)
        context[n:n + m] = draft
        logits, _ = forward_incremental(params, config, context[n - 1:n + m].copy(), cache, top_k)
        greedy = logits.argmax(axis=-1)
        accepted = 0
        while accepted < m and greedy[accepted] == context[n + accepted]:
            accepted += 1
        cache.truncate(n + accepted)
        picks = greedy[:accepted + 1].tolist()
