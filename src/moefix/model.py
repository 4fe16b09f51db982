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
# ``_HIDDEN[i, j]``: whether the key j + 1 positions after a block's first
# row lies after row i. A block of r rows at consecutive positions hides
# ``_HIDDEN[:r, :r - 1]`` from the key after its first row on; the pattern
# does not depend on where the block starts.
_HIDDEN = np.arange(1, _BLOCK) > np.arange(_BLOCK)[:, None]
_HIDDEN.setflags(write=False)


@dataclass
class RowLayout:
    """Where the n flat rows of B sequences sit in the [B, H, T, hd] heads of
    attention, each row's rotary turn, and the query blocks attention runs
    over them; built once per forward pass (by ``row_layout``, or
    ``KVCache.layout`` for a cached step) and shared by every layer.

    The sequences are sorted longest first, so the sequences still longer
    than a query block's start are a prefix of the heads.
    """

    shape: tuple[int, int]  # (B, T): sequences, and rows of the longest
    seq: np.ndarray     # [n] slot of each row's sequence in the heads
    pos: np.ndarray     # [n] position of each row in its sequence
    turn: np.ndarray    # [n, 2, 1, hd/2] each row's ``_turns``
    start: int          # position of each sequence's first row
    blocks: list        # the ``_query_blocks`` plan of every row as a query


def _turns(config: ModelConfig, positions: np.ndarray, dtype) -> np.ndarray:
    """e^(i angle) of the rotary angles at ``positions``, [T, 2, 1, hd/2]:
    for q times the score scale, then for k."""
    cos, sin = rope_tables(config, positions, dtype)
    turn = (cos + 1j * sin).astype(np.result_type(dtype, np.complex64))
    scale = np.asarray(1.0 / np.sqrt(config.head_dim), dtype=dtype)
    return np.stack([turn * scale, turn], axis=1)


# The read-only ``_turns`` of positions 0 to max_seq_len - 1, one entry per
# (head_dim, rope_base, max_seq_len, dtype); every KVCache of a key shares it.
_POSITION_TURNS: dict[tuple, np.ndarray] = {}


def _position_turns(config: ModelConfig, dtype) -> np.ndarray:
    key = (config.head_dim, config.rope_base, config.max_seq_len, np.dtype(dtype))
    turns = _POSITION_TURNS.get(key)
    if turns is None:
        turns = _turns(config, np.arange(config.max_seq_len), dtype)
        turns.setflags(write=False)
        _POSITION_TURNS[key] = turns
    return turns


def _blocks(start: int, t: int, live) -> list:
    """The plan of ``_query_blocks`` when each of t rows after ``start`` is a
    query at its own slot; ``live[i]`` counts the sequences longer than block
    i's start."""
    plan = []
    for block, lo in enumerate(range(0, t, _BLOCK)):
        hi = min(lo + _BLOCK, t)
        r = hi - lo
        plan.append((lo, hi, live[block], (start + lo + 1, _HIDDEN[:r, :r - 1]) if r > 1 else None,
                     start + hi))
    return plan


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
    return RowLayout((b, t), np.repeat(slot, lengths), pos,
                     _turns(config, np.arange(t), dtype)[pos], 0, _blocks(0, t, longer.tolist()))


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


def _block_scores(q: np.ndarray, k_t: np.ndarray, mask, n_keys: int) -> np.ndarray:
    """Scores [rows, H, r, n_keys] of a block of r query rows against the
    first ``n_keys`` keys; ``k_t`` holds the keys transposed, [rows, H, hd,
    keys]. ``mask`` is None when every row sees every key, else (low,
    hidden): every row sees the keys before ``low``, and from ``low`` on,
    the keys ``hidden`` marks (it broadcasts against the scores) lie after
    their row's position and get -inf."""
    s = q @ k_t[..., :n_keys]
    if mask is not None:
        low, hidden = mask
        np.copyto(s[..., low:], -np.inf, where=hidden)
    return s


def _query_blocks(rows: RowLayout, queries: np.ndarray | None):
    """Where the query rows sit in the [B, H, tq, hd] query heads, and the
    blocks of ``_BLOCK`` query slots that attention runs.

    Returns (slot, index) of each query row in the heads, tq, and per block
    (lo, hi, live, mask, n_keys): its slots lo:hi of the first ``live``
    sequences, the ``_block_scores`` mask of their positions, and the keys
    the block reads. Without ``queries`` every row is a query, at its own
    position in the heads, and the plan is the layout's own. With them
    (sorted row indices), a sequence's queries fill its slots in order; an
    empty slot gets position t, so it masks no key and its scores stay
    finite, and it is never read.
    """
    b, t = rows.shape
    if queries is None:
        return rows.seq, rows.pos, t, rows.blocks
    slot, pos = rows.seq[queries], rows.pos[queries]
    m = len(queries)
    first = np.flatnonzero(np.r_[True, slot[1:] != slot[:-1]])  # a sequence's first query
    index = np.arange(m) - np.repeat(first, np.diff(np.r_[first, m]))
    counts = np.bincount(slot, minlength=b)
    tq = int(counts.max())
    grid = np.full((b, tq), t, dtype=np.int64)
    grid[slot, index] = pos
    plan = []
    for lo in range(0, tq, _BLOCK):
        hi = min(lo + _BLOCK, tq)
        live = np.flatnonzero(counts > lo)[-1] + 1
        qpos = grid[:live, lo:hi]
        n_keys = int(qpos[qpos < t].max()) + 1
        low = int(qpos.min()) + 1
        hidden = np.arange(low, n_keys) > qpos[:, None, :, None]
        plan.append((lo, hi, live, (low, hidden) if low < n_keys else None, n_keys))
    return slot, index, tq, plan


# Sequences per group of the attention block loop: a group's transposed keys
# and values and its [G, H, 64, keys] scores are all of the loop's working set.
_GROUP = 4


def _group_blocks(plan, b: int) -> list:
    """The block ``plan`` of b sequences' heads (see ``_query_blocks``), run
    in groups of ``_GROUP`` sequences: each group's first sequence s0 and
    the blocks that reach it, each (lo, hi, live, mask, n_keys) with
    ``live`` counted from s0. A loss-row plan's mask holds one row per
    sequence and is cut to the group's; the keys a block reads stay the
    plan's, so each sequence's scores are those of the whole-batch loop."""
    if b <= _GROUP:  # one group: the plan itself
        return [(0, plan)]
    groups = []
    for s0 in range(0, b, _GROUP):
        blocks = []
        for lo, hi, live, mask, n_keys in plan:
            if live > s0:
                end = min(live, s0 + _GROUP)
                if mask is not None and mask[1].ndim == 4:
                    mask = (mask[0], mask[1][s0:end])
                blocks.append((lo, hi, end - s0, mask, n_keys))
        if not blocks:  # no later group has a live sequence either
            break
        groups.append((s0, blocks))
    return groups


def _keys_t(k: np.ndarray, s0: int, blocks) -> np.ndarray:
    """The keys (or values) of the group from sequence s0, transposed to a
    contiguous [G, H, hd, keys] up to the last key its ``blocks`` read."""
    return np.ascontiguousarray(
        np.swapaxes(k[s0:s0 + _GROUP, :, :max(blk[4] for blk in blocks)], -1, -2))


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, plan, lse: np.ndarray | None = None,
            copy_keys: bool = True) -> np.ndarray:
    """The head outputs [B, H, tq, hd] of queries q [B, H, tq, hd] over keys
    and values k, v [B, H, T, hd], block by block of ``plan``, group by group
    of ``_GROUP`` sequences. Fills ``lse`` [B, H, tq], if given, with each
    query's logsumexp. A slot that no block runs is left unwritten.
    ``copy_keys`` False (one sequence) reads the keys through a transposed
    view."""
    merged = np.empty_like(q)
    for s0, blocks in _group_blocks(plan, len(q)):
        k_t = _keys_t(k, s0, blocks) if copy_keys else np.swapaxes(k, -1, -2)
        for lo, hi, live, mask, n_keys in blocks:
            seqs = slice(s0, s0 + live)
            s = _block_scores(q[seqs, :, lo:hi], k_t[:live], mask, n_keys)
            peak = s.max(axis=-1, keepdims=True)
            s -= peak
            np.exp(s, out=s)
            total = s.sum(axis=-1, keepdims=True)
            o = merged[seqs, :, lo:hi]
            np.matmul(s, v[seqs, :, :n_keys], out=o)
            o /= total
            if lse is not None:
                lse[seqs, :, lo:hi] = (peak + np.log(total))[..., 0]
    return merged


def _attend_backward(q: np.ndarray, k: np.ndarray, v: np.ndarray, lse: np.ndarray, plan,
                     d_out: np.ndarray, delta: np.ndarray, dq: np.ndarray, dk: np.ndarray,
                     dv: np.ndarray) -> None:
    """The backward pass of ``_attend`` at head-output gradient ``d_out``,
    with ``delta`` = sum(d_out * out) per query: writes the gradient of q
    into ``dq`` at the slots the plan runs and adds those of k and v to
    ``dk`` and ``dv``. Each block's probabilities are recomputed as
    exp(scores - lse); the groups run outermost, so the transposed keys and
    values are built one group at a time."""
    for s0, blocks in _group_blocks(plan, len(q)):
        k_t, v_t = _keys_t(k, s0, blocks), _keys_t(v, s0, blocks)
        for lo, hi, live, mask, n_keys in blocks:
            seqs = slice(s0, s0 + live)
            p = _block_scores(q[seqs, :, lo:hi], k_t[:live], mask, n_keys)
            p -= lse[seqs, :, lo:hi, None]
            np.exp(p, out=p)
            d_o = d_out[seqs, :, lo:hi]
            dv[seqs, :, :n_keys] += np.swapaxes(p, -1, -2) @ d_o
            ds = d_o @ v_t[:live, :, :, :n_keys]
            ds -= delta[seqs, :, lo:hi, None]
            ds *= p
            dq[seqs, :, lo:hi] = ds @ k[seqs, :, :n_keys]
            dk[seqs, :, :n_keys] += np.swapaxes(ds, -1, -2) @ q[seqs, :, lo:hi]


def causal_attention(
    x: Tensor,
    layer: LayerParams,
    config: ModelConfig,
    rows: RowLayout,
    cache: "KVCache | None" = None,
    layer_index: int = 0,
    queries: np.ndarray | None = None,
) -> Tensor:
    """The attention sub-block as one graph node: ``x + attention(
    rms_norm(x, attn_norm))``, multi-head with rotary Q/K and a strict
    causal mask, through the output projection.

    ``x`` [n, d] holds the raw residual rows of B sequences back to back,
    laid out by ``rows`` (see ``row_layout``). The norm and the projections
    run on the n rows only, and each sequence attends within itself. Each
    block of ``_BLOCK`` query rows scores only the sequences longer than its
    start against the keys up to its last position, ``_GROUP`` sequences
    at a time (see ``_attend``). A query never sees a
    position past its own, so the heads of a shorter sequence past its end
    need no key mask: they hold zeros, and their outputs are never read.

    ``queries`` (sorted row indices; no cache) computes only those rows: the
    output is [len(queries), d], and only they get q, scores, head outputs,
    the output projection and the residual, while keys and values still
    come from every row.

    In a graph, the node saves q, k and v, the head outputs, each row's
    logsumexp and each row's norm scale, never the probabilities: the
    backward pass recomputes them block by block as exp(scores - logsumexp),
    builds the transposed keys and values one group at a time, and rebuilds
    the normed rows. It drops each saved array once read (a graph takes one
    backward): q, k, v, the logsumexp and the head outputs before the
    epilogue. It gathers dq, dk and dv into the [n, 3d] row gradient one at
    a time, freeing each, and frees that before the norm backward.

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
    parents = (x, layer.attn_norm, layer.wq, layer.wk, layer.wv, layer.wo)
    save = ad.recording(parents)
    if cache is not None and (save or queries is not None):
        raise ValueError("the KV cache path is inference-only and computes every row; "
                         "run it outside a graph, without queries")
    if queries is not None and (np.diff(queries) <= 0).any():
        raise ValueError("queries must be increasing row indices")
    seq, pos = rows.seq, rows.pos
    slot, index, tq, plan = _query_blocks(rows, queries)
    m = len(slot)

    xn, r = ad.rms_norm_forward(x.data, layer.attn_norm.data, config.rms_eps)
    w_qkv = _fused_projection(layer, config) if cache is None else cache.w_qkv[layer_index]
    if queries is None:
        qkv = (xn @ w_qkv).reshape(n, 3, h, hd)
        qk = qkv[:, :2].view(complex_dtype)
        qk *= rows.turn
        if cache is None:
            heads = np.zeros((3, b, h, t, hd), dtype=dtype)
            heads[:, seq, :, pos] = qkv
            q, k, v = heads
        else:
            q = np.ascontiguousarray(np.swapaxes(qkv[:, 0], 0, 1))[None]
            k, v = cache.write(layer_index, qkv[:, 1:])
    else:
        kv = (xn @ w_qkv[:, d:]).reshape(n, 2, h, hd)
        k_turned = kv[:, 0].view(complex_dtype)
        k_turned *= rows.turn[:, 1]
        q_rows = (xn[queries] @ w_qkv[:, :d]).reshape(m, h, hd)
        q_turned = q_rows.view(complex_dtype)
        q_turned *= rows.turn[queries, 0]
        heads = np.zeros((2, b, h, t, hd), dtype=dtype)
        heads[:, seq, :, pos] = kv
        k, v = heads
        q = np.zeros((b, h, tq, hd), dtype=dtype)
        q[slot, :, index] = q_rows
    lse = np.empty(q.shape[:3], dtype=dtype) if save else None
    merged = _attend(q, k, v, plan, lse, copy_keys=cache is None)
    if cache is None:
        merged = merged[slot, :, index].reshape(m, d)
    else:  # one sequence, every row a query at its own slot
        merged = np.swapaxes(merged[0], 0, 1).reshape(m, d)
    out = merged @ layer.wo.data
    out += x.data if queries is None else x.data[queries]
    if not save:
        return Tensor(out)

    def bwd(g):
        nonlocal q, k, v, lse, merged  # each dropped once read: a graph takes one backward
        g_wo = merged.T @ g
        d_merged = (g @ layer.wo.data.T).reshape(m, h, hd)
        d_out = np.zeros_like(q)
        d_out[slot, :, index] = d_merged
        # delta_i = sum_j p_ij dp_ij = dO_i . O_i, so no probability row is kept
        delta = np.zeros_like(lse)
        delta[slot, :, index] = (d_merged * merged.reshape(m, h, hd)).sum(axis=-1)
        del d_merged
        merged = None
        dq = np.zeros_like(q) if queries is None else np.empty_like(q)
        dk, dv = np.zeros_like(k), np.zeros_like(v)
        _attend_backward(q, k, v, lse, plan, d_out, delta, dq, dk, dv)
        del d_out, delta
        q = k = v = lse = None
        d_qkv = np.empty((n, 3, h, hd), dtype=dtype)
        if queries is None:
            d_qkv[:, 0] = dq[seq, :, pos]
        else:  # a row that is no query keeps a zero q gradient
            d_qkv[:, 0] = 0
            d_qkv[queries, 0] = dq[slot, :, index]
        del dq
        d_qkv[:, 1] = dk[seq, :, pos]
        del dk
        d_qkv[:, 2] = dv[seq, :, pos]
        del dv
        d_qk = d_qkv[:, :2].view(complex_dtype)
        d_qk *= rows.turn.conj()
        d_qkv = d_qkv.reshape(n, 3 * d)
        xn = x.data * r
        xn *= layer.attn_norm.data  # the normed rows, rebuilt
        g_w = xn.T @ d_qkv
        del xn
        g_xn = d_qkv @ w_qkv.T
        del d_qkv, d_qk
        gx, g_norm = ad.rms_norm_backward(g_xn, x.data, layer.attn_norm.data, r)
        if queries is None:
            gx += g
        else:
            gx[queries] += g
        back = np.argsort(_pair_order(config))
        return (gx, g_norm, g_w[:, :d][:, back], g_w[:, d:2 * d][:, back],
                g_w[:, 2 * d:], g_wo)

    return ad._node(out, parents, bwd)


class KVCache:
    """Per-layer key/value buffers of one sequence for incremental greedy
    decoding, built whole for the weights and precision of ``params``.

    ``k[i]`` and ``v[i]`` are [1, H, max_seq_len, head_dim] views, written
    in place, into one buffer that the cache allocates once and never
    clears; only the first ``length`` positions hold keys and values, and no
    pass reads past them. The lists and their arrays stay the same objects
    for the cache's life. The keys are rotated, with each head's features in
    ``_pair_order``. Cached keys and values hold only for the weights that
    made them, so the cache also keeps each layer's fused projection
    ``w_qkv[i]``, and it reads the rotary turns of every position from
    ``_position_turns``, shared and read-only.
    """

    def __init__(self, params: TransformerParams, config: ModelConfig) -> None:
        dtype = params.embedding.dtype
        self._kv = list(np.empty((len(params.layers), 2, 1, config.n_heads, config.max_seq_len,
                                  config.head_dim), dtype=dtype))  # per layer [2, 1, H, S, hd]
        self.k = [kv[0] for kv in self._kv]
        self.v = [kv[1] for kv in self._kv]
        self.w_qkv = [_fused_projection(layer, config) for layer in params.layers]
        self.turns = _position_turns(config, dtype)
        self.length = 0

    def layout(self, t: int) -> RowLayout:
        """The layout of t tokens right after the cached prefix."""
        start = self.length
        return RowLayout((1, t), np.zeros(t, dtype=np.int64), np.arange(t),
                         self.turns[start:start + t], start,
                         _blocks(start, t, [1] * -(-t // _BLOCK)))

    def write(self, i: int, kv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Store the [t, 2, H, hd] keys and values of the t positions after
        the prefix; return [1, H, length + t, hd] views of layer ``i``'s keys
        and values over the prefix plus the new positions."""
        end = self.length + len(kv)
        self._kv[i][:, 0, :, self.length:end] = kv.transpose(1, 2, 0, 3)
        return self.k[i][:, :, :end], self.v[i][:, :, :end]

    def truncate(self, length: int) -> None:
        """Keep the first ``length`` positions; the next write overwrites the
        keys and values past them."""
        if not 0 <= length <= self.length:
            raise ValueError(f"cannot truncate a cache of {self.length} positions to {length}")
        self.length = length


def lm_head(x: Tensor, norm: Tensor, embedding: Tensor, eps: float) -> Tensor:
    """The final norm and the tied LM head as one graph node: ``rms_norm(x,
    norm) @ embedding.T``. In a graph it saves each row's norm scale and
    rebuilds the normed rows in its backward pass."""
    h, r = ad.rms_norm_forward(x.data, norm.data, eps)

    def bwd(g):
        g_embedding = ((x.data * r * norm.data).T @ g).T  # the normed rows, rebuilt
        gx, g_norm = ad.rms_norm_backward(g @ embedding.data, x.data, norm.data, r)
        return gx, g_norm, g_embedding

    return ad._node(h @ embedding.data.T, (x, norm, embedding), bwd)


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

    ``tokens`` [n] holds the ids of sequences back to back, ``lengths`` their
    row counts (None: one sequence); each sequence attends within itself.
    ``forced`` (an expert id, or one per sequence) drives the task-forced
    training route; without it routing is plain top-K. Both routes select
    K = ``top_k`` or the config's. With a ``cache`` (inference, one
    sequence), ``tokens`` continue the cached prefix, whose keys and values
    they attend to, and the cache grows by n positions.

    The logits are [n, vocab] and each decision has one row per token.
    ``logit_rows`` (sorted indices into the n rows; no cache) runs the last
    layer's attention queries, its MoE, the final norm and the LM head on
    those rows only, so the logits and the last decision have one row per
    index.
    """
    tokens = np.asarray(tokens)
    n = len(tokens)
    packed = lengths is not None
    if cache is not None and packed:
        raise ValueError("the KV cache path takes one sequence, without lengths")
    lengths = np.asarray(lengths) if packed else np.array([n])
    if tokens.ndim != 1 or packed and lengths.sum() != n:
        raise ValueError(f"lengths summing to {lengths.sum()} do not pack tokens of shape "
                         f"{tokens.shape}")
    rows = row_layout(config, lengths, params.embedding.dtype) if cache is None else cache.layout(n)

    x = ad.take(params.embedding, tokens)
    if forced is not None:  # one id per row
        forced = np.repeat(np.broadcast_to(np.asarray(forced, dtype=np.int64), len(lengths)), lengths)
    last = len(params.layers) - 1
    k, eps = top_k or config.top_k, config.rms_eps
    decisions: list[RoutingDecision] = []
    for i, layer in enumerate(params.layers):
        queries = logit_rows if i == last else None
        x = causal_attention(x, layer, config, rows, cache, i, queries)
        if queries is not None and forced is not None:
            forced = forced[queries]
        if forced is None:
            x, decision = moe_forward_infer(x, layer.moe, k, layer.ffn_norm, eps)
        else:
            x, decision = moe_forward_task(x, layer.moe, forced, k, layer.ffn_norm, eps)
        decisions.append(decision)

    logits = lm_head(x, params.final_norm, params.embedding, eps)
    if cache is not None:
        cache.length += n
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
    n, width = len(context), context.itemsize
    ids = context.tobytes()
    last = None
    for g in range(1, min(_NGRAM, n - 1) + 1):
        suffix = ids[(n - g) * width:]
        at = ids.rfind(suffix, 0, (n - 1) * width)  # an earlier occurrence ends before the last id
        while at > 0 and at % width:  # a byte match that straddles ids: look further back
            at = ids.rfind(suffix, 0, at + len(suffix) - 1)
        if at < 0:
            break
        last = at // width + g - 1
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
    if max_new_tokens < 1:
        return np.zeros(0, dtype=np.int64)
    prompt = np.asarray(prompt_ids)
    cache = KVCache(params, config)
    logits, _ = forward_incremental(params, config, prompt, cache, top_k)
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
