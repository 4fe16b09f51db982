"""Top-K gating, weighted expert mixing, and task-forced training routes.

An MoE layer holds a linear gate plus n SwiGLU expert FFNs. Both routes are
one top-K selection over the gate logits. Inference takes the top-K as they
are; training ranks each token's task-mapped expert first, so it runs
alongside the best K - 1 others: every task keeps feeding its own expert
while the gate still learns to share.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class ExpertParams:
    """One SwiGLU feed-forward expert: down(silu(x @ gate_proj) * (x @ up))."""

    up: Tensor        # [d_model, d_ff]
    gate_proj: Tensor  # [d_model, d_ff]
    down: Tensor      # [d_ff, d_model]


@dataclass
class MoeLayerParams:
    gate: Tensor  # [d_model, n_experts]
    experts: list[ExpertParams]

    def __post_init__(self) -> None:
        if len(self.experts) < 1:
            raise ValueError("an MoE layer needs at least one expert")
        if self.gate.shape[-1] != len(self.experts):
            raise ad.ShapeError(
                f"gate has {self.gate.shape[-1]} columns for {len(self.experts)} experts"
            )


@dataclass
class RoutingDecision:
    """Per-token selection record: expert ids, their normalized weights, and
    the forced expert id when the task route was applied (None in inference).
    There is one row per routed token."""

    indices: np.ndarray   # [n, K] int
    weights: np.ndarray   # [n, K] float, each row sums to 1
    task_forced: np.ndarray | None = None  # [n] int


def _topk(logits: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest logits per row, best first (ties to the
    lowest index)."""
    n = logits.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} experts")
    return (-logits).argsort(axis=-1, kind="stable")[..., :k]


_TILE_ROWS = 128  # rows per tile of the SwiGLU backward: its buffers stay in cache
_CHUNK_ROWS = 1024  # slots per chunk of the backward pass: its buffers are [chunk, d_ff]


def _experts_backward(experts, bounds, order, k: int, h: np.ndarray, g: np.ndarray,
                      w_slots: np.ndarray, h_gate: np.ndarray, h_up: np.ndarray,
                      a: np.ndarray, g_h: np.ndarray) -> list:
    """The expert half of ``_route``'s backward pass: each expert's weight
    gradients (None for an expert with no slot), from the normed rows ``h``,
    the output gradient ``g`` and the saved input projections of the slots in
    expert order. Adds each row's input gradient into ``g_h`` and fills ``a``
    with ``w * (g . y)`` per slot, in expert order.

    Walks each expert's slots in chunks of ``_CHUNK_ROWS`` and the SwiGLU
    chain rule over tiles of ``_TILE_ROWS`` rows, in buffers reused across
    chunks and experts that are freed when it returns."""
    n_slots, d_ff = h_gate.shape
    chunk = min(_CHUNK_ROWS, n_slots)
    g_gated_buf, gated_buf, g_h_up_buf = np.empty((3, chunk, d_ff), dtype=h.dtype)
    sig = np.empty((_TILE_ROWS, d_ff), dtype=h.dtype)
    act = np.empty_like(sig)
    g_params = []
    for e, expert in enumerate(experts):
        lo, hi = bounds[e], bounds[e + 1]
        if lo == hi:
            g_params += [None, None, None]
            continue
        for c0 in range(lo, hi, _CHUNK_ROWS):
            c1 = min(c0 + _CHUNK_ROWS, hi)
            slots = order[c0:c1]
            at = slots // k  # the chunk's rows, each once
            hs = h[at]
            g_ys = g[at]
            g_ys *= w_slots[slots, None]
            g_gated = np.matmul(g_ys, expert.down.data.T, out=g_gated_buf[:c1 - c0])
            gated, g_h_up = gated_buf[:c1 - c0], g_h_up_buf[:c1 - c0]
            g_h_gate = g_gated  # overwritten tile by tile, each after its last read
            for i0 in range(0, c1 - c0, _TILE_ROWS):
                i1 = min(i0 + _TILE_ROWS, c1 - c0)
                hg, hu, gg, s, t = (h_gate[c0 + i0:c0 + i1], h_up[c0 + i0:c0 + i1],
                                    g_gated[i0:i1], sig[:i1 - i0], act[:i1 - i0])
                np.negative(hg, out=s)  # sig = 1 / (1 + exp(-h_gate))
                np.exp(s, out=s)
                np.add(1.0, s, out=s)
                np.divide(1.0, s, out=s)
                np.multiply(hg, s, out=t)  # act
                np.multiply(t, hu, out=gated[i0:i1])
                np.einsum("ij,ij->i", gg, gated[i0:i1], out=a[c0 + i0:c0 + i1])
                np.multiply(gg, t, out=g_h_up[i0:i1])
                np.subtract(1.0, s, out=t)  # act' = sig * (1 + h_gate * (1 - sig))
                np.multiply(hg, t, out=t)
                np.add(1.0, t, out=t)
                np.multiply(s, t, out=t)
                np.multiply(gg, hu, out=gg)  # g_h_gate = (g_gated * h_up) * act'
                np.multiply(gg, t, out=gg)
            g_hs = g_h_up @ expert.up.data.T
            g_hs += g_h_gate @ expert.gate_proj.data.T
            g_h[at] += g_hs  # a row's slots go to distinct experts, so this adds once per row
            terms = (hs.T @ g_h_up, hs.T @ g_h_gate, gated.T @ g_ys)
            if c0 == lo:
                sums = terms
            else:
                for total, term in zip(sums, terms):
                    total += term
        g_params += sums
    return g_params


def _route(x: Tensor, params: MoeLayerParams, k: int, norm: Tensor, eps: float,
           forced: np.ndarray | None = None) -> tuple[Tensor, RoutingDecision]:
    """The MoE sub-block as one graph node: ``x + moe(rms_norm(x, norm))``
    for raw residual rows ``x`` [n, d], each routed to k experts.

    The experts are the top-k gate logits of each normed row; its ``forced``
    expert (one id per row), if given, ranks first (its logit counts as +inf
    for the selection only). Ties go to the lowest index. ``moe(h)[i] =
    sum_j w[i, j] * expert_idx[i, j](h[i])``, where ``w[i]`` is the softmax
    over the k selected logits; unselected experts are never evaluated.

    The dispatch is dropless and sorted: one stable argsort orders the n*k
    (row, slot) pairs by expert, so each expert runs once on a contiguous
    block of its rows, in token order. The expert projections write into
    [n*k, d_ff] buffers in that order, so the SwiGLU product runs once over
    the slots of every expert. The combine is the inverse permutation, a
    reshape to [n, k, d] and a sum over k, so neither pass scatter-adds.

    The node's parents are ``x``, ``norm``, the gate and every expert
    matrix; outside a graph they are never gathered. In a graph it saves
    each row's norm scale, the weights, the sort and the two input
    projections of every slot, nothing when outside one. The backward pass
    rebuilds the normed rows and walks each expert's slots in chunks of
    ``_CHUNK_ROWS`` (``_experts_backward``): it gathers a chunk's normed rows
    and weighted output gradients, runs the SwiGLU chain rule over tiles of
    ``_TILE_ROWS`` rows in buffers reused across chunks, with every product
    in the forward formula's operand order, adds the chunk's input gradient
    straight into one [n, d] array and sums each expert's weight gradients
    over its chunks. It drops the two input projections and the buffers
    after that walk, before the gate and norm backward (a graph takes one
    backward). Within a chunk the gradients are bitwise those of the
    whole-block formula; at K = 2 so is the input gradient. The gate
    gradient needs no expert output: with ``a[i, j] = w[i, j] * (g[i] .
    y[i, j]) = sum_f(g_gated * gated)``, taken in the tiles, the selected
    logits' gradient is ``a[i, j] - w[i, j] * sum_l a[i, l]``.
    """
    experts = params.experts
    n, d = x.data.shape
    h, r = ad.rms_norm_forward(x.data, norm.data, eps)
    logits = h @ params.gate.data
    ranked = logits
    if forced is not None:
        ranked = logits.copy()
        ranked[np.arange(n), forced] = np.inf
    idx = _topk(ranked, k)
    picked = (np.arange(n)[:, None], idx)
    w = logits[picked]  # [n, k]: the selected logits, then their softmax
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    decision = RoutingDecision(indices=idx, weights=w, task_forced=forced)
    save = ad.active_graph() is not None  # the parents are gathered only for a graph
    if save:
        parents = (x, norm, params.gate) + tuple(
            t for ex in experts for t in (ex.up, ex.gate_proj, ex.down))
        save = ad.recording(parents)
    slot_expert = idx.ravel()
    order = slot_expert.argsort(kind="stable")
    bounds = [0, *itertools.accumulate(np.bincount(slot_expert, minlength=len(experts)).tolist())]
    hs = h[order // k]  # [n*k, d], grouped by expert
    h_gate = np.empty((n * k, experts[0].up.data.shape[1]), dtype=hs.dtype)
    h_up = np.empty_like(h_gate)
    for e, expert in enumerate(experts):
        lo, hi = bounds[e], bounds[e + 1]
        if lo < hi:
            np.matmul(hs[lo:hi], expert.gate_proj.data, out=h_gate[lo:hi])
            np.matmul(hs[lo:hi], expert.up.data, out=h_up[lo:hi])
    gated = np.negative(h_gate)  # h_gate * sigmoid(h_gate) * h_up, every expert at once
    np.exp(gated, out=gated)
    gated += 1.0
    np.divide(1.0, gated, out=gated)
    gated *= h_gate
    gated *= h_up
    ys = np.empty_like(hs)
    for e, expert in enumerate(experts):
        lo, hi = bounds[e], bounds[e + 1]
        if lo < hi:
            np.matmul(gated[lo:hi], expert.down.data, out=ys[lo:hi])
    del gated  # freed before the combine allocates
    y = np.empty_like(ys)
    y[order] = ys
    y = y.reshape(n, k, d)
    y *= w[:, :, None]
    out = np.add.reduce(y, axis=1)
    out += x.data
    if not save:
        return Tensor(out), decision

    def bwd(g):
        nonlocal h_gate, h_up  # dropped once read: a graph takes one backward
        h = x.data * r
        h *= norm.data  # the normed rows, rebuilt
        g_h = np.zeros_like(h)
        a = np.empty(n * k, dtype=h.dtype)  # w * (g . y) per slot, in expert order
        g_params = _experts_backward(experts, bounds, order, k, h, g, w.ravel(), h_gate, h_up,
                                     a, g_h)
        h_gate = h_up = None
        a_slots = np.empty_like(a)
        a_slots[order] = a
        a = a_slots.reshape(n, k)
        g_logits = np.zeros((n, len(experts)), dtype=h.dtype)
        g_logits[picked] = a - w * a.sum(axis=1, keepdims=True)
        g_gate = h.T @ g_logits
        del h
        g_h += g_logits @ params.gate.data.T
        gx, g_norm = ad.rms_norm_backward(g_h, x.data, norm.data, r)
        gx += g
        return (gx, g_norm, g_gate, *g_params)

    return ad._node(out, parents, bwd), decision


def moe_forward_infer(x: Tensor, params: MoeLayerParams, k: int, norm: Tensor,
                      eps: float) -> tuple[Tensor, RoutingDecision]:
    """Inference mixing: plain top-k. Task-agnostic by construction. Returns
    ``x + moe(rms_norm(x, norm))`` (see ``_route``) and the decision."""
    return _route(x, params, k, norm, eps)


def moe_forward_task(x: Tensor, params: MoeLayerParams, task_expert, k: int,
                     norm: Tensor, eps: float) -> tuple[Tensor, RoutingDecision]:
    """Training mixing: the task-mapped expert plus the best k - 1 others,
    weighted by the softmax over the k selected logits. Returns ``x +
    moe(rms_norm(x, norm))`` (see ``_route``) and the decision.

    ``task_expert`` is an expert index (scalar, or one per token row of ``x``).
    """
    n_experts = len(params.experts)
    forced = np.array(np.broadcast_to(np.asarray(task_expert, dtype=np.int64), (x.data.shape[0],)))
    if forced.min() < 0 or forced.max() >= n_experts:
        raise ValueError(f"task expert id out of range [0, {n_experts})")
    return _route(x, params, k, norm, eps, forced)


@dataclass
class RouteStats:
    """Routing counts per task id, summed over layers: task t's token rows
    were routed ``rows[t]`` times, ``counts[t, e]`` of them to expert e, at
    weights summing to ``weight_sums[t, e]``."""

    tasks: list[str]         # names, by task id
    rows: np.ndarray         # [tasks] int
    counts: np.ndarray       # [tasks, experts] int
    weight_sums: np.ndarray  # [tasks, experts] float64

    def to_csv(self) -> str:
        """A line per expert of each routed task, tasks by name: the share of
        the task's routings that selected the expert (they sum to K) and the
        expert's mean weight there."""
        lines = ["task,expert,fraction,mean_weight"]
        for t in sorted(np.flatnonzero(self.rows), key=self.tasks.__getitem__):
            for e, (c, w) in enumerate(zip(self.counts[t], self.weight_sums[t])):
                lines.append(f"{self.tasks[t]},{e},{c / self.rows[t]:.6f},{w / c if c else 0.0:.6f}")
        return "\n".join(lines) + "\n"


def count_routes(routed, tasks: list[str], n_experts: int) -> RouteStats:
    """The RouteStats of ``routed``, pairs (task ids, RoutingDecision) in
    which decision row i routes a token of task id ``task_ids[i]``; ``tasks``
    names the ids."""
    rows = np.zeros(len(tasks), dtype=np.int64)
    counts = np.zeros((len(tasks), n_experts), dtype=np.int64)
    weight_sums = np.zeros((len(tasks), n_experts))
    for task_ids, decision in routed:
        cells = (task_ids[:, None], decision.indices)
        np.add.at(rows, task_ids, 1)
        np.add.at(counts, cells, 1)
        np.add.at(weight_sums, cells, decision.weights)
    if not rows.any():
        raise ValueError("empty routing stream")
    return RouteStats(list(tasks), rows, counts, weight_sums)
