"""Top-K gating, weighted expert mixing, and task-forced training routes.

An MoE layer holds a linear gate plus n SwiGLU expert FFNs. Both routes are
one top-K selection over the gate logits. Inference takes the top-K as they
are; training ranks each token's task-mapped expert first, so it runs
alongside the best K - 1 others: every task keeps feeding its own expert
while the gate still learns to share.
"""
from __future__ import annotations

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
    There is one row per routed token, so pad positions have none."""

    indices: np.ndarray   # [n, K] int
    weights: np.ndarray   # [n, K] float, each row sums to 1
    task_forced: np.ndarray | None = None  # [n] int


def _topk(logits: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest logits per row, best first (ties to the
    lowest index)."""
    n = logits.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} experts")
    return np.argsort(-logits, axis=-1, kind="stable")[..., :k]


def _dispatch(x: Tensor, experts: list[ExpertParams], logits: Tensor,
              idx: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Dropless sorted dispatch: ``out[i] = sum_j w[i, j] *
    expert_idx[i, j](x[i])``, where ``w[i]`` is the softmax over the K
    selected gate logits ``logits[i, idx[i]]``. Returns ``out`` and ``w``.

    One stable argsort orders the n*K (row, slot) pairs by expert, so each
    expert runs once on a contiguous block of its rows, in token order. The
    combine is the inverse permutation, a reshape to [n, K, d] and a sum over
    K, so neither pass scatter-adds. The gate gradient is nonzero at the
    selected logits only. Outside a graph the node saves nothing.
    """
    n, k = idx.shape
    d = x.data.shape[1]
    picked = (np.arange(n)[:, None], idx)
    z = logits.data[picked]  # [n, K]
    w = np.exp(z - z.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    params = tuple(t for ex in experts for t in (ex.up, ex.gate_proj, ex.down))
    parents = (x, logits) + params
    save = ad.recording(parents)
    slot_expert = idx.ravel()
    order = np.argsort(slot_expert, kind="stable")
    bounds = np.searchsorted(slot_expert[order], np.arange(len(experts) + 1))
    xs = x.data[order // k]  # [n*K, d], grouped by expert
    ys = np.empty((n * k, d), dtype=xs.dtype)
    saved = [None] * len(experts)
    for e, expert in enumerate(experts):
        lo, hi = bounds[e], bounds[e + 1]
        if lo == hi:
            continue
        h_gate = xs[lo:hi] @ expert.gate_proj.data
        h_up = xs[lo:hi] @ expert.up.data
        sig = 1.0 / (1.0 + np.exp(-h_gate))
        ys[lo:hi] = (h_gate * sig * h_up) @ expert.down.data
        if save:
            saved[e] = (h_gate, h_up)  # the sigmoid and products are recomputed: less to hold
    y = np.empty_like(ys)
    y[order] = ys
    y = y.reshape(n, k, d)
    out = (y * w[:, :, None]).sum(axis=1)
    if not save:
        return Tensor(out), w

    def bwd(g):
        g_w = (g[:, None, :] * y).sum(axis=-1)
        g_logits = np.zeros_like(logits.data)
        g_logits[picked] = w * (g_w - (g_w * w).sum(axis=1, keepdims=True))
        g_ys = (g[:, None, :] * w[:, :, None]).reshape(n * k, d)[order]
        g_xs = np.empty_like(xs)
        g_params = []
        for e, expert in enumerate(experts):
            if saved[e] is None:
                g_params += [None, None, None]
                continue
            lo, hi = bounds[e], bounds[e + 1]
            h_gate, h_up = saved[e]
            sig = 1.0 / (1.0 + np.exp(-h_gate))
            act = h_gate * sig
            gated = act * h_up
            g_gated = g_ys[lo:hi] @ expert.down.data.T
            g_h_up = g_gated * act
            g_h_gate = (g_gated * h_up) * (sig * (1.0 + h_gate * (1.0 - sig)))
            g_xs[lo:hi] = g_h_up @ expert.up.data.T + g_h_gate @ expert.gate_proj.data.T
            g_params += [xs[lo:hi].T @ g_h_up, xs[lo:hi].T @ g_h_gate, gated.T @ g_ys[lo:hi]]
        g_slots = np.empty_like(g_xs)
        g_slots[order] = g_xs
        return (g_slots.reshape(n, k, d).sum(axis=1), g_logits, *g_params)

    return ad._node(out, parents, bwd), w


def _route(x: Tensor, params: MoeLayerParams, k: int,
           forced: np.ndarray | None = None) -> tuple[Tensor, RoutingDecision]:
    """Route token rows [N, d] to k experts each and mix their outputs.

    The experts are the top-k gate logits of each row; its ``forced`` expert
    (one id per row), if given, ranks first (its logit counts as +inf for the
    selection only). Ties go to the lowest index. The weights are the softmax
    over the selected logits, taken in the dispatch node; unselected experts
    are never evaluated.
    """
    logits = ad.matmul(x, params.gate)
    ranked = logits.data
    if forced is not None:
        ranked = ranked.copy()
        ranked[np.arange(forced.size), forced] = np.inf
    idx = _topk(ranked, k)
    y, weights = _dispatch(x, params.experts, logits, idx)
    return y, RoutingDecision(indices=idx, weights=weights, task_forced=forced)


def moe_forward_infer(x: Tensor, params: MoeLayerParams,
                      k: int) -> tuple[Tensor, RoutingDecision]:
    """Inference mixing: plain top-k. Task-agnostic by construction."""
    return _route(x, params, k)


def moe_forward_task(x: Tensor, params: MoeLayerParams,
                     task_expert, k: int) -> tuple[Tensor, RoutingDecision]:
    """Training mixing: the task-mapped expert plus the best k - 1 others,
    weighted by the softmax over the k selected logits.

    ``task_expert`` is an expert index (scalar, or one per token row of ``x``).
    """
    n_experts = len(params.experts)
    forced = np.array(np.broadcast_to(np.asarray(task_expert, dtype=np.int64), (x.data.shape[0],)))
    if forced.min() < 0 or forced.max() >= n_experts:
        raise ValueError(f"task expert id out of range [0, {n_experts})")
    return _route(x, params, k, forced)


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
