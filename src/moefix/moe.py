"""Top-K gating, weighted expert mixing, and task-forced training routes.

An MoE layer holds a linear gate plus n SwiGLU expert FFNs. Inference routes
each token to its top-K gate logits; training deterministically activates the
token's task-mapped expert alongside the best remaining expert, so every task
keeps feeding its own expert while the gate still learns to share.
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
    the forced expert id when the task route was applied (None in inference)."""

    indices: np.ndarray   # [T, K] int
    weights: np.ndarray   # [T, K] float, each row sums to 1
    task_forced: np.ndarray | None = None  # [T] int

    @property
    def k(self) -> int:
        return self.indices.shape[1]


def swiglu_ffn(x: Tensor, expert: ExpertParams) -> Tensor:
    gated = ad.mul(ad.silu(ad.matmul(x, expert.gate_proj)), ad.matmul(x, expert.up))
    return ad.matmul(gated, expert.down)


def _as_rows(x: Tensor) -> tuple[Tensor, bool]:
    if x.data.ndim == 1:
        return ad.reshape(x, (1, x.data.shape[0])), True
    if x.data.ndim == 2:
        return x, False
    raise ad.ShapeError(f"expected token rows [N, d] or a single [d], got {x.data.shape}")


def _topk(logits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the k largest logits per row (ties to the lowest index) and
    the matching boolean selection mask."""
    n = logits.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} experts")
    order = np.argsort(-logits, axis=-1, kind="stable")
    idx = order[..., :k]
    sel = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(sel, idx, True, axis=-1)
    return idx, sel


def _mix(x: Tensor, params: MoeLayerParams, weights: Tensor, sel: np.ndarray) -> Tensor:
    """y = sum over selected experts of weight * expert(x), evaluated sparsely."""
    n = x.data.shape[0]
    out: Tensor | None = None
    for e, expert in enumerate(params.experts):
        rows = np.flatnonzero(sel[:, e])
        if rows.size == 0:
            continue
        xe = ad.take(x, rows)
        ye = swiglu_ffn(xe, expert)
        we = ad.reshape(ad.take_at(weights, rows, np.full(rows.size, e)), (rows.size, 1))
        contrib = ad.index_add(n, rows, ad.mul(ye, we))
        out = contrib if out is None else ad.add(out, contrib)
    assert out is not None
    return out


def gate_topk(x: Tensor, gate: Tensor, k: int) -> RoutingDecision:
    """Route token representations through the gate: masked softmax over the
    top-k logits of x @ gate."""
    rows, _ = _as_rows(x)
    logits = ad.matmul(rows, gate)
    idx, sel = _topk(logits.data, k)
    w = ad.softmax(logits, mask=sel)
    weights = np.take_along_axis(w.data, idx, axis=-1)
    return RoutingDecision(indices=idx, weights=weights)


def moe_forward_infer(x: Tensor, params: MoeLayerParams, k: int = 2) -> tuple[Tensor, RoutingDecision]:
    """Inference mixing: top-k experts by gate probability, unselected experts
    are never evaluated. Task-agnostic by construction."""
    rows, single = _as_rows(x)
    logits = ad.matmul(rows, params.gate)
    idx, sel = _topk(logits.data, k)
    w = ad.softmax(logits, mask=sel)
    y = _mix(rows, params, w, sel)
    if single:
        y = ad.reshape(y, (y.data.shape[-1],))
    weights = np.take_along_axis(w.data, idx, axis=-1)
    return y, RoutingDecision(indices=idx, weights=weights)


def moe_forward_task(
    x: Tensor,
    params: MoeLayerParams,
    task_expert,
    renormalize_pair: bool = True,
) -> tuple[Tensor, RoutingDecision]:
    """Training mixing: the task-mapped expert plus the best remaining expert.

    ``task_expert`` is an expert index (scalar, or one per token row). The pair
    weights are by default the masked softmax over exactly the two selected
    logits; ``renormalize_pair=False`` instead takes the full-softmax entries
    unrenormalized (the alternative reading of the training route).
    """
    n_experts = len(params.experts)
    if n_experts < 2:
        raise ValueError("task routing needs at least 2 experts for a distinct runner-up")
    rows, single = _as_rows(x)
    n = rows.data.shape[0]
    forced = np.broadcast_to(np.asarray(task_expert, dtype=np.int64), (n,))
    if forced.min() < 0 or forced.max() >= n_experts:
        raise ValueError(f"task expert id out of range [0, {n_experts})")

    logits = ad.matmul(rows, params.gate)
    blocked = logits.data.copy()
    blocked[np.arange(n), forced] = -np.inf
    top1 = blocked.argmax(axis=-1)  # argmax takes the first maximum: lowest index on ties
    sel = np.zeros((n, n_experts), dtype=bool)
    sel[np.arange(n), forced] = True
    sel[np.arange(n), top1] = True

    if renormalize_pair:
        w = ad.softmax(logits, mask=sel)
    else:
        w = ad.mul(ad.softmax(logits), Tensor(sel.astype(logits.data.dtype)))
    y = _mix(rows, params, w, sel)
    if single:
        y = ad.reshape(y, (y.data.shape[-1],))
    idx = np.stack([forced, top1], axis=1)
    weights = np.take_along_axis(w.data, idx, axis=-1)
    return y, RoutingDecision(indices=idx, weights=weights, task_forced=forced.copy())


def load_balance_aux(x: Tensor, gate: Tensor, decision: RoutingDecision) -> Tensor:
    """Optional load-balancing penalty: n_e * sum_e f_e * mean_prob_e, where
    f_e is the share of selections routed to expert e. Equals 1 under
    perfectly uniform routing; off by default (coefficient 0)."""
    n_e = gate.shape[-1]
    probs = ad.softmax(ad.matmul(x, gate))
    f = np.bincount(decision.indices.ravel(), minlength=n_e).astype(probs.data.dtype)
    f *= n_e / max(decision.indices.size, 1)
    return ad.sum_(ad.mul(ad.mean_(probs, axis=0), Tensor(f)))


@dataclass
class UtilizationReport:
    """Aggregated routing statistics keyed by task name."""

    n_experts: int
    selection_counts: dict[str, np.ndarray]
    weight_sums: dict[str, np.ndarray]
    token_counts: dict[str, int]

    @property
    def tasks(self) -> list[str]:
        return sorted(self.selection_counts)

    def fraction(self, task: str, expert: int) -> float:
        """Share of the task's token-routings that selected this expert.
        Each token contributes K selections, so fractions sum to K per task."""
        return float(self.selection_counts[task][expert]) / self.token_counts[task]

    def mean_weight(self, task: str, expert: int) -> float:
        c = self.selection_counts[task][expert]
        return float(self.weight_sums[task][expert] / c) if c else 0.0

    def expert_load(self) -> np.ndarray:
        total = sum(self.selection_counts.values())
        return total / total.sum()

    def routing_entropy(self, task: str) -> float:
        c = self.selection_counts[task]
        p = c / c.sum()
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    def to_csv(self) -> str:
        lines = ["task,expert,fraction,mean_weight"]
        for task in self.tasks:
            for e in range(self.n_experts):
                lines.append(f"{task},{e},{self.fraction(task, e):.6f},{self.mean_weight(task, e):.6f}")
        return "\n".join(lines) + "\n"


def collect_route_stats(stream, n_experts: int | None = None) -> UtilizationReport:
    """Fold a stream of (task, RoutingDecision) pairs into a UtilizationReport.

    ``task`` may be a TaskId or a plain name string.
    """
    counts: dict[str, np.ndarray] = {}
    wsums: dict[str, np.ndarray] = {}
    tokens: dict[str, int] = {}
    width = n_experts or 0
    for task, decision in stream:
        name = getattr(task, "name", None) or str(task)
        width = max(width, int(decision.indices.max()) + 1)
        if name not in counts:
            counts[name] = np.zeros(width, dtype=np.int64)
            wsums[name] = np.zeros(width, dtype=np.float64)
            tokens[name] = 0
        elif counts[name].size < width:
            counts[name] = np.concatenate([counts[name], np.zeros(width - counts[name].size, dtype=np.int64)])
            wsums[name] = np.concatenate([wsums[name], np.zeros(width - wsums[name].size)])
        np.add.at(counts[name], decision.indices.ravel(), 1)
        np.add.at(wsums[name], decision.indices.ravel(), decision.weights.ravel())
        tokens[name] += decision.indices.shape[0]
    if not counts:
        raise ValueError("empty routing stream")
    for name in counts:  # pad tasks seen before the final width was known
        if counts[name].size < width:
            counts[name] = np.concatenate([counts[name], np.zeros(width - counts[name].size, dtype=np.int64)])
            wsums[name] = np.concatenate([wsums[name], np.zeros(width - wsums[name].size)])
    return UtilizationReport(width, counts, wsums, tokens)
