"""Reverse-mode automatic differentiation over dense numpy arrays.

A small tape-based engine sized for a CPU transformer: ops executed inside an
active ``Graph`` record themselves in creation order (which is a topological
order by construction), and ``backward`` replays the tape once in reverse.
Outside a graph the same ops run forward-only at plain numpy speed.

Precision is a runtime choice: parameters carry float32 by default, float64
when gradient checks need headroom. Parameter gradients accumulate across
backward calls until ``zero_grads``.
"""
from __future__ import annotations

import itertools
import threading

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_node_ids = itertools.count()
_tls = threading.local()


def _graph_stack() -> list["Graph"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def active_graph() -> "Graph | None":
    stack = _graph_stack()
    return stack[-1] if stack else None


class Graph:
    """Recording tape for one forward/backward pass, confined to one thread.

    The tape lives only inside the ``with`` block: on exit every recorded node
    drops its parents and its backward closure, so the activations the closures
    saved are freed with the graph and one step's tape never outlives it. The
    node outputs stay readable; ``backward`` on a node of an exited graph raises
    RuntimeError.
    """

    def __init__(self) -> None:
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Graph":
        _graph_stack().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _graph_stack().pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise RuntimeError("graphs must be exited in LIFO order")
        for node in self.nodes:
            node._parents = ()
            node._backward = _released
        return False


def _released(g):
    raise RuntimeError("backward through a node whose graph has exited")


def _coerce(data, dtype) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(DTYPES.get(dtype, dtype), copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """Dense n-d array, optionally a node in the differentiation graph.

    ``grad`` is None until a backward pass accumulates into it; None means zero.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None) -> None:
        self.data = _coerce(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_ids)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, id={self.node_id})"


def recording(parents: tuple) -> bool:
    """Whether an op on ``parents`` records itself: a graph is active and
    some parent needs a gradient. Ops that save work for their backward pass
    can skip saving it when this is False."""
    return active_graph() is not None and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(data)
    if recording(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
        active_graph().nodes.append(out)
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` of every parameter the scalar ``loss`` depends on.

    Walks the active graph's tape once, in reverse creation order. Intermediate
    gradients live in a per-call map; leaf (parameter) gradients accumulate
    into ``Tensor.grad`` so repeated calls inside one graph sum until
    ``zero_grads``. Raises RuntimeError when no graph is active or the graph
    that recorded ``loss`` has exited (its tape is gone).
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    graph = active_graph()
    seed = np.ones_like(loss.data)
    if loss._backward is None:
        # constant or parameter loss: nothing upstream depends on it
        if loss.requires_grad:
            _leaf_accumulate(loss, seed)
        return
    if graph is None or loss._backward is _released:
        raise RuntimeError("backward called outside the graph that recorded the loss")
    grads: dict[int, np.ndarray] = {id(loss): seed}
    for node in reversed(graph.nodes):
        gout = grads.pop(id(node), None)
        if gout is None:
            continue
        for parent, pgrad in zip(node._parents, node._backward(gout)):
            if pgrad is None or not parent.requires_grad:
                continue
            if parent._backward is not None:
                seen = grads.get(id(parent))
                grads[id(parent)] = pgrad if seen is None else seen + pgrad
            else:
                _leaf_accumulate(parent, pgrad)


def _leaf_accumulate(leaf: Tensor, g: np.ndarray) -> None:
    if leaf.grad is None:
        leaf.grad = np.zeros_like(leaf.data)
    leaf.grad += g


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. Norm accumulated in float64 regardless of
    parameter precision.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    params = list(params)
    total = 0.0
    for p in params:
        if p.grad is None:
            raise ValueError("clip_global_norm requires populated gradients")
        total += float(np.sum(np.square(p.grad, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = np.asarray(max_norm / norm, dtype=params[0].data.dtype)
        for p in params:
            p.grad *= scale
    return norm


def rms_norm_forward(x: np.ndarray, weight: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Root-mean-square normalization over the last axis with a learned
    scale: the normed rows ``x * r * weight`` and each row's scale r = 1 /
    rms, [..., 1]. A node that saves r rebuilds the normed rows bitwise from
    x; r is also all ``rms_norm_backward`` needs besides x.

    The ops are those of ``x * (1 / sqrt(sum(x^2) / d + eps)) * weight``, in
    that order, with each temporary reused in place."""
    h = np.square(x)
    r = np.add.reduce(h, axis=-1, keepdims=True)
    r /= x.shape[-1]
    r += eps
    np.sqrt(r, out=r)
    np.divide(1.0, r, out=r)
    np.multiply(x, r, out=h)
    h *= weight
    return h, r


def rms_norm_backward(g: np.ndarray, x: np.ndarray, weight: np.ndarray,
                      r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of x and weight of ``rms_norm_forward`` at output gradient
    ``g``, from x and the scale ``r`` it returned."""
    d = x.shape[-1]
    gw_term = g * weight
    # d/dx of x_i * r(x): r * g_i - x_i * r^3 * sum_j(g_j w_j x_j) / d
    s = (gw_term * x).sum(axis=-1, keepdims=True)
    gx = r * gw_term - x * (r**3) * (s / d)
    gw = (g * x * r).reshape(-1, d).sum(axis=0)
    return gx, gw


def take(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along the first axis; backward scatter-adds (duplicate ids sum)."""
    idx = np.asarray(idx)
    out = x.data[idx]

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _node(out, (x,), bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``targets`` over all rows.

    ``logits`` is [N, V] and ``targets`` integer ids [N]; callers pass the
    loss rows only. Fused log-softmax keeps the backward cheap.
    """
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"cross_entropy expects [N, V] logits, got shape {z.shape}")
    n, v = z.shape
    if n == 0:
        raise ValueError("cross_entropy: no rows to average over")
    targets = np.asarray(targets)
    if targets.min() < 0 or targets.max() >= v:
        bad = targets[(targets < 0) | (targets >= v)][0]
        raise ValueError(f"cross_entropy: target id {bad} outside vocabulary of size {v}")

    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=-1))
    nll = lse - z[np.arange(n), targets]
    out = np.asarray(nll.sum() / n, dtype=z.dtype)

    def bwd(g):
        p = np.exp(z - zmax)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        p *= g / n
        return (p,)

    return _node(out, (logits,), bwd)
