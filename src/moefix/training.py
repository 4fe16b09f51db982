"""Multi-task NLL training loop, AdamW with warmup+cosine schedule, checkpoints.

A run is deterministic given (config, dataset, seed): epoch shuffles and batch
boundaries derive statelessly from the seed, so resuming from a checkpoint
replays the exact uninterrupted trajectory.
"""
from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, clip_global_norm, zero_grads
from .corpus import Tokenizer, derive_seed
from .model import (ModelConfig, TransformerParams, build_params, forward, init_params,
                    named_tensors, require_finite)
from .moe import count_routes
from .tasks import ExpertMap, TaskRegistry, build_expert_map, format_prompt


class NumericalError(RuntimeError):
    """Training hit a non-finite loss or gradient; carries a dump of the offending batch."""


class CheckpointError(ValueError):
    """Checkpoint file is missing, malformed, or version-incompatible."""


class ScheduleMismatch(ValueError):
    """A resumed run's dataset gives another step count than its checkpoint's."""


class NoUsableSamples(ValueError):
    """A dataset has no sample that fits ``max_seq_len``: the message gives
    the number skipped as overlong."""

    def __init__(self, skipped: int) -> None:
        super().__init__(f"no usable samples ({skipped} skipped as overlong)")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    warmup_ratio: float = 0.1
    epochs: int = 3
    grad_clip: float = 1.0
    batch_size_tokens: int = 4096
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    task_routing: bool = True  # False = ablation: plain top-K routing in training

    def __post_init__(self) -> None:
        require_finite(self)
        positive = {"learning_rate": self.learning_rate, "epochs": self.epochs,
                    "grad_clip": self.grad_clip, "batch_size_tokens": self.batch_size_tokens,
                    "adam_eps": self.adam_eps}
        for name, value in positive.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("warmup_ratio", "adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Linear warmup to the peak rate, then cosine decay to zero."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = config.warmup_ratio * total_steps
    if step < warmup:
        return config.learning_rate * step / warmup
    if total_steps == warmup:
        return config.learning_rate
    progress = (step - warmup) / (total_steps - warmup)
    return config.learning_rate * 0.5 * (1.0 + float(np.cos(np.pi * progress)))


class AdamState:
    """First/second moment estimates per named parameter plus the step count."""

    def __init__(self, named) -> None:
        self.m = {name: np.zeros_like(t.data) for name, t in named}
        self.v = {name: np.zeros_like(t.data) for name, t in named}
        self.t = 0


def adamw_step(named, state: AdamState, lr: float, config: TrainConfig) -> None:
    """Decoupled-weight-decay Adam update; a missing gradient counts as zero
    (experts that routed no tokens this step still decay their moments).

    The ops are those of ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2)
    g^2`` and ``p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd p)``, in that
    order, over two temporaries per parameter."""
    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in named:
        m, v = state.m[name], state.v[name]
        if m.shape != p.data.shape:
            raise ad.ShapeError(f"optimizer state for {name} has shape {m.shape}, param {p.data.shape}")
        g = p.grad
        t = np.empty_like(m)
        m *= b1
        v *= b2
        if g is not None:
            np.multiply(g, 1.0 - b1, out=t)
            m += t
            np.square(g, out=t)
            t *= 1.0 - b2
            v += t
        np.divide(v, bc2, out=t)
        np.sqrt(t, out=t)
        t += config.adam_eps
        update = m / bc1
        update /= t
        np.multiply(p.data, config.weight_decay, out=t)
        update += t
        update *= lr
        p.data -= update


# --- sample encoding and batching -------------------------------------------

@dataclass
class EncodedSample:
    ids: np.ndarray
    mask: np.ndarray
    task_expert: int
    task_name: str
    seed: int


def encode_samples(samples, tokenizer: Tokenizer, expert_map: ExpertMap,
                   max_seq_len: int) -> tuple[list[EncodedSample], int]:
    """Format prompts; overlong sequences are skipped and counted, not truncated."""
    encoded = []
    skipped = 0
    for s in samples:
        ids, mask = format_prompt(tokenizer, s.task, s.hypotheses, target=s.target)
        if len(ids) > max_seq_len:
            skipped += 1
            continue
        encoded.append(EncodedSample(ids, mask, expert_map.expert_for(s.task), s.task.name, s.seed))
    return encoded, skipped


def usable_samples(ckpt: Checkpoint, samples) -> tuple[list[EncodedSample], int]:
    """``encode_samples`` at the checkpoint's tokenizer, expert map and
    ``max_seq_len``; raises NoUsableSamples when no sample fits."""
    encoded, skipped = encode_samples(samples, ckpt.tokenizer, ckpt.expert_map,
                                      ckpt.config.max_seq_len)
    if not encoded:
        raise NoUsableSamples(skipped)
    return encoded, skipped


def build_schedule(lengths, epochs: int, batch_size_tokens: int, seed: int) -> list[list[int]]:
    """All batches for the whole run, up front: per-epoch seeded shuffle, then
    greedy packing of raw sequence lengths up to the token budget."""
    batches: list[list[int]] = []
    n = len(lengths)
    for epoch in range(epochs):
        perm = np.random.default_rng(derive_seed(seed, _EPOCH_SALT, epoch)).permutation(n)
        current: list[int] = []
        current_tokens = 0
        for idx in perm:
            length = lengths[idx]
            if current and current_tokens + length > batch_size_tokens:
                batches.append(current)
                current, current_tokens = [], 0
            current.append(int(idx))
            current_tokens += length
        if current:
            batches.append(current)
    return batches


def make_batch_arrays(batch: list[EncodedSample], pad_id: int):
    """The batch's sequences back to back. Returns (ids, targets, mask,
    task_experts, lengths): ids [n]; targets [n], each row's next id in its
    own sequence (``pad_id`` after a sequence's last id); the loss mask [n],
    true where the *target* is a target-span token; then each sequence's task
    expert and length."""
    ids = np.concatenate([s.ids for s in batch])
    targets = np.concatenate([np.append(s.ids[1:], pad_id) for s in batch])
    mask = np.concatenate([np.append(s.mask[1:], False) for s in batch])
    task_experts = np.array([s.task_expert for s in batch], dtype=np.int64)
    lengths = np.array([len(s.ids) for s in batch], dtype=np.int64)
    return ids, targets, mask, task_experts, lengths


def nll_loss(params: TransformerParams, config: ModelConfig, batch_arrays,
             task_routing: bool = True):
    """Mean NLL over target tokens; task-forced routing unless ablated.

    The forward pass runs on the batch's packed rows, and its last layer's
    MoE, the final norm and the LM head on the loss rows only: each
    RoutingDecision has one row per token, the last one per loss row.
    Returns (loss Tensor, per-layer RoutingDecisions).
    """
    ids, targets, mask, task_experts, lengths = batch_arrays
    if ids.shape[0] == 0:
        raise ValueError("empty batch")
    logits, decisions = forward(params, config, ids, forced=task_experts if task_routing else None,
                                lengths=lengths, logit_rows=np.flatnonzero(mask))
    return ad.cross_entropy(logits, targets[mask]), decisions


# --- checkpoints -------------------------------------------------------------

MAGIC = b"NEKO"
VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

_EPOCH_SALT = 0x65  # 'e'
_MAP_SALT = 0x6D    # 'm'


@dataclass
class Checkpoint:
    """Everything needed to continue training or run inference."""

    config: ModelConfig
    params: TransformerParams
    registry: TaskRegistry
    tokenizer: Tokenizer
    expert_map: ExpertMap
    train_config: TrainConfig
    opt: AdamState
    step: int = 0
    total_steps: int = 0

    @property
    def dtype(self) -> str:
        """The parameters' precision, "f32" or "f64"."""
        return next(k for k, v in ad.DTYPES.items() if v == self.params.embedding.dtype)

    def named_params(self):
        return list(named_tensors(self.params))


def new_run(config: ModelConfig, train_config: TrainConfig, registry: TaskRegistry,
            tokenizer: Tokenizer, dtype: str = "f32") -> Checkpoint:
    if config.vocab_size != tokenizer.vocab_size:
        raise ValueError(f"config vocab {config.vocab_size} != tokenizer vocab {tokenizer.vocab_size}")
    params = init_params(config, seed=train_config.seed, dtype=dtype)
    expert_map = build_expert_map(registry, config.n_experts,
                                  seed=derive_seed(train_config.seed, _MAP_SALT))
    named = list(named_tensors(params))
    return Checkpoint(
        config=config, params=params, registry=registry,
        tokenizer=tokenizer, expert_map=expert_map, train_config=train_config,
        opt=AdamState(named), step=0, total_steps=0,
    )


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    tag = _DTYPE_TAGS[arr.dtype]
    fh.write(struct.pack("<BI", tag, arr.ndim))
    if arr.ndim:
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype=_TAG_DTYPES[tag]).tobytes())


def _read_exact(fh, n: int) -> bytes:
    """The next ``n`` bytes of the checkpoint ``fh``. A size past the end of
    the file is a CheckpointError naming it, raised before anything is
    allocated, so a corrupt size field cannot ask for more memory than the
    file holds."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CheckpointError(f"{fh.name}: truncated checkpoint: wanted {n} bytes, {left} left")
    return fh.read(n)


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
    try:
        name = _read_exact(fh, name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{fh.name}: malformed tensor name: {exc}") from None
    tag, rank = struct.unpack("<BI", _read_exact(fh, 5))
    if tag not in _TAG_DTYPES:
        raise CheckpointError(f"{fh.name}: unknown dtype tag {tag} for tensor {name!r}")
    shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank))
    dtype = _TAG_DTYPES[tag]
    # Python ints: a product of corrupt dimensions cannot wrap to a small size
    data = np.frombuffer(_read_exact(fh, math.prod(shape) * dtype.itemsize), dtype=dtype)
    return name, data.reshape(shape).astype(dtype.newbyteorder("="), copy=True)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``path`` atomically: the bytes go to a temporary file in the same
    directory, which is fsynced and then renamed over ``path``. A write that
    fails part way leaves any earlier file at ``path`` as it was."""
    entries = [(name, t.data) for name, t in ckpt.named_params()]
    entries += [(f"opt.m.{name}", ckpt.opt.m[name]) for name in ckpt.opt.m]
    entries += [(f"opt.v.{name}", ckpt.opt.v[name]) for name in ckpt.opt.v]
    header = {
        "model_config": asdict(ckpt.config),
        "dtype": ckpt.dtype,
        "tasks": ckpt.registry.names,
        "alphabet": ckpt.tokenizer.alphabet,
        "expert_map": ckpt.expert_map.to_dict(),
        "train_config": asdict(ckpt.train_config),
        "step": ckpt.step,
        "total_steps": ckpt.total_steps,
        "adam_t": ckpt.opt.t,
        "n_tensors": len(entries),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for name, arr in entries:
                _write_tensor(fh, name, arr)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# Each header key and the type of its JSON value.
_HEADER_TYPES = {"model_config": dict, "dtype": str, "tasks": list, "alphabet": str,
                 "expert_map": dict, "train_config": dict, "step": int, "total_steps": int,
                 "adam_t": int, "n_tensors": int}


def _config_from(path, cls, values: dict):
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:  # an unknown or missing field, or a bad value
        raise CheckpointError(f"{path}: bad {cls.__name__} in header: {exc}") from None


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``. Raises CheckpointError,
    naming the file, for a bad magic or version, a malformed or incomplete
    header (a value of the wrong type, an unknown dtype, step counters other
    than 0 <= step = adam_t <= total_steps, or an expert map without one
    expert id in range per task included), a missing, misshapen,
    truncated or other-precision tensor, or bytes after the last tensor. The
    parameters and optimizer moments are the arrays read, with no fresh
    initialisation."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4))
        try:
            header = json.loads(_read_exact(fh, header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: malformed header: {exc}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: malformed header: not a JSON object")
        missing = [key for key in _HEADER_TYPES if key not in header]
        if missing:
            raise CheckpointError(f"{path}: header is missing {', '.join(missing)}")
        for key, typ in _HEADER_TYPES.items():
            if type(header[key]) is not typ:  # exact: a bool is no int here
                raise CheckpointError(f"{path}: header key {key!r} must be a JSON "
                                      f"{typ.__name__}, got {header[key]!r}")
        dtype = header["dtype"]
        if dtype not in ad.DTYPES:
            raise CheckpointError(f"{path}: unknown dtype {dtype!r}")
        step, total = header["step"], header["total_steps"]
        if not 0 <= step <= total:
            raise CheckpointError(f"{path}: header key 'step' must be in [0, total_steps "
                                  f"{total}], got {step}")
        if header["adam_t"] != step:  # train takes one optimizer step per step
            raise CheckpointError(f"{path}: header key 'adam_t' must equal step {step}, "
                                  f"got {header['adam_t']}")
        tensors = {}
        for _ in range(header["n_tensors"]):
            name, arr = _read_tensor(fh)
            if arr.dtype != ad.DTYPES[dtype]:
                raise CheckpointError(f"{path}: tensor {name!r} is {arr.dtype}, "
                                      f"the header's dtype is {dtype}")
            tensors[name] = arr
        if fh.read(1):
            raise CheckpointError(f"{path}: unexpected bytes after the last of "
                                  f"{header['n_tensors']} tensors")

    config = _config_from(path, ModelConfig, header["model_config"])
    # headers written while training had a load-balance aux loss hold its
    # coefficient; its default, 0, changed nothing and is dropped
    if header["train_config"].pop("aux_loss_coeff", 0) != 0:
        raise CheckpointError(f"{path}: nonzero aux_loss_coeff, a removed load-balance loss")
    train_config = _config_from(path, TrainConfig, header["train_config"])
    tasks = header["tasks"]
    if not all(type(name) is str for name in tasks):
        raise CheckpointError(f"{path}: header key 'tasks' must list task names, got {tasks!r}")
    registry = TaskRegistry(tasks)
    tokenizer = Tokenizer(tasks, alphabet=header["alphabet"])
    if tokenizer.vocab_size != config.vocab_size:
        raise CheckpointError(f"{path}: header keys 'tasks' and 'alphabet' give a vocabulary "
                              f"of {tokenizer.vocab_size}, the model has {config.vocab_size}")
    emap = header["expert_map"]
    assignment, seed = emap.get("assignment"), emap.get("seed")
    if (type(assignment) is not list or len(assignment) != len(tasks) or type(seed) is not int
            or not all(type(e) is int and 0 <= e < config.n_experts for e in assignment)):
        raise CheckpointError(f"{path}: header key 'expert_map' must hold one expert id in "
                              f"[0, {config.n_experts}) per task and an integer seed, got {emap!r}")

    def read(key, shape):
        if key not in tensors:
            raise CheckpointError(f"{path}: missing tensor {key!r}")
        arr = tensors[key]
        if arr.shape != shape:
            raise CheckpointError(f"{path}: tensor {key!r} has shape {arr.shape}, expected {shape}")
        return arr

    params = build_params(config, read)
    opt = AdamState([])
    opt.t = header["adam_t"]
    for name, tensor in named_tensors(params):
        opt.m[name] = read(f"opt.m.{name}", tensor.data.shape)
        opt.v[name] = read(f"opt.v.{name}", tensor.data.shape)
    return Checkpoint(
        config=config, params=params, registry=registry, tokenizer=tokenizer,
        expert_map=ExpertMap.from_dict(emap), train_config=train_config, opt=opt,
        step=header["step"], total_steps=header["total_steps"],
    )


# --- the loop ----------------------------------------------------------------

def metrics_header(n_experts: int) -> list[str]:
    return ["step", "loss", "lr", "grad_norm", "tokens"] + [
        f"expert_load_{e}" for e in range(n_experts)]


@dataclass
class TrainResult:
    rows: list[dict]
    skipped_overlong: int


def _numerical_error(what: str, step: int, batch: list[EncodedSample]) -> NumericalError:
    dump = [(s.task_name, s.seed, len(s.ids)) for s in batch]
    return NumericalError(f"{what} at step {step}; batch (task, seed, len): {dump}")


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory in the process: blocks under
    32 MiB come from the heap, not from mmap, and the heap's top is trimmed
    only past 1 GiB free. A step frees its tape when its graph exits; without
    this, glibc handed those pages back to the kernel and the next step
    faulted them in again (on the default model, about 50K minor page faults
    and 100 ms of system time per step, against none with it). Decoding's
    prefill buffers churned the same way, so ``cli.main`` calls this before
    every command. The setting is process-wide and stays. A no-op on other C
    libraries."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def train(ckpt: Checkpoint, samples, on_step=None) -> TrainResult:
    """Run (or resume) training over ``samples``; returns per-step metric rows.

    Each step: zero grads, forward with the task route, backward, global-norm
    clip, AdamW at the scheduled rate. Aborts on a non-finite loss or gradient
    norm, before that step updates any weight.
    """
    cfg = ckpt.train_config
    encoded, skipped = usable_samples(ckpt, samples)
    schedule = build_schedule([len(s.ids) for s in encoded], cfg.epochs,
                              cfg.batch_size_tokens, cfg.seed)
    total_steps = len(schedule)
    if ckpt.total_steps and ckpt.total_steps != total_steps:
        raise ScheduleMismatch(f"checkpoint expects {ckpt.total_steps} total steps, "
                               f"dataset gives {total_steps}")
    ckpt.total_steps = total_steps
    named = ckpt.named_params()
    all_params = [t for _, t in named]
    pad_id = ckpt.tokenizer.pad_id
    n_experts = ckpt.config.n_experts
    rows: list[dict] = []
    _keep_freed_memory()

    for step in range(ckpt.step, total_steps):
        batch = [encoded[i] for i in schedule[step]]
        arrays = make_batch_arrays(batch, pad_id)
        lr = lr_at(step, total_steps, cfg)
        zero_grads(all_params)
        with Graph():
            loss, decisions = nll_loss(ckpt.params, ckpt.config, arrays,
                                       task_routing=cfg.task_routing)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise _numerical_error(f"non-finite loss {loss_value}", step, batch)
            ad.backward(loss)
        if cfg.task_routing:
            assert all(d.task_forced is not None for d in decisions)
        grad_norm = clip_global_norm([p for p in all_params if p.grad is not None], cfg.grad_clip)
        if not np.isfinite(grad_norm):  # checked before the update touches any weight
            raise _numerical_error(f"non-finite gradient norm {grad_norm}", step, batch)
        adamw_step(named, ckpt.opt, lr, cfg)
        ckpt.step = step + 1

        loads = sum(np.bincount(d.indices.ravel(), minlength=n_experts) for d in decisions)
        loads = loads / max(loads.sum(), 1)
        row = {"step": step, "loss": loss_value, "lr": lr, "grad_norm": grad_norm,
               "tokens": int(arrays[4].sum())}
        row.update({f"expert_load_{e}": float(loads[e]) for e in range(n_experts)})
        rows.append(row)
        if on_step is not None:
            on_step(row, ckpt)
    return TrainResult(rows=rows, skipped_overlong=skipped)


def route_stats_over(ckpt: Checkpoint, samples):
    """Inference-time routing statistics over a dataset, per task, and the
    number of samples skipped as overlong (as ``train`` skips them). The
    samples run in training's batches: one epoch of the checkpoint's schedule."""
    encoded, skipped = usable_samples(ckpt, samples)
    cfg = ckpt.train_config
    tasks = np.array([ckpt.registry.get(s.task_name).id for s in encoded])
    routed = []
    for batch in build_schedule([len(s.ids) for s in encoded], 1, cfg.batch_size_tokens, cfg.seed):
        ids, _, _, _, lengths = make_batch_arrays([encoded[i] for i in batch], ckpt.tokenizer.pad_id)
        _, decisions = forward(ckpt.params, ckpt.config, ids, lengths=lengths)
        routed += [(np.repeat(tasks[batch], lengths), d) for d in decisions]
    return count_routes(routed, ckpt.registry.names, ckpt.config.n_experts), skipped
