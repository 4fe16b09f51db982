"""Task set, the random task-to-expert mapping, and prompt construction.

Each registered task owns a tag token (``<asr>``, ``<ocr>``, ...) and a fixed
expert index drawn once per model. Prompts lay out the corrupted hypotheses as
conditioning and mask the loss to the target span only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TaskId:
    name: str
    id: int


class TaskRegistry:
    """Ordered, immutable set of tasks with contiguous ids from 0."""

    def __init__(self, names) -> None:
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task names in {names}")
        if not names:
            raise ValueError("at least one task is required")
        self._tasks = [TaskId(name, i) for i, name in enumerate(names)]
        self._by_name = {t.name: t for t in self._tasks}

    def __iter__(self):
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def names(self) -> list[str]:
        return [t.name for t in self._tasks]

    def get(self, name: str) -> TaskId:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown task {name!r}; registered: {self.names}") from None

    @staticmethod
    def tag(task: TaskId) -> str:
        return f"<{task.name}>"


@dataclass(frozen=True)
class ExpertMap:
    """The task -> expert assignment, fixed at model creation."""

    assignment: tuple[int, ...]  # indexed by task id
    seed: int

    def expert_for(self, task: TaskId) -> int:
        return self.assignment[task.id]

    def to_dict(self) -> dict:
        return {"assignment": list(self.assignment), "seed": self.seed}

    @staticmethod
    def from_dict(d: dict) -> "ExpertMap":
        return ExpertMap(tuple(int(e) for e in d["assignment"]), int(d["seed"]))


def build_expert_map(tasks, n_experts: int, seed: int) -> ExpertMap:
    """Randomly assign each task to an expert, injectively while tasks fit;
    beyond that, round-robin over a seeded permutation."""
    tasks = list(tasks)
    if n_experts < 2:
        raise ValueError(f"need at least 2 experts, got {n_experts}")
    rng = np.random.default_rng(seed)
    m = len(tasks)
    if m <= n_experts:
        chosen = rng.choice(n_experts, size=m, replace=False)
    else:
        perm = rng.permutation(n_experts)
        chosen = np.array([perm[i % n_experts] for i in range(m)])
    return ExpertMap(tuple(int(e) for e in chosen), seed)


INSTRUCTION = "correct:"
HYP_SEP = "<hyp>"
TARGET_SEP = "<out>"


def format_prompt(
    tokenizer,
    task: TaskId,
    hypotheses,
    target: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Token ids and loss mask for one correction sample.

    Layout: [task-tag] instruction ([hyp-sep] hypothesis)+ [target-sep]
    (target [eos] when training). The mask is True only on target tokens and
    the closing EOS; conditioning tokens never contribute loss.
    """
    hypotheses = list(hypotheses)
    if not hypotheses:
        raise ValueError("at least one hypothesis is required")
    ids: list[int] = [tokenizer.special_id(TaskRegistry.tag(task))]
    ids.extend(tokenizer.encode(INSTRUCTION))
    hyp_sep = tokenizer.special_id(HYP_SEP)
    for hyp in hypotheses:
        ids.append(hyp_sep)
        ids.extend(tokenizer.encode(hyp))
    ids.append(tokenizer.special_id(TARGET_SEP))
    mask = [False] * len(ids)
    if target is not None:
        target_ids = tokenizer.encode(target)
        ids.extend(target_ids)
        ids.append(tokenizer.eos_id)
        mask.extend([True] * (len(target_ids) + 1))
    return np.array(ids, dtype=np.int64), np.array(mask, dtype=bool)


def parse_output(tokenizer, generated: np.ndarray) -> str:
    """Decode generated ids up to the first EOS, dropping special tokens."""
    kept: list[int] = []
    for tok in np.asarray(generated).tolist():
        if tok == tokenizer.eos_id:
            break
        if not tokenizer.is_special(tok):
            kept.append(tok)
    return tokenizer.decode(kept)
