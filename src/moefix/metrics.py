"""Word error rate, corpus BLEU, and corrector-vs-baseline evaluation."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import normalize_words
from .model import generate
from .tasks import format_prompt, parse_output

@dataclass
class WerBreakdown:
    """Edit counts of one hypothesis, or a sum of them: corpus WER is the
    WER of the summed counts, never a mean of per-sentence rates."""
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    reference_words: int = 0

    def __add__(self, other: WerBreakdown) -> WerBreakdown:
        return WerBreakdown(self.substitutions + other.substitutions,
                            self.deletions + other.deletions,
                            self.insertions + other.insertions,
                            self.reference_words + other.reference_words)

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        return self.errors / self.reference_words


def wer(reference: str, hypothesis: str) -> WerBreakdown:
    """Word-level minimum edit distance with a deterministic backtrace
    (ties prefer substitution, then deletion, then insertion)."""
    ref = normalize_words(reference)
    hyp = normalize_words(hypothesis)
    if not ref:
        raise ValueError(f"reference is empty after normalization: {reference!r}")

    n, m = len(ref), len(hyp)
    d = np.zeros((n + 1, m + 1), dtype=np.int64)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(
                d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]),
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
            )

    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i, j] == d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and d[i, j] == d[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerBreakdown(int(subs), dels, ins, n)


def _ngram_counts(words: list[str], n: int) -> Counter:
    return Counter(tuple(words[i:i + n]) for i in range(len(words) - n + 1))


def bleu(references: list[str], hypotheses: list[str], max_n: int = 4) -> float:
    """Corpus BLEU in [0, 100]: clipped n-gram precisions, brevity penalty,
    add-one smoothing when a higher-order precision count is zero. Orders with
    no hypothesis n-grams at all are skipped from the geometric mean."""
    if len(references) != len(hypotheses):
        raise ValueError(f"{len(references)} references vs {len(hypotheses)} hypotheses")
    if not references:
        raise ValueError("empty corpus")
    matched = [0] * max_n
    total = [0] * max_n
    ref_len = hyp_len = 0
    for ref_text, hyp_text in zip(references, hypotheses):
        ref = normalize_words(ref_text)
        hyp = normalize_words(hyp_text)
        ref_len += len(ref)
        hyp_len += len(hyp)
        for n in range(1, max_n + 1):
            hyp_counts = _ngram_counts(hyp, n)
            ref_counts = _ngram_counts(ref, n)
            total[n - 1] += sum(hyp_counts.values())
            matched[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())

    if hyp_len == 0 or total[0] == 0 or matched[0] == 0:
        return 0.0
    log_precisions = []
    for n in range(1, max_n + 1):
        m, t = matched[n - 1], total[n - 1]
        if t == 0:
            continue
        if m == 0 and n >= 2:
            m, t = m + 1, t + 1
        log_precisions.append(np.log(m / t))
    brevity = 1.0 if hyp_len >= ref_len else float(np.exp(1.0 - ref_len / hyp_len))
    return float(100.0 * brevity * np.exp(np.mean(log_precisions)))


@dataclass
class TaskScore:
    n_samples: int
    baseline_wer: float
    corrected_wer: float
    baseline_bleu: float | None = None
    corrected_bleu: float | None = None

    @property
    def relative_reduction(self) -> float | None:
        if self.baseline_wer <= 0:
            return None
        return (self.baseline_wer - self.corrected_wer) / self.baseline_wer


@dataclass
class EvalReport:
    per_task: dict[str, TaskScore]
    overall: TaskScore

    def rows(self) -> list[tuple[str, TaskScore]]:
        """Per-task scores in task-name order, then ``overall``."""
        return [*sorted(self.per_task.items()), ("overall", self.overall)]

    def to_csv(self) -> str:
        lines = ["task,n_samples,baseline_wer,corrected_wer,relative_reduction_pct,baseline_bleu,corrected_bleu"]
        for name, s in self.rows():
            rel = "" if s.relative_reduction is None else f"{100 * s.relative_reduction:.2f}"
            b_bleu = "" if s.baseline_bleu is None else f"{s.baseline_bleu:.2f}"
            c_bleu = "" if s.corrected_bleu is None else f"{s.corrected_bleu:.2f}"
            lines.append(f"{name},{s.n_samples},{s.baseline_wer:.4f},{s.corrected_wer:.4f},{rel},{b_bleu},{c_bleu}")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        with_bleu = self.overall.baseline_bleu is not None
        header = f"{'task':<10}{'n':>6}{'base WER':>10}{'corr WER':>10}{'rel red %':>11}"
        if with_bleu:
            header += f"{'base BLEU':>11}{'corr BLEU':>11}"
        lines = [header, "-" * len(header)]
        for name, s in self.rows():
            rel = "-" if s.relative_reduction is None else f"{100 * s.relative_reduction:.1f}"
            line = f"{name:<10}{s.n_samples:>6}{s.baseline_wer:>10.4f}{s.corrected_wer:>10.4f}{rel:>11}"
            if with_bleu:
                line += f"{s.baseline_bleu:>11.2f}{s.corrected_bleu:>11.2f}"
            lines.append(line)
        return "\n".join(lines)


def decode_budget(config, prompt) -> int:
    """Tokens left to decode after ``prompt`` within ``max_seq_len``; a prompt
    with a budget of 0 or less does not fit."""
    return config.max_seq_len - len(prompt)


def correct_hypotheses(params, config, tokenizer, task, hypotheses) -> str:
    """Greedy-decode a correction for one n-best list."""
    prompt, _ = format_prompt(tokenizer, task, hypotheses)
    budget = decode_budget(config, prompt)
    if budget <= 0:
        raise ValueError(f"prompt of {len(prompt)} tokens leaves no room to generate")
    cap = min(budget, 2 * max(len(h) for h in hypotheses) + 8)
    out = generate(params, config, prompt, max_new_tokens=cap, eos_id=tokenizer.eos_id)
    return parse_output(tokenizer, out)


def evaluate(samples, corrector, compute_bleu: bool = False) -> EvalReport:
    """Corpus-level WER of corrector output vs the first-hypothesis baseline.

    Each sample is corrected and scored once, into one record per sample:
    (target, hyp0, corrected, base breakdown, corrected breakdown). A task's
    score, and the overall one, sums the breakdowns of its records.
    """
    records: dict[str, list[tuple]] = {}
    for sample in samples:
        target, hyp0 = sample.target, sample.hypotheses[0]
        corrected = corrector(sample)
        records.setdefault(sample.task.name, []).append(
            (target, hyp0, corrected, wer(target, hyp0), wer(target, corrected)))
    if not records:
        raise ValueError("no samples to evaluate")

    def score(rows) -> TaskScore:
        refs, bases, corrs, base_wers, corr_wers = zip(*rows)
        s = TaskScore(n_samples=len(rows),
                      baseline_wer=sum(base_wers, WerBreakdown()).wer,
                      corrected_wer=sum(corr_wers, WerBreakdown()).wer)
        if compute_bleu:
            s.baseline_bleu = bleu(refs, bases)
            s.corrected_bleu = bleu(refs, corrs)
        return s

    per_task = {name: score(rows) for name, rows in records.items()}
    overall = score([r for name in sorted(records) for r in records[name]])
    return EvalReport(per_task=per_task, overall=overall)
