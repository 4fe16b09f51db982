"""The moefix benchmark: workloads, output checks, probes and metrics.

Import this module only after the BLAS thread cap is in the environment (run.py
does that): it imports numpy and moefix.

Workloads (see README.md for why each exists):
  train    optimizer steps through ``training.train`` at 4096-token batches
  correct  one closed-loop client calling ``metrics.correct_hypotheses``
  eval     ``moefix eval --bleu --csv`` run in process over held-out files

An untraced run reports the end-to-end metrics. A traced run wraps the moefix
functions listed in ``install`` (see tracer.py), reports per-layer metrics, and
then re-runs one short probe of every workload untraced and traced to show that
the wrappers change no numerics and to measure their overhead.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import math
import os
import platform
import resource
import shutil
import statistics
import string
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from moefix import autodiff, cli, corpus, metrics, model, tasks, training
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The default CLI corpus: three synthetic channels, 5-best lists, the bundled pool.
TASKS = ("asr", "ocr", "typo")
INTENSITY = 0.15
N_BEST = 5
# Weights are the seeded ``new_run`` weights at the default TrainConfig seed.
# Greedy decoding with them never emits EOS, so every request runs to its token
# budget and decode work depends on the inputs alone, not on training code.
MODEL_SEED = 0
TRAIN_DATA_SALT = 1
HELDOUT_DATA_SALT = 2
PROBE_EVAL_SAMPLES = 2
PROBE_TRAIN_SAMPLES = 64  # enough for one 4096-token batch
PROBE_STEPS = 2
EPOCHS = 30  # enough scheduled steps that a run never exhausts the schedule
WARMUP_STEPS = 2
SETUP_REPEATS = 3


@dataclass
class Sizes:
    """What the workloads are built from; the defaults are the benchmark."""

    model: dict = field(default_factory=dict)  # ModelConfig overrides; {} = default CLI model
    train_samples_per_task: int = 300
    heldout_samples_per_task: int = 60
    eval_file_samples: int = 8
    batch_size_tokens: int = 4096


@dataclass
class Inputs:
    workdir: str
    registry: tasks.TaskRegistry
    tokenizer: corpus.Tokenizer
    ckpt: training.Checkpoint
    train_samples: list = field(default_factory=list)
    heldout: list = field(default_factory=list)
    eval_files: list = field(default_factory=list)  # (path, samples)
    ckpt_path: str = ""


def setup(workload: str, seed: int, sizes: Sizes, workdir: str) -> Inputs:
    registry = tasks.TaskRegistry(TASKS)
    tokenizer = corpus.Tokenizer(registry.names)
    channels = {name: corpus.NoiseChannel(name, INTENSITY) for name in registry.names}
    pool = corpus.load_sentence_pool()
    config = model.ModelConfig(vocab_size=tokenizer.vocab_size, **sizes.model)
    train_config = training.TrainConfig(epochs=EPOCHS, seed=MODEL_SEED,
                                        batch_size_tokens=sizes.batch_size_tokens)
    inp = Inputs(workdir, registry, tokenizer,
                 training.new_run(config, train_config, registry, tokenizer))
    if workload == "train":
        inp.train_samples = corpus.build_mixture(
            registry, channels, pool, sizes.train_samples_per_task, N_BEST,
            corpus.derive_seed(seed, TRAIN_DATA_SALT)).samples
        return inp
    inp.heldout = corpus.build_mixture(
        registry, channels, pool, sizes.heldout_samples_per_task, N_BEST,
        corpus.derive_seed(seed, HELDOUT_DATA_SALT)).samples
    if workload == "eval":
        inp.ckpt_path = os.path.join(workdir, "model.ck")
        training.save_checkpoint(inp.ckpt, inp.ckpt_path)
        k = sizes.eval_file_samples
        for i in range(len(inp.heldout) // k):
            chunk = inp.heldout[i * k:(i + 1) * k]
            path = os.path.join(workdir, f"heldout_{i:03d}.jsonl")
            corpus.write_dataset(path, chunk)
            inp.eval_files.append((path, chunk))
    return inp


def prompt_and_budget(inp: Inputs, sample) -> tuple[np.ndarray, int]:
    """The prompt ids and the token budget ``correct_hypotheses`` decodes to."""
    prompt, _ = tasks.format_prompt(inp.tokenizer, sample.task, sample.hypotheses)
    cap = 2 * max(len(h) for h in sample.hypotheses) + 8
    return prompt, min(inp.ckpt.config.max_seq_len - len(prompt), cap)


# --- timed loops -------------------------------------------------------------

@dataclass
class OpLog:
    """Timed operations of one run; warm-up and probes are not in it."""

    seconds: list = field(default_factory=list)
    items: list = field(default_factory=list)    # tokens (train), tokens (correct), samples (eval)
    tokens: list = field(default_factory=list)   # decoded-token budget (correct, eval)
    outputs: list = field(default_factory=list)  # (input index, output)
    failed: int = 0
    errors: list = field(default_factory=list)
    warm_s: float = 0.0  # loop entry to the first timed operation

    @property
    def attempted(self) -> int:
        return len(self.seconds) + self.failed

    def fail(self, n: int = 1) -> None:
        self.failed += n
        self.errors.append(traceback.format_exc())


class _Stop(Exception):
    pass


def _record(tracer: Tracer | None, group: str | None) -> None:
    if tracer is not None:
        tracer.group = group


def run_train(inp: Inputs, seconds: float, tracer: Tracer | None = None) -> OpLog:
    """Closed loop of optimizer steps; step boundaries come from ``on_step``."""
    log = OpLog()
    ckpt = inp.ckpt
    entered = time.perf_counter()
    warm_left = WARMUP_STEPS
    mark = deadline = span = None

    def close_span():
        nonlocal span
        if span is not None:
            tracer.end_op(span)
            span = None

    def on_step(row, _):
        nonlocal warm_left, mark, deadline, span
        now = time.perf_counter()
        close_span()
        if deadline is None:
            warm_left -= 1
            if warm_left > 0:
                return
            log.warm_s = now - entered
            deadline = now + seconds
            _record(tracer, "workload")
        else:
            if mark is not None:
                log.seconds.append(now - mark)
                log.items.append(row["tokens"])
                log.outputs.append((row["step"], row["loss"]))
            if now >= deadline:
                raise _Stop
        if tracer is not None:
            span = tracer.begin_op("training.step")
        mark = time.perf_counter()

    try:
        while True:
            try:
                training.train(ckpt, inp.train_samples, on_step=on_step)
                break  # schedule exhausted
            except _Stop:
                break
            except training.NumericalError:
                close_span()
                left = deadline - time.perf_counter() if deadline else 0.0
                per_step = statistics.median(log.seconds) if log.seconds else math.inf
                log.fail(1 + max(0, int(left / per_step)))  # the window's remaining steps
                break
            except Exception:
                close_span()
                log.fail()
                ckpt.step += 1  # skip the batch and resume after it
                mark = None
                if ckpt.step >= ckpt.total_steps or (deadline and time.perf_counter() >= deadline):
                    break
    finally:
        _record(tracer, None)
    return log


def _timed_loop(log: OpLog, seconds: float, tracer, op_name: str, n_inputs: int, op) -> None:
    """Closed loop, one client: call ``op(i)`` on inputs 0, 1, ... (cycling)
    until ``seconds`` have passed. ``op`` returns (items, tokens, output)."""
    deadline = time.perf_counter() + seconds
    _record(tracer, "workload")
    try:
        i = 0
        while time.perf_counter() < deadline:
            k = i % n_inputs
            i += 1
            t0 = time.perf_counter()
            span = tracer.begin_op(op_name) if tracer else None
            try:
                items, tokens, output = op(k)
            except Exception:
                log.fail()
                continue
            finally:
                if span is not None:
                    tracer.end_op(span)
            log.seconds.append(time.perf_counter() - t0)
            log.items.append(items)
            log.tokens.append(tokens)
            log.outputs.append((k, output))
    finally:
        _record(tracer, None)


def correct_request(inp: Inputs, sample) -> str:
    ck = inp.ckpt
    return metrics.correct_hypotheses(ck.params, ck.config, inp.tokenizer,
                                      sample.task, sample.hypotheses)


def run_correct(inp: Inputs, seconds: float, tracer: Tracer | None = None) -> OpLog:
    """One waiting caller, one held-out n-best list per request, batch 1."""
    log = OpLog()
    entered = time.perf_counter()
    budgets = [prompt_and_budget(inp, s)[1] for s in inp.heldout]
    correct_request(inp, inp.heldout[0])  # warm-up
    log.warm_s = time.perf_counter() - entered

    def op(k):
        return budgets[k], budgets[k], correct_request(inp, inp.heldout[k])

    _timed_loop(log, seconds, tracer, "bench.request", len(inp.heldout), op)
    return log


def eval_call(ckpt_path: str, data_path: str, csv_path: str) -> str:
    """``moefix eval --bleu --csv`` in process; returns the CSV report."""
    argv = ["eval", "--checkpoint", ckpt_path, "--data", data_path, "--bleu", "--csv", csv_path]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"moefix eval exited with {code}")
    with open(csv_path, encoding="utf-8") as fh:
        return fh.read()


def run_eval(inp: Inputs, seconds: float, tracer: Tracer | None = None) -> OpLog:
    """Offline scoring: checkpoint load, dataset read, decode, WER and BLEU per call."""
    log = OpLog()
    entered = time.perf_counter()
    csv_path = os.path.join(inp.workdir, "report.csv")
    budgets = [sum(prompt_and_budget(inp, s)[1] for s in samples) for _, samples in inp.eval_files]
    eval_call(inp.ckpt_path, inp.eval_files[0][0], csv_path)  # warm-up
    log.warm_s = time.perf_counter() - entered

    def op(k):
        path, samples = inp.eval_files[k]
        return len(samples), budgets[k], eval_call(inp.ckpt_path, path, csv_path)

    _timed_loop(log, seconds, tracer, "bench.eval_call", len(inp.eval_files), op)
    return log


RUNNERS = {"train": run_train, "correct": run_correct, "eval": run_eval}


# --- output checks -----------------------------------------------------------

_PUNCT = str.maketrans("", "", string.punctuation)


def _words(text: str) -> list[str]:
    return text.lower().translate(_PUNCT).split()


def word_edit_distance(ref: list[str], hyp: list[str]) -> int:
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i]
        for j, h in enumerate(hyp, start=1):
            cur.append(min(prev[j - 1] + (r != h), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def baseline_wer(samples) -> dict[str, float]:
    """Count-aggregated WER of hypothesis 0 per task and overall."""
    errors: dict[str, int] = {}
    words: dict[str, int] = {}
    for s in samples:
        ref = _words(s.target)
        for key in (s.task.name, "overall"):
            errors[key] = errors.get(key, 0) + word_edit_distance(ref, _words(s.hypotheses[0]))
            words[key] = words.get(key, 0) + len(ref)
    return {key: errors[key] / words[key] for key in errors}


@contextlib.contextmanager
def decoded_lengths():
    """Record (length, EOS seen) of every ``metrics.generate`` call in the block.

    The checks use it outside the timed loop, in untraced runs too: the token
    counts behind ``throughput_per_s`` assume every decode runs to its budget.
    """
    real = metrics.generate
    seen = []

    def counting(params, config, prompt_ids, max_new_tokens, eos_id, top_k=None):
        ids = real(params, config, prompt_ids, max_new_tokens, eos_id, top_k)
        seen.append((len(ids), bool((ids == eos_id).any())))
        return ids

    metrics.generate = counting
    try:
        yield seen
    finally:
        metrics.generate = real


def decode_problems(inp: Inputs, samples, seen) -> list[str]:
    budgets = [prompt_and_budget(inp, s)[1] for s in samples]
    lengths = [n for n, _ in seen]
    bad = [] if lengths == budgets else [f"decoded {lengths} tokens, budgets are {budgets}"]
    if any(eos for _, eos in seen):
        bad.append("a decode emitted EOS")
    return bad


def check_train(inp: Inputs, log: OpLog) -> list[str]:
    return [f"non-finite loss {loss} at step {step}"
            for step, loss in log.outputs if not math.isfinite(loss)]


def check_repeats(log: OpLog) -> list[str]:
    first: dict[int, object] = {}
    bad = []
    for k, out in log.outputs:
        if first.setdefault(k, out) != out:
            bad.append(f"input {k}: output differs between repeats")
    return bad


def check_correct(inp: Inputs, log: OpLog) -> list[str]:
    bad = check_repeats(log)
    k, out = log.outputs[0]
    with decoded_lengths() as seen:  # one repeat even when the loop never wrapped
        again = correct_request(inp, inp.heldout[k])
    if again != out:
        bad.append(f"input {k}: output differs when the request is repeated")
    return bad + decode_problems(inp, [inp.heldout[k]], seen)


def check_eval(inp: Inputs, log: OpLog) -> list[str]:
    bad = check_repeats(log)
    for k, report in dict(log.outputs).items():
        expected = baseline_wer(inp.eval_files[k][1])
        rows = [line.split(",") for line in report.strip().splitlines()[1:]]
        got = {row[0]: row[2] for row in rows}
        if got != {key: f"{value:.4f}" for key, value in expected.items()}:
            bad.append(f"file {k}: baseline WER {got} != own Levenshtein {expected}")
    k, report = log.outputs[0]
    path, samples = inp.eval_files[k]
    with decoded_lengths() as seen:  # one repeat even when the loop never wrapped
        again = eval_call(inp.ckpt_path, path, os.path.join(inp.workdir, "check.csv"))
    if again != report:
        bad.append(f"file {k}: report differs when the call is repeated")
    return bad + decode_problems(inp, samples, seen)


CHECKS = {"train": check_train, "correct": check_correct, "eval": check_eval}


# --- tracing -----------------------------------------------------------------

def install(tr: Tracer) -> None:
    """Wrap each moefix function under the name its caller looks it up by."""
    c = tr.count
    batch = {"real": 0}

    for module, attr, name in (
        (corpus, "build_mixture", "corpus.build_mixture"),
        (corpus, "read_dataset", "corpus.read_dataset"),
        (training, "format_prompt", "tasks.format_prompt"),
        (metrics, "format_prompt", "tasks.format_prompt"),
        (training, "nll_loss", "training.nll_loss"),
        (training, "forward", "model.forward"),
        (model, "causal_attention", "model.causal_attention"),
        (training, "clip_global_norm", "autodiff.clip_global_norm"),
        (training, "adamw_step", "training.adamw_step"),
        (training, "save_checkpoint", "training.save_checkpoint"),
        (training, "load_checkpoint", "training.load_checkpoint"),
        (metrics, "evaluate", "metrics.evaluate"),
        (metrics, "wer", "metrics.wer"),
        (metrics, "bleu", "metrics.bleu"),
        (cli, "cmd_eval", "cli.cmd_eval"),
    ):
        tr.wrap(module, attr, name)

    def batch_made(pad_id, arrays):
        ids = arrays[0]
        batch["real"] = int((ids != pad_id).sum())
        c("batch_tokens", batch["real"])
        c("batch_slots", ids.size)
        c("batch_pads", ids.size - batch["real"])

    tr.wrap(training, "make_batch_arrays", "training.make_batch_arrays",
            before=lambda batch_, pad_id: pad_id, after=batch_made)

    def task_routed(n_experts, result):
        idx = result[1].indices
        rows = idx.shape[0]
        c("routed_rows", rows)
        c("pad_rows", max(0, rows - batch["real"]))
        per_expert = np.bincount(idx.ravel(), minlength=n_experts)
        c("expert_imbalance", per_expert.max() / per_expert.mean())

    tr.wrap(model, "moe_forward_task", "moe.moe_forward_task",
            before=lambda x, params, *a, **k: len(params.experts), after=task_routed)
    tr.wrap(model, "moe_forward_infer", "moe.moe_forward_infer",
            after=lambda _, result: c("routed_rows", result[1].indices.shape[0]))

    def tape_size(loss):
        graph = autodiff.active_graph()
        return len(graph.nodes) if graph is not None else 0

    tr.wrap(autodiff, "backward", "autodiff.backward",
            before=tape_size, after=lambda n, _: c("tape_nodes", n))

    def request_start(*args, **kwargs):
        return autodiff.Tensor(0).node_id, tr.counts[tr.group]["new_tokens"]

    def request_end(state, _):
        node0, tokens0 = state
        c("request_tensors", autodiff.Tensor(0).node_id - node0 - 1)
        c("request_new_tokens", tr.counts[tr.group]["new_tokens"] - tokens0)

    tr.wrap(metrics, "correct_hypotheses", "metrics.correct_hypotheses",
            before=request_start, after=request_end)

    def generated(eos_id, out):
        c("new_tokens", len(out))
        c("eos_stops", int(len(out) > 0 and out[-1] == eos_id))

    tr.wrap(metrics, "generate", "model.generate",
            before=lambda params, config, prompt_ids, max_new_tokens, eos_id, top_k=None: eos_id,
            after=generated)

    def step_start(params, config, new_tokens, cache, top_k=None):
        kv = list(getattr(cache, "k", ())) + list(getattr(cache, "v", ()))
        return cache.length, len(new_tokens), cache, kv

    def step_end(state, _):
        length, n_new, cache, kv_before = state
        if length == 0:
            c("prompt_tokens", n_new)
        # Bytes copied, computed from cache shapes: a cache array replaced by a
        # new object was copied whole (np.concatenate); one written in place was not.
        kv_after = list(getattr(cache, "k", ())) + list(getattr(cache, "v", ()))
        c("kv_copy_bytes", sum(a.nbytes for a, b in zip(kv_after, kv_before)
                               if b is not None and a is not b))

    tr.wrap(model, "forward_incremental",
            lambda state: "model.prefill" if state[0] == 0 else "model.decode_step",
            before=step_start, after=step_end)


def _per_call_ms(st, span):
    calls, total = st.get(span, (0, 0.0))
    return 1000.0 * total / calls if calls else None


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(tr: Tracer, group: str) -> dict:
    """Per-layer metric -> (value or None when the group never ran it, unit)."""
    st = tr.self_times(group)
    c = tr.counts[group]
    calls = {name: n for name, (n, _) in st.items()}
    ms = lambda span: (_per_call_ms(st, span), "ms")  # noqa: E731
    moe_infer_s = st.get("moe.moe_forward_infer", (0, 0.0))[1]
    return {
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.tape_nodes": (_ratio(c["tape_nodes"], calls.get("autodiff.backward")), "count"),
        "autodiff.clip_ms": ms("autodiff.clip_global_norm"),
        "autodiff.tensors_per_token": (_ratio(c["request_tensors"], c["request_new_tokens"]), "count"),
        "moe.task_ms": ms("moe.moe_forward_task"),
        "moe.infer_ms": (_ratio(1000.0 * moe_infer_s, c["new_tokens"]), "ms"),
        "moe.pad_row_share": (_ratio(c["pad_rows"], c["routed_rows"]), "ratio"),
        "moe.expert_rows_max_over_mean": (
            _ratio(c["expert_imbalance"], calls.get("moe.moe_forward_task")), "ratio"),
        "model.forward_ms": ms("model.forward"),
        "model.attention_ms": ms("model.causal_attention"),
        "model.prefill_ms": ms("model.prefill"),
        "model.decode_step_ms": ms("model.decode_step"),
        "model.kv_copy_bytes": (_ratio(c["kv_copy_bytes"], calls.get("model.decode_step")), "bytes"),
        "model.prompt_tokens": (_ratio(c["prompt_tokens"], calls.get("model.prefill")), "count"),
        "model.new_tokens": (_ratio(c["new_tokens"], calls.get("model.generate")), "count"),
        "model.eos_share": (_ratio(c["eos_stops"], calls.get("model.generate")), "ratio"),
        "tasks.format_prompt_ms": ms("tasks.format_prompt"),
        "corpus.build_mixture_ms": ms("corpus.build_mixture"),
        "corpus.read_dataset_ms": ms("corpus.read_dataset"),
        "training.batch_ms": ms("training.make_batch_arrays"),
        "training.loss_ms": ms("training.nll_loss"),
        "training.adamw_ms": ms("training.adamw_step"),
        "training.step_other_ms": ms("training.step"),
        "training.tokens_per_step": (
            _ratio(c["batch_tokens"], calls.get("training.make_batch_arrays")), "count"),
        "training.pad_share": (_ratio(c["batch_pads"], c["batch_slots"]), "ratio"),
        "training.load_checkpoint_ms": ms("training.load_checkpoint"),
        "training.save_checkpoint_ms": ms("training.save_checkpoint"),
        "metrics.correct_ms": ms("metrics.correct_hypotheses"),
        "metrics.wer_ms": ms("metrics.wer"),
        "metrics.bleu_ms": ms("metrics.bleu"),
        "cli.eval_self_ms": ms("cli.cmd_eval"),
    }


# --- probes: traced against untraced on one short op of every workload ---------

def _params_digest(params) -> str:
    h = hashlib.sha256()
    for t in model.parameters(params):
        h.update(t.data.tobytes())
    return h.hexdigest()


def probe_train(inp: Inputs, tracer: Tracer | None):
    ck = training.new_run(inp.ckpt.config, inp.ckpt.train_config, inp.registry, inp.tokenizer)
    losses = []
    span = None

    def on_step(row, _):
        nonlocal span
        if span is not None:
            tracer.end(span)
            span = None
        losses.append(row["loss"])
        if len(losses) == PROBE_STEPS:
            raise _Stop
        if tracer is not None:  # the first step also encodes the dataset: left out
            span = tracer.begin("training.step")

    try:
        training.train(ck, (inp.train_samples or inp.heldout)[:PROBE_TRAIN_SAMPLES],
                       on_step=on_step)
    except _Stop:
        pass
    return np.array(losses).tobytes(), _params_digest(ck.params)


def probe_correct(inp: Inputs, tracer: Tracer | None):
    sample = (inp.heldout or inp.train_samples)[0]
    prompt, budget = prompt_and_budget(inp, sample)
    text = correct_request(inp, sample)
    ck = inp.ckpt
    ids = metrics.generate(ck.params, ck.config, prompt, budget, inp.tokenizer.eos_id)
    return text, ids.tobytes()


def run_probes(inp: Inputs, tr: Tracer) -> dict[str, bool]:
    """Run each workload's probe untraced (nothing wrapped), then traced;
    returns whether the two gave equal outputs."""
    data_path = os.path.join(inp.workdir, "probe.jsonl")
    ckpt_path = os.path.join(inp.workdir, "probe.ck")
    csv_path = os.path.join(inp.workdir, "probe.csv")
    with tr.recording("check"):
        corpus.write_dataset(data_path, (inp.heldout or inp.train_samples)[:PROBE_EVAL_SAMPLES])
        training.save_checkpoint(inp.ckpt, ckpt_path)
    probes = {
        "train": lambda tracer: probe_train(inp, tracer),
        "correct": lambda tracer: probe_correct(inp, tracer),
        "eval": lambda tracer: eval_call(ckpt_path, data_path, csv_path),
    }
    equal = {}
    for name, probe in probes.items():
        tr.restore()
        plain = probe(None)
        install(tr)
        with tr.recording("check"):
            equal[name] = probe(tr) == plain
    return equal


# --- metrics and context ----------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile); the median when fewer than 22 samples exist."""
    v = sorted(values)
    n = len(v)
    idx = n - 11
    if idx < n / 2:
        return statistics.median(v), 50.0
    return v[idx], 100.0 * (idx + 1) / n


def rate(items: list, seconds: list) -> float:
    """Items per second of operation time over the whole run. On a shared host
    whose speed drifts over minutes, this ratio of sums spread less from run to
    run than the median of per-operation rates (see README.md, Baseline)."""
    return sum(items) / sum(seconds)


def end_to_end(log: OpLog, setup_s: float) -> dict:
    t, pct = tail(log.seconds)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "throughput_per_s": (rate(log.items, log.seconds), "1/s"),
        "op_ms.p50": (1000.0 * statistics.median(log.seconds), "ms"),
        "op_ms.tail": (1000.0 * t, "ms"),
    }


def aliases(workload: str, log: OpLog) -> dict:
    """The workload's end-to-end figures under their workload-specific names."""
    n = len(log.seconds)
    p50 = 1000.0 * statistics.median(log.seconds)
    t, pct = tail(log.seconds)
    if workload == "train":
        return {"train.tokens_per_s": (rate(log.items, log.seconds), "tok/s"),
                "train.step_ms.p50": (p50, "ms"),
                "train.loss_final": (log.outputs[-1][1], "nats/token")}
    ms_per_token = 1000.0 / rate(log.tokens, log.seconds)
    if workload == "correct":
        return {"correct.request_ms.p50": (p50, "ms"),
                f"correct.request_ms.tail (p{pct:.1f}, n={n})": (1000.0 * t, "ms"),
                "correct.ms_per_token": (ms_per_token, "ms")}
    return {"eval.samples_per_s": (rate(log.items, log.seconds), "samples/s"),
            "eval.call_ms.p50": (p50, "ms"), "eval.ms_per_token": (ms_per_token, "ms")}


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.restype = ctypes.c_int
                return int(get())
    return None


def context(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = None
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    return {
        "git_sha": _git_sha(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "seed": seed,
    }


# --- one run ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: str,
        sizes: Sizes | None = None, started: float | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full report).

    Scratch files and the spans of a traced run go under ``out_dir``.
    ``started`` is the perf_counter reading at process start; set-up time counts
    from it (imports included) to the first timed operation.
    """
    sizes = sizes or Sizes()
    entered = time.perf_counter()
    imports_s = entered - started if started is not None else 0.0
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    tracer = Tracer() if trace else None
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "context": context(seed)}
    try:
        if tracer is not None:
            install(tracer)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _record(tracer, "workload")
            inp = setup(workload, seed, sizes, workdir)
            _record(tracer, None)
            setup_times.append(time.perf_counter() - t0)
        log = RUNNERS[workload](inp, seconds, tracer)
        problems = CHECKS[workload](inp, log) if log.seconds else ["no operation succeeded"]
        if tracer is not None:
            probes = run_probes(inp, tracer)
            problems += [f"probe {name}: traced and untraced outputs differ"
                         for name, equal in probes.items() if not equal]
            counted = tracer.counts["workload"]["new_tokens"]
            if workload != "train" and counted != sum(log.tokens):
                problems.append(f"decoded {counted:.0f} tokens, budgets sum to {sum(log.tokens)}")
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    report.update(attempted=log.attempted, failed=log.failed, problems=problems,
                  errors=log.errors[:5], setup_repeats_s=setup_times)
    if log.seconds:
        report["aliases"] = aliases(workload, log)
        report["tail"] = {"percentile": tail(log.seconds)[1], "n": len(log.seconds)}
    if tracer is None:
        setup_s = imports_s + statistics.median(setup_times) + log.warm_s
        values = end_to_end(log, setup_s) if log.seconds else {}
    else:
        own = layer_metrics(tracer, "workload")
        fallback = layer_metrics(tracer, "check")
        report["from_probes"] = sorted(k for k, (v, _) in own.items() if v is None)
        values = {k: own[k] if own[k][0] is not None else fallback[k] for k in own}
        missing = sorted(k for k, (v, _) in values.items() if v is None)
        if missing:
            problems.append(f"no spans for {missing}")
        values = {k: (v if v is not None else 0.0, unit) for k, (v, unit) in values.items()}
        if log.seconds:
            values["trace.throughput_per_s"] = (rate(log.items, log.seconds), "1/s")
        report["probes"] = probes
        report["self_times"] = {name: {"calls": n, "self_ms": 1000.0 * s}
                                for name, (n, s) in sorted(tracer.self_times("workload").items())}
        tracer.write_spans(os.path.join(out_dir, f"{workload}-seed{seed}-spans.jsonl"))
    result = {"correct": not problems, "attempted": log.attempted, "failed": log.failed,
              "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}}
    report["result"] = result
    return result, report
