"""Fast tests of the benchmark itself, on a tiny model.

    python3 -m pytest perfbench -q
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
from moefix import metrics, model, training  # noqa: E402

TINY = bench.Sizes(
    model=dict(d_model=16, n_layers=1, n_heads=2, d_ff=16),
    train_samples_per_task=8, heldout_samples_per_task=4, eval_file_samples=4,
    batch_size_tokens=1024)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _run(workload, trace, tmp_path, seconds=0.3):
    return bench.run(workload, seed=3, seconds=seconds, trace=trace, sizes=TINY,
                     out_dir=str(tmp_path))


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.RUNNERS)


@pytest.mark.parametrize("workload", tuple(bench.RUNNERS))
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result, report = _run(workload, False, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["context"]["seed"] == 3 and report["context"]["numpy"]


@pytest.mark.parametrize("workload", tuple(bench.RUNNERS))
def test_traced_run_reports_every_layer_and_matches_untraced_numerics(workload, tmp_path):
    originals = (training.train, training.forward, model.forward_incremental,
                 metrics.correct_hypotheses, metrics.generate)
    result, report = _run(workload, True, tmp_path)
    assert result["correct"], report["problems"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("per_layer")
    assert all(report["probes"].values())
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["metrics"]["model.eos_share"]["value"] == 0.0
    # every module's time metric was measured on every workload
    assert all(m["value"] > 0 for name, m in result["metrics"].items() if m["unit"] == "ms")
    assert (training.train, training.forward, model.forward_incremental,
            metrics.correct_hypotheses, metrics.generate) == originals
    assert os.path.isfile(tmp_path / f"{workload}-seed3-spans.jsonl")


def test_pad_rows_are_counted_only_on_the_training_route(tmp_path):
    train, _ = _run("train", True, tmp_path)
    correct, _ = _run("correct", True, tmp_path)
    assert train["metrics"]["moe.pad_row_share"]["value"] > 0
    assert correct["metrics"]["moe.pad_row_share"]["value"] == 0.0


@pytest.mark.parametrize("workload", ["train", "correct"])
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    def texts(seed):
        inp = bench.setup(workload, seed, TINY, str(tmp_path))
        return [(s.task.name, s.hypotheses, s.target) for s in inp.train_samples + inp.heldout]

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)


def test_failed_operation_is_counted_and_the_loop_continues(tmp_path, monkeypatch):
    real = metrics.correct_hypotheses
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "correct_hypotheses", flaky)
    result, report = _run("correct", False, tmp_path)
    assert result["failed"] == 1
    assert result["attempted"] > 1
    assert "injected" in report["errors"][0]


def test_numerical_error_fails_the_remaining_steps(tmp_path, monkeypatch):
    real = training.nll_loss
    calls = {"n": 0}

    def diverging(*args, **kwargs):
        loss, decisions = real(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] >= 4:
            loss.data = loss.data * float("nan")
        return loss, decisions

    monkeypatch.setattr(training, "nll_loss", diverging)
    result, _ = _run("train", False, tmp_path, seconds=2.0)
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]


def test_checks_catch_wrong_outputs(tmp_path):
    inp = bench.setup("eval", 3, TINY, str(tmp_path))
    csv = bench.eval_call(inp.ckpt_path, inp.eval_files[0][0], str(tmp_path / "r.csv"))
    log = bench.OpLog(seconds=[1.0], items=[4], outputs=[(0, csv)])
    assert bench.check_eval(inp, log) == []
    lines = csv.splitlines()
    fields = lines[-1].split(",")
    fields[2] = "9.9999"
    log.outputs = [(0, "\n".join(lines[:-1] + [",".join(fields)]))]
    assert bench.check_eval(inp, log)
    log.outputs = [(0, csv), (0, csv.replace("overall", "total"))]
    assert bench.check_repeats(log)
    assert bench.check_train(inp, bench.OpLog(outputs=[(0, 4.0), (1, float("nan"))]))


def test_checks_catch_decodes_that_stop_early(tmp_path, monkeypatch):
    real = metrics.generate

    def early(*args, **kwargs):
        return real(*args, **kwargs)[:-3]

    monkeypatch.setattr(metrics, "generate", early)
    for workload in ("correct", "eval"):
        result, report = _run(workload, False, tmp_path)
        assert not result["correct"]
        assert any("budget" in p for p in report["problems"])


def test_word_edit_distance_agrees_with_moefix_wer():
    pairs = [("the cat sat", "the cat sat"), ("the cat sat", "a cat"),
             ("one two three four", "one three four five six"), ("a b", "")]
    for ref, hyp in pairs:
        expected = metrics.wer(ref, hyp).errors
        assert bench.word_edit_distance(bench._words(ref), bench._words(hyp)) == expected


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    value, pct = bench.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0
    assert bench.tail([1.0, 2.0, 3.0]) == (2.0, 50.0)


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
