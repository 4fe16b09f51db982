import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from moefix import cli
from moefix import training as tr
from moefix.cli import ConfigError, main, parse_config_file, resolve_config

from helpers import rewrite_header


TINY = """
# tiny end-to-end settings
tasks = asr,ocr,typo
samples_per_task = 10
n_best = 2
intensity = 0.2
pool_size = 8
d_model = 8
n_layers = 1
n_heads = 2
d_ff = 8
n_experts = 2
top_k = 2
max_seq_len = 128
epochs = 2
batch_size_tokens = 256
learning_rate = 2e-3
seed = 1
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def child_env(env: dict) -> dict:
    """``env`` with the directory that holds the moefix package first on
    PYTHONPATH, so a child interpreter imports the code under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}


def run_cli(*argv):
    return main(list(argv))


def with_foreign_character(data, path):
    """Copy the dataset ``data`` to ``path`` with an 'é' in the second
    record's first hypothesis; returns the path."""
    lines = data.read_text().splitlines()
    record = json.loads(lines[1])
    record["hypotheses"][0] += " caf\u00e9"
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return path


def overlong_dataset(path, n):
    """Write ``n`` records to ``path`` whose one hypothesis alone is over
    ``TINY``'s max_seq_len; returns the path."""
    path.write_text("".join(json.dumps({"task": "asr", "hypotheses": ["the cat sleeps " * 20],
                                        "target": "the cat", "seed": i}) + "\n"
                            for i in range(n)))
    return path


def assert_foreign_character_named(code, captured, where):
    assert code == 2
    assert captured.out == ""  # rejected before any output
    assert f"{where}: character 'é' is not in the tokenizer alphabet" in captured.err


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense_key = 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(str(path))

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("# comment\nepochs = many\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config_file(str(path))

    def test_key_given_twice_rejected(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text(TINY + "samples_per_task = 1\n")
        code = run_cli("--config", str(path), "gen-data", "--out", str(tmp_path / "d.jsonl"))
        assert code == 2
        assert "'samples_per_task' given twice (lines 4 and 19)" in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs 3\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(str(path))

    def test_full_defaulting(self):
        args = cli.build_parser().parse_args(["gen-data", "--out", "x"])
        cfg = resolve_config(args)
        assert cfg["d_model"] == 128 and cfg["epochs"] == 3
        assert cli.task_names(cfg) == ["asr", "ocr", "typo"]

    def test_cli_seed_override(self, tiny_config):
        args = cli.build_parser().parse_args(["--config", tiny_config, "--seed", "99",
                                              "gen-data", "--out", "x"])
        assert resolve_config(args)["seed"] == 99

    def test_bad_exit_code_on_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        code = run_cli("--config", str(path), "gen-data", "--out", str(tmp_path / "d.jsonl"))
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_removed_aux_loss_coeff_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "aux.cfg"
        path.write_text("aux_loss_coeff = 0.0\n")
        code = run_cli("--config", str(path), "gen-data", "--out", str(tmp_path / "d.jsonl"))
        assert code == 2
        assert "unknown config key 'aux_loss_coeff'" in capsys.readouterr().err

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("NEKO_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        cli._cap_threads([])
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_deterministic_flag_caps_threads_before_numpy_loads(self, tiny_config, tmp_path):
        assert _deterministic_thread_vars(tiny_config, tmp_path, {}) == ["1"] * 4

    def test_deterministic_flag_overrides_thread_settings(self, tiny_config, tmp_path):
        preset = {"NEKO_THREADS": "2", "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
        assert _deterministic_thread_vars(tiny_config, tmp_path, preset) == ["1"] * 4


def _deterministic_thread_vars(config_path, tmp_path, preset):
    """The BLAS thread variables after ``main(['--deterministic', ...])`` in a
    fresh process whose environment holds ``preset``. The flag is read from
    main's argv, not sys.argv, and the cap is set while numpy is still
    unloaded, so BLAS reads it."""
    script = (
        "import os, sys\n"
        "import moefix.cli\n"
        "assert 'numpy' not in sys.modules, 'importing moefix.cli loaded numpy'\n"
        "sys.argv = ['moefix']\n"
        f"code = moefix.cli.main(['--config', {config_path!r}, '--deterministic',\n"
        f"                        'gen-data', '--out', {str(tmp_path / 'd.jsonl')!r}])\n"
        "assert code == 0, code\n"
        "print(*(os.environ.get(v) for v in moefix.cli._THREAD_VARS))\n"
    )
    env = {k: v for k, v in os.environ.items()
           if k != "NEKO_THREADS" and k not in cli._THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env({**env, **preset}))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


class TestGenData:
    def test_writes_all_tasks_and_counts(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        assert run_cli("--config", tiny_config, "gen-data", "--out", str(out)) == 0
        text = capsys.readouterr().out
        for name in ("asr", "ocr", "typo"):
            assert f"{name}: 10 samples" in text
        assert len(out.read_text().splitlines()) == 30

    def test_reproducible_files(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("--config", tiny_config, "gen-data", "--out", str(a))
        run_cli("--config", tiny_config, "gen-data", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, tiny_config, tmp_path, capsys):
        assert run_cli("--config", tiny_config, "gen-data",
                       "--out", str(tmp_path / "no" / "dir.jsonl")) == 2

    @pytest.mark.parametrize("line,key", [("pool_size = -3", "pool_size"),
                                          ("samples_per_task = -1", "samples_per_task"),
                                          ("samples_per_task = 0", "samples_per_task")])
    def test_bad_corpus_value_exits_2_naming_the_key(self, tmp_path, capsys, line, key):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY + line + "\n")
        out = tmp_path / "d.jsonl"
        assert run_cli("--config", str(path), "gen-data", "--out", str(out)) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture
def trained_run(tiny_config, tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    data = root / "data.jsonl"
    out = root / "out"
    run_cli("--config", tiny_config, "gen-data", "--out", str(data))
    code = run_cli("--config", tiny_config, "train", "--data", str(data),
                   "--out-dir", str(out))
    assert code == 0
    return tiny_config, data, out


DEFAULT_RESOLVED = (
    "tasks = asr,ocr,typo\n"
    "intensity = 0.15\n"
    "n_best = 5\n"
    "samples_per_task = 300\n"
    "pool_path = \n"
    "pool_size = 0\n"
    "data_seed = 1\n"
    "d_model = 128\n"
    "n_layers = 4\n"
    "n_heads = 4\n"
    "d_ff = 256\n"
    "n_experts = 4\n"
    "top_k = 2\n"
    "max_seq_len = 384\n"
    "rope_base = 10000.0\n"
    "rms_eps = 1e-05\n"
    "learning_rate = 0.0001\n"
    "weight_decay = 0.01\n"
    "warmup_ratio = 0.1\n"
    "epochs = 3\n"
    "grad_clip = 1.0\n"
    "batch_size_tokens = 4096\n"
    "adam_beta1 = 0.9\n"
    "adam_beta2 = 0.999\n"
    "adam_eps = 1e-08\n"
    "seed = 0\n"
    "task_routing = True\n"
    "checkpoint_interval = 0\n"
    "precision = f32\n"
)


class TestTrain:
    def test_default_config_resolved_is_pinned(self, tmp_path):
        data_cfg = tmp_path / "data.cfg"
        data_cfg.write_text(TINY.replace("samples_per_task = 10", "samples_per_task = 1"))
        data = tmp_path / "data.jsonl"
        assert run_cli("--config", str(data_cfg), "gen-data", "--out", str(data)) == 0
        out = tmp_path / "out"
        assert run_cli("train", "--data", str(data), "--out-dir", str(out)) == 0
        assert (out / "config.resolved").read_text() == DEFAULT_RESOLVED

    def test_bad_adam_beta_exits_2_before_any_checkpoint(self, tiny_config, tmp_path, capsys):
        # a beta of 1 zeroes Adam's bias correction: the first update wrote
        # non-finite weights to the interval checkpoint, then the next loss
        # blamed its batch
        data = tmp_path / "data.jsonl"
        assert run_cli("--config", tiny_config, "gen-data", "--out", str(data)) == 0
        path = tmp_path / "beta.cfg"
        path.write_text(TINY + "adam_beta1 = 1.0\ncheckpoint_interval = 1\n")
        out = tmp_path / "out"
        code = run_cli("--config", str(path), "train", "--data", str(data), "--out-dir", str(out))
        assert code == 2
        assert "adam_beta1 must be in [0, 1)" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.ck"))

    def test_negative_checkpoint_interval_exits_2(self, tiny_config, tmp_path, capsys):
        # step % -1 == 0 made every step write an interval checkpoint
        data = tmp_path / "data.jsonl"
        assert run_cli("--config", tiny_config, "gen-data", "--out", str(data)) == 0
        path = tmp_path / "interval.cfg"
        path.write_text(TINY + "checkpoint_interval = -1\n")
        out = tmp_path / "out"
        code = run_cli("--config", str(path), "train", "--data", str(data), "--out-dir", str(out))
        assert code == 2
        assert "checkpoint_interval" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.ck"))

    def test_negative_log_every_exits_2(self, tiny_config, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        assert run_cli("--config", tiny_config, "gen-data", "--out", str(data)) == 0
        code = run_cli("--config", tiny_config, "train", "--data", str(data),
                       "--out-dir", str(tmp_path / "o"), "--log-every", "-1")
        assert code == 2
        assert "--log-every must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_top_k_1_with_several_experts_exits_2(self, tiny_config, tmp_path, capsys):
        # with two or more experts, K = 1 gives the gate no gradient
        data = tmp_path / "data.jsonl"
        assert run_cli("--config", tiny_config, "gen-data", "--out", str(data)) == 0
        path = tmp_path / "k1.cfg"
        path.write_text(TINY.replace("n_experts = 2\ntop_k = 2", "n_experts = 4\ntop_k = 1"))
        code = run_cli("--config", str(path), "train", "--data", str(data),
                       "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "top_k must be in [2, 4] for 4 experts, got 1" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.ck"))

    def test_resume_with_a_malformed_metrics_row_names_file_and_line(self, tiny_config,
                                                                      tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli("--config", tiny_config, "gen-data", "--out", str(data))
        cfg_interval = tmp_path / "cfg_interval.cfg"
        cfg_interval.write_text(TINY + "checkpoint_interval = 3\n")
        out = tmp_path / "run"
        assert run_cli("--config", str(cfg_interval), "train", "--data", str(data),
                       "--out-dir", str(out)) == 0
        metrics = out / "metrics.csv"
        lines = metrics.read_text().splitlines()
        lines[3] = "garbage," + lines[3].split(",", 1)[1]
        metrics.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("--config", str(cfg_interval), "train", "--data", str(data),
                       "--out-dir", str(out), "--resume", str(out / "checkpoint_000003.ck"))
        assert code == 2
        assert f"{metrics}: line 4: malformed row 'garbage," in capsys.readouterr().err

    @pytest.mark.parametrize("step", [1000000, -3], ids=["past-total", "negative"])
    def test_resume_from_a_bad_step_counter_exits_2(self, trained_run, tmp_path, capsys, step):
        # a step past total_steps used to resume, exit 0 and save step 1000000
        # of 30; a negative one failed in the schedule without naming the file
        tiny_config, data, out = trained_run
        bad = rewrite_header(out / "model.ck", tmp_path / "bad.ck",
                             lambda h: h.update(step=step, adam_t=step))
        code = run_cli("--config", tiny_config, "train", "--data", str(data),
                       "--out-dir", str(tmp_path / "o"), "--resume", str(bad))
        assert code == 2
        assert f"{bad}: header key 'step' must be in [0, total_steps" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_artifacts(self, trained_run):
        tiny_config, data, out = trained_run
        assert (out / "model.ck").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("step,loss,lr,grad_norm,tokens,expert_load_0")
        ckpt = tr.load_checkpoint(out / "model.ck")
        assert len(lines) - 1 == ckpt.total_steps
        resolved = (out / "config.resolved").read_text()
        assert "d_model = 8" in resolved and "learning_rate = 0.002" in resolved

    def test_smoke_loss_improves_majority_of_seeds(self, tiny_config, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli("--config", tiny_config, "gen-data", "--out", str(data))
        wins = 0
        for seed in range(20):
            out = tmp_path / f"out{seed}"
            assert run_cli("--config", tiny_config, "--seed", str(seed), "train",
                           "--data", str(data), "--out-dir", str(out)) == 0
            rows = (out / "metrics.csv").read_text().splitlines()[1:]
            first, last = float(rows[0].split(",")[1]), float(rows[-1].split(",")[1])
            wins += last < first
        assert wins >= 19

    def test_interrupt_and_resume_bitwise(self, tiny_config, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli("--config", tiny_config, "gen-data", "--out", str(data))

        cfg_interval = tmp_path / "cfg_interval.cfg"
        cfg_interval.write_text(TINY + "checkpoint_interval = 3\n")
        full_dir = tmp_path / "full"
        assert run_cli("--config", str(cfg_interval), "train", "--data", str(data),
                       "--out-dir", str(full_dir)) == 0
        mid = full_dir / "checkpoint_000003.ck"
        assert mid.exists()

        resumed_dir = tmp_path / "resumed"
        assert run_cli("--config", str(cfg_interval), "train", "--data", str(data),
                       "--out-dir", str(resumed_dir), "--resume", str(mid)) == 0
        assert (resumed_dir / "model.ck").read_bytes() == (full_dir / "model.ck").read_bytes()

    def test_resume_into_same_dir_keeps_each_metrics_row_once(self, tiny_config, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli("--config", tiny_config, "gen-data", "--out", str(data))
        cfg_interval = tmp_path / "cfg_interval.cfg"
        cfg_interval.write_text(TINY + "checkpoint_interval = 3\n")
        out = tmp_path / "run"
        assert run_cli("--config", str(cfg_interval), "train", "--data", str(data),
                       "--out-dir", str(out)) == 0
        uninterrupted = (out / "metrics.csv").read_text().splitlines()
        total = tr.load_checkpoint(out / "model.ck").total_steps
        assert total > 3

        assert run_cli("--config", str(cfg_interval), "train", "--data", str(data),
                       "--out-dir", str(out), "--resume",
                       str(out / "checkpoint_000003.ck")) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert [int(row.split(",")[0]) for row in lines[1:]] == list(range(total))
        assert lines == uninterrupted

    def test_resume_records_the_checkpoint_config(self, tiny_config, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli("--config", tiny_config, "gen-data", "--out", str(data))
        cfg_interval = tmp_path / "cfg_interval.cfg"
        cfg_interval.write_text(TINY + "checkpoint_interval = 3\n")
        first = tmp_path / "first"
        assert run_cli("--config", str(cfg_interval), "train", "--data", str(data),
                       "--out-dir", str(first)) == 0
        other = tmp_path / "other.cfg"
        other.write_text(TINY.replace("d_model = 8", "d_model = 16")
                         .replace("learning_rate = 2e-3", "learning_rate = 9e-3"))
        resumed = tmp_path / "resumed"
        assert run_cli("--config", str(other), "--precision", "f64", "train", "--data", str(data),
                       "--out-dir", str(resumed),
                       "--resume", str(first / "checkpoint_000003.ck")) == 0
        ckpt = tr.load_checkpoint(resumed / "model.ck")
        assert ckpt.config.d_model == 8 and ckpt.train_config.learning_rate == 2e-3
        lines = (resumed / "config.resolved").read_text().splitlines()
        assert "d_model = 8" in lines
        assert "learning_rate = 0.002" in lines
        assert f"precision = {ckpt.dtype}" in lines and ckpt.dtype == "f32"

    def test_resume_reads_the_dataset_in_the_checkpoint_task_order(self, tiny_config, tmp_path):
        # with one expert per task, a dataset read in another task order would
        # train each task through another task's expert
        data = tmp_path / "data.jsonl"
        run_cli("--config", tiny_config, "gen-data", "--out", str(data))
        cfg = tmp_path / "four.cfg"
        cfg.write_text(TINY.replace("n_experts = 2", "n_experts = 4") + "checkpoint_interval = 2\n")
        full = tmp_path / "full"
        assert run_cli("--config", str(cfg), "train", "--data", str(data),
                       "--out-dir", str(full)) == 0
        reordered = tmp_path / "reordered.cfg"
        reordered.write_text(cfg.read_text().replace("tasks = asr,ocr,typo", "tasks = typo,asr,ocr"))
        resumed = tmp_path / "resumed"
        assert run_cli("--config", str(reordered), "train", "--data", str(data),
                       "--out-dir", str(resumed), "--resume",
                       str(full / "checkpoint_000002.ck")) == 0
        assert (resumed / "model.ck").read_bytes() == (full / "model.ck").read_bytes()
        full_rows = (full / "metrics.csv").read_text().splitlines()
        resumed_rows = (resumed / "metrics.csv").read_text().splitlines()
        assert resumed_rows == [full_rows[0], *full_rows[3:]]
        assert "tasks = asr,ocr,typo" in (resumed / "config.resolved").read_text().splitlines()

    def test_missing_files_are_named(self, tiny_config, tmp_path, capsys):
        missing_data = tmp_path / "missing.jsonl"
        assert run_cli("--config", tiny_config, "train", "--data", str(missing_data),
                       "--out-dir", str(tmp_path / "o")) == 2
        assert str(missing_data) in capsys.readouterr().err
        missing_ck = tmp_path / "missing.ck"
        assert run_cli("eval", "--checkpoint", str(missing_ck), "--data", str(missing_data)) == 2
        assert str(missing_ck) in capsys.readouterr().err

    def test_train_does_not_read_the_sentence_pool(self, tiny_config, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli("--config", tiny_config, "gen-data", "--out", str(data))
        cfg = tmp_path / "pool.cfg"
        cfg.write_text(TINY + f"pool_path = {tmp_path / 'no_such_pool.txt'}\n")
        assert run_cli("--config", str(cfg), "train", "--data", str(data),
                       "--out-dir", str(tmp_path / "o")) == 0

    def test_malformed_dataset_reports_line(self, tiny_config, tmp_path, capsys):
        data = tmp_path / "broken.jsonl"
        data.write_text('{"task": "asr", "hypotheses": ["a"], "target": "a", "seed": 1}\n{oops\n')
        assert run_cli("--config", tiny_config, "train", "--data", str(data),
                       "--out-dir", str(tmp_path / "o")) == 2
        assert "line 2" in capsys.readouterr().err

    def test_foreign_character_names_file_and_line(self, tiny_config, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        run_cli("--config", tiny_config, "gen-data", "--out", str(data))
        foreign = with_foreign_character(data, tmp_path / "foreign.jsonl")
        capsys.readouterr()
        code = run_cli("--config", tiny_config, "train", "--data", str(foreign),
                       "--out-dir", str(tmp_path / "o"))
        assert_foreign_character_named(code, capsys.readouterr(), f"{foreign}: line 2")
        assert not (tmp_path / "o").exists()

    def test_numerical_failure_exit_code(self, tiny_config, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data.jsonl"
        run_cli("--config", tiny_config, "gen-data", "--out", str(data))

        def explode(*a, **k):
            raise tr.NumericalError("non-finite loss at step 0; batch (...)")

        monkeypatch.setattr(tr, "train", explode)
        code = run_cli("--config", tiny_config, "train", "--data", str(data),
                       "--out-dir", str(tmp_path / "o"))
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestEvalCorrectStats:
    def test_eval_runs_and_writes_csv(self, trained_run, tmp_path, capsys):
        tiny_config, data, out = trained_run
        csv = tmp_path / "report.csv"
        code = run_cli("eval", "--checkpoint", str(out / "model.ck"), "--data", str(data),
                       "--csv", str(csv))
        assert code == 0
        assert "overall" in capsys.readouterr().out
        assert csv.read_text().startswith("task,n_samples,baseline_wer")

    def test_eval_scores_each_sample_once(self, trained_run, tmp_path, monkeypatch):
        # eval reaches wer, bleu and correct_hypotheses through their module
        # attributes, at these counts: the perfbench eval trace wraps each one
        from moefix import metrics
        calls = {"wer": 0, "bleu": 0, "correct_hypotheses": 0}
        for name in calls:
            real = getattr(metrics, name)

            def counting(*a, _real=real, _name=name, **kw):
                calls[_name] += 1
                return _real(*a, **kw)
            monkeypatch.setattr(metrics, name, counting)
        tiny_config, data, out = trained_run
        csv = tmp_path / "report.csv"
        code = run_cli("eval", "--checkpoint", str(out / "model.ck"), "--data", str(data),
                       "--csv", str(csv), "--bleu")
        assert code == 0
        rows = csv.read_text().splitlines()[1:]
        n = int(rows[-1].split(",")[1])
        assert n > 0
        assert calls == {"wer": 2 * n, "bleu": 2 * len(rows), "correct_hypotheses": n}

    def test_inference_never_takes_the_task_route(self, trained_run, tmp_path, monkeypatch):
        # the paper's inference runs plain top-K without the expert map: the
        # task-forced route stays unused by correct, eval and route-stats,
        # and only a training loss reaches it
        from moefix import metrics, model
        from moefix.corpus import read_dataset
        calls = {"moe_forward_task": 0, "moe_forward_infer": 0}
        for name in calls:
            def counting(*a, _real=getattr(model, name), _name=name, **kw):
                calls[_name] += 1
                return _real(*a, **kw)
            monkeypatch.setattr(model, name, counting)
        tiny_config, data, out = trained_run
        ckpt = tr.load_checkpoint(out / "model.ck")
        samples = read_dataset(data, ckpt.registry, ckpt.tokenizer.alphabet)
        steps = (
            lambda: metrics.correct_hypotheses(ckpt.params, ckpt.config, ckpt.tokenizer,
                                               samples[0].task, samples[0].hypotheses),
            lambda: run_cli("eval", "--checkpoint", str(out / "model.ck"), "--data", str(data),
                            "--csv", str(tmp_path / "report.csv")),
            lambda: tr.route_stats_over(ckpt, samples),
        )
        for step in steps:
            infer_before = calls["moe_forward_infer"]
            step()
            assert calls["moe_forward_task"] == 0
            assert calls["moe_forward_infer"] > infer_before
        encoded, _ = tr.encode_samples(samples[:2], ckpt.tokenizer, ckpt.expert_map,
                                       ckpt.config.max_seq_len)
        tr.nll_loss(ckpt.params, ckpt.config, tr.make_batch_arrays(encoded, ckpt.tokenizer.pad_id))
        assert calls["moe_forward_task"] == ckpt.config.n_layers

    def test_eval_skips_and_counts_overlong_prompts(self, trained_run, tmp_path, capsys):
        tiny_config, data, out = trained_run
        lines = data.read_text().splitlines()
        long_text = "the cat sleeps " * 20  # one hypothesis over max_seq_len = 128
        overlong = json.dumps({"task": "asr", "hypotheses": [long_text], "target": "the cat",
                               "seed": 0})
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join([lines[0], overlong, *lines[1:], overlong]) + "\n")
        csv = tmp_path / "report.csv"
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(out / "model.ck"), "--data", str(mixed),
                       "--csv", str(csv))
        assert code == 0
        assert "skipped 2 overlong samples" in capsys.readouterr().out
        rows = [row.split(",") for row in csv.read_text().splitlines()]
        assert rows[0][:2] == ["task", "n_samples"]
        assert [r[0] for r in rows[1:]] == ["asr", "ocr", "typo", "overall"]
        assert rows[-1][1] == str(len(lines))

    def test_eval_foreign_character_names_file_and_line(self, trained_run, tmp_path, capsys):
        tiny_config, data, out = trained_run
        foreign = with_foreign_character(data, tmp_path / "foreign.jsonl")
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(out / "model.ck"), "--data", str(foreign))
        assert_foreign_character_named(code, capsys.readouterr(), f"{foreign}: line 2")

    def test_correct_reads_stdin(self, trained_run, monkeypatch, capsys):
        tiny_config, data, out = trained_run
        monkeypatch.setattr(sys, "stdin", io.StringIO("the cat sleeps\nthe cat sleeps\n"))
        code = run_cli("correct", "--checkpoint", str(out / "model.ck"), "--task", "asr")
        assert code == 0
        capsys.readouterr()

    def test_correct_foreign_character_names_stdin_line(self, trained_run, monkeypatch, capsys):
        tiny_config, data, out = trained_run
        monkeypatch.setattr(sys, "stdin", io.StringIO("the cat\n\nthe caf\u00e9\n"))
        code = run_cli("correct", "--checkpoint", str(out / "model.ck"), "--task", "asr")
        assert_foreign_character_named(code, capsys.readouterr(), "stdin: line 3")

    def test_correct_unknown_task_exits_2(self, trained_run, monkeypatch, capsys):
        tiny_config, data, out = trained_run
        monkeypatch.setattr(sys, "stdin", io.StringIO("text\n"))
        code = run_cli("correct", "--checkpoint", str(out / "model.ck"), "--task", "mt")
        assert code == 2
        assert "unknown task" in capsys.readouterr().err

    def test_route_stats_fractions_sum_to_two(self, trained_run, capsys):
        tiny_config, data, out = trained_run
        code = run_cli("route-stats", "--checkpoint", str(out / "model.ck"), "--data", str(data))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        mapping = [l for l in lines if l.startswith("# task")]
        assert len(mapping) == 3
        rows = [l.split(",") for l in lines if l and not l.startswith("#") and not l.startswith("task,")]
        per_task = {}
        for task, expert, fraction, mean_w in rows:
            per_task[task] = per_task.get(task, 0.0) + float(fraction)
        assert per_task and all(abs(v - 2.0) < 1e-6 for v in per_task.values())

    def test_route_stats_counts_overlong_samples(self, trained_run, tmp_path, capsys):
        tiny_config, data, out = trained_run
        long_text = "the cat sleeps " * 20  # one hypothesis over max_seq_len = 128
        overlong = json.dumps({"task": "asr", "hypotheses": [long_text], "target": "the cat",
                               "seed": 0})
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(data.read_text() + overlong + "\n")
        capsys.readouterr()
        code = run_cli("route-stats", "--checkpoint", str(out / "model.ck"), "--data", str(mixed))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "# skipped 1 overlong samples" in lines
        rows = [l for l in lines if l and not l.startswith("#")]
        assert rows[0] == "task,expert,fraction,mean_weight"
        assert len(rows) == 1 + 3 * 2

    def test_route_stats_foreign_character_names_file_and_line(self, trained_run, tmp_path,
                                                                capsys):
        tiny_config, data, out = trained_run
        foreign = with_foreign_character(data, tmp_path / "foreign.jsonl")
        capsys.readouterr()
        code = run_cli("route-stats", "--checkpoint", str(out / "model.ck"), "--data", str(foreign))
        assert_foreign_character_named(code, capsys.readouterr(), f"{foreign}: line 2")

    def test_incompatible_checkpoint_version_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ck"
        bad.write_bytes(b"NEKO" + (42).to_bytes(4, "little") + b"\x00" * 16)
        code = run_cli("eval", "--checkpoint", str(bad), "--data", str(tmp_path / "x.jsonl"))
        assert code == 2
        assert "version" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "route-stats"])
def test_no_usable_sample_exits_2_naming_the_file(trained_run, tmp_path, capsys, command):
    # route-stats printed "empty routing stream" and no skip count, train
    # named no file and eval said only "no samples to evaluate"
    tiny_config, data, out = trained_run
    overlong = overlong_dataset(tmp_path / "overlong.jsonl", 12)
    args = {"train": ["--config", tiny_config, "train", "--out-dir", str(tmp_path / "o")],
            "eval": ["eval", "--checkpoint", str(out / "model.ck")],
            "route-stats": ["route-stats", "--checkpoint", str(out / "model.ck")]}[command]
    capsys.readouterr()
    assert run_cli(*args, "--data", str(overlong)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {overlong}: no usable samples (12 skipped as overlong)" in captured.err


@pytest.mark.parametrize("task_routing", ["true", "false"])
def test_one_expert_runs_every_command(tmp_path, capsys, task_routing):
    # the dense control: one expert at K = 1, on either training route
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(TINY.replace("n_experts = 2\ntop_k = 2", "n_experts = 1\ntop_k = 1")
                   + f"task_routing = {task_routing}\n")
    data, out = tmp_path / "data.jsonl", tmp_path / "out"
    assert run_cli("--config", str(cfg), "gen-data", "--out", str(data)) == 0
    assert run_cli("--config", str(cfg), "train", "--data", str(data), "--out-dir", str(out)) == 0
    ckpt = tr.load_checkpoint(out / "model.ck")
    assert ckpt.expert_map.assignment == (0, 0, 0)
    assert run_cli("eval", "--checkpoint", str(out / "model.ck"), "--data", str(data)) == 0
    capsys.readouterr()
    assert run_cli("route-stats", "--checkpoint", str(out / "model.ck"), "--data", str(data)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if l.startswith("#")] == [
        f"# task {name} -> expert 0" for name in ("asr", "ocr", "typo")]
    assert lines[3:] == ["task,expert,fraction,mean_weight"] + [
        f"{name},0,1.000000,1.000000" for name in ("asr", "ocr", "typo")]


def test_module_entrypoint_help():
    proc = subprocess.run([sys.executable, "-m", "moefix.cli", "--help"],
                          capture_output=True, text=True, env=child_env(dict(os.environ)))
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout
