"""Command-line front end: gen-data, train, eval, correct, route-stats.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure. The
NEKO_THREADS environment variable caps numpy worker threads and must take
effect before numpy loads, so this module imports no numpy and the heavy
imports happen inside main().
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields
from typing import get_type_hints


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# (name, type, default) of the corpus keys and the run keys. The model and
# training keys are the ModelConfig and TrainConfig fields; _schema() puts them
# in between.
_CORPUS_KEYS = [
    ("tasks", str, "asr,ocr,typo"),
    ("intensity", float, 0.15),
    ("n_best", int, 5),
    ("samples_per_task", int, 300),
    ("pool_path", str, ""),
    ("pool_size", int, 0),
    ("data_seed", int, 1),
]
_RUN_KEYS = [
    ("checkpoint_interval", int, 0),
    ("precision", str, "f32"),
]


def _schema() -> list[tuple[str, type, object]]:
    """(name, type, default) of every config key, in config.resolved order.

    vocab_size is left out: the tokenizer sets it. The imports load numpy, so
    only code that main() reaches after _cap_threads() may call this.
    """
    from .model import ModelConfig
    from .training import TrainConfig

    keys = list(_CORPUS_KEYS)
    for cls in (ModelConfig, TrainConfig):
        types = get_type_hints(cls)
        keys += [(f.name, types[f.name], f.default) for f in fields(cls) if f.name != "vocab_size"]
    return keys + _RUN_KEYS


def parse_config_file(path: str) -> dict:
    types = {name: typ for name, typ, _ in _schema()}
    overrides = {}
    first_line = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} given twice "
                              f"(lines {first_line[key]} and {lineno})")
        first_line[key] = lineno
        typ = types[key]
        try:
            overrides[key] = _parse_bool(value) if typ is bool else typ(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return overrides


def resolve_config(args) -> dict:
    """Every config key and its value, in config.resolved order: the defaults,
    then the config file, then --seed and --precision."""
    cfg = {name: default for name, _, default in _schema()}
    if args.config:
        cfg.update(parse_config_file(args.config))
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.precision is not None:
        cfg["precision"] = args.precision
    if cfg["precision"] not in ("f32", "f64"):
        raise ConfigError(f"precision must be f32 or f64, got {cfg['precision']!r}")
    if not task_names(cfg):
        raise ConfigError("no tasks configured")
    if cfg["pool_size"] < 0:
        raise ConfigError(f"pool_size must be >= 0 (0 = the whole pool), got {cfg['pool_size']}")
    if cfg["samples_per_task"] < 1:
        raise ConfigError(f"samples_per_task must be >= 1, got {cfg['samples_per_task']}")
    if cfg["checkpoint_interval"] < 0:
        raise ConfigError(f"checkpoint_interval must be >= 0 (0 = none), got {cfg['checkpoint_interval']}")
    return cfg


def task_names(cfg: dict) -> list[str]:
    return [t.strip() for t in cfg["tasks"].split(",") if t.strip()]


def _fields_of(cls, cfg: dict) -> dict:
    return {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _cap_threads(deterministic: bool) -> None:
    """Cap numpy's worker threads. ``deterministic`` (the --deterministic
    flag) sets one thread, over any NEKO_THREADS or BLAS variable already
    set; otherwise NEKO_THREADS fills in the BLAS variables that are not set.
    Raises ConfigError when NEKO_THREADS is set to anything but a positive
    integer."""
    n = os.environ.get("NEKO_THREADS")
    if n is not None and not (n.isascii() and n.isdigit() and int(n) > 0):
        raise ConfigError(f"NEKO_THREADS must be a positive integer, got {n!r}")
    if deterministic:
        os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))
    elif n is not None:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, n)


def cmd_gen_data(args) -> int:
    from .corpus import NoiseChannel, build_mixture, load_sentence_pool, write_dataset
    from .tasks import TaskRegistry

    cfg = resolve_config(args)
    registry = TaskRegistry(task_names(cfg))
    channels = {name: NoiseChannel(name, cfg["intensity"]) for name in registry.names}
    pool = load_sentence_pool(cfg["pool_path"] or None, limit=cfg["pool_size"] or None)
    dataset = build_mixture(registry, channels, pool, cfg["samples_per_task"],
                            cfg["n_best"], cfg["data_seed"])
    write_dataset(args.out, dataset.samples)
    counts = {}
    for s in dataset.samples:
        counts[s.task.name] = counts.get(s.task.name, 0) + 1
    for name in sorted(counts):
        print(f"{name}: {counts[name]} samples")
    print(f"wrote {len(dataset.samples)} records to {args.out}")
    return 0


def cmd_train(args) -> int:
    from .corpus import Tokenizer, read_dataset
    from .model import ModelConfig
    from .tasks import TaskRegistry
    from .training import (ScheduleMismatch, TrainConfig, load_checkpoint, metrics_header,
                           new_run, save_checkpoint, train)

    cfg = resolve_config(args)
    if args.log_every < 0:
        raise ConfigError(f"--log-every must be >= 0 (0 = never), got {args.log_every}")
    if args.resume:
        ckpt = load_checkpoint(args.resume)
        # the run continues with the checkpoint's settings and task order, so
        # the dataset is read, and config.resolved written, with those
        cfg.update(asdict(ckpt.config), **asdict(ckpt.train_config), precision=ckpt.dtype,
                   tasks=",".join(ckpt.registry.names))
        del cfg["vocab_size"]
    else:
        registry = TaskRegistry(task_names(cfg))
        tokenizer = Tokenizer(registry.names)
        model_cfg = ModelConfig(vocab_size=tokenizer.vocab_size, **_fields_of(ModelConfig, cfg))
        ckpt = new_run(model_cfg, TrainConfig(**_fields_of(TrainConfig, cfg)), registry,
                       tokenizer, dtype=cfg["precision"])
    samples = read_dataset(args.data, ckpt.registry, ckpt.tokenizer.alphabet)

    header = metrics_header(ckpt.config.n_experts)
    metrics_path = os.path.join(args.out_dir, "metrics.csv")
    earlier = []  # a resumed run keeps the rows before its checkpoint's step
    if args.resume and os.path.exists(metrics_path):
        with open(metrics_path, encoding="utf-8") as fh:
            for lineno, row in enumerate(fh.readlines()[1:], start=2):
                if not row.strip():
                    continue
                try:
                    step = int(row.split(",", 1)[0])
                except ValueError:
                    raise ConfigError(f"{metrics_path}: line {lineno}: malformed row "
                                      f"{row.strip()!r}") from None
                if step < ckpt.step:
                    earlier.append(row)
    metrics_fh = None

    def open_run_dir():
        """Write config.resolved and start metrics.csv with the rows kept.
        Called once the first step has trained, so a run that fails before
        then (the data gives no usable sample or another step count than the
        checkpoint, or the first loss is not finite) leaves the directory as
        it was."""
        nonlocal metrics_fh
        os.makedirs(args.out_dir, exist_ok=True)
        with open(os.path.join(args.out_dir, "config.resolved"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{name} = {value}\n" for name, value in cfg.items())
        metrics_fh = open(metrics_path, "w", encoding="utf-8")
        metrics_fh.write(",".join(header) + "\n")
        metrics_fh.writelines(earlier)

    def on_step(row, ck):
        if metrics_fh is None:
            open_run_dir()
        metrics_fh.write(",".join(repr(row[h]) if isinstance(row[h], float) else str(row[h])
                                  for h in header) + "\n")
        if args.log_every and row["step"] % args.log_every == 0:
            print(f"step {row['step']}/{ck.total_steps} loss {row['loss']:.4f} "
                  f"lr {row['lr']:.2e} grad_norm {row['grad_norm']:.3f}")
        if cfg["checkpoint_interval"] and ck.step % cfg["checkpoint_interval"] == 0:
            save_checkpoint(ck, os.path.join(args.out_dir, f"checkpoint_{ck.step:06d}.ck"))

    try:
        result = train(ckpt, samples, on_step=on_step)
        if metrics_fh is None:  # a resumed run with no step left
            open_run_dir()
    except ScheduleMismatch as exc:
        raise ConfigError(f"{exc} (checkpoint {args.resume}, dataset {args.data})") from None
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    save_checkpoint(ckpt, os.path.join(args.out_dir, "model.ck"))
    if result.skipped_overlong:
        print(f"skipped {result.skipped_overlong} overlong samples")
    if result.rows:
        print(f"trained {ckpt.step}/{ckpt.total_steps} steps; "
              f"final loss {result.rows[-1]['loss']:.4f}")
    print(f"checkpoint: {os.path.join(args.out_dir, 'model.ck')}")
    return 0


def _check_report_path(path: str) -> None:
    """Raise ConfigError naming ``path`` unless a report file can be written
    there. It opens nothing, so no file is created or truncated before the
    report is ready."""
    folder = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else folder
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write the CSV report to {path}")


def cmd_eval(args) -> int:
    from .corpus import read_dataset
    from .metrics import correct_hypotheses, decode_budget, evaluate
    from .tasks import format_prompt
    from .training import NoUsableSamples, load_checkpoint

    if args.csv:
        _check_report_path(args.csv)
    ckpt = load_checkpoint(args.checkpoint)
    samples = read_dataset(args.data, ckpt.registry, ckpt.tokenizer.alphabet)
    # a prompt that fills max_seq_len leaves no room to decode: skipped and
    # counted, as train skips overlong samples
    fitting = [s for s in samples if decode_budget(
        ckpt.config, format_prompt(ckpt.tokenizer, s.task, s.hypotheses)[0]) > 0]
    if not fitting:
        raise NoUsableSamples(len(samples))
    if len(fitting) < len(samples):
        print(f"skipped {len(samples) - len(fitting)} overlong samples")
    report = evaluate(fitting, lambda s: correct_hypotheses(
        ckpt.params, ckpt.config, ckpt.tokenizer, s.task, s.hypotheses), compute_bleu=args.bleu)
    print(report.to_table())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        print(f"wrote {args.csv}")
    return 0


def cmd_correct(args) -> int:
    from .corpus import check_alphabet
    from .metrics import correct_hypotheses
    from .training import load_checkpoint

    ckpt = load_checkpoint(args.checkpoint)
    task = ckpt.registry.get(args.task)  # KeyError -> exit 2 via main()
    hypotheses = []
    for lineno, line in enumerate(sys.stdin, start=1):
        hypothesis = line.rstrip("\n")
        if hypothesis.strip():
            check_alphabet(f"stdin: line {lineno}", [hypothesis], ckpt.tokenizer.alphabet)
            hypotheses.append(hypothesis)
    if not hypotheses:
        raise ConfigError("no hypotheses on stdin (one per line)")
    print(correct_hypotheses(ckpt.params, ckpt.config, ckpt.tokenizer, task, hypotheses))
    return 0


def cmd_route_stats(args) -> int:
    from .corpus import read_dataset
    from .training import load_checkpoint, route_stats_over

    if args.csv:
        _check_report_path(args.csv)
    ckpt = load_checkpoint(args.checkpoint)
    samples = read_dataset(args.data, ckpt.registry, ckpt.tokenizer.alphabet)
    report, skipped = route_stats_over(ckpt, samples)
    for task in ckpt.registry:
        print(f"# task {task.name} -> expert {ckpt.expert_map.expert_for(task)}")
    if skipped:
        print(f"# skipped {skipped} overlong samples")
    print(report.to_csv(), end="")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moefix",
        description="Desk-scale multi-task error correction with task-routed MoE layers")
    parser.add_argument("--config", help="key=value config file (see README for the schema)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--deterministic", action="store_true",
                        help="single-threaded numerics for bitwise reproducibility")
    parser.add_argument("--precision", choices=("f32", "f64"), help="parameter precision")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic correction dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a corrector on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score corrected vs baseline WER on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--csv", help="also write the report as CSV")
    p.add_argument("--bleu", action="store_true", help="include corpus BLEU")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("correct", help="correct hypotheses read from stdin")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", required=True)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("route-stats", help="expert utilization per task")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_route_stats)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)  # loads no numpy
    try:
        _cap_threads(args.deterministic)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .training import NoUsableSamples, NumericalError, _keep_freed_memory

    _keep_freed_memory()  # every command frees and reallocates large arrays
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except NoUsableSamples as exc:  # train, eval and route-stats: name the data file
        print(f"error: {args.data}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, OSError, ValueError) as exc:  # ConfigError, CheckpointError included
        # str() of a KeyError quotes its message; an OSError's text names the path
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
