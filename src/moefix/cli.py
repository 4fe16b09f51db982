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
from dataclasses import dataclass, fields, replace


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# (name, type, default) — the whole flat key=value schema; every key may appear
# in the config file and every one has a working default.
_SCHEMA = [
    # corpus
    ("tasks", str, "asr,ocr,typo"),
    ("intensity", float, 0.15),
    ("n_best", int, 5),
    ("samples_per_task", int, 300),
    ("pool_path", str, ""),
    ("pool_size", int, 0),
    ("data_seed", int, 1),
    # model
    ("d_model", int, 128),
    ("n_layers", int, 4),
    ("n_heads", int, 4),
    ("d_ff", int, 256),
    ("n_experts", int, 4),
    ("top_k", int, 2),
    ("max_seq_len", int, 384),
    ("rope_base", float, 10000.0),
    ("rms_eps", float, 1e-5),
    # training
    ("learning_rate", float, 1e-4),
    ("weight_decay", float, 0.01),
    ("warmup_ratio", float, 0.1),
    ("epochs", int, 3),
    ("grad_clip", float, 1.0),
    ("batch_size_tokens", int, 4096),
    ("adam_beta1", float, 0.9),
    ("adam_beta2", float, 0.999),
    ("adam_eps", float, 1e-8),
    ("seed", int, 0),
    ("aux_loss_coeff", float, 0.0),
    ("task_routing", bool, True),
    ("checkpoint_interval", int, 0),
    ("precision", str, "f32"),
]

_TYPES = {name: typ for name, typ, _ in _SCHEMA}


@dataclass
class RunConfig:
    """Fully-resolved run settings; see _SCHEMA for the keys and defaults."""

    tasks: str
    intensity: float
    n_best: int
    samples_per_task: int
    pool_path: str
    pool_size: int
    data_seed: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    n_experts: int
    top_k: int
    max_seq_len: int
    rope_base: float
    rms_eps: float
    learning_rate: float
    weight_decay: float
    warmup_ratio: float
    epochs: int
    grad_clip: float
    batch_size_tokens: int
    adam_beta1: float
    adam_beta2: float
    adam_eps: float
    seed: int
    aux_loss_coeff: float
    task_routing: bool
    checkpoint_interval: int
    precision: str

    @property
    def task_names(self) -> list[str]:
        return [t.strip() for t in self.tasks.split(",") if t.strip()]

    def dump(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"


def parse_config_file(path: str) -> dict:
    overrides = {}
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
        if key not in _TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        typ = _TYPES[key]
        try:
            overrides[key] = _parse_bool(value) if typ is bool else typ(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return overrides


def resolve_config(args) -> RunConfig:
    values = {name: default for name, _, default in _SCHEMA}
    if args.config:
        values.update(parse_config_file(args.config))
    if args.seed is not None:
        values["seed"] = args.seed
    if args.precision is not None:
        values["precision"] = args.precision
    cfg = RunConfig(**values)
    if cfg.precision not in ("f32", "f64"):
        raise ConfigError(f"precision must be f32 or f64, got {cfg.precision!r}")
    if not cfg.task_names:
        raise ConfigError("no tasks configured")
    return cfg


def _cap_threads(argv: list[str]) -> None:
    """Honor NEKO_THREADS (and --deterministic, which implies one thread)."""
    n = os.environ.get("NEKO_THREADS")
    if n is None and "--deterministic" in argv:
        n = "1"
    if n:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, n)


def _build_corpus_pieces(cfg: RunConfig):
    from .corpus import NoiseChannel, Tokenizer, load_sentence_pool
    from .tasks import TaskRegistry

    registry = TaskRegistry(cfg.task_names)
    tokenizer = Tokenizer(registry.names)
    channels = {}
    for name in registry.names:
        if name not in ("asr", "ocr", "typo"):
            raise ConfigError(f"no synthetic noise channel for task {name!r} "
                              "(available kinds: asr, ocr, typo)")
        channels[name] = NoiseChannel(name, cfg.intensity)
    if cfg.pool_path:
        pool = load_sentence_pool(cfg.pool_path, limit=cfg.pool_size or None)
    else:
        pool = load_sentence_pool(limit=cfg.pool_size or None)
    return registry, tokenizer, channels, pool


def cmd_gen_data(args) -> int:
    from .corpus import build_mixture, write_dataset

    cfg = resolve_config(args)
    registry, _, channels, pool = _build_corpus_pieces(cfg)
    dataset = build_mixture(registry, channels, pool, cfg.samples_per_task,
                            cfg.n_best, cfg.data_seed)
    write_dataset(args.out, dataset.samples)
    counts = {}
    for s in dataset.samples:
        counts[s.task.name] = counts.get(s.task.name, 0) + 1
    for name in sorted(counts):
        print(f"{name}: {counts[name]} samples")
    print(f"wrote {len(dataset.samples)} records to {args.out}")
    return 0


def cmd_train(args) -> int:
    from .corpus import read_dataset
    from .model import ModelConfig
    from .training import (TrainConfig, load_checkpoint, metrics_header, new_run,
                           save_checkpoint, train)

    cfg = resolve_config(args)
    registry, tokenizer, _, _ = _build_corpus_pieces(cfg)
    samples = read_dataset(args.data, registry)
    os.makedirs(args.out_dir, exist_ok=True)

    if args.resume:
        ckpt = load_checkpoint(args.resume)
        # the run continues with the checkpoint's settings, so record those
        model_fields = ckpt.config.to_dict()
        del model_fields["vocab_size"]
        cfg = replace(cfg, **model_fields, **ckpt.train_config.to_dict(), precision=ckpt.dtype)
    else:
        model_cfg = ModelConfig(
            vocab_size=tokenizer.vocab_size, d_model=cfg.d_model, n_layers=cfg.n_layers,
            n_heads=cfg.n_heads, d_ff=cfg.d_ff, n_experts=cfg.n_experts, top_k=cfg.top_k,
            max_seq_len=cfg.max_seq_len, rope_base=cfg.rope_base, rms_eps=cfg.rms_eps)
        train_cfg = TrainConfig(
            learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay,
            warmup_ratio=cfg.warmup_ratio, epochs=cfg.epochs, grad_clip=cfg.grad_clip,
            batch_size_tokens=cfg.batch_size_tokens, adam_beta1=cfg.adam_beta1,
            adam_beta2=cfg.adam_beta2, adam_eps=cfg.adam_eps, seed=cfg.seed,
            aux_loss_coeff=cfg.aux_loss_coeff, task_routing=cfg.task_routing)
        ckpt = new_run(model_cfg, train_cfg, registry, tokenizer, dtype=cfg.precision)

    with open(os.path.join(args.out_dir, "config.resolved"), "w", encoding="utf-8") as fh:
        fh.write(cfg.dump())

    header = metrics_header(ckpt.config.n_experts)
    metrics_path = os.path.join(args.out_dir, "metrics.csv")
    earlier = []  # a resumed run keeps the rows before its checkpoint's step
    if args.resume and os.path.exists(metrics_path):
        with open(metrics_path, encoding="utf-8") as fh:
            earlier = [row for row in fh.readlines()[1:]
                       if row.strip() and int(row.split(",", 1)[0]) < ckpt.step]
    metrics_fh = open(metrics_path, "w", encoding="utf-8")
    metrics_fh.write(",".join(header) + "\n")
    metrics_fh.writelines(earlier)

    def on_step(row, ck):
        metrics_fh.write(",".join(repr(row[h]) if isinstance(row[h], float) else str(row[h])
                                  for h in header) + "\n")
        if args.log_every and row["step"] % args.log_every == 0:
            print(f"step {row['step']}/{ck.total_steps} loss {row['loss']:.4f} "
                  f"lr {row['lr']:.2e} grad_norm {row['grad_norm']:.3f}")
        if cfg.checkpoint_interval and ck.step % cfg.checkpoint_interval == 0:
            save_checkpoint(ck, os.path.join(args.out_dir, f"checkpoint_{ck.step:06d}.ck"))

    try:
        result = train(ckpt, samples, on_step=on_step)
    finally:
        metrics_fh.close()
    save_checkpoint(ckpt, os.path.join(args.out_dir, "model.ck"))
    if result.skipped_overlong:
        print(f"skipped {result.skipped_overlong} overlong samples")
    if result.rows:
        print(f"trained {ckpt.step}/{ckpt.total_steps} steps; "
              f"final loss {result.rows[-1]['loss']:.4f}")
    print(f"checkpoint: {os.path.join(args.out_dir, 'model.ck')}")
    return 0


def cmd_eval(args) -> int:
    from .corpus import read_dataset
    from .metrics import decode_budget, evaluate, greedy_corrector
    from .tasks import format_prompt
    from .training import load_checkpoint

    ckpt = load_checkpoint(args.checkpoint)
    samples = read_dataset(args.data, ckpt.registry)
    # a prompt that fills max_seq_len leaves no room to decode: skipped and
    # counted, as train skips overlong samples
    fitting = [s for s in samples if decode_budget(
        ckpt.config, format_prompt(ckpt.tokenizer, s.task, s.hypotheses)[0]) > 0]
    if len(fitting) < len(samples):
        print(f"skipped {len(samples) - len(fitting)} overlong samples")
    corrector = greedy_corrector(ckpt.params, ckpt.config, ckpt.tokenizer)
    report = evaluate(fitting, corrector, compute_bleu=args.bleu)
    print(report.to_table())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        print(f"wrote {args.csv}")
    return 0


def cmd_correct(args) -> int:
    from .metrics import correct_hypotheses
    from .training import load_checkpoint

    ckpt = load_checkpoint(args.checkpoint)
    task = ckpt.registry.get(args.task)  # KeyError -> exit 2 via main()
    hypotheses = [line.rstrip("\n") for line in sys.stdin if line.strip()]
    if not hypotheses:
        raise ConfigError("no hypotheses on stdin (one per line)")
    print(correct_hypotheses(ckpt.params, ckpt.config, ckpt.tokenizer, task, hypotheses))
    return 0


def cmd_route_stats(args) -> int:
    from .corpus import read_dataset
    from .training import load_checkpoint, route_stats_over

    ckpt = load_checkpoint(args.checkpoint)
    samples = read_dataset(args.data, ckpt.registry)
    for task in ckpt.registry:
        print(f"# task {task.name} -> expert {ckpt.expert_map.expert_for(task)}")
    report, skipped = route_stats_over(ckpt, samples)
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
    _cap_threads(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    from .training import CheckpointError, NumericalError

    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, CheckpointError, KeyError, FileNotFoundError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
