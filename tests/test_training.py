import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from moefix import autodiff as ad
from moefix import training as tr
from moefix.autodiff import Graph, Tensor
from moefix.corpus import NoiseChannel, Tokenizer, build_mixture, load_sentence_pool
from moefix.model import ModelConfig, forward
from moefix.tasks import TaskRegistry
from moefix.training import (
    AdamState,
    Checkpoint,
    CheckpointError,
    NumericalError,
    TrainConfig,
    adamw_step,
    build_schedule,
    encode_samples,
    load_checkpoint,
    lr_at,
    make_batch_arrays,
    new_run,
    nll_loss,
    route_stats_over,
    save_checkpoint,
    train,
)

from helpers import (adamw_reference, nll_reference, rewrite_header, route_stats_reference,
                     tensor_offsets)


def make_registry():
    return TaskRegistry(["asr", "ocr", "typo"])


def make_setup(dtype="f64", seed=0, **model_overrides):
    registry = make_registry()
    tok = Tokenizer(registry.names)
    model_kw = dict(vocab_size=tok.vocab_size, d_model=16, n_layers=2, n_heads=2,
                    d_ff=12, n_experts=4, top_k=2, max_seq_len=192)
    model_kw.update(model_overrides)
    cfg = ModelConfig(**model_kw)
    tcfg = TrainConfig(seed=seed, batch_size_tokens=512, epochs=2, learning_rate=1e-3)
    return new_run(cfg, tcfg, registry, tok, dtype=dtype), registry, tok


def make_dataset(registry, n=6, n_best=2, intensity=0.2, master_seed=5, pool_limit=8):
    pool = load_sentence_pool(limit=pool_limit)
    channels = {name: NoiseChannel(kind, intensity)
                for name, kind in (("asr", "asr"), ("ocr", "ocr"), ("typo", "typo"))}
    return build_mixture(registry, channels, pool, n, n_best, master_seed).samples


class TestLrSchedule:
    CFG = TrainConfig(learning_rate=2e-3, warmup_ratio=0.1)

    def test_starts_at_zero(self):
        assert lr_at(0, 100, self.CFG) == 0.0

    def test_peak_at_warmup_end(self):
        assert lr_at(10, 100, self.CFG) == pytest.approx(2e-3, rel=0, abs=0)

    def test_zero_at_end_and_half_at_midpoint(self):
        assert lr_at(100, 100, self.CFG) == pytest.approx(0.0, abs=1e-18)
        assert lr_at(55, 100, self.CFG) == pytest.approx(1e-3)  # midpoint of decay span

    def test_matches_closed_form_everywhere(self):
        total = 40
        warmup = self.CFG.warmup_ratio * total
        for step in range(total + 1):
            if step < warmup:
                want = 2e-3 * step / warmup
            else:
                want = 2e-3 * 0.5 * (1 + np.cos(np.pi * (step - warmup) / (total - warmup)))
            assert lr_at(step, total, self.CFG) == pytest.approx(want, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            lr_at(101, 100, self.CFG)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value,match", [
        ("adam_beta1", 1.0, r"adam_beta1 must be in \[0, 1\), got 1.0"),
        ("adam_beta2", 1.0, r"adam_beta2 must be in \[0, 1\)"),
        ("adam_beta1", -0.1, r"adam_beta1 must be in \[0, 1\)"),
        ("learning_rate", float("nan"), "learning_rate must be finite, got nan"),
        ("weight_decay", float("nan"), "weight_decay must be finite"),
        ("grad_clip", float("inf"), "grad_clip must be finite, got inf"),
        ("adam_eps", float("inf"), "adam_eps must be finite"),
        ("weight_decay", -0.5, "weight_decay must be non-negative"),
    ])
    def test_rejects_bad_optimiser_settings(self, field, value, match):
        # NaN passes every `value <= 0` check, and a beta of 1 zeroes Adam's
        # bias correction: the first update divides by zero
        with pytest.raises(ValueError, match=match):
            TrainConfig(**{field: value})

    def test_accepts_boundary_settings(self):
        TrainConfig(adam_beta1=0.0, adam_beta2=0.0, weight_decay=0.0, warmup_ratio=0.0)


class TestAdamW:
    def test_zero_grad_zero_decay_is_noop(self):
        p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        cfg = TrainConfig(weight_decay=0.0)
        state = AdamState([("p", p)])
        adamw_step([("p", p)], state, lr=0.1, config=cfg)
        assert np.array_equal(p.data, [1.5, -2.0])

    def test_first_step_matches_scalar_oracle(self):
        g = 0.73
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([g])
        cfg = TrainConfig(weight_decay=0.0)
        state = AdamState([("p", p)])
        adamw_step([("p", p)], state, lr=1e-2, config=cfg)
        # hand-rolled: mhat = g, vhat = g^2 -> delta = -lr * g / (|g| + eps)
        want = -1e-2 * g / (abs(g) + cfg.adam_eps)
        assert p.data[0] == pytest.approx(want, rel=1e-12)
        assert abs(p.data[0] + 1e-2 * np.sign(g)) < 1e-6

    def test_pure_decay_with_zero_grads(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        cfg = TrainConfig(weight_decay=0.01)
        state = AdamState([("p", p)])
        for _ in range(3):
            adamw_step([("p", p)], state, lr=0.1, config=cfg)
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01) ** 3, rel=1e-12)

    def test_missing_grad_counts_as_zero(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        cfg = TrainConfig(weight_decay=0.0)
        state = AdamState([("p", p)])
        adamw_step([("p", p)], state, lr=1e-3, config=cfg)
        moved = p.data.copy()
        p.grad = None
        adamw_step([("p", p)], state, lr=1e-3, config=cfg)
        assert p.data[0] != moved[0]  # momentum keeps moving the weight

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_bitwise_equal_to_the_textbook_formula(self, dtype):
        # four steps on two tensors; the vector has no gradient on step 3
        rng = np.random.default_rng(23)
        cfg = TrainConfig(weight_decay=0.1)
        shapes = {"w": (24, 7), "b": (7,)}

        def run(step_fn):
            named = [(name, Tensor(np.random.default_rng(5).normal(size=shape).astype(dtype),
                                   requires_grad=True)) for name, shape in shapes.items()]
            state = AdamState(named)
            for step, grads in enumerate(steps):
                for name, p in named:
                    p.grad = None if grads[name] is None else grads[name].copy()
                step_fn(named, state, 3e-3 * (step + 1), cfg)
            return [a.tobytes() for name, p in named for a in (p.data, state.m[name], state.v[name])]

        steps = [{name: None if (step == 2 and name == "b") else
                  rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
                 for step in range(4)]
        assert run(adamw_step) == run(adamw_reference)

    def test_shape_mismatch(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        state = AdamState([("p", p)])
        p.data = np.zeros(3)
        p.grad = np.zeros(3)
        with pytest.raises(ad.ShapeError, match="optimizer state"):
            adamw_step([("p", p)], state, lr=1e-3, config=TrainConfig())


class TestBatching:
    def test_encode_skips_overlong(self):
        ckpt, registry, tok = make_setup()
        samples = make_dataset(registry, n=4, n_best=5)
        short_cfg = 60
        encoded, skipped = encode_samples(samples, tok, ckpt.expert_map, short_cfg)
        assert skipped > 0
        assert all(len(e.ids) <= short_cfg for e in encoded)

    def test_schedule_covers_every_sample_each_epoch(self):
        lengths = [30, 50, 20, 40, 10]
        schedule = build_schedule(lengths, epochs=3, batch_size_tokens=64, seed=1)
        per_epoch = len(schedule) // 3
        seen = [i for batch in schedule for i in batch]
        assert sorted(seen) == sorted(list(range(5)) * 3)
        for batch in schedule:
            if len(batch) > 1:
                assert sum(lengths[i] for i in batch) <= 64

    def test_schedule_deterministic(self):
        lengths = [12] * 9
        assert build_schedule(lengths, 2, 30, seed=7) == build_schedule(lengths, 2, 30, seed=7)
        assert build_schedule(lengths, 2, 30, seed=7) != build_schedule(lengths, 2, 30, seed=8)

    def test_batch_arrays_shift_targets_and_mask(self):
        ckpt, registry, tok = make_setup()
        samples = make_dataset(registry, n=1)
        encoded, _ = encode_samples(samples, tok, ckpt.expert_map, 192)
        s = encoded[0]
        ids, targets, mask, experts, lengths = make_batch_arrays([s], tok.pad_id)
        n = len(s.ids)
        assert np.array_equal(ids, s.ids)
        assert np.array_equal(targets[:n - 1], s.ids[1:])
        assert np.array_equal(mask[:n - 1], s.mask[1:])
        assert not mask[n - 1:].any()
        assert mask.sum() == s.mask.sum()  # EOS target included, nothing lost
        assert experts.tolist() == [s.task_expert]
        assert lengths.tolist() == [n]
        # packed back to back, each sequence's last row targets the pad id, not
        # the next sequence's first id
        two = make_batch_arrays([s, s], tok.pad_id)
        assert np.array_equal(two[0], np.tile(ids, 2))
        assert targets[n - 1] == tok.pad_id
        assert np.array_equal(two[1], np.tile(targets, 2))
        assert np.array_equal(two[2], np.tile(mask, 2))


class TestNllLoss:
    def test_uniform_logit_model_near_log_vocab(self):
        registry = make_registry()
        # pad the alphabet so the vocabulary is exactly 64
        extra = "".join(chr(c) for c in range(0x30, 0x30 + 64 - 7 - 10))
        tok64 = Tokenizer(registry.names, alphabet="abcdefghij" + extra)
        assert tok64.vocab_size == 64
        cfg = ModelConfig(vocab_size=64, d_model=16, n_layers=2, n_heads=2, d_ff=12,
                          n_experts=4, max_seq_len=128)
        run = new_run(cfg, TrainConfig(seed=3), registry, tok64)
        rng = np.random.default_rng(0)
        ids = rng.integers(7, 64, size=4 * 24)
        targets = rng.integers(7, 64, size=4 * 24)
        mask = np.ones(4 * 24, dtype=bool)
        with Graph():
            loss, _ = nll_loss(run.params, cfg, (ids, targets, mask, np.zeros(4, dtype=np.int64),
                                                 np.full(4, 24)))
        assert float(loss.data) == pytest.approx(np.log(64), abs=0.05)

    def test_forced_one_hot_logits_give_zero_loss(self, monkeypatch):
        ckpt, registry, tok = make_setup()
        samples = make_dataset(registry, n=1)
        encoded, _ = encode_samples(samples, tok, ckpt.expert_map, 192)
        arrays = make_batch_arrays(encoded[:1], tok.pad_id)
        ids, targets = arrays[0], arrays[1]

        def perfect_forward(params, config, tokens, lengths, logit_rows, **kwargs):
            assert lengths.sum() == len(tokens)
            logits = np.full((len(tokens), config.vocab_size), -1e4)
            logits[np.arange(len(tokens)), targets] = 1e4
            return Tensor(logits[logit_rows]), []

        monkeypatch.setattr(tr, "forward", perfect_forward)
        loss, _ = nll_loss(ckpt.params, ckpt.config, arrays)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-8)

    def test_batch_of_identical_samples_equals_single(self):
        ckpt, registry, tok = make_setup()
        samples = make_dataset(registry, n=1)
        encoded, _ = encode_samples(samples, tok, ckpt.expert_map, 192)
        one = make_batch_arrays(encoded[:1], tok.pad_id)
        four = make_batch_arrays(encoded[:1] * 4, tok.pad_id)
        with Graph():
            la, _ = nll_loss(ckpt.params, ckpt.config, one)
        with Graph():
            lb, _ = nll_loss(ckpt.params, ckpt.config, four)
        assert float(la.data) == pytest.approx(float(lb.data), abs=1e-6)

    def test_empty_batch_rejected(self):
        ckpt, registry, tok = make_setup()
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                 np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64),
                 np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty batch"):
            nll_loss(ckpt.params, ckpt.config, empty)

    @pytest.mark.parametrize("task_routing", [True, False])
    def test_decisions_have_one_row_per_real_token(self, task_routing):
        ckpt, registry, tok = make_setup()
        samples = make_dataset(registry, n=2)
        encoded, _ = encode_samples(samples, tok, ckpt.expert_map, 192)
        arrays = make_batch_arrays(encoded, tok.pad_id)
        ids, lengths = arrays[0], arrays[4]
        assert len(set(lengths.tolist())) > 1  # ragged: a [B, T] grid would pad
        assert lengths.sum() == len(ids) == (ids != tok.pad_id).sum()
        with Graph():
            _, decisions = nll_loss(ckpt.params, ckpt.config, arrays, task_routing=task_routing)
        # the last layer's MoE runs on the loss rows only
        *inner, last = decisions
        assert all(d.indices.shape == (lengths.sum(), 2) for d in inner)
        assert last.indices.shape == (arrays[2].sum(), 2)
        assert arrays[2].sum() < lengths.sum()

    @pytest.mark.parametrize("task_routing", [True, False])
    def test_both_routes_select_the_config_top_k(self, task_routing):
        ckpt, registry, tok = make_setup(top_k=3)
        encoded, _ = encode_samples(make_dataset(registry, n=2), tok, ckpt.expert_map, 192)
        arrays = make_batch_arrays(encoded, tok.pad_id)
        with Graph():
            _, decisions = nll_loss(ckpt.params, ckpt.config, arrays, task_routing=task_routing)
        assert all(d.indices.shape[1] == 3 for d in decisions)
        assert all(len(set(row)) == 3 for d in decisions for row in d.indices.tolist())
        if task_routing:  # the mapped expert ranks first
            assert all((d.indices[:, 0] == d.task_forced).all() for d in decisions)
            first = decisions[0].task_forced
            assert np.array_equal(first, np.repeat(arrays[3], arrays[4]))

    @pytest.mark.parametrize("task_routing", [True, False])
    def test_matches_per_sample_unpadded_oracle(self, task_routing):
        ckpt, registry, tok = make_setup()
        encoded, _ = encode_samples(make_dataset(registry, n=2), tok, ckpt.expert_map, 192)
        arrays = make_batch_arrays(encoded, tok.pad_id)
        assert len(set(arrays[4].tolist())) > 1  # ragged

        def loss_and_grads(build):
            params = ckpt.named_params()
            ad.zero_grads(t for _, t in params)
            with Graph():
                loss = build()
                ad.backward(loss)
            return float(loss.data), {name: np.zeros_like(t.data) if t.grad is None else t.grad
                                      for name, t in params}

        loss, grads = loss_and_grads(lambda: nll_loss(ckpt.params, ckpt.config, arrays,
                                                      task_routing=task_routing)[0])
        want_loss, want_grads = loss_and_grads(lambda: nll_reference(
            ckpt.params, ckpt.config, arrays, task_routing))
        assert loss == pytest.approx(want_loss, rel=1e-12)
        for name, want in want_grads.items():
            assert np.abs(grads[name] - want).max() <= 1e-12 * np.abs(want).max(), name


class TestTrainLoop:
    def test_single_step_decreases_batch_loss_across_seeds(self):
        wins = 0
        for seed in range(20):
            ckpt, registry, tok = make_setup(seed=seed)
            samples = make_dataset(registry, n=2, master_seed=seed)
            encoded, _ = encode_samples(samples, tok, ckpt.expert_map, 192)
            arrays = make_batch_arrays(encoded, tok.pad_id)
            named = ckpt.named_params()
            params = [t for _, t in named]
            ad.zero_grads(params)
            with Graph():
                loss0, _ = nll_loss(ckpt.params, ckpt.config, arrays)
                ad.backward(loss0)
            ad.clip_global_norm([p for p in params if p.grad is not None], 1.0)
            adamw_step(named, ckpt.opt, lr=1e-3, config=ckpt.train_config)
            with Graph():
                loss1, _ = nll_loss(ckpt.params, ckpt.config, arrays)
            wins += float(loss1.data) < float(loss0.data)
        assert wins >= 19

    def test_trajectory_bitwise_deterministic(self):
        def run():
            ckpt, registry, tok = make_setup(seed=4)
            samples = make_dataset(registry, n=3)
            result = train(ckpt, samples)
            return [row["loss"] for row in result.rows], ckpt

        losses_a, ckpt_a = run()
        losses_b, ckpt_b = run()
        assert losses_a == losses_b
        for (na, ta), (nb, tb) in zip(ckpt_a.named_params(), ckpt_b.named_params()):
            assert np.array_equal(ta.data, tb.data)

    def test_a_step_holds_one_tape(self):
        # the previous step's tape lived on through the next forward pass, so
        # steps 2 and 3 peaked 1.3 times as high as step 1. One sample 30
        # times over gives those steps batches of one shape.
        ckpt, registry, _ = make_setup(dtype="f32", d_model=32, n_layers=2)
        ckpt.train_config = TrainConfig(batch_size_tokens=1024, epochs=1)
        samples = make_dataset(registry, n=1)[:1] * 30
        peaks = []

        def on_step(row, _):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            train(ckpt, samples, on_step=on_step)
        finally:
            tracemalloc.stop()
        assert len(peaks) >= 3
        assert max(peaks[1:3]) <= 1.1 * peaks[0], peaks

    def test_memorization_loss_non_increasing(self):
        ckpt, registry, tok = make_setup(seed=6)
        ckpt.train_config = TrainConfig(seed=6, epochs=50, batch_size_tokens=512,
                                        learning_rate=2e-3)
        samples = make_dataset(registry, n=1)[:2]
        result = train(ckpt, samples)
        losses = [row["loss"] for row in result.rows]
        assert len(losses) == 50
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_eq3_routing_active_every_step(self):
        ckpt, registry, tok = make_setup(seed=7)
        samples = make_dataset(registry, n=2)
        seen = []

        orig = tr.nll_loss

        def spy(*args, **kwargs):
            loss, decisions = orig(*args, **kwargs)
            seen.append(all(d.task_forced is not None for d in decisions))
            return loss, decisions

        tr.nll_loss = spy
        try:
            train(ckpt, samples)
        finally:
            tr.nll_loss = orig
        assert seen and all(seen)

    def test_ablation_disables_forced_route(self):
        ckpt, registry, tok = make_setup(seed=8)
        ckpt.train_config = TrainConfig(seed=8, epochs=1, batch_size_tokens=512,
                                        task_routing=False)
        samples = make_dataset(registry, n=2)
        encoded, _ = encode_samples(samples, tok, ckpt.expert_map, 192)
        arrays = make_batch_arrays(encoded, tok.pad_id)
        with Graph():
            _, decisions = nll_loss(ckpt.params, ckpt.config, arrays, task_routing=False)
        assert all(d.task_forced is None for d in decisions)
        train(ckpt, samples)  # runs clean

    def test_grad_norm_capped(self):
        ckpt, registry, tok = make_setup(seed=9)
        samples = make_dataset(registry, n=2)
        result = train(ckpt, samples)
        for row in result.rows:
            assert row["grad_norm"] >= 0.0
        loads = [row[f"expert_load_{e}"] for e in range(4) for row in result.rows]
        assert all(0.0 <= v <= 1.0 for v in loads)
        assert all(abs(sum(row[f"expert_load_{e}"] for e in range(4)) - 1.0) < 1e-9
                   for row in result.rows)

    def test_nan_loss_aborts_with_diagnostic(self):
        ckpt, registry, tok = make_setup(seed=10)
        samples = make_dataset(registry, n=2)

        def poison(row, ck):
            ck.params.embedding.data[:] = np.nan

        with pytest.raises(NumericalError, match="non-finite"):
            train(ckpt, samples, on_step=poison)

    def test_nan_gradient_with_finite_loss_aborts_before_update(self, tmp_path, monkeypatch):
        ckpt, registry, tok = make_setup(seed=10)
        samples = make_dataset(registry, n=2)
        real_backward = ad.backward
        calls = []

        def poisoned_backward(loss):
            real_backward(loss)
            calls.append(float(loss.data))
            if len(calls) == 2:  # the loss of step 1 is finite, one gradient is not
                ckpt.params.layers[0].wqkv.grad[0, 0] = np.nan

        snapshots = {}

        def on_step(row, ck):
            save_checkpoint(ck, tmp_path / f"step{ck.step}.ck")
            snapshots[ck.step] = [t.data.copy() for _, t in ck.named_params()]

        monkeypatch.setattr(ad, "backward", poisoned_backward)
        with pytest.raises(NumericalError,
                           match=r"gradient norm nan at step 1; batch \(task, seed, len\): \[\('"):
            train(ckpt, samples, on_step=on_step)
        assert np.isfinite(calls).all()
        assert ckpt.step == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["step1.ck"]
        for before, (name, t) in zip(snapshots[1], ckpt.named_params()):
            assert np.array_equal(before, t.data), name

    def test_vocab_mismatch_rejected(self):
        registry = make_registry()
        tok = Tokenizer(registry.names)
        cfg = ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, d_ff=8,
                          n_experts=2)
        with pytest.raises(ValueError, match="vocab"):
            new_run(cfg, TrainConfig(), registry, tok)


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt, registry, tok = make_setup(seed=11)
        samples = make_dataset(registry, n=2)
        train(ckpt, samples)
        p1, p2 = tmp_path / "a.ck", tmp_path / "b.ck"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_every_tensor_round_trips(self, tmp_path):
        ckpt, registry, tok = make_setup(seed=12)
        path = tmp_path / "m.ck"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        for (na, ta), (nb, tb) in zip(ckpt.named_params(), back.named_params()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)
        for name in ckpt.opt.m:
            assert np.array_equal(ckpt.opt.m[name], back.opt.m[name])
            assert np.array_equal(ckpt.opt.v[name], back.opt.v[name])
        assert back.expert_map == ckpt.expert_map

    def test_weights_only_read_gives_the_full_reads_parameters(self, tmp_path):
        ckpt, registry, tok = make_setup(dtype="f32", seed=12)
        train(ckpt, make_dataset(registry, n=2))
        path = tmp_path / "m.ck"
        save_checkpoint(ckpt, path)
        full, weights = load_checkpoint(path), load_checkpoint(path, optimizer=False)
        assert weights.opt is None
        assert [n for n, _ in weights.named_params()] == [n for n, _ in full.named_params()]
        for (name, a), (_, b) in zip(full.named_params(), weights.named_params()):
            assert a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes(), name
            assert b.requires_grad and b.data.flags.c_contiguous and b.data.flags.writeable
        for field in ("config", "expert_map", "train_config", "step", "total_steps"):
            assert getattr(weights, field) == getattr(full, field), field
        assert weights.registry.names == full.registry.names
        assert weights.tokenizer.alphabet == full.tokenizer.alphabet

    def test_a_weights_only_checkpoint_is_neither_saved_nor_trained(self, tmp_path):
        ckpt, registry, tok = make_setup(seed=12)
        path = tmp_path / "m.ck"
        save_checkpoint(ckpt, path)
        before = path.read_bytes()
        weights = load_checkpoint(path, optimizer=False)
        with pytest.raises(ValueError, match=r"save_checkpoint needs the optimizer state"):
            save_checkpoint(weights, path)
        assert os.listdir(tmp_path) == ["m.ck"] and path.read_bytes() == before
        with pytest.raises(ValueError, match=r"train needs the optimizer state"):
            train(weights, make_dataset(registry, n=2))
        assert weights.step == 0

    def test_loads_header_with_legacy_rng_state(self, tmp_path):
        # checkpoints written before the unused RNG state was dropped carry it
        ckpt, registry, tok = make_setup(seed=12)
        path = tmp_path / "m.ck"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + header_len])
        assert "rng_state" not in header
        header["rng_state"] = np.random.default_rng(0).bit_generator.state
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        legacy = tmp_path / "legacy.ck"
        legacy.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + header_len:])
        back = load_checkpoint(legacy)
        for (na, ta), (nb, tb) in zip(ckpt.named_params(), back.named_params()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)
        resaved = tmp_path / "resaved.ck"
        save_checkpoint(back, resaved)
        assert resaved.read_bytes() == raw

    def test_nonzero_aux_loss_coeff_rejected(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h["train_config"].update(aux_loss_coeff=0.01))
        with pytest.raises(CheckpointError, match="aux_loss_coeff") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch):
        ckpt, registry, tok = make_setup(seed=12)
        path = tmp_path / "m.ck"
        save_checkpoint(ckpt, path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew fresh weights")

        monkeypatch.setattr(tr, "init_params", refuse)
        back = load_checkpoint(path)
        assert all(t.requires_grad for _, t in back.named_params())
        save_checkpoint(back, tmp_path / "again.ck")
        assert (tmp_path / "again.ck").read_bytes() == path.read_bytes()

    @staticmethod
    def _rejected_by_both_reads(path, match):
        """The full read and the weights-only read both reject ``path`` with a
        CheckpointError that matches ``match`` and names the file."""
        for optimizer in (True, False):
            with pytest.raises(CheckpointError, match=match) as err:
                load_checkpoint(path, optimizer=optimizer)
            assert str(path) in str(err.value), optimizer

    @pytest.mark.parametrize("store,name", [(None, "layers.1.moe.experts.3.down"),
                                            ("m", "final_norm"), ("v", "embedding")])
    def test_missing_tensor_rejected(self, tmp_path, store, name):
        ckpt, registry, tok = make_setup(seed=12)
        if store is None:
            ckpt.named_params = lambda: [(n, t) for n, t in tr.named_tensors(ckpt.params)
                                         if n != name]
            key = name
        else:
            del getattr(ckpt.opt, store)[name]
            key = f"opt.{store}.{name}"
        path = tmp_path / "m.ck"
        save_checkpoint(ckpt, path)
        self._rejected_by_both_reads(path, f"missing tensor '{key}'")

    @pytest.mark.parametrize("key,expected", [("layers.0.wqkv", "(16, 48)"),
                                              ("opt.m.layers.1.moe.gate", "(16, 4)")])
    def test_misshapen_tensor_rejected(self, tmp_path, key, expected):
        ckpt, registry, tok = make_setup(seed=12)
        if key.startswith("opt.m."):
            ckpt.opt.m[key[len("opt.m."):]] = np.zeros((16, 3))
        else:
            ckpt.params.layers[0].wqkv.data = np.zeros((16, 3))
        path = tmp_path / "m.ck"
        save_checkpoint(ckpt, path)
        self._rejected_by_both_reads(path, re.escape(f"'{key}' has shape (16, 3), "
                                                     f"expected {expected}"))

    def test_unknown_dtype_rejected(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h.update(dtype="f16"))
        self._rejected_by_both_reads(path, "unknown dtype 'f16'")
        # a tensor's tag, in the optimizer section
        raw = bytearray((tmp_path / "m.ck").read_bytes())
        raw[tensor_offsets(tmp_path / "m.ck")["opt.v.final_norm"]] = 7
        bad = tmp_path / "bad.ck"
        bad.write_bytes(bytes(raw))
        self._rejected_by_both_reads(bad, "unknown dtype tag 7 for tensor 'opt.v.final_norm'")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ck"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        # version 1 stored each layer's q, k and v projections apart
        path = tmp_path / "bad.ck"
        for version in (1, 99):
            path.write_bytes(b"NEKO" + version.to_bytes(4, "little") + b"\x00" * 8)
            with pytest.raises(CheckpointError, match=re.escape(
                    f"unsupported checkpoint version {version} (this build reads version 2)")):
                load_checkpoint(path)

    def test_truncation(self, tmp_path):
        ckpt, registry, tok = make_setup(seed=13)
        path = tmp_path / "m.ck"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        opt_at = tensor_offsets(path)["opt.m.layers.0.wqkv"]
        # in the header, in an optimizer tensor's header, in its data, and
        # in the data of the last tensor
        for i, end in enumerate([200, opt_at + 3, opt_at + 200, len(raw) - 3]):
            clipped = tmp_path / f"t{i}.ck"
            clipped.write_bytes(raw[:end])
            self._rejected_by_both_reads(clipped, "truncated")

    @staticmethod
    def _with_header(tmp_path, edit):
        """A valid checkpoint file whose JSON header went through ``edit``."""
        ckpt, registry, tok = make_setup(seed=12)
        path = tmp_path / "m.ck"
        save_checkpoint(ckpt, path)
        return rewrite_header(path, tmp_path / "edited.ck", edit)

    def test_trailing_bytes_rejected(self, tmp_path):
        ckpt, registry, tok = make_setup(seed=13)
        path = tmp_path / "m.ck"
        save_checkpoint(ckpt, path)
        with open(path, "ab") as fh:
            fh.write(b"junk")
        self._rejected_by_both_reads(path, "after the last")

    def test_missing_header_key_rejected(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h.pop("adam_t"))
        with pytest.raises(CheckpointError, match="missing adam_t") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("edit,key", [
        (lambda h: h.update(n_tensors=str(h["n_tensors"])), "n_tensors"),
        (lambda h: h.update(adam_t=[0]), "adam_t"),
        (lambda h: h.update(step=None), "step"),
        (lambda h: h.update(total_steps=True), "total_steps"),
        (lambda h: h.update(expert_map=[0, 1, 2]), "expert_map"),
        (lambda h: h.update(tasks="asr"), "tasks"),
        (lambda h: h.update(tasks=["asr", 3, "typo"]), "tasks"),
        (lambda h: h.update(tasks=["asr", "ocr"]), "tasks"),  # one tag short of vocab_size
        (lambda h: h["expert_map"]["assignment"].pop(), "expert_map"),
        (lambda h: h["expert_map"]["assignment"].__setitem__(0, 4), "expert_map"),
        (lambda h: h["expert_map"]["assignment"].__setitem__(0, "1"), "expert_map"),
        (lambda h: h["expert_map"].update(seed=None), "expert_map"),
        (lambda h: h.update(step=31, adam_t=31, total_steps=30), "step"),
        (lambda h: h.update(step=-3, adam_t=-3, total_steps=30), "step"),
        (lambda h: h.update(step=5, adam_t=4, total_steps=30), "adam_t"),
    ], ids=["n_tensors-str", "adam_t-list", "step-null", "total_steps-bool", "expert_map-list",
            "tasks-str", "tasks-int-name", "tasks-vocab", "expert_map-short",
            "expert_map-out-of-range", "expert_map-str-id", "expert_map-null-seed",
            "step-past-total", "step-negative", "adam_t-not-step"])
    def test_bad_header_value_rejected(self, tmp_path, edit, key):
        path = self._with_header(tmp_path, edit)
        with pytest.raises(CheckpointError, match=f"'{key}'") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_dtype_is_the_parameters_and_every_tensor_matches_the_header(self, tmp_path):
        for dtype in ("f32", "f64"):
            assert make_setup(dtype=dtype)[0].dtype == dtype
        path = self._with_header(tmp_path, lambda h: h.update(dtype="f32"))  # over f64 tensors
        self._rejected_by_both_reads(path, "tensor 'embedding' is float64, the header's "
                                           "dtype is f32")
        ckpt, registry, tok = make_setup(dtype="f32", seed=12)
        ckpt.params.final_norm.data = ckpt.params.final_norm.data.astype(np.float64)
        mixed = tmp_path / "mixed.ck"
        save_checkpoint(ckpt, mixed)
        self._rejected_by_both_reads(mixed, "tensor 'final_norm' is float64")
        ckpt, registry, tok = make_setup(dtype="f32", seed=12)
        ckpt.opt.v["layers.1.wo"] = ckpt.opt.v["layers.1.wo"].astype(np.float64)
        save_checkpoint(ckpt, mixed)
        self._rejected_by_both_reads(mixed, "tensor 'opt.v.layers.1.wo' is float64")

    def test_unknown_model_config_key_rejected(self, tmp_path):
        path = self._with_header(tmp_path, lambda h: h["model_config"].update(n_towers=2))
        with pytest.raises(CheckpointError, match="ModelConfig.*n_towers") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("section,field,value,match", [
        ("model_config", "n_heads", 3, "ModelConfig.*not divisible by n_heads 3"),
        ("train_config", "epochs", 0, "TrainConfig.*epochs must be positive"),
    ])
    def test_bad_config_value_rejected(self, tmp_path, section, field, value, match):
        path = self._with_header(tmp_path, lambda h: h[section].update({field: value}))
        with pytest.raises(CheckpointError, match=match) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        old, registry, tok = make_setup(seed=15)
        path = tmp_path / "m.ck"
        save_checkpoint(old, path)
        before = path.read_bytes()
        real_write = tr._write_tensor
        calls = []

        def fail_after_first(fh, name, arr):
            if calls:
                raise OSError("disk full")
            calls.append(name)
            real_write(fh, name, arr)

        monkeypatch.setattr(tr, "_write_tensor", fail_after_first)
        new, _, _ = make_setup(seed=16)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(new, path)
        assert calls
        assert os.listdir(tmp_path) == ["m.ck"]
        assert path.read_bytes() == before
        back = load_checkpoint(path)
        for (na, ta), (nb, tb) in zip(old.named_params(), back.named_params()):
            assert np.array_equal(ta.data, tb.data), na

    def test_resume_is_bitwise_identical(self, tmp_path):
        samples = None

        def fresh():
            ckpt, registry, tok = make_setup(seed=14)
            return ckpt, make_dataset(registry, n=3)

        # uninterrupted run
        ckpt_full, samples = fresh()
        full = train(ckpt_full, samples)

        # interrupted at mid-run, then resumed from disk
        ckpt_half, samples = fresh()
        mid = tmp_path / "mid.ck"
        halfway = len(full.rows) // 2

        def snapshot(row, ck):
            if ck.step == halfway:
                save_checkpoint(ck, mid)

        train(ckpt_half, samples, on_step=snapshot)
        resumed = load_checkpoint(mid)
        tail = train(resumed, samples)

        assert [r["loss"] for r in tail.rows] == [r["loss"] for r in full.rows[halfway:]]
        for (na, ta), (nb, tb) in zip(ckpt_full.named_params(), resumed.named_params()):
            assert np.array_equal(ta.data, tb.data), na


class TestRouteStats:
    def test_fractions_sum_to_top_k(self):
        ckpt, registry, tok = make_setup(seed=15)
        samples = make_dataset(registry, n=2)
        report, skipped = route_stats_over(ckpt, samples)
        assert skipped == 0
        fractions = report.counts / report.rows[:, None]
        assert fractions.shape == (3, 4)
        assert fractions.sum(axis=1) == pytest.approx([ckpt.config.top_k] * 3, abs=1e-9)

    def test_batched_counts_match_per_sample_reference(self):
        ckpt, registry, tok = make_setup(seed=16)
        ckpt.train_config = TrainConfig(seed=16, batch_size_tokens=300)
        samples = make_dataset(registry, n=6)
        schedule = build_schedule([len(s.ids) for s in encode_samples(
            samples, tok, ckpt.expert_map, 192)[0]], 1, 300, 16)
        assert len(schedule) > 1 and max(map(len, schedule)) > 1  # several padded batches
        report, _ = route_stats_over(ckpt, samples)
        want = route_stats_reference(ckpt, samples)
        assert report.tasks == want.tasks
        assert np.array_equal(report.rows, want.rows)
        assert np.array_equal(report.counts, want.counts)
        assert np.allclose(report.weight_sums, want.weight_sums, rtol=1e-12, atol=0)
        assert report.to_csv() == want.to_csv()

    def test_no_usable_sample_is_counted(self):
        ckpt, registry, tok = make_setup(seed=15, max_seq_len=20)
        with pytest.raises(tr.NoUsableSamples, match=r"\(12 skipped as overlong\)"):
            route_stats_over(ckpt, make_dataset(registry, n=4))
