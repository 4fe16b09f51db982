import inspect
from dataclasses import replace

import numpy as np
import pytest

from moefix import autodiff as ad
from moefix import metrics, model, training
from moefix.autodiff import Tensor
from moefix.model import (
    KVCache,
    ModelConfig,
    causal_attention,
    forward,
    forward_incremental,
    generate,
    init_params,
    named_tensors,
    parameters,
    rope_tables,
    row_layout,
)
from helpers import (attention_reference, gradcheck, greedy_reference, mul, sum_,
                     swiglu_reference)


def tiny_config(**overrides):
    base = dict(vocab_size=19, d_model=16, n_layers=2, n_heads=2, d_ff=12,
                n_experts=3, top_k=2, max_seq_len=32)
    base.update(overrides)
    return ModelConfig(**base)


class TestConfig:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_config(d_model=18, n_heads=4)

    def test_rejects_bad_top_k(self):
        with pytest.raises(ValueError, match="top_k"):
            tiny_config(top_k=4, n_experts=3)

    def test_rejects_zero_sizes(self):
        with pytest.raises(ValueError, match=">= 1"):
            tiny_config(n_layers=0)

    @pytest.mark.parametrize("field,value,match", [
        ("rms_eps", float("nan"), "rms_eps must be finite"),
        ("rope_base", float("inf"), "rope_base must be finite"),
        ("rms_eps", 0.0, "rms_eps 0.0 must be positive"),
        ("rope_base", -1.0, "rope_base -1.0 and"),
    ])
    def test_rejects_bad_float_fields(self, field, value, match):
        # a NaN eps passes rms_norm's own eps <= 0 check
        with pytest.raises(ValueError, match=match):
            tiny_config(**{field: value})


class TestInit:
    def test_same_seed_bitwise_identical(self):
        cfg = tiny_config()
        a = init_params(cfg, seed=9)
        b = init_params(cfg, seed=9)
        for (na, ta), (nb, tb) in zip(named_tensors(a), named_tensors(b)):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_different_seeds_differ(self):
        cfg = tiny_config()
        a = init_params(cfg, seed=1)
        b = init_params(cfg, seed=2)
        assert not np.array_equal(a.embedding.data, b.embedding.data)

    def test_weight_statistics(self):
        # 5-sigma band around (0, 0.02); truncation at 3 sigma shrinks the std
        # by ~1.3%, well inside the band for n = 1e4
        cfg = tiny_config(vocab_size=640, d_model=16)
        params = init_params(cfg, seed=3)
        w = params.embedding.data.ravel()
        n = w.size
        assert n >= 10_000
        assert abs(w.mean()) <= 5 * 0.02 / np.sqrt(n)
        assert abs(w.std() - 0.02) <= 5 * 0.02 / np.sqrt(2 * n)
        assert np.abs(w).max() <= 3 * 0.02 + 1e-12

    def test_norm_weights_are_ones(self):
        params = init_params(tiny_config(), seed=4)
        assert np.array_equal(params.final_norm.data, np.ones(16, dtype=np.float32))

    def test_all_finite(self):
        params = init_params(tiny_config(), seed=5)
        assert all(np.isfinite(t.data).all() for t in parameters(params))


class TestAttention:
    def test_single_token_attends_to_itself(self):
        cfg = tiny_config(n_layers=1)
        params = init_params(cfg, seed=6, dtype="f64")
        layer = params.layers[0]
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, cfg.d_model)))
        got = causal_attention(x, layer, cfg, row_layout(cfg, [1], np.float64)).data
        # with T=1 the attention matrix is [[1]], so output reduces to (x Wv) Wo
        want = (x.data @ layer.wv.data) @ layer.wo.data
        assert np.abs(got - want).max() < 1e-12

    def test_matches_dense_reference_on_a_padded_batch(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=7, dtype="f64")
        rng = np.random.default_rng(1)
        tokens = rng.integers(1, cfg.vocab_size, size=(3, 10))
        lengths = np.array([7, 10, 3])  # not sorted: the node sorts them
        real = np.arange(10) < lengths[:, None]
        tokens[~real] = 0  # right padding, as make_batch_arrays lays it out
        layer = params.layers[0]
        x = ad.rms_norm(ad.take(params.embedding, tokens), layer.attn_norm, cfg.rms_eps)
        got = causal_attention(Tensor(x.data[real]), layer, cfg,
                               row_layout(cfg, lengths, np.float64)).data
        # under the causal mask a real position never reaches a pad one
        want = attention_reference(x.data, layer, cfg)[real]
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("t", [64, 65, 2 * 64 + 5])
    def test_matches_dense_reference_across_query_blocks(self, t):
        cfg = tiny_config(max_seq_len=160)
        params = init_params(cfg, seed=22, dtype="f64")
        x = np.random.default_rng(t).normal(size=(2, t, cfg.d_model))
        got = causal_attention(Tensor(x.reshape(2 * t, -1)), params.layers[0], cfg,
                               row_layout(cfg, [t, t], np.float64)).data
        want = attention_reference(x, params.layers[0], cfg).reshape(2 * t, -1)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("t", [1, 9, 2 * 64 + 5])
    def test_gradients_match_finite_differences(self, t):
        # x and the four projections, through one block, a partial one, and three
        self._gradcheck(np.array([t]))

    def test_gradients_match_finite_differences_on_a_ragged_batch(self):
        # a row shorter than one block, one longer than two, one in between
        self._gradcheck(np.array([5, 2 * 64 + 5, 70]))

    @staticmethod
    def _gradcheck(lengths):
        cfg = tiny_config(d_model=8, n_heads=2, max_seq_len=160)
        layer = init_params(cfg, seed=23, dtype="f64").layers[0]
        rng = np.random.default_rng(int(lengths.sum()))
        x = Tensor(rng.normal(size=(lengths.sum(), cfg.d_model)), requires_grad=True)
        proj = rng.normal(size=x.shape)

        def build():
            out = causal_attention(x, layer, cfg, row_layout(cfg, lengths, np.float64))
            return sum_(mul(out, Tensor(proj)))

        gradcheck(build, [x, layer.wq, layer.wk, layer.wv, layer.wo])

    def test_train_tape_holds_no_score_matrix(self):
        # a [T, T] array on the tape, as a node output or saved for a backward
        # pass, is the quadratic memory the fused node avoids; a node output
        # with one row per [B, T] position would be work done on pads
        t = 9

        def tape(n_layers):
            cfg = tiny_config(n_layers=n_layers)
            params = init_params(cfg, seed=24)
            tokens = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(2, t))
            with ad.Graph() as graph:
                forward(params, cfg, tokens, forced=[0, 1], lengths=np.array([t, 6]))
            return graph.nodes

        nodes = tape(3)
        for node in nodes:
            assert node.data.shape[0] != 2 * t, node
            cells = [c.cell_contents for c in node._backward.__closure__ or ()]
            for a in [node.data] + [c for c in cells if isinstance(c, np.ndarray)]:
                assert a.shape[-2:] != (t, t), node
        # per layer: 2 norms, attention, 2 residual adds and the MoE's gate
        # matmul and dispatch
        assert (len(nodes) - len(tape(1))) / 2 == 7

    def test_cache_path_refuses_to_record(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=25)
        with ad.Graph(), pytest.raises(ValueError, match="inference-only"):
            forward(params, cfg, np.zeros(3, dtype=np.int64), cache=KVCache(params, cfg))

    def test_rejects_a_layout_of_another_precision(self):
        cfg = tiny_config()
        layer = init_params(cfg, seed=27, dtype="f64").layers[0]
        x = Tensor(np.zeros((3, cfg.d_model)))
        with pytest.raises(ValueError, match="row layout built for complex64"):
            causal_attention(x, layer, cfg, row_layout(cfg, [3], np.float32))

    def test_rejects_overlong_sequence(self):
        cfg = tiny_config(max_seq_len=8)
        params = init_params(cfg, seed=8)
        with pytest.raises(ValueError, match="max_seq_len"):
            forward(params, cfg, np.zeros(9, dtype=np.int64))

    def test_rope_tables_shape(self):
        cfg = tiny_config()
        cos, sin = rope_tables(cfg, np.arange(5), np.float32)
        assert cos.shape == (5, 1, cfg.head_dim // 2)
        assert np.allclose(cos**2 + sin**2, 1.0, atol=1e-6)


class TestForward:
    def test_output_shape(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=10)
        for t in (1, 5, 17):
            logits, decisions = forward(params, cfg, np.zeros(t, dtype=np.int64))
            assert logits.data.shape == (t, cfg.vocab_size)
            assert len(decisions) == cfg.n_layers
            assert all(d.indices.shape[0] == t for d in decisions)

    def test_train_mode_marks_forced_expert(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=13)
        tokens = np.zeros((2, 6), dtype=np.int64)
        _, decisions = forward(params, cfg, tokens, forced=[1, 2])
        for d in decisions:
            assert d.task_forced is not None
            forced = d.task_forced.reshape(2, 6)
            assert (forced[0] == 1).all() and (forced[1] == 2).all()

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_pad_positions_are_not_routed(self, mode, monkeypatch):
        cfg = tiny_config()
        params = init_params(cfg, seed=15, dtype="f64")
        rng = np.random.default_rng(4)
        long, short = rng.integers(0, cfg.vocab_size, size=9), rng.integers(0, cfg.vocab_size, size=5)
        tokens = np.zeros((2, 9), dtype=np.int64)
        tokens[0], tokens[1, :5] = long, short
        seen = []  # (route, routed rows, decision) of each MoE call

        def spying(name):
            real = getattr(model, name)

            def spy(x, moe_params, *route_args):
                y, decision = real(x, moe_params, *route_args)
                seen.append((name, x.data, decision))
                return y, decision
            return spy

        for name in ("moe_forward_task", "moe_forward_infer"):
            monkeypatch.setattr(model, name, spying(name))
        train = mode == "train"
        logits, decisions = forward(params, cfg, tokens, forced=[0, 2] if train else None,
                                    lengths=np.array([9, 5]))
        assert logits.shape == (14, cfg.vocab_size)  # one row per real position
        assert all(d.indices.shape[0] == 14 for d in decisions)
        if train:
            assert all(d.task_forced.tolist() == [0] * 9 + [2] * 5 for d in decisions)
        route = "moe_forward_task" if train else "moe_forward_infer"
        assert [name for name, _, _ in seen] == [route] * cfg.n_layers
        assert all(d is decision for d, (_, _, decision) in zip(decisions, seen))
        batch_seen, seen[:] = seen[:], []
        alone = [forward(params, cfg, seq, forced=e if train else None)
                 for seq, e in ((long, 0), (short, 2))]
        assert np.allclose(logits.data[:9], alone[0][0].data, rtol=1e-12, atol=1e-12)
        assert np.allclose(logits.data[9:], alone[1][0].data, rtol=1e-12, atol=1e-12)
        for i in range(cfg.n_layers):
            # the same real rows, routed without pads
            x_real = np.concatenate([seen[i][1], seen[cfg.n_layers + i][1]])
            idx = np.concatenate([seen[i][2].indices, seen[cfg.n_layers + i][2].indices])
            assert np.array_equal(decisions[i].indices, idx)
            assert batch_seen[i][1].shape == x_real.shape
            assert np.allclose(batch_seen[i][1], x_real, rtol=1e-12, atol=1e-12)

    def test_causality(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=14, dtype="f64")
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, cfg.vocab_size, size=12)
        base, _ = forward(params, cfg, tokens)
        for t in (0, 4, 10):
            mutated = tokens.copy()
            mutated[t + 1:] = rng.integers(0, cfg.vocab_size, size=len(tokens) - t - 1)
            out, _ = forward(params, cfg, mutated)
            assert np.array_equal(out.data[: t + 1], base.data[: t + 1])

    def test_single_expert_matches_dense_reference(self):
        cfg = tiny_config(n_layers=1, n_experts=1, top_k=1)
        params = init_params(cfg, seed=15)
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, cfg.vocab_size, size=9)
        got, _ = forward(params, cfg, tokens)

        # dense reference: same backbone with the expert called directly
        layer = params.layers[0]
        x = ad.take(params.embedding, tokens)
        x = ad.add(x, causal_attention(ad.rms_norm(x, layer.attn_norm, cfg.rms_eps),
                                       layer, cfg, row_layout(cfg, [9], np.float32)))
        h = ad.rms_norm(x, layer.ffn_norm, cfg.rms_eps)
        x = ad.add(x, Tensor(swiglu_reference(h.data, layer.moe.experts[0])))
        x = ad.rms_norm(x, params.final_norm, cfg.rms_eps)
        want = x.data @ params.embedding.data.T
        assert np.array_equal(got.data, want)

    def test_param_count_consistent(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=16)
        names = [n for n, _ in named_tensors(params)]
        assert len(names) == len(set(names))


class TestGeneration:
    def test_incremental_matches_full_forward(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=17, dtype="f64")
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, cfg.vocab_size, size=11)
        full, _ = forward(params, cfg, tokens)
        cache = KVCache(params, cfg)
        inc_a, _ = forward_incremental(params, cfg, tokens[:7], cache)
        inc_b, _ = forward_incremental(params, cfg, tokens[7:], cache)
        inc = np.concatenate([inc_a, inc_b], axis=0)
        assert np.abs(inc - full.data).max() < 1e-10

    def test_cached_steps_after_a_multi_block_prefill_match_full_forward(self):
        cfg = tiny_config(max_seq_len=96)
        params = init_params(cfg, seed=26, dtype="f64")
        tokens = np.random.default_rng(7).integers(0, cfg.vocab_size, size=75)
        full, _ = forward(params, cfg, tokens)
        cache = KVCache(params, cfg)
        steps = [forward_incremental(params, cfg, tokens[:70], cache)[0]]
        steps += [forward_incremental(params, cfg, tokens[i:i + 1], cache)[0] for i in range(70, 75)]
        assert np.abs(np.concatenate(steps) - full.data).max() <= 1e-12

    def test_f32_decode_stays_f32_and_writes_cache_in_place(self):
        cfg = tiny_config(n_layers=3)
        params = init_params(cfg, seed=20, dtype="f32")
        rng = np.random.default_rng(6)
        tokens = rng.integers(0, cfg.vocab_size, size=12)
        full, _ = forward(params, cfg, tokens)
        cache = KVCache(params, cfg)
        steps = [forward_incremental(params, cfg, tokens[:5], cache)[0]]
        buffers = [id(a) for a in cache.k + cache.v]
        for token in tokens[5:]:
            steps.append(forward_incremental(params, cfg, np.array([token]), cache)[0])
            assert [id(a) for a in cache.k + cache.v] == buffers
        assert all(s.dtype == np.float32 for s in steps)
        assert all(a.dtype == np.float32 for a in cache.k + cache.v)
        assert cache.length == len(tokens)
        assert np.abs(np.concatenate(steps) - full.data).max() < 1e-5

    @pytest.mark.parametrize("n_layers", [1, 2, 4])
    def test_cached_step_creates_seven_tensors_per_layer(self, n_layers):
        # per layer: 2 norms, attention, 2 residual adds, the gate matmul and
        # the dispatch; then the embedding take, the final norm and the LM
        # head's product
        cfg = tiny_config(n_layers=n_layers)
        params = init_params(cfg, seed=28)
        cache = KVCache(params, cfg)
        forward_incremental(params, cfg, np.array([1, 2, 3]), cache)
        before = Tensor(0).node_id
        forward_incremental(params, cfg, np.array([4]), cache)
        assert Tensor(0).node_id - before - 1 == 7 * n_layers + 3

    def test_incremental_rejects_overflowing_cache(self):
        cfg = tiny_config(max_seq_len=8)
        params = init_params(cfg, seed=21)
        cache = KVCache(params, cfg)
        forward_incremental(params, cfg, np.zeros(6, dtype=np.int64), cache)
        with pytest.raises(ValueError, match="sequence length 9 exceeds max_seq_len 8"):
            forward_incremental(params, cfg, np.zeros(3, dtype=np.int64), cache)
        assert cache.length == 6

    def test_greedy_generate_matches_step_by_step(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=18, dtype="f64")
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, cfg.vocab_size, size=6)
        eos = cfg.vocab_size - 1
        out = generate(params, cfg, prompt, max_new_tokens=8, eos_id=eos)
        seq = list(prompt)
        for step in range(len(out)):
            logits, _ = forward(params, cfg, np.array(seq))
            nxt = int(np.argmax(logits.data[-1]))
            assert nxt == out[step]
            seq.append(nxt)
            if nxt == eos:
                break

    def test_generate_matches_the_one_token_oracle_while_drafting(self, monkeypatch):
        params, cfg = chain_model()
        expected = greedy_reference(params, cfg, CHAIN_PROMPT, 40, -1)
        passes = record_passes(monkeypatch)
        out = generate(params, cfg, CHAIN_PROMPT, max_new_tokens=40, eos_id=-1)
        assert np.array_equal(out, expected)
        drafted = [(len(tokens) - 1, accepted_drafts(tokens, greedy))
                   for _, tokens, greedy, _ in passes[1:]]
        assert any(a > 0 for _, a in drafted)  # some draft was (partly) accepted
        assert any(a < m for m, a in drafted)  # and some drafted id was rejected
        assert len(drafted) < len(out) - 1  # fewer passes than one-token steps

    def test_cached_steps_after_a_rejected_draft_match_full_forward(self, monkeypatch):
        params, cfg = chain_model()
        passes = record_passes(monkeypatch)
        out = generate(params, cfg, CHAIN_PROMPT, max_new_tokens=40, eos_id=-1)
        full, _ = forward(params, cfg, np.concatenate([CHAIN_PROMPT, out[:-1]]))
        after_rejection = 0
        rejected = False
        for start, tokens, greedy, logits in passes[1:]:
            # the rows up to the first rejected id saw the true context
            rows = accepted_drafts(tokens, greedy) + 1
            assert np.abs(logits[:rows] - full.data[start:start + rows]).max() <= 1e-12
            after_rejection += rejected
            rejected = rows < len(tokens)
        assert after_rejection > 0

    def test_eos_inside_an_accepted_draft_stops_there(self, monkeypatch):
        params, cfg = chain_model()
        passes = record_passes(monkeypatch)
        free = generate(params, cfg, CHAIN_PROMPT, max_new_tokens=40, eos_id=-1)
        j = new_id_inside_a_draft(passes, free)
        eos = int(free[j])
        passes.clear()
        out = generate(params, cfg, CHAIN_PROMPT, max_new_tokens=40, eos_id=eos)
        start, tokens, greedy, _ = passes[-1]
        # the last pass accepted the EOS and at least one drafted id after it
        assert accepted_drafts(tokens, greedy) > len(CHAIN_PROMPT) + j - start >= 1
        assert np.array_equal(out, free[:j + 1])
        assert np.array_equal(out, greedy_reference(params, cfg, CHAIN_PROMPT, 40, eos))

    @pytest.mark.parametrize("cap", ["max_new_tokens", "max_seq_len"])
    def test_length_cap_inside_a_draft(self, monkeypatch, cap):
        params, cfg = chain_model()
        passes = record_passes(monkeypatch)
        free = generate(params, cfg, CHAIN_PROMPT, max_new_tokens=40, eos_id=-1)
        j = new_id_inside_a_draft(passes, free)
        budget = 40
        if cap == "max_new_tokens":
            budget = j + 1
        else:  # the cache is full once it holds the ids before output j
            cfg = replace(cfg, max_seq_len=len(CHAIN_PROMPT) + j)
        passes.clear()
        out = generate(params, cfg, CHAIN_PROMPT, max_new_tokens=budget, eos_id=-1)
        # no pass ran an id past the cap
        assert max(start + len(tokens) for start, tokens, _, _ in passes) == len(CHAIN_PROMPT) + j
        assert np.array_equal(out, free[:j + 1])
        assert np.array_equal(out, greedy_reference(params, cfg, CHAIN_PROMPT, budget, -1))

    def test_cache_truncation(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=27, dtype="f64")
        tokens = np.random.default_rng(8).integers(0, cfg.vocab_size, size=9)
        full, _ = forward(params, cfg, tokens)
        cache = KVCache(params, cfg)
        forward_incremental(params, cfg, tokens[:5], cache)
        forward_incremental(params, cfg, (tokens[5:8] + 1) % cfg.vocab_size, cache)
        cache.truncate(5)
        again, _ = forward_incremental(params, cfg, tokens[5:], cache)
        assert np.abs(again - full.data[5:]).max() <= 1e-12
        with pytest.raises(ValueError, match="truncate a cache of 9 positions to 10"):
            cache.truncate(10)

    def test_positional_signatures_of_benchmark_hooks(self):
        # callers that wrap these functions (the benchmark's tracer among
        # them) read the arguments by position, under these names
        assert metrics.generate is model.generate
        for fn, names in (
            (model.generate,
             ["params", "config", "prompt_ids", "max_new_tokens", "eos_id", "top_k"]),
            (model.forward_incremental, ["params", "config", "new_tokens", "cache", "top_k"]),
            (training.make_batch_arrays, ["batch", "pad_id"]),
            (model.moe_forward_task, ["x", "params", "task_expert", "k"]),
            (model.moe_forward_infer, ["x", "params", "k"]),
        ):
            sig = inspect.signature(fn).parameters
            assert list(sig) == names, fn.__name__
            assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in sig.values())
        for fn in (model.generate, model.forward_incremental):
            assert inspect.signature(fn).parameters["top_k"].default is None


# Greedy decoding of ``chain_model`` steps each id by +5 (mod 19), so the
# chain 2 7 12 17 3 8 in the prompt is a draft the model accepts, while the
# ids that follow 4, 11 and 0 in the prompt are drafts it rejects.
CHAIN_PROMPT = np.array([4, 16, 2, 7, 12, 17, 3, 8, 11, 9, 2, 7, 0, 5, 16])


def chain_model():
    """f64 parameters whose greedy next id is its last id plus 5, mod 19:
    ids embed as the first feature of distinct rotary pairs, so the first
    layer's attention finds the last id's own position, and its value and
    output projections map it to the next id's feature; the rest of the
    model keeps its random weights."""
    cfg = tiny_config(d_model=40, n_heads=1, max_seq_len=64)
    params = init_params(cfg, seed=40, dtype="f64")
    v, d = cfg.vocab_size, cfg.d_model
    params.embedding.data[:] = np.eye(v, d)
    layer = params.layers[0]
    layer.wq.data[:] = layer.wk.data[:] = 3 * np.eye(d)
    layer.wv.data[:] = np.eye(d)
    layer.wo.data[:] = 0.0
    layer.wo.data[np.arange(v), (np.arange(v) + 5) % v] = 1.0
    return params, cfg


def record_passes(monkeypatch) -> list:
    """A list that gets (cache length before, ids, argmax ids, logits) of
    every ``forward_incremental`` call from now on."""
    passes = []
    real = model.forward_incremental

    def recording(params, config, new_tokens, cache, top_k=None):
        start, tokens = cache.length, np.array(new_tokens)
        logits, decisions = real(params, config, new_tokens, cache, top_k)
        passes.append((start, tokens, logits.argmax(axis=-1), logits))
        return logits, decisions

    monkeypatch.setattr(model, "forward_incremental", recording)
    return passes


def accepted_drafts(tokens, greedy) -> int:
    """How many drafted ids (after the first of ``tokens``) a pass accepted."""
    a = 0
    while a < len(tokens) - 1 and greedy[a] == tokens[a + 1]:
        a += 1
    return a


def new_id_inside_a_draft(passes, out) -> int:
    """An output index j whose id a pass accepted from its draft, followed by
    more accepted drafted ids, and which first occurs in ``out`` at j: the
    last such index of the first pass that has one."""
    p = len(CHAIN_PROMPT)
    for start, tokens, greedy, _ in passes[1:]:
        inside = [start + 1 + i - p for i in range(accepted_drafts(tokens, greedy) - 1)]
        new = [j for j in inside if list(out).index(out[j]) == j]
        if new:
            return new[-1]
    raise AssertionError("no drafted id to stop at")
