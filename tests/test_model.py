import inspect
import tracemalloc
import weakref
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
    lm_head,
    named_tensors,
    parameters,
    rope_tables,
    row_layout,
)
from helpers import (add, attend_backward_reference, attend_reference, attention_block_reference,
                     gradcheck, greedy_reference, lookup_reference,
                     matmul_nt, moe_block_reference, mul, rms_norm, sum_, swiglu_reference)


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

    # The last row's f64 logits of the seed-12 model over GOLDEN_TOKENS, to
    # 17 digits. A change to the draw order or to a parameter's layout that
    # changes what a seed builds fails here; the benchmark's fixed weights
    # rely on a seed building the same model.
    GOLDEN_TOKENS = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    GOLDEN_LOGITS = [
        0.033784251146111929, 0.071916983212722371, 0.11527967468169385, 0.18589261568621937,
        -0.0081125524158099389, -0.062326224159419109, 0.072855938437121834,
        -0.11486698450072066, -0.11581985228006443, 0.10612093241558364, 0.12456460066736962,
        0.053075756317484624, -0.09301821081658565, -0.022181126800684833, 0.1762718529852712,
        0.015244586863103225, -0.013336229856492595, -0.022370092368208059,
        0.014467344006477577]

    def test_seeded_model_function_is_pinned(self):
        # not a hash of the bytes: BLAS kernels round differently across hosts
        cfg = tiny_config()
        params = init_params(cfg, seed=12, dtype="f64")
        logits, _ = forward(params, cfg, np.array(self.GOLDEN_TOKENS))
        np.testing.assert_allclose(logits.data[-1], self.GOLDEN_LOGITS, rtol=1e-12, atol=0)


class TestAttention:
    def test_single_token_attends_to_itself(self):
        cfg = tiny_config(n_layers=1)
        params = init_params(cfg, seed=6, dtype="f64")
        layer = params.layers[0]
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, cfg.d_model)))
        got = causal_attention(x, layer, cfg, row_layout(cfg, [1], np.float64)).data
        # with T=1 the attention matrix is [[1]], so the block reduces to
        # x + (rms_norm(x) Wv) Wo
        normed = rms_norm(x, layer.attn_norm, cfg.rms_eps).data
        want = x.data + (normed @ layer.wqkv.data[:, 2 * cfg.d_model:]) @ layer.wo.data
        assert np.abs(got - want).max() < 1e-12

    def test_matches_dense_reference_on_a_padded_batch(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=7, dtype="f64")
        rng = np.random.default_rng(1)
        tokens = rng.integers(1, cfg.vocab_size, size=(3, 10))
        lengths = np.array([7, 10, 3])  # not sorted: the node sorts them
        real = np.arange(10) < lengths[:, None]
        tokens[~real] = 0  # right padding, for the dense reference
        layer = params.layers[0]
        x = params.embedding.data[tokens]
        got = causal_attention(Tensor(x[real]), layer, cfg,
                               row_layout(cfg, lengths, np.float64)).data
        # under the causal mask a real position never reaches a pad one
        want = attention_block_reference(x, layer, cfg)[real]
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("t", [64, 65, 2 * 64 + 5])
    def test_matches_dense_reference_across_query_blocks(self, t):
        cfg = tiny_config(max_seq_len=160)
        params = init_params(cfg, seed=22, dtype="f64")
        x = np.random.default_rng(t).normal(size=(2, t, cfg.d_model))
        got = causal_attention(Tensor(x.reshape(2 * t, -1)), params.layers[0], cfg,
                               row_layout(cfg, [t, t], np.float64)).data
        want = attention_block_reference(x, params.layers[0], cfg).reshape(2 * t, -1)
        assert np.abs(got - want).max() <= 1e-12

    # A ragged batch: a sequence shorter than a block, one longer than two
    # and one in between. The queries skip the middle one, and the longest
    # has more of them than one query block holds.
    RAGGED = np.array([5, 2 * 64 + 5, 70])
    QUERIES = np.r_[0, 2, 4, np.arange(5 + 50, 5 + 121), 5 + 132]

    def test_queries_match_the_full_node(self):
        cfg = tiny_config(max_seq_len=160)
        layer = init_params(cfg, seed=30, dtype="f64").layers[0]
        x = Tensor(np.random.default_rng(9).normal(size=(self.RAGGED.sum(), cfg.d_model)))
        rows = row_layout(cfg, self.RAGGED, np.float64)
        want = causal_attention(x, layer, cfg, rows).data[self.QUERIES]
        got = causal_attention(x, layer, cfg, rows, queries=self.QUERIES).data
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_queries_with_a_cache_raise(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=31)
        cache = KVCache(params, cfg)
        x = Tensor(np.zeros((3, cfg.d_model), dtype=np.float32))
        with pytest.raises(ValueError, match="without queries"):
            causal_attention(x, params.layers[0], cfg, cache.layout(3), cache,
                             queries=np.array([2]))

    @pytest.mark.parametrize("t", [1, 9, 2 * 64 + 5])
    def test_gradients_match_finite_differences(self, t):
        # x, the norm and the four projections, through one block, a partial
        # one, and three
        self._gradcheck(np.array([t]))

    def test_gradients_match_finite_differences_on_a_ragged_batch(self):
        self._gradcheck(self.RAGGED)

    def test_gradients_match_finite_differences_from_query_rows(self):
        self._gradcheck(self.RAGGED, self.QUERIES)

    @staticmethod
    def _gradcheck(lengths, queries=None):
        cfg = tiny_config(d_model=8, n_heads=2, max_seq_len=160)
        layer = init_params(cfg, seed=23, dtype="f64").layers[0]
        rng = np.random.default_rng(int(lengths.sum()))
        # scores of order 1 and a norm weight that is not all ones
        layer.wqkv.data[:, :2 * cfg.d_model] *= 10
        layer.attn_norm.data += 0.2 * rng.normal(size=cfg.d_model)
        x = Tensor(rng.normal(size=(lengths.sum(), cfg.d_model)), requires_grad=True)
        # the loss subtracts the residual's constant part, so it stays small
        # and the finite differences' rounding stays below the tolerance
        x0 = Tensor(-x.data[slice(None) if queries is None else queries])
        proj = rng.normal(size=x0.shape)

        def build():
            out = causal_attention(x, layer, cfg, row_layout(cfg, lengths, np.float64),
                                   queries=queries)
            return sum_(mul(add(out, x0), Tensor(proj)))

        gradcheck(build, [x, layer.attn_norm, layer.wqkv, layer.wo])

    @staticmethod
    def _tape(n_layers, tokens, lengths, logit_rows=None):
        """Each node of a forward pass on the training route, with its
        parents, the name of its backward function and the values its
        closure saved, read before the graph exits and releases them."""
        cfg = tiny_config(n_layers=n_layers)
        params = init_params(cfg, seed=24)
        with ad.Graph() as graph:
            forward(params, cfg, tokens, forced=[0, 1], lengths=lengths, logit_rows=logit_rows)
            return [(node, node._parents, node._backward.__qualname__,
                     [c.cell_contents for c in node._backward.__closure__ or ()])
                    for node in graph.nodes]

    def test_train_tape_holds_no_score_matrix(self):
        # a [T, T] array on the tape, as a node output or saved for a backward
        # pass, is the quadratic memory the fused node avoids; a node output
        # with one row per [B, T] position would be work done on pads
        t = 9
        tokens = np.random.default_rng(5).integers(0, tiny_config().vocab_size, size=t + 6)
        nodes = self._tape(3, tokens, np.array([t, 6]))
        for node, _, _, cells in nodes:
            assert node.data.shape[0] != 2 * t, node
            for a in [node.data] + [c for c in cells if isinstance(c, np.ndarray)]:
                assert a.shape[-2:] != (t, t), node
        # per layer: the attention block and the MoE block, each with its
        # norm and residual add inside
        assert (len(nodes) - len(self._tape(1, tokens, np.array([t, 6])))) / 2 == 2

    def test_train_tape_keeps_nothing_its_backward_rebuilds(self):
        # the backward passes rebuild the transposed keys and the normed rows
        # of both blocks; the MoE block keeps no expert output, per slot
        # [n*K, d] or [n, K, d], nor any [n, d] array beside its own output;
        # the last layer keeps q and head outputs of the loss rows only
        cfg = tiny_config()
        b, t, d, h, hd, k = 2, 11, cfg.d_model, cfg.n_heads, cfg.head_dim, cfg.top_k
        tokens = np.random.default_rng(6).integers(0, cfg.vocab_size, size=t + 6)
        loss_rows = np.array([3, 4, 9, 10, 14, 15])  # 4 in the first sequence, 2 in the second
        nodes = self._tape(cfg.n_layers, tokens, np.array([t, 6]), loss_rows)
        attention = [n for n in nodes if n[2].startswith("causal_attention.")]
        mixing = [n for n in nodes if n[2].startswith("_route.")]
        head = [n for n in nodes if n[2].startswith("lm_head.")]
        assert len(attention) == len(mixing) == cfg.n_layers and len(head) == 1
        for _, (x, norm, *_), _, cells in attention + mixing + head:
            normed = ad.rms_norm_forward(x.data, norm.data, cfg.rms_eps)[0]
            for a in saved_arrays(cells):
                assert a.shape[-2:] != (hd, t)  # transposed keys
                assert not (a.shape == normed.shape and np.allclose(a, normed))
        for node, _, _, cells in mixing:
            n = node.data.shape[0]
            for a in saved_arrays(cells):
                assert a.shape not in ((n * k, d), (n, k, d), (n, d))
        saved = [a for a in attention[-1][3] if isinstance(a, np.ndarray)]
        assert attention[-1][0].data.shape == (len(loss_rows), d)
        # keys and values of every row, q of the loss rows
        assert sum(a.shape == (b, h, t, hd) for a in saved) == 2
        assert sum(a.shape == (b, h, 4, hd) for a in saved) == 1
        assert not [a.shape for a in saved if a.ndim == 2 and a.shape[1] == d
                    and a.shape[0] > len(loss_rows)]

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


class TestGroupedAttention:
    """The attention block loop runs in groups of ``model._GROUP``
    sequences; it must be bitwise the loop over the whole batch at once."""

    # 10 sequences, 3 groups. Sorted longest first they are 133, 100, 70,
    # 66, 65, 64, 30, 9, 5, 1: the second block's live sequences end one
    # sequence into the second group, the third block's one into the first,
    # and the 100-row sequence ends inside the second block.
    LENGTHS = np.array([133, 5, 70, 66, 9, 100, 1, 65, 30, 64])

    def _inputs(self, dtype, loss_rows):
        cfg = tiny_config(d_model=16, n_heads=2, max_seq_len=160)
        h, hd = cfg.n_heads, cfg.head_dim
        rows = row_layout(cfg, self.LENGTHS, dtype)
        queries = None
        if loss_rows:  # the last half of each sequence but the 5-row one: 67 in the longest
            starts = np.cumsum(self.LENGTHS) - self.LENGTHS
            queries = np.concatenate([np.arange(s + n // 2, s + n) for s, n in
                                      zip(starts, self.LENGTHS) if n != 5])
        slot, index, tq, plan = model._query_blocks(rows, queries)
        (b, t), m, n = rows.shape, len(slot), self.LENGTHS.sum()
        rng = np.random.default_rng(41)
        q = np.zeros((b, h, tq, hd), dtype=dtype)
        q[slot, :, index] = 0.5 * rng.normal(size=(m, h, hd))
        k, v = np.zeros((2, b, h, t, hd), dtype=dtype)
        k[rows.seq, :, rows.pos] = rng.normal(size=(n, h, hd))
        v[rows.seq, :, rows.pos] = rng.normal(size=(n, h, hd))
        d_out = np.zeros_like(q)
        d_out[slot, :, index] = rng.normal(size=(m, h, hd))
        return q, k, v, plan, (slot, slice(None), index), d_out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("loss_rows", [False, True], ids=["all-rows", "loss-rows"])
    def test_bitwise_equal_to_the_whole_batch_loop(self, dtype, loss_rows):
        q, k, v, plan, at, d_out = self._inputs(dtype, loss_rows)
        b = len(q)
        assert len(model._group_blocks(plan, b)) == 3
        assert any(mask is not None and mask[1].ndim == 4 for *_, mask, _ in plan) == loss_rows
        lse, want_lse = np.empty((2,) + q.shape[:3], dtype=dtype)
        merged = model._attend(q, k, v, plan, lse)
        want = attend_reference(q, k, v, plan, want_lse)
        assert merged[at].tobytes() == want[at].tobytes()
        assert lse[at].tobytes() == want_lse[at].tobytes()

        delta = np.zeros_like(lse)
        delta[at] = (d_out[at] * want[at]).sum(axis=-1)
        dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
        model._attend_backward(q, k, v, lse, plan, d_out, delta, dq, dk, dv)
        want_dq, want_dk, want_dv = attend_backward_reference(q, k, v, lse, plan, d_out, delta)
        assert dq[at].tobytes() == want_dq[at].tobytes()
        assert dk.tobytes() == want_dk.tobytes() and dv.tobytes() == want_dv.tobytes()
        assert np.abs(dk).max() > 0 and np.abs(dq[at]).max() > 0


class TestBackwardWorkingSet:
    def test_node_backward_passes_hold_a_few_input_sizes(self):
        # The arrays a node's backward pass allocates, at their peak, in
        # units of the node's [n, d] input, on a packed f32 batch of 2040
        # rows at the default model sizes. The whole-batch passes held 16.9
        # (attention) and 17.3-18.9 (MoE) units here; the grouped attention
        # loop and the chunked expert walk hold 7.3 and 8.0-8.9.
        cfg = ModelConfig(vocab_size=55)
        params = init_params(cfg, seed=42)
        lengths = np.array([215, 209, 196, 196, 193, 190, 186, 183, 180, 178, 174, 140])
        n = int(lengths.sum())
        rng = np.random.default_rng(43)
        tokens = rng.integers(0, cfg.vocab_size, size=n)
        with ad.Graph() as graph:
            forward(params, cfg, tokens, forced=np.arange(len(lengths)) % cfg.n_experts,
                    lengths=lengths)
            nodes = [(node._backward.__qualname__.split(".")[0], node) for node in graph.nodes]
            held = {"causal_attention": [], "_route": []}
            tracemalloc.start()
            try:
                for name, node in nodes:
                    if name in held:
                        g = rng.normal(size=node.data.shape).astype(np.float32)
                        base = tracemalloc.get_traced_memory()[0]
                        tracemalloc.reset_peak()
                        grads = node._backward(g)
                        held[name].append((tracemalloc.get_traced_memory()[1] - base)
                                          / (n * cfg.d_model * 4))
                        del grads
            finally:
                tracemalloc.stop()
        assert all(len(units) == cfg.n_layers for units in held.values())
        assert max(held["causal_attention"]) < 10.0, held
        assert max(held["_route"]) < 10.0, held


class TestSavedArraysRelease:
    """A graph takes one backward, so a node lets go of what it saved once it
    has read it: the attention node its q, k, v, logsumexp and head outputs,
    the MoE node its two input projections, each before its norm backward.
    Everything either node saved is gone when ``backward`` returns."""

    SAVED = {"causal_attention": ("q", "k", "v", "lse", "merged", "r"),
             "_route": ("h_gate", "h_up", "r", "order")}
    BEFORE_NORM = {"causal_attention": ("q", "k", "v", "lse", "merged"),
                   "_route": ("h_gate", "h_up")}

    @staticmethod
    def _refs(cells, names):
        # each array and the buffer it views, if any
        arrays = [cells[name] for name in names]
        arrays += [a.base for a in arrays if isinstance(a.base, np.ndarray)]
        return [weakref.ref(a) for a in arrays]

    def test_nodes_free_saved_arrays_as_they_are_read(self, monkeypatch):
        cfg = tiny_config()
        params = init_params(cfg, seed=31)
        rng = np.random.default_rng(32)
        lengths = np.array([9, 7, 5])
        n = int(lengths.sum())
        mask = rng.random(n) < 0.5
        arrays = (rng.integers(0, cfg.vocab_size, size=n), rng.integers(0, cfg.vocab_size, size=n),
                  mask, np.arange(3), lengths)
        before_norm, dead_at_norm = {}, {}
        norm_backward = ad.rms_norm_backward

        def watched(g, x, weight, r):
            if id(weight) in before_norm:
                dead_at_norm[id(weight)] = all(ref() is None for ref in before_norm[id(weight)])
            return norm_backward(g, x, weight, r)

        monkeypatch.setattr(ad, "rms_norm_backward", watched)
        with ad.Graph() as graph:
            loss, _ = training.nll_loss(params, cfg, arrays)
            saved = []
            for node in graph.nodes:
                kind = node._backward.__qualname__.split(".")[0]
                if kind in self.SAVED:
                    fn = node._backward
                    cells = dict(zip(fn.__code__.co_freevars,
                                     (c.cell_contents for c in fn.__closure__)))
                    saved += self._refs(cells, self.SAVED[kind])
                    norm = cells["layer"].attn_norm if kind == "causal_attention" else cells["norm"]
                    before_norm[id(norm.data)] = self._refs(cells, self.BEFORE_NORM[kind])
            del fn, cells
            assert all(ref() is not None for ref in saved)
            ad.backward(loss)
            assert len(dead_at_norm) == 2 * cfg.n_layers
            assert all(dead_at_norm.values()), dead_at_norm
            assert all(ref() is None for ref in saved)  # still inside the graph


class TestForward:
    def test_output_shape(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=10)
        for t in (1, 5, 17):
            logits, decisions = forward(params, cfg, np.zeros(t, dtype=np.int64))
            assert logits.data.shape == (t, cfg.vocab_size)
            assert len(decisions) == cfg.n_layers
            assert all(d.indices.shape[0] == t for d in decisions)

    def test_rejects_lengths_that_do_not_pack_the_tokens(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=16)
        tokens = np.zeros(9, dtype=np.int64)
        with pytest.raises(ValueError, match="lengths summing to 8 do not pack"):
            forward(params, cfg, tokens, lengths=np.array([5, 3]))
        with pytest.raises(ValueError, match=r"tokens of shape \(1, 9\)"):
            forward(params, cfg, tokens[None])  # a [B, T] grid is not packed rows
        with pytest.raises(ValueError, match="without lengths"):
            forward(params, cfg, tokens, cache=KVCache(params, cfg), lengths=np.array([9]))

    def test_train_mode_marks_forced_expert(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=13)
        tokens = np.zeros(12, dtype=np.int64)
        _, decisions = forward(params, cfg, tokens, forced=[1, 2], lengths=np.array([6, 6]))
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
        tokens = np.concatenate([long, short])  # packed, as make_batch_arrays lays them out
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
        x = causal_attention(x, layer, cfg, row_layout(cfg, [9], np.float32))
        x = moe_block_reference(x.data, layer.ffn_norm, cfg.rms_eps,
                                lambda h: swiglu_reference(h, layer.moe.experts[0]))
        want = matmul_nt(rms_norm(Tensor(x), params.final_norm, cfg.rms_eps), params.embedding)
        assert np.array_equal(got.data, want.data)

    def test_param_count_consistent(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=16)
        names = [n for n, _ in named_tensors(params)]
        assert len(names) == len(set(names))


class TestLmHead:
    @staticmethod
    def _inputs(dtype=np.float64):
        cfg = tiny_config()
        rng = np.random.default_rng(29)

        def param(*shape, base=0.0):
            return Tensor((base + rng.normal(size=shape)).astype(dtype), requires_grad=True)

        x, norm = param(7, cfg.d_model), param(cfg.d_model, base=1.0)
        embedding = param(cfg.vocab_size, cfg.d_model)
        return cfg, x, norm, embedding, Tensor(rng.normal(size=(7, cfg.vocab_size)).astype(dtype))

    def test_gradients_match_finite_differences(self):
        # the rows, the final norm and the tied embedding
        cfg, x, norm, embedding, proj = self._inputs()
        gradcheck(lambda: sum_(mul(lm_head(x, norm, embedding, cfg.rms_eps), proj)),
                  [x, norm, embedding])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_bitwise_equal_to_the_norm_and_product_nodes(self, dtype):
        cfg, x, norm, embedding, proj = self._inputs(dtype)
        grads = []
        for head in (lambda: lm_head(x, norm, embedding, cfg.rms_eps),
                     lambda: matmul_nt(rms_norm(x, norm, cfg.rms_eps), embedding)):
            ad.zero_grads([x, norm, embedding])
            with ad.Graph():
                out = head()
                ad.backward(sum_(mul(out, proj)))
            grads.append([out.data] + [t.grad for t in (x, norm, embedding)])
        for a, b in zip(*grads):
            assert a.dtype == dtype and a.tobytes() == b.tobytes()


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
    def test_cached_step_creates_two_tensors_per_layer(self, n_layers):
        # per layer: the attention block and the MoE block; then the
        # embedding take and the LM head
        cfg = tiny_config(n_layers=n_layers)
        params = init_params(cfg, seed=28)
        cache = KVCache(params, cfg)
        forward_incremental(params, cfg, np.array([1, 2, 3]), cache)
        before = Tensor(0).node_id
        forward_incremental(params, cfg, np.array([4]), cache)
        assert Tensor(0).node_id - before - 1 == 2 * n_layers + 2

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

    def test_cache_arrays_keep_their_identity_across_passes_and_truncation(self):
        # callers that watch for copied cache arrays (the benchmark's tracer
        # among them) compare ``k`` and ``v`` by identity
        cfg = tiny_config(n_layers=3)
        params = init_params(cfg, seed=30)
        cache = KVCache(params, cfg)
        k, v = cache.k, cache.v
        arrays = k + v
        assert len(k) == len(v) == cfg.n_layers
        shape = (1, cfg.n_heads, cfg.max_seq_len, cfg.head_dim)
        assert all(isinstance(a, np.ndarray) and a.shape == shape for a in arrays)
        tokens = np.random.default_rng(9).integers(0, cfg.vocab_size, size=10)
        forward_incremental(params, cfg, tokens[:5], cache)
        forward_incremental(params, cfg, tokens[5:8], cache)
        cache.truncate(6)
        forward_incremental(params, cfg, tokens[6:], cache)
        assert cache.k is k and cache.v is v
        assert all(a is b for a, b in zip(cache.k + cache.v, arrays))

    def test_rotary_turns_are_shared_read_only_per_precision_and_length(self):
        cfg = tiny_config()
        f32 = init_params(cfg, seed=31, dtype="f32")
        turns = KVCache(f32, cfg).turns
        assert KVCache(f32, cfg).turns is turns
        assert np.array_equal(turns, model._turns(cfg, np.arange(cfg.max_seq_len), np.float32))
        with pytest.raises(ValueError, match="read-only"):
            turns[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            KVCache(f32, cfg).layout(2).turn[:] = 0
        f64 = KVCache(init_params(cfg, seed=31, dtype="f64"), cfg).turns
        assert f64.dtype == np.complex128 and turns.dtype == np.complex64
        longer = KVCache(f32, replace(cfg, max_seq_len=48)).turns
        other_base = KVCache(f32, replace(cfg, rope_base=500.0)).turns
        assert len(longer) == 48 and not np.array_equal(other_base, turns)
        assert len({id(t) for t in (turns, f64, longer, other_base)}) == 4

    def test_generate_asked_for_nothing_runs_no_pass(self, monkeypatch):
        cfg = tiny_config(max_seq_len=16)
        params = init_params(cfg, seed=29)
        passes = record_passes(monkeypatch)
        ids = np.arange(20) % cfg.vocab_size
        for prompt in (ids[:10], ids):  # the second is longer than max_seq_len
            out = generate(params, cfg, prompt, 0, cfg.vocab_size - 1)
            assert out.dtype == np.int64 and len(out) == 0
        assert passes == []

    def test_positional_signatures_of_benchmark_hooks(self):
        # callers that wrap these functions (the benchmark's tracer among
        # them) read the arguments by position, under these names
        assert metrics.generate is model.generate
        for fn, names in (
            (model.generate,
             ["params", "config", "prompt_ids", "max_new_tokens", "eos_id", "top_k"]),
            (model.forward_incremental, ["params", "config", "new_tokens", "cache", "top_k"]),
            (training.make_batch_arrays, ["batch", "pad_id"]),
            (model.moe_forward_task, ["x", "params", "task_expert", "k", "norm", "eps"]),
            (model.moe_forward_infer, ["x", "params", "k", "norm", "eps"]),
        ):
            sig = inspect.signature(fn).parameters
            assert list(sig) == names, fn.__name__
            assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in sig.values())
        for fn in (model.generate, model.forward_incremental):
            assert inspect.signature(fn).parameters["top_k"].default is None


class TestLookup:
    @staticmethod
    def check(context, limit):
        context = np.asarray(context, dtype=np.int64)
        got = model._lookup(context, limit)
        assert got.dtype == context.dtype
        assert got.tolist() == lookup_reference(context, limit)
        return got.tolist()

    @pytest.mark.parametrize("vocab", [2, 3, 7, 300, 70000, 2**40])
    def test_matches_the_brute_force_oracle_on_random_contexts(self, vocab):
        rng = np.random.default_rng(vocab % 1000)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            self.check(rng.integers(0, vocab, size=n), int(rng.integers(0, 7)))

    @pytest.mark.parametrize("period", [1, 2, 3, 5])
    def test_matches_the_oracle_on_periodic_contexts(self, period):
        rng = np.random.default_rng(period)
        cycle = rng.choice(1000, size=period, replace=False)
        for n in range(1, 3 * period + 8):
            for limit in (0, 1, 4):
                self.check(np.resize(cycle, n), limit)
        # a prompt, then the run of one id an untrained model emits forever:
        # the latest earlier occurrence of its suffix ends one id before the
        # run's end, so the draft is that one id
        out = 7
        prompt = rng.integers(8, 40, size=30)
        for run in range(1, 8):
            context = np.r_[prompt, out, rng.integers(8, 40, size=5), np.full(run, out)]
            draft = self.check(context, 4)
            assert draft == (list(context[31:35]) if run == 1 else [out])

    def test_no_earlier_occurrence_gives_no_draft(self):
        assert self.check([5], 4) == []
        assert self.check(np.arange(50), 4) == []
        assert self.check([3, 3, 3, 9], 4) == []

    def test_limit_zero_gives_no_draft(self):
        assert self.check([1, 2, 1, 2, 1], 0) == []

    def test_ids_past_one_byte_match_whole_ids_only(self):
        # 256 holds the byte of id 1 at its second byte: no match across ids
        assert self.check([256, 0, 1], 4) == []
        assert self.check([1, 7, 256, 0, 1], 4) == [7, 256, 0, 1]
        assert self.check([2**32 + 5, 5, 2**32 + 5, 9, 5], 2) == [2**32 + 5, 9]
        assert self.check([65536, 256, 1, 65536, 256], 3) == [1, 65536, 256]


def saved_arrays(cells):
    """The arrays among a closure's cell contents, also inside lists and
    tuples."""
    for c in cells:
        if isinstance(c, np.ndarray):
            yield c
        elif isinstance(c, (list, tuple)):
            yield from saved_arrays(c)


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
    pairs = np.eye(d)[:, model._pair_order(cfg)]  # q and k columns in rotary pair order
    layer.wqkv.data[:] = np.concatenate([3 * pairs, 3 * pairs, np.eye(d)], axis=1)
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
