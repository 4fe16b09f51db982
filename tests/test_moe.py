import numpy as np
import pytest

from moefix import autodiff as ad
from moefix.autodiff import Graph, Tensor
from moefix.moe import (
    ExpertParams,
    MoeLayerParams,
    RoutingDecision,
    count_routes,
    moe_forward_infer,
    moe_forward_task,
)

from helpers import (
    finite_difference_grad,
    gradcheck,
    masked_softmax_reference,
    max_rel_err,
    mul,
    sum_,
    swiglu_reference,
)


def make_layer(rng, d=6, d_ff=8, n_experts=4, dtype=np.float64, tie_experts=False):
    def mat(*shape):
        return Tensor(rng.normal(scale=0.5, size=shape).astype(dtype), requires_grad=True)

    first = ExpertParams(up=mat(d, d_ff), gate_proj=mat(d, d_ff), down=mat(d_ff, d))
    experts = [first]
    for _ in range(n_experts - 1):
        if tie_experts:
            experts.append(ExpertParams(
                up=Tensor(first.up.data.copy(), requires_grad=True),
                gate_proj=Tensor(first.gate_proj.data.copy(), requires_grad=True),
                down=Tensor(first.down.data.copy(), requires_grad=True),
            ))
        else:
            experts.append(ExpertParams(up=mat(d, d_ff), gate_proj=mat(d, d_ff), down=mat(d_ff, d)))
    return MoeLayerParams(gate=mat(d, n_experts), experts=experts)


def identity_gate_layer(n_experts, seed=0):
    """A layer whose gate logits equal its input rows."""
    layer = make_layer(np.random.default_rng(seed), d=n_experts, n_experts=n_experts)
    layer.gate = Tensor(np.eye(n_experts), requires_grad=True)
    return layer


class TestGateTopk:
    def test_two_of_four(self):
        # logits equal x via identity gate: top-2 of [1, 0, -1, 2] is {3, 0}
        layer = identity_gate_layer(4)
        _, dec = moe_forward_infer(Tensor(np.array([[1.0, 0.0, -1.0, 2.0]])), layer, k=2)
        assert dec.indices.tolist() == [[3, 0]]
        assert dec.weights[0, 0] == pytest.approx(0.7310585786300049, abs=1e-9)
        assert dec.weights[0, 1] == pytest.approx(0.2689414213699951, abs=1e-9)

    def test_k_equals_n_is_full_softmax(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 6)))
        layer = make_layer(rng, d=6, n_experts=4)
        _, dec = moe_forward_infer(x, layer, k=4)
        full = np.exp(x.data @ layer.gate.data)
        full /= full.sum(axis=-1, keepdims=True)
        for row in range(5):
            for slot in range(4):
                assert dec.weights[row, slot] == pytest.approx(full[row, dec.indices[row, slot]], abs=1e-8)

    def test_tie_breaks_to_lowest_index(self):
        _, dec = moe_forward_infer(Tensor(np.array([[5.0, 5.0, 0.0]])), identity_gate_layer(3), k=1)
        assert dec.indices.tolist() == [[0]]
        assert dec.weights[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("route, k", [("infer", 1), ("infer", 2), ("infer", 3), ("task", 2)])
    def test_weights_match_masked_softmax_oracle(self, route, k):
        # the sum over K runs in rank order, the oracle's in expert order:
        # the same floats for K <= 2, not always for K = 3
        rng = np.random.default_rng(18)
        n = 200
        layer = make_layer(rng, d=6, n_experts=4)
        x = Tensor(rng.normal(size=(n, 6)))
        if route == "infer":
            _, dec = moe_forward_infer(x, layer, k=k)
        else:
            _, dec = moe_forward_task(x, layer, rng.integers(0, 4, size=n), k=2)
        keep = np.zeros((n, 4), dtype=bool)
        np.put_along_axis(keep, dec.indices, True, axis=1)
        oracle = masked_softmax_reference(x.data @ layer.gate.data, keep)
        want = np.take_along_axis(oracle, dec.indices, axis=1)
        assert dec.weights.dtype == np.float64
        if k <= 2:
            assert dec.weights.tobytes() == want.tobytes()
        else:
            assert (np.abs(dec.weights - want) <= 1e-12 * want).all()
        assert np.abs(dec.weights.sum(axis=1) - 1.0).max() <= 1e-12

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            moe_forward_infer(Tensor(np.zeros((1, 3))), identity_gate_layer(3), k=4)


class TestInferForward:
    def test_single_expert_is_identity_mixture(self):
        rng = np.random.default_rng(1)
        layer = make_layer(rng, n_experts=1)
        x = Tensor(rng.normal(size=(3, 6)))
        y, dec = moe_forward_infer(x, layer, k=1)
        assert np.array_equal(y.data, swiglu_reference(x.data, layer.experts[0]))
        assert dec.weights.tolist() == [[1.0]] * 3

    def test_identical_experts_ignore_gate(self):
        rng = np.random.default_rng(2)
        layer = make_layer(rng, n_experts=3, tie_experts=True)
        x = Tensor(rng.normal(size=(4, 6)))
        y, _ = moe_forward_infer(x, layer, k=2)
        expected = swiglu_reference(x.data, layer.experts[0])
        assert np.abs(y.data - expected).max() < 1e-9

    def test_k_equals_n_matches_dense_mixture_oracle(self):
        rng = np.random.default_rng(3)
        layer = make_layer(rng, n_experts=4)
        x = Tensor(rng.normal(size=(5, 6)))
        y, _ = moe_forward_infer(x, layer, k=4)
        logits = x.data @ layer.gate.data
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        dense = sum(w[:, e:e + 1] * swiglu_reference(x.data, layer.experts[e]) for e in range(4))
        assert np.abs(y.data - dense).max() < 1e-6


class TestTaskForward:
    def test_pair_weights_from_derived_oracle(self):
        # identity gate makes logits equal to x: pair is (task=1: 0.5, top1=0: 3.0)
        layer = make_layer(np.random.default_rng(5), d=4, n_experts=4)
        layer.gate = Tensor(np.eye(4), requires_grad=True)
        x = Tensor(np.array([[3.0, 0.5, 2.0, 1.0]]))
        _, dec = moe_forward_task(x, layer, task_expert=1, k=2)
        assert dec.indices.tolist() == [[1, 0]]
        assert dec.weights[0, 0] == pytest.approx(0.07585818002124355, abs=1e-9)
        assert dec.weights[0, 1] == pytest.approx(0.9241418199787564, abs=1e-9)
        assert dec.task_forced.tolist() == [1]

    def test_task_expert_equals_argmax_picks_second_best(self):
        layer = make_layer(np.random.default_rng(6), d=4, n_experts=4)
        layer.gate = Tensor(np.eye(4), requires_grad=True)
        x = Tensor(np.array([[3.0, 0.5, 2.0, 1.0]]))
        _, dec = moe_forward_task(x, layer, task_expert=0, k=2)
        assert dec.indices.tolist() == [[0, 2]]

    def test_all_equal_logits_tie_to_lowest(self):
        layer = make_layer(np.random.default_rng(7), d=4, n_experts=4)
        layer.gate = Tensor(np.eye(4), requires_grad=True)
        _, dec = moe_forward_task(Tensor(np.zeros((1, 4))), layer, task_expert=2, k=2)
        assert dec.indices.tolist() == [[2, 0]]
        assert np.allclose(dec.weights, [[0.5, 0.5]])

    def test_k_ranks_the_task_expert_first_then_the_best_others(self):
        layer = make_layer(np.random.default_rng(5), d=4, n_experts=4)
        layer.gate = Tensor(np.eye(4), requires_grad=True)
        x = Tensor(np.array([[3.0, 0.5, 2.0, 1.0]]))
        _, dec = moe_forward_task(x, layer, task_expert=1, k=3)
        assert dec.indices.tolist() == [[1, 0, 2]]
        keep = np.isin(np.arange(4), [0, 1, 2])[None, :]
        want = masked_softmax_reference(x.data, keep)[0, [1, 0, 2]]
        assert np.abs(dec.weights[0] - want).max() <= 1e-12

    def test_single_expert_is_its_own_route(self):
        # a dense layer: every task maps to expert 0, the one selection, at weight 1
        rng = np.random.default_rng(8)
        layer = make_layer(rng, n_experts=1)
        x = Tensor(rng.normal(size=(3, 6)))
        y, dec = moe_forward_task(x, layer, task_expert=0, k=1)
        assert dec.indices.tolist() == [[0]] * 3
        assert dec.weights.tolist() == [[1.0]] * 3
        assert np.array_equal(y.data, swiglu_reference(x.data, layer.experts[0]))

    def test_rejects_bad_expert_id(self):
        layer = make_layer(np.random.default_rng(9), n_experts=3)
        with pytest.raises(ValueError, match="out of range"):
            moe_forward_task(Tensor(np.zeros((1, 6))), layer, task_expert=3, k=2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_selection_matches_bruteforce_oracle(self, dtype):
        # small integer gates and inputs give integer logits, so ties are common
        rng = np.random.default_rng(10)
        n, d, n_experts = 300, 5, 4
        layer = make_layer(rng, d=d, n_experts=n_experts, dtype=dtype)
        layer.gate = Tensor(rng.integers(-1, 2, size=(d, n_experts)).astype(dtype),
                            requires_grad=True)
        x = Tensor(rng.integers(-2, 3, size=(n, d)).astype(dtype))
        tasks = rng.integers(0, n_experts, size=n)
        y, dec = moe_forward_task(x, layer, tasks, k=2)

        logits = x.data.astype(np.float64) @ layer.gate.data.astype(np.float64)
        ties = 0
        for row in range(n):
            forced = int(tasks[row])
            others = [e for e in range(n_experts) if e != forced]
            top = max(logits[row, e] for e in others)
            best = min(e for e in others if logits[row, e] == top)  # lowest index wins
            ties += sum(logits[row, e] == top for e in others) > 1
            assert dec.indices[row].tolist() == [forced, best]
            w_forced = 1.0 / (1.0 + np.exp(logits[row, best] - logits[row, forced]))
            assert dec.weights[row, 0] == pytest.approx(w_forced, abs=1e-6)
            assert dec.weights[row, 1] == pytest.approx(1.0 - w_forced, abs=1e-6)
        assert ties > n // 10
        assert dec.task_forced.tolist() == tasks.tolist()
        xs = x.data.astype(np.float64)
        expected = np.zeros((n, d))
        for slot in range(2):
            for e in range(n_experts):
                rows = dec.indices[:, slot] == e
                expected[rows] += dec.weights[rows, slot:slot + 1] * swiglu_reference(
                    xs[rows], layer.experts[e])
        assert np.abs(y.data - expected).max() < (1e-4 if dtype == np.float32 else 1e-9)


class TestRoutingInvariants:
    def test_invariant_sweep(self):
        rng = np.random.default_rng(11)
        layer = make_layer(rng, d=8, n_experts=5, dtype=np.float32)
        x = Tensor(rng.normal(size=(2000, 8)).astype(np.float32))
        tasks = rng.integers(0, 5, size=2000)

        for k in (1, 2, 5):
            _, dec = moe_forward_infer(x, layer, k=k)
            assert dec.indices.shape == (2000, k)
            assert np.abs(dec.weights.sum(axis=-1) - 1.0).max() <= 1e-6
            assert all(len(set(row)) == k for row in dec.indices.tolist())
            assert (dec.weights > 0).all()

        _, dec = moe_forward_task(x, layer, tasks, k=2)
        assert (dec.indices[:, 0] == tasks).all()          # forced expert always present
        assert (dec.indices[:, 1] != tasks).all()          # and never duplicated
        assert np.abs(dec.weights.sum(axis=-1) - 1.0).max() <= 1e-6

    def test_task_route_equals_infer_when_pair_agrees(self):
        rng = np.random.default_rng(12)
        layer = make_layer(rng, d=6, n_experts=4)
        x = Tensor(rng.normal(size=(40, 6)))
        y_infer, dec_infer = moe_forward_infer(x, layer, k=2)
        top2 = np.sort(dec_infer.indices, axis=-1)
        # force the task expert to the gate's own #1 choice: same pair as infer
        y_task, dec_task = moe_forward_task(x, layer, dec_infer.indices[:, 0], k=2)
        assert np.array_equal(np.sort(dec_task.indices, axis=-1), top2)
        assert np.abs(y_task.data - y_infer.data).max() < 1e-6

    def test_gradient_flows_to_gate(self):
        rng = np.random.default_rng(13)
        layer = make_layer(rng, d=5, d_ff=6, n_experts=3)
        x = Tensor(rng.normal(size=(4, 5)))
        proj = rng.normal(size=(4, 5))

        def loss_value():
            y, _ = moe_forward_task(x, layer, task_expert=1, k=2)
            return float((y.data * proj).sum())

        with Graph():
            y, _ = moe_forward_task(x, layer, task_expert=1, k=2)
            ad.backward(sum_(mul(y, Tensor(proj))))
        numeric = finite_difference_grad(lambda: loss_value(), layer.gate.data)
        assert layer.gate.grad is not None
        assert max_rel_err(layer.gate.grad, numeric) <= 1e-4


class TestDispatchGradients:
    """Finite-difference checks of the dispatch node through both routes: the
    input rows, the gate and every expert's three matrices."""

    N_ROWS = 6
    ROWS = {"all": None, "subset": np.array([0, 2, 3, 5]), "one_row": np.array([4])}
    K = {"infer": 2, "task": 2, "infer_k3": 3}

    @classmethod
    def _route(cls, name, x, layer, rows):
        """Route the ``rows`` of ``x`` (None: all), taken as the model takes
        the loss rows before its last MoE."""
        tasks = np.array([1, 0, 3, 2, 1, 0])
        if rows is not None:
            x, tasks = ad.take(x, rows), tasks[rows]
        if name == "task":
            return moe_forward_task(x, layer, tasks, k=2)
        return moe_forward_infer(x, layer, k=cls.K[name])

    @pytest.mark.parametrize("route", sorted(K))
    @pytest.mark.parametrize("case", sorted(ROWS))
    def test_gradcheck(self, route, case):
        rng = np.random.default_rng(16)
        layer = make_layer(rng, d=5, d_ff=4, n_experts=4)
        x = Tensor(rng.normal(size=(self.N_ROWS, 5)), requires_grad=True)
        rows = self.ROWS[case]
        n_routed = self.N_ROWS if rows is None else rows.size
        proj = Tensor(rng.normal(size=(n_routed, 5)))
        _, dec = self._route(route, x, layer, rows)
        assert dec.indices.shape == (n_routed, self.K[route])
        idle = set(range(4)) - set(dec.indices.ravel().tolist())
        assert bool(idle) == (case == "one_row")  # an expert with no rows
        params = [x, layer.gate] + [t for ex in layer.experts
                                    for t in (ex.up, ex.gate_proj, ex.down)]
        gradcheck(lambda: sum_(mul(self._route(route, x, layer, rows)[0], proj)), params)
        for e in idle:
            assert layer.experts[e].up.grad is None

    @pytest.mark.parametrize("route", ["infer", "task"])
    def test_routing_a_row_subset_matches_routing_all(self, route):
        rng = np.random.default_rng(17)
        layer = make_layer(rng, d=5, d_ff=4, n_experts=4)
        x = Tensor(rng.normal(size=(self.N_ROWS, 5)))
        rows = self.ROWS["subset"]
        y_all, dec_all = self._route(route, x, layer, None)
        y_sub, dec_sub = self._route(route, x, layer, rows)
        # BLAS may round a row differently in a smaller matrix product
        assert np.allclose(y_sub.data, y_all.data[rows], rtol=1e-12, atol=1e-14)
        assert np.array_equal(dec_sub.indices, dec_all.indices[rows])
        assert np.array_equal(dec_sub.weights, dec_all.weights[rows])


def fraction(report, task, expert):
    """Share of the task's routings that selected the expert."""
    return report.counts[task, expert] / report.rows[task]


class TestRouteStats:
    def test_single_decision(self):
        dec = RoutingDecision(indices=np.array([[3]]), weights=np.array([[1.0]]))
        report = count_routes([(np.array([0]), dec)], ["asr"], n_experts=4)
        assert fraction(report, 0, 3) == 1.0
        assert report.weight_sums[0, 3] / report.counts[0, 3] == 1.0  # the mean weight
        assert fraction(report, 0, 0) == 0.0

    def test_uniform_routing_monte_carlo(self):
        rng = np.random.default_rng(14)
        layer = identity_gate_layer(4)
        x = Tensor(rng.normal(size=(10_000, 4)))
        _, dec = moe_forward_infer(x, layer, k=2)
        report = count_routes([(np.zeros(10_000, dtype=np.int64), dec)], ["t"], n_experts=4)
        sigma = np.sqrt(0.5 * 0.5 / 10_000)
        for e in range(4):
            assert abs(fraction(report, 0, e) - 0.5) <= 3 * sigma + 1e-12

    def test_fractions_sum_to_k(self):
        rng = np.random.default_rng(15)
        layer = make_layer(rng, n_experts=4)
        for k in (1, 2, 3):
            _, dec = moe_forward_infer(Tensor(rng.normal(size=(100, 6))), layer, k=k)
            report = count_routes([(np.zeros(100, dtype=np.int64), dec)], ["t"], n_experts=4)
            total = sum(fraction(report, 0, e) for e in range(4))
            assert total == pytest.approx(k, abs=1e-9)

    def test_empty_stream_raises(self):
        with pytest.raises(ValueError, match="empty"):
            count_routes([], ["t"], n_experts=4)

    def test_csv_format(self):
        dec = RoutingDecision(indices=np.array([[0, 1]]), weights=np.array([[0.6, 0.4]]))
        report = count_routes([(np.array([0]), dec), (np.array([1]), dec)], ["asr", "ocr"],
                              n_experts=3)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "task,expert,fraction,mean_weight"
        assert len(lines) == 1 + 2 * 3
