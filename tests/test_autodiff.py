import weakref
import zlib

import numpy as np
import pytest

from moefix import autodiff as ad
from moefix.autodiff import Graph, Tensor

from helpers import (add, finite_difference_grad, gradcheck, matmul, matmul_nt, matmul_reference,
                     max_rel_err, mul, rms_norm, sum_)


def t64(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_selector_row(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(matmul(a, b).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = matmul(t64(a), t64(b)).data
        assert np.abs(got - matmul_reference(a, b)).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_add_and_matmul_take_no_broadcast_operands(self):
        # the reference nodes take shape-exact operands only: a broadcast
        # or batched operand is a caller's bug
        with pytest.raises(ad.ShapeError, match=r"\(3, 4\).*\(4,\)"):
            add(t64(np.zeros((3, 4))), t64(np.zeros(4)))
        with pytest.raises(ad.ShapeError, match=r"\(2, 3, 4\).*\(4, 2\)"):
            matmul(t64(np.zeros((2, 3, 4))), t64(np.zeros((4, 2))))

    def test_nt_matches_triple_loop_oracle_on_the_transpose(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(5, 4))
        got = matmul_nt(t64(a), t64(b)).data
        assert np.abs(got - matmul_reference(a, b.T)).max() < 1e-12
        with pytest.raises(ad.ShapeError, match=r"\(3, 4\).*\(4, 5\)"):
            matmul_nt(t64(a), t64(b.T))


class TestRmsNorm:
    def test_unit_rms(self):
        x = t64(np.ones((3, 4)))
        w = t64(np.ones(4))
        y = rms_norm(x, w, eps=1e-12).data
        assert np.allclose(y, 1.0, atol=1e-6)

    def test_zero_row_stays_zero(self):
        y = rms_norm(t64(np.zeros((1, 5))), t64(np.ones(5)), eps=1e-6).data
        assert np.array_equal(y, np.zeros((1, 5)))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=6)
        w = rng.normal(size=6)
        eps = 1e-5
        got = rms_norm(t64(x), t64(w), eps).data
        scale = 1.0 / np.sqrt(sum(v * v for v in x) / 6 + eps)
        want = np.array([x[i] * scale * w[i] for i in range(6)])
        assert np.abs(got - want).max() < 1e-10

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 4054])
    def test_forward_is_bitwise_the_textbook_formula(self, dtype, rows):
        # training and decoding numerics of every norm rest on these bits
        rng = np.random.default_rng(rows)
        d, eps = 128, 1e-5
        x = (3.0 * rng.normal(size=(rows, d))).astype(dtype)
        w = rng.normal(size=d).astype(dtype)
        r = 1.0 / np.sqrt(np.square(x).sum(-1, keepdims=True) / d + eps)
        got, got_r = ad.rms_norm_forward(x, w, eps)
        assert got.dtype == got_r.dtype == dtype
        assert got_r.tobytes() == r.tobytes()
        assert got.tobytes() == (x * r * w).tobytes()


class TestCrossEntropy:
    def test_confident_correct_logits(self):
        logits = np.zeros((3, 5))
        targets = np.array([1, 4, 0])
        logits[np.arange(3), targets] = 1e4
        loss = ad.cross_entropy(t64(logits), targets).item()
        assert loss == pytest.approx(0.0, abs=1e-8)

    def test_uniform_logits_is_log_vocab(self):
        loss = ad.cross_entropy(t64(np.zeros((4, 8))), np.array([0, 1, 2, 3])).item()
        assert loss == pytest.approx(np.log(8.0), abs=1e-12)

    def test_matches_log_softmax_oracle(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(7, 9))
        targets = rng.integers(0, 9, size=7)
        mask = np.array([True, True, False, True, False, True, True])
        got = ad.cross_entropy(t64(logits[mask]), targets[mask]).item()
        logp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        want = -logp[np.arange(7), targets][mask].mean()
        assert got == pytest.approx(want, abs=1e-10)

    def test_all_masked_raises(self):
        mask = np.array([False, False])
        with pytest.raises(ValueError, match="no rows"):
            ad.cross_entropy(Tensor(np.zeros((2, 3))[mask]), np.array([0, 1])[mask])

    def test_out_of_range_target_raises(self):
        with pytest.raises(ValueError, match="outside vocabulary"):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestBackward:
    def test_sum_of_squares(self):
        x = t64([1.0, -2.0, 3.0])
        with Graph():
            loss = sum_(mul(x, x))
            ad.backward(loss)
        assert np.allclose(x.grad, [2.0, -4.0, 6.0])

    def test_constant_loss_leaves_grads_zero(self):
        x = t64([1.0, 2.0])
        with Graph():
            loss = Tensor(5.0)
            ad.backward(loss)
        assert x.grad is None

    def test_non_scalar_loss_raises(self):
        x = t64([1.0, 2.0])
        with Graph():
            y = mul(x, x)
            with pytest.raises(ad.ShapeError, match="scalar"):
                ad.backward(y)

    def test_grads_accumulate_until_reset(self):
        x = t64([3.0])
        with Graph():
            loss = sum_(mul(x, x))
            ad.backward(loss)
            ad.backward(loss)
        assert np.allclose(x.grad, [12.0])
        ad.zero_grads([x])
        assert x.grad is None

    def test_shared_subexpression_visited_once(self):
        # diamond: y = x*x; loss = sum(y + y). Each backward fn must fire once.
        calls = {"n": 0}
        x = t64([2.0])
        with Graph() as g:
            y = mul(x, x)
            orig = y._backward

            def counting(gout):
                calls["n"] += 1
                return orig(gout)

            y._backward = counting
            loss = sum_(add(y, y))
            ad.backward(loss)
        assert calls["n"] == 1
        assert np.allclose(x.grad, [8.0])

    def test_tape_is_reverse_creation_order(self):
        x = t64([1.0])
        with Graph() as g:
            a = mul(x, x)
            b = add(a, x)
            loss = sum_(b)
        assert [n.node_id for n in g.nodes] == sorted(n.node_id for n in g.nodes)


class TestTapeLifetime:
    """A tape lives only inside its graph: on exit every node lets go of its
    parents and its backward closure, and with them the saved activations."""

    def test_exit_releases_parents_closures_and_saved_activations(self):
        x = t64(np.arange(6.0).reshape(2, 3))
        with Graph() as g:
            y = rms_norm(x, t64(np.ones(3)), 1e-6)
            loss = sum_(mul(y, y))
            cells = [c.cell_contents for c in y._backward.__closure__]
            saved = [weakref.ref(a) for a in cells if isinstance(a, np.ndarray)]
            del cells
            assert saved and all(ref() is not None for ref in saved)
            ad.backward(loss)
        assert len(g.nodes) == 3
        for node in g.nodes:
            assert node._parents == ()
            assert getattr(node._backward, "__closure__", None) is None
        assert all(ref() is None for ref in saved)
        assert np.array_equal(g.nodes[0].data, y.data)  # outputs stay readable

    def test_backward_after_exit_raises(self):
        # a released node must not pass for a leaf and accumulate into its own grad
        x = t64([1.0, 2.0])
        with Graph():
            loss = sum_(mul(x, x))
        with pytest.raises(RuntimeError, match="outside the graph"):
            ad.backward(loss)
        with Graph(), pytest.raises(RuntimeError, match="outside the graph"):
            ad.backward(loss)
        assert x.grad is None and loss.grad is None


class TestClipGlobalNorm:
    def test_below_threshold_unchanged(self):
        p = t64([0.3, 0.4])
        p.grad = np.array([0.3, 0.4])
        pre = ad.clip_global_norm([p], 1.0)
        assert pre == pytest.approx(0.5)
        assert np.allclose(p.grad, [0.3, 0.4])

    def test_three_four_five(self):
        p = t64([0.0, 0.0])
        p.grad = np.array([3.0, 4.0])
        pre = ad.clip_global_norm([p], 1.0)
        assert pre == pytest.approx(5.0)
        assert np.allclose(p.grad, [0.6, 0.8])

    def test_multi_tensor_postclip_norm(self):
        rng = np.random.default_rng(2)
        params = []
        for shape in [(3, 2), (4,), (2, 2, 2)]:
            p = t64(np.zeros(shape))
            p.grad = rng.normal(size=shape)
            params.append(p)
        pre = ad.clip_global_norm(params, 1.5)
        post = np.sqrt(sum(float(np.sum(p.grad**2)) for p in params))
        assert post == pytest.approx(min(pre, 1.5), abs=1e-9)

    def test_missing_grad_raises(self):
        with pytest.raises(ValueError, match="populated"):
            ad.clip_global_norm([t64([1.0])], 1.0)


def _rand(rng, *shape):
    return t64(rng.normal(size=shape))


def _proj_loss(out, rng):
    c = Tensor(rng.normal(size=out.data.shape).astype(out.data.dtype))
    return sum_(mul(out, c))


def _case_add(rng):
    a, b = _rand(rng, 3, 4), _rand(rng, 3, 4)
    return [a, b], lambda: add(a, b)


def _case_mul(rng):
    a, b = _rand(rng, 2, 3), _rand(rng, 2, 3)
    return [a, b], lambda: mul(a, b)


def _case_matmul(rng):
    a, b = _rand(rng, 3, 4), _rand(rng, 4, 2)
    return [a, b], lambda: matmul(a, b)


def _case_matmul_nt(rng):
    a, b = _rand(rng, 3, 4), _rand(rng, 5, 4)
    return [a, b], lambda: matmul_nt(a, b)


def _case_sum(rng):
    x = _rand(rng, 3, 4)
    return [x], lambda: sum_(x, axis=1)


def _case_rms_norm(rng):
    x, w = _rand(rng, 3, 6), _rand(rng, 6)
    return [x, w], lambda: rms_norm(x, w, eps=1e-6)


def _case_take(rng):
    x = _rand(rng, 5, 3)
    idx = rng.integers(0, 5, size=7)
    return [x], lambda: ad.take(x, idx)


def _case_cross_entropy(rng):
    x = _rand(rng, 4, 6)
    targets = rng.integers(0, 6, size=4)
    rows = np.flatnonzero([True, rng.random() < 0.5, True, True])
    return [x], lambda: ad.cross_entropy(ad.take(x, rows), targets[rows])


OP_CASES = {
    "add": _case_add,
    "mul": _case_mul,
    "matmul": _case_matmul,
    "matmul_nt": _case_matmul_nt,
    "sum": _case_sum,
    "rms_norm": _case_rms_norm,
    "take": _case_take,
    "cross_entropy": _case_cross_entropy,
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(name):
    # spec-level invariant: every differentiable op, >=100 random instances
    for trial in range(100):
        # crc32, not hash(): str hashes are salted per process, so a failing
        # instance could not be replayed
        rng = np.random.default_rng([zlib.crc32(name.encode()), trial])
        params, forward = OP_CASES[name](rng)
        if name == "cross_entropy":
            build = forward
        else:
            def build():
                return _proj_loss(forward(), np.random.default_rng([trial, 99]))
        gradcheck(build, params)


def test_forward_backward_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(42)
        a = t64(rng.normal(size=(4, 4)))
        b = t64(rng.normal(size=(4, 4)))
        w = t64(rng.normal(size=4))
        with Graph():
            out = rms_norm(matmul_nt(a, mul(b, b)), w, 1e-6)
            loss = ad.cross_entropy(out, np.array([0, 1, 2, 3]))
            ad.backward(loss)
        return loss.data.copy(), a.grad.copy(), b.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_tensor_invariants():
    x = Tensor(np.zeros((2, 3)))
    assert int(np.prod(x.shape)) == x.data.size
    y = rms_norm(x, Tensor(np.ones(3)), 1e-6)
    assert np.isfinite(y.data).all()
    assert Tensor([[1, 2], [3, 4]]).dtype == np.float32  # default precision
    assert Tensor([1.0], dtype="f64").dtype == np.float64
    assert x.dtype == np.float64  # numpy float input keeps its precision
