"""Unit tests for the autograd engine: every op gets a numerical grad check."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, concatenate, no_grad, stack, where


def check_gradient(build, shapes, rng, atol=1e-6, rtol=1e-5):
    """Compare analytic and numerical gradients of ``build`` over leaf inputs.

    ``build`` maps a list of Tensors to a scalar Tensor.
    """
    arrays = [rng.normal(size=shape) for shape in shapes]
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(leaves)
    out.backward()

    eps = 1e-6
    for leaf_idx, array in enumerate(arrays):
        numeric = np.zeros_like(array)
        flat_num = numeric.reshape(-1)
        flat_arr = array.reshape(-1)
        for i in range(flat_arr.size):
            original = flat_arr[i]
            for sign, slot in ((1, 0), (-1, 1)):
                flat_arr[i] = original + sign * eps
                rebuilt = [Tensor(a) for a in arrays]
                val = float(build(rebuilt).data)
                if slot == 0:
                    plus = val
                else:
                    minus = val
            flat_arr[i] = original
            flat_num[i] = (plus - minus) / (2 * eps)
        analytic = leaves[leaf_idx].grad
        np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


class TestArithmetic:
    def test_add_broadcast_gradients(self, rng):
        check_gradient(lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (4,)], rng)

    def test_sub_gradients(self, rng):
        check_gradient(lambda ts: (ts[0] - ts[1] * 2.0).sum(), [(2, 3), (2, 3)], rng)

    def test_mul_broadcast_gradients(self, rng):
        check_gradient(lambda ts: (ts[0] * ts[1]).sum(), [(2, 3, 4), (3, 4)], rng)

    def test_div_gradients(self, rng):
        def build(ts):
            return (ts[0] / (ts[1] * ts[1] + 1.0)).sum()

        check_gradient(build, [(3, 3), (3, 3)], rng)

    def test_pow_gradients(self, rng):
        check_gradient(lambda ts: ((ts[0] ** 3) + (ts[0] ** 2)).sum(), [(4,)], rng)

    def test_scalar_interop(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (2.0 * x + 1.0 - 0.5) / 2.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_rsub_rdiv(self):
        x = Tensor([2.0], requires_grad=True)
        y = 1.0 - x
        z = 1.0 / x
        (y + z).sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0 - 0.25])


class TestMatmul:
    def test_matrix_matrix(self, rng):
        check_gradient(lambda ts: (ts[0] @ ts[1]).sum(), [(3, 4), (4, 5)], rng)

    def test_batched_matmul(self, rng):
        check_gradient(lambda ts: (ts[0] @ ts[1]).sum(), [(2, 3, 4), (2, 4, 5)], rng)

    def test_broadcast_batched_matmul(self, rng):
        check_gradient(lambda ts: (ts[0] @ ts[1]).sum(), [(2, 3, 4), (4, 5)], rng)

    def test_matrix_vector(self, rng):
        check_gradient(lambda ts: (ts[0] @ ts[1]).sum(), [(3, 4), (4,)], rng)

    def test_vector_matrix(self, rng):
        check_gradient(lambda ts: (ts[0] @ ts[1]).sum(), [(4,), (4, 3)], rng)

    def test_vector_vector(self, rng):
        check_gradient(lambda ts: ts[0] @ ts[1], [(4,), (4,)], rng)


class TestElementwise:
    @pytest.mark.parametrize(
        "op",
        ["exp", "tanh", "relu", "gelu", "erf", "abs", "sqrt", "log"],
    )
    def test_unary_gradients(self, op, rng):
        def build(ts):
            x = ts[0]
            if op in ("sqrt", "log"):
                x = x * x + 1.0  # keep the domain positive
            return getattr(x, op)().sum()

        check_gradient(build, [(3, 4)], rng)

    def test_clip_gradient_masks_out_of_range(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_relu_zeroes_negative(self):
        x = Tensor([-1.0, 2.0])
        np.testing.assert_allclose(x.relu().data, [0.0, 2.0])

    def test_gelu_matches_exact_definition(self, rng):
        from scipy import special

        x = rng.normal(size=(5,))
        expected = x * 0.5 * (1 + special.erf(x / np.sqrt(2)))
        np.testing.assert_allclose(Tensor(x).gelu().data, expected)


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        check_gradient(lambda ts: (ts[0].sum(axis=1, keepdims=True) ** 2).sum(), [(3, 4)], rng)

    def test_mean_gradients(self, rng):
        check_gradient(lambda ts: (ts[0].mean(axis=0) ** 2).sum(), [(3, 4)], rng)

    def test_mean_axis_tuple(self, rng):
        check_gradient(lambda ts: (ts[0].mean(axis=(0, 2)) ** 2).sum(), [(2, 3, 4)], rng)

    def test_var_matches_numpy(self, rng):
        x = rng.normal(size=(4, 5))
        np.testing.assert_allclose(Tensor(x).var(axis=-1).data, x.var(axis=-1))

    def test_max_gradient_no_ties(self):
        x = Tensor([[1.0, 3.0, 2.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_max_gradient_splits_ties(self):
        x = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])


class TestShapeOps:
    def test_reshape_gradients(self, rng):
        check_gradient(lambda ts: (ts[0].reshape(6, 2) ** 2).sum(), [(3, 4)], rng)

    def test_transpose_gradients(self, rng):
        check_gradient(
            lambda ts: (ts[0].transpose((1, 0, 2)) ** 2).sum(), [(2, 3, 4)], rng
        )

    def test_swapaxes_roundtrip(self, rng):
        x = rng.normal(size=(2, 3, 4))
        t = Tensor(x).swapaxes(0, 2)
        np.testing.assert_allclose(t.data, np.swapaxes(x, 0, 2))

    def test_getitem_gradients(self, rng):
        check_gradient(lambda ts: (ts[0][1:, ::2] ** 2).sum(), [(3, 4)], rng)

    def test_fancy_index_accumulates_duplicates(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])

    def test_concatenate_gradients(self, rng):
        check_gradient(
            lambda ts: (concatenate([ts[0], ts[1]], axis=1) ** 2).sum(),
            [(2, 3), (2, 2)],
            rng,
        )

    def test_stack_gradients(self, rng):
        check_gradient(
            lambda ts: (stack([ts[0], ts[1]], axis=0) ** 2).sum(), [(2, 3), (2, 3)], rng
        )


class TestComposite:
    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(5, 7)))
        np.testing.assert_allclose(x.softmax(axis=-1).data.sum(axis=-1), np.ones(5))

    def test_softmax_gradients(self, rng):
        check_gradient(lambda ts: (ts[0].softmax(axis=-1) ** 2).sum(), [(3, 4)], rng)

    def test_log_softmax_consistency(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(
            x.log_softmax(axis=-1).data, np.log(x.softmax(axis=-1).data), atol=1e-12
        )

    def test_softmax_stable_under_large_inputs(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = x.softmax(axis=-1).data
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_masked_fill_gradient(self, rng):
        mask = np.array([[True, False], [False, True]])
        check_gradient(lambda ts: (ts[0].masked_fill(mask, 0.0) ** 2).sum(), [(2, 2)], rng)

    def test_where_gradients(self, rng):
        cond = np.array([True, False, True])
        check_gradient(
            lambda ts: (where(cond, ts[0], ts[1]) ** 2).sum(), [(3,), (3,)], rng
        )

    def test_embedding_lookup_gradients(self):
        table = Tensor(np.eye(4), requires_grad=True)
        idx = np.array([[0, 1], [1, 3]])
        table.embedding_lookup(idx).sum().backward()
        # Each selected row receives a gradient of ones(4); row 1 is selected twice.
        np.testing.assert_allclose(table.grad.sum(axis=1), [4.0, 8.0, 0.0, 4.0])

    def test_dropout_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = x.dropout(0.5, rng, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_preserves_expectation(self):
        generator = np.random.default_rng(7)
        x = Tensor(np.ones((200, 200)))
        out = x.dropout(0.3, generator, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_dropout_rejects_bad_probability(self, rng):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)).dropout(1.0, rng)


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x * 2.0  # x used twice
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_backward_twice_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 5.0
        y.sum().backward()
        first = x.grad.copy()
        z = x * 5.0
        z.sum().backward()
        np.testing.assert_allclose(x.grad, first * 2)

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_constant_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_gradient_shape_mismatch_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 1.0).backward(np.ones(4))

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = x.detach() * 3.0
        assert not y.requires_grad

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):  # deeper than the default recursion limit
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_as_tensor_passthrough(self):
        x = Tensor([1.0])
        assert as_tensor(x) is x
        assert isinstance(as_tensor([1, 2]), Tensor)

    def test_diamond_graph_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        ((a * b)).sum().backward()  # d/dx (12 x^2) = 24x
        np.testing.assert_allclose(x.grad, [48.0])
