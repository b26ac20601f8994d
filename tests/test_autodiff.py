"""Reverse-mode tape: forward values, analytic backwards, finite differences."""

import math

import numpy as np
import pytest

import particlevi.autodiff as ad
from particlevi.rng import RngStream


def scalar_grad(f, x0: float) -> float:
    with ad.Tape():
        x = ad.leaf(np.asarray(x0))
        (g,) = ad.grad(f(x), [x])
    return float(g)


class TestElementwise:
    def test_exp_identity(self):
        assert scalar_grad(ad.exp, 0.0) == 1.0
        with ad.Tape():
            x = ad.leaf(np.asarray(0.0))
            assert float(ad.exp(x).data) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            with ad.Tape():
                ad.add(ad.leaf(np.zeros(3)), ad.leaf(np.zeros(4)))

    def test_scalar_tensor_broadcast(self):
        with ad.Tape():
            a = ad.leaf(np.asarray([1.0, 2.0, 3.0]))
            s = ad.leaf(np.asarray(2.0))
            y = (a * s).sum()
            ga, gs = ad.grad(y, [a, s])
        assert np.allclose(ga, [2.0, 2.0, 2.0])
        assert float(gs) == 6.0

    def test_all_unary_ops_finite_difference(self):
        """Every differentiable unary op passes central differences at 20 points."""
        rng = RngStream(314)
        # fixed labels: each op keeps its points when another op goes
        ops = {
            "exp": (ad.exp, 0),
            "sigmoid": (ad.sigmoid, 4),
        }
        for name, (op, label) in ops.items():
            pts = rng.split(label).normals(20) * 0.7
            err = ad.finite_diff_check(lambda x: op(x).sum(), [pts])
            assert err < 1e-5, f"{name}: {err}"

    def test_binary_ops_finite_difference(self):
        a = RngStream(21).normals(6) + 3.0
        b = RngStream(22).normals(6) + 3.0
        for op in (ad.add, ad.sub, ad.mul):
            err = ad.finite_diff_check(lambda x, y: op(x, y).sum(), [a, b])
            assert err < 1e-5

    def test_ndarray_left_operand_defers(self):
        """ndarray <op> Var must produce a Var, not an object array."""
        with ad.Tape():
            v = ad.leaf(np.ones((1, 2)))
            r = np.asarray([1.0, 2.0]) - v
        assert isinstance(r, ad.Var)
        assert np.array_equal(r.data, [[0.0, 1.0]])


class TestMatmul:
    def test_identity_matrix(self):
        with ad.Tape():
            eye = ad.constant(np.eye(2))
            v = ad.leaf(np.asarray([[3.0], [-1.0]]))
            out = eye @ v
        assert np.array_equal(out.data, [[3.0], [-1.0]])

    def test_hand_product(self):
        with ad.Tape():
            a = ad.constant(np.asarray([[1.0, 2.0], [3.0, 4.0]]))
            v = ad.constant(np.asarray([[1.0], [1.0]]))
            assert np.array_equal((a @ v).data, [[3.0], [7.0]])

    def test_grad_of_sum_is_column_sums(self):
        a_np = np.asarray([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with ad.Tape():
            a = ad.constant(a_np)
            x = ad.leaf(np.asarray([[1.0], [-2.0], [0.5]]))
            (g,) = ad.grad((a @ x).sum(), [x])
        assert np.allclose(g, a_np.sum(axis=0)[:, None])

    def test_rank1_operands_raise(self):
        a = ad.constant(np.ones((2, 3)))
        v = ad.constant(np.ones(3))
        for left, right in ((a, v), (ad.constant(np.ones(2)), a), (v, v)):
            with pytest.raises(ValueError, match="matrices"):
                ad.matmul(left, right)

    def test_inner_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            with ad.Tape():
                ad.matmul(ad.leaf(np.zeros((2, 3))), ad.leaf(np.zeros((2, 3))))

    def test_finite_difference_matrix_matrix(self):
        a = RngStream(31).normals(6).reshape(2, 3)
        b = RngStream(32).normals(12).reshape(3, 4)
        err = ad.finite_diff_check(lambda x, y: (x @ y).sum(), [a, b])
        assert err < 1e-5


class TestReduce:
    def test_logsumexp_single_element(self):
        with ad.Tape():
            x = ad.leaf(np.asarray([1.7]))
            assert abs(float(ad.logsumexp(x).data) - 1.7) < 1e-15

    def test_logsumexp_two_zeros(self):
        with ad.Tape():
            x = ad.leaf(np.zeros(2))
            assert abs(float(ad.logsumexp(x).data) - math.log(2.0)) < 1e-15

    def test_logsumexp_no_overflow(self):
        with ad.Tape():
            x = ad.leaf(np.asarray([-1000.0, 0.0]))
            v = float(ad.logsumexp(x).data)
        assert abs(v) < 1e-12

    def test_logsumexp_grad_is_softmax(self):
        with ad.Tape():
            x = ad.leaf(np.asarray(0.0))
            rows = ad.stack_rows([ad.reshape(x, (1,)), ad.constant(np.zeros((1,)))])
            y = ad.logsumexp(rows)
            (g,) = ad.grad(y, [x])
        assert abs(float(g) - 0.5) < 1e-12

    def test_np_logsumexp_keeps_input_and_all_neg_inf_row(self):
        a = np.asarray([[0.5, -1.0, 2.0], [-np.inf, -np.inf, -np.inf]])
        before = a.copy()
        out = ad.np_logsumexp(a, axis=1)
        assert np.array_equal(a, before)
        assert abs(out[0] - math.log(np.exp(a[0]).sum())) < 1e-15
        assert out[1] == -np.inf

    # rows: finite, +inf, NaN, all -inf, mixed -inf and finite, +inf with -inf,
    # +inf with NaN, huge finite, and terms whose exp underflows
    EDGE_ROWS = np.asarray([
        [0.5, -1.0, 2.0], [np.inf, 0.0, 1.0], [np.nan, 0.0, 1.0], [-np.inf, -np.inf, -np.inf],
        [-np.inf, 3.0, -2.5], [np.inf, -np.inf, 0.0], [np.inf, np.nan, 1.0], [1e308, 1e308, 1e308],
        [-745.0, -800.0, 5.0],
    ])
    EDGE_OUT = ["0x1.1ee349dfa61fcp+1", "inf", "nan", "-inf", "0x1.8085a4763b9bdp+1", "inf", "nan",
                "0x1.1ccf385ebc8a0p+1023", "0x1.4000000000000p+2"]

    @pytest.mark.filterwarnings("error")
    def test_np_logsumexp_edge_rows_are_pinned_bit_for_bit(self):
        """Finite maxima take the short path, the others the guarded one; neither warns."""
        rows = self.EDGE_ROWS
        for got in (ad.np_logsumexp(rows, axis=1), ad.np_logsumexp(rows.T.copy(), axis=0)):
            assert got.shape == (len(rows),)
            assert [float(v).hex() for v in got] == self.EDGE_OUT
        for row, want in zip(rows, self.EDGE_OUT):
            got = ad.np_logsumexp(row)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert float(got).hex() == want
        whole = ad.np_logsumexp(rows[[0, 3, 4, 7, 8]])
        assert float(whole).hex() == "0x1.1ccf385ebc8a0p+1023"
        assert [float(v).hex() for v in ad.np_logsumexp(rows[[0, 4]], axis=1)] == [self.EDGE_OUT[0], self.EDGE_OUT[4]]

    @pytest.mark.filterwarnings("error")
    def test_logsumexp_backward_all_neg_inf_rows_are_exact_zeros(self):
        with ad.Tape():
            x = ad.leaf(np.asarray([[0.5, -np.inf, 2.0], [-np.inf, -np.inf, -np.inf]]))
            (g,) = ad.grad(ad.logsumexp(x, axis=1).sum(), [x])
            dead = ad.leaf(np.full(3, -np.inf))
            (g_dead,) = ad.grad(ad.logsumexp(dead), [dead])
        soft = np.exp(np.asarray([0.5, -np.inf, 2.0]) - ad.np_logsumexp(np.asarray([0.5, -np.inf, 2.0])))
        assert np.array_equal(g[0], soft) and g[0, 1] == 0.0
        assert np.array_equal(g[1], np.zeros(3)) and not np.signbit(g[1]).any()
        assert np.array_equal(g_dead, np.zeros(3)) and not np.signbit(g_dead).any()

    def test_empty_reduction_raises(self):
        for reduction in (lambda v: v.sum(), ad.logsumexp):
            with pytest.raises(ValueError, match="empty reduction"):
                with ad.Tape():
                    reduction(ad.leaf(np.zeros((0,))))

    def test_reduce_finite_difference(self):
        x = RngStream(41).normals(10)
        for reduction in (lambda v: v.sum(), ad.logsumexp):
            err = ad.finite_diff_check(reduction, [x])
            assert err < 1e-6


class TestCustomVjp:
    def test_identity_rule(self):
        with ad.Tape():
            x = ad.leaf(np.asarray([1.0, 2.0]))
            y = ad.custom_vjp(x.data * 1.0, [x], lambda g: (g,))
            (g,) = ad.grad(y.sum(), [x])
        assert np.array_equal(g, [1.0, 1.0])

    def test_scaling_rule_doubles_gradient(self):
        with ad.Tape():
            x = ad.leaf(np.asarray([1.0, 2.0]))
            y = ad.custom_vjp(x.data * 1.0, [x], lambda g: (2.0 * g,))
            (g,) = ad.grad(y.sum(), [x])
        assert np.array_equal(g, [2.0, 2.0])

    def test_rule_invoked_exactly_once(self):
        calls = []
        with ad.Tape():
            x = ad.leaf(np.asarray(1.0))

            def rule(g):
                calls.append(1)
                return (g,)

            y = ad.custom_vjp(np.asarray(1.0), [x], rule)
            ad.grad(y + y, [x])
        assert len(calls) == 1

    def test_wrong_arity_raises(self):
        """grad checks each rule's cotangent count against its node's parents."""
        with ad.Tape():
            x = ad.leaf(np.asarray(1.0))
            y = ad.custom_vjp(np.asarray(1.0), [x], lambda g: (g, g))
            with pytest.raises(ValueError, match="returned 2 cotangents for 1 parents"):
                ad.grad(y, [x])

    def test_constant_parent_id_is_none(self):
        """An op node is (parent ids, rule); a constant parent's id is None and grad skips it."""
        with ad.Tape() as tape:
            x = ad.leaf(np.asarray([1.0, 2.0]))
            c = ad.constant(np.asarray([3.0, 4.0]))
            y = ad.stack_rows([c, x, c])
            (g,) = ad.grad((y * y).sum(), [x])
        assert tape.nodes[y.nid][0] == (None, x.nid, None)
        assert np.array_equal(g, [2.0, 4.0])


class TestGrad:
    def test_square_at_three(self):
        assert scalar_grad(lambda x: x * x, 3.0) == 6.0

    def test_grad_of_constant_is_zero(self):
        with ad.Tape():
            x = ad.leaf(np.asarray(1.0))
            c = ad.constant(np.asarray(5.0))
            gx, gc = ad.grad(x * c, [x, c])
        assert float(gx) == 5.0
        assert float(gc) == 0.0

    def test_repeated_calls_identical(self):
        with ad.Tape():
            x = ad.leaf(RngStream(55).normals(5))
            loss = ad.logsumexp(x * x)
            g1 = ad.grad(loss, [x])[0]
            g2 = ad.grad(loss, [x])[0]
        assert np.array_equal(g1, g2)

    def test_non_scalar_loss_raises(self):
        with pytest.raises(ValueError):
            with ad.Tape():
                x = ad.leaf(np.zeros(3))
                ad.grad(x * x, [x])

    def test_backward_linearity(self):
        """grad(sum of losses) equals sum of individual grads."""
        x0 = RngStream(66).normals(4)
        with ad.Tape():
            x = ad.leaf(x0)
            la = ad.logsumexp(x)
            lb = (x * x).sum()
            g_joint = ad.grad(la + lb, [x])[0]
            g_a = ad.grad(la, [x])[0]
            g_b = ad.grad(lb, [x])[0]
        assert np.allclose(g_joint, g_a + g_b, atol=1e-14)

    def test_replay_bit_identical(self):
        def run():
            with ad.Tape():
                x = ad.leaf(np.asarray([0.3, 0.8]))
                loss = ad.logsumexp(ad.exp(x) * x)
                return float(loss.data), ad.grad(loss, [x])[0]

        (v1, g1), (v2, g2) = run(), run()
        assert v1 == v2
        assert np.array_equal(g1, g2)


class TestGatherStack:
    def test_gather_rows_forward_and_scatter_backward(self):
        with ad.Tape():
            x = ad.leaf(np.asarray([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
            y = ad.gather_rows(x, np.asarray([2, 0, 2]))
            (g,) = ad.grad(y.sum(), [x])
        assert np.array_equal(y.data, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])
        assert np.array_equal(g, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])

    def test_gather_rows_single_pick_backward(self):
        """One index (a step's parameter row) writes its row; the rest stay exact zeros."""
        w = np.asarray([[2.0, -0.0]])
        with ad.Tape():
            x = ad.leaf(np.arange(6.0).reshape(3, 2))
            y = ad.gather_rows(x, np.asarray([1]))
            (g,) = ad.grad((y * ad.constant(w)).sum(), [x])
            v = ad.leaf(np.arange(4.0))
            (gv,) = ad.grad((ad.gather_rows(v, np.asarray([3])) * ad.constant(np.asarray([-0.0]))).sum(), [v])
        assert np.array_equal(y.data, [[2.0, 3.0]])
        # a scatter-add onto zeros: the -0.0 cotangent lands as +0.0, as np.add.at gives
        want = np.zeros((3, 2))
        np.add.at(want, np.asarray([1]), w)
        assert g.tobytes() == want.tobytes()
        assert gv.tobytes() == np.zeros(4).tobytes()

    def test_gather_rows_repeated_indices_backward(self):
        g_in = np.asarray([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0], [0.5, 0.25]])
        with ad.Tape():
            x = ad.leaf(np.zeros((3, 2)))
            y = ad.gather_rows(x, np.asarray([1, 1, 0, 1]))
            (g,) = ad.grad((y * ad.constant(g_in)).sum(), [x])
        assert np.array_equal(g, [[100.0, 200.0], [11.5, 22.25], [0.0, 0.0]])

    def test_stack_rows_splits_gradient(self):
        with ad.Tape():
            a = ad.leaf(np.asarray([1.0, 2.0]))
            b = ad.leaf(np.asarray([3.0, 4.0]))
            y = ad.stack_rows([a, b])
            w = ad.constant(np.asarray([[1.0, 1.0], [2.0, 2.0]]))
            ga, gb = ad.grad((y * w).sum(), [a, b])
        assert np.array_equal(ga, [1.0, 1.0])
        assert np.array_equal(gb, [2.0, 2.0])


class TestFiniteDiffCheck:
    def test_linear_function_near_exact(self):
        w = np.asarray([2.0, -3.0, 0.5])
        err = ad.finite_diff_check(lambda x: (ad.constant(w) * x).sum(), [np.ones(3)])
        assert err < 1e-10

    def test_gaussian_logpdf_in_mean_and_logstd(self):
        x_obs = np.asarray([0.7, -0.2])

        def f(mu, log_std):
            z = (ad.constant(x_obs) - mu) * ad.exp(-1.0 * log_std)
            return (-0.5 * math.log(2 * math.pi) - log_std - 0.5 * z * z).sum()

        err = ad.finite_diff_check(f, [np.asarray([0.1, 0.4]), np.asarray([-0.3, 0.2])])
        assert err < 1e-6

    def test_logsumexp_of_random_values(self):
        err = ad.finite_diff_check(ad.logsumexp, [RngStream(77).normals(10)])
        assert err < 1e-6

    def test_non_finite_difference_fails_the_check(self):
        """A function that is -inf around the point has no central difference;
        the check reports an infinite error rather than skipping it."""
        dead = ad.constant(np.full(3, -np.inf))
        assert ad.finite_diff_check(lambda x: (x + dead).sum(), [np.ones(3)]) == np.inf
