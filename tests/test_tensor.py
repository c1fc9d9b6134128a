import numpy as np
import pytest

from marginlab.cli import gradient_error
from marginlab.objectives import cross_entropy
from marginlab.tensor import (ShapeError, Tensor, affine, matmul, mul, relu, reshape,
                              texp, tsum)


def test_affine_fixed_weight():
    out = affine([[0.0, -1.0]], [[0.0, -1.0, 1.0], [-1.0, 0.0, 0.0]],
                 [0.0, 0.0, 0.0])
    assert np.allclose(out.data, [[1.0, 0.0, 0.0]])


def test_affine_zero_input_zero_bias():
    out = affine([[0.0, 0.0]], [[3.0, 1.0, -2.0], [4.0, 0.0, 5.0]],
                 [0.0, 0.0, 0.0])
    assert np.allclose(out.data, 0.0)


def test_affine_identity():
    out = affine([[1.0, 2.0]], np.eye(2), [0.0, 0.0])
    assert np.allclose(out.data, [[1.0, 2.0]])


def test_affine_shape_mismatch():
    with pytest.raises(ShapeError):
        affine([[1.0, 2.0, 3.0]], np.eye(2), [0.0, 0.0])
    with pytest.raises(ShapeError):
        affine([[1.0, 2.0]], np.eye(2), [0.0, 0.0, 0.0])


def test_relu_values():
    assert np.allclose(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert np.allclose(relu(Tensor([-3.0, -0.1])).data, 0.0)


def test_relu_subgradient_zero_at_kink():
    x = Tensor([-1.0, 2.0, 0.0], requires_grad=True)
    tsum(relu(x)).backward()
    assert np.allclose(x.grad, [0.0, 1.0, 0.0])


def test_matmul_rejects_a_stacked_operand():
    with pytest.raises(ShapeError, match="do not conform"):
        matmul(np.zeros((2, 3, 4)), np.eye(4))
    with pytest.raises(ShapeError):
        affine(np.zeros((2, 1, 2)), np.eye(2), [0.0, 0.0])


def test_backward_bilinear():
    w = Tensor([[1.0], [2.0]], requires_grad=True)
    x = Tensor([[3.0, 4.0]], requires_grad=True)
    tsum(matmul(x, w)).backward()
    assert np.allclose(x.grad, [[1.0, 2.0]])
    assert np.allclose(w.grad, [[3.0], [4.0]])


def test_backward_dead_relu():
    x = Tensor([-5.0], requires_grad=True)
    tsum(relu(x)).backward()
    assert np.allclose(x.grad, 0.0)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        relu(x).backward()


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = Tensor([[0.0, 0.0]], requires_grad=True)
    tsum(cross_entropy(logits, [1])).backward()
    assert np.allclose(logits.grad, [[0.5, -0.5]])


def test_offpath_leaf_gets_no_gradient_contribution():
    x = Tensor([1.0], requires_grad=True)
    y = Tensor([2.0], requires_grad=True)
    tsum(mul(x, 3.0)).backward()
    assert np.allclose(x.grad, 3.0)
    assert y.grad is None  # never entered the graph


def test_node_above_no_gradient_leaf_gets_no_gradient():
    # sbeta_at's slot points Tensor(X) + eta: with eta constant, backward must
    # not compute a gradient at the points; unary ops follow the same rule
    x = Tensor([1.0], requires_grad=True)
    points = Tensor([4.0]) + Tensor([5.0])
    tsum(mul(x, points)).backward()
    assert np.allclose(x.grad, 9.0)
    assert points.grad is None
    const = Tensor([[1.0, 2.0]])
    tsum(texp(reshape(relu(const), (2,)))).backward()
    assert const.grad is None


def graph_gradient_error(fn, point):
    """gradient_error of the scalar graph function fn(Tensor) at point, its
    analytic gradient by backpropagation."""
    x = Tensor(point, requires_grad=True)
    fn(x).backward()
    return gradient_error(lambda v: fn(Tensor(v)).item(), point, x.grad)


def test_finite_diff_sum_of_squares():
    err = graph_gradient_error(lambda t: tsum(mul(t, t)), np.array([1.0, 2.0]))
    assert err < 1e-6


def test_finite_diff_constant():
    err = graph_gradient_error(lambda t: Tensor(7.0) + tsum(mul(t, 0.0)),
                               np.array([1.0, -3.0]))
    assert err == 0.0


def test_finite_diff_linear_margin():
    w = np.array([[0.3, -0.5, 1.1], [0.2, 0.8, -0.4]])

    def margin(x):  # the margin of class 2 over class 0
        logits = affine(x, w, np.zeros(3))
        return tsum(mul(logits, np.array([-1.0, 0.0, 1.0])))

    err = graph_gradient_error(margin, np.array([[0.4, -0.2]]))
    assert err < 1e-6
    # analytic gradient is w[:,2] - w[:,0]


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        gradient_error(lambda v: float(np.sum(v)), np.array([1.0]), 1.0, h=0.0)


def test_gradcheck_random_compositions():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        w1 = rng.normal(size=(3, 4))
        w2 = rng.normal(size=(4, 2))
        x0 = rng.normal(size=(1, 3))
        y = int(rng.integers(2))

        def loss(x):
            h = relu(affine(x, w1, np.zeros(4)))
            return tsum(cross_entropy(affine(h, w2, np.zeros(2)), [y]))

        worst = max(worst, graph_gradient_error(loss, x0))
    assert worst < 1e-5


def test_backward_is_linear():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=4)
    a, b = 1.7, -0.6

    def grad(fn):
        x = Tensor(x0, requires_grad=True)
        fn(x).backward()
        return x.grad

    f = lambda t: tsum(mul(t, t))
    g = lambda t: tsum(relu(t))
    combined = grad(lambda t: mul(f(t), a) + mul(g(t), b))
    assert np.allclose(combined, a * grad(f) + b * grad(g), atol=1e-12)


def test_replay_is_bit_identical():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    out = tsum(relu(matmul(x, w)))
    out.backward()
    gx, gw = x.grad.copy(), w.grad.copy()
    out.backward()
    assert np.array_equal(x.grad, gx)
    assert np.array_equal(w.grad, gw)


def test_public_ops_stay_finite():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 4))
        out = relu(affine(x, w, rng.normal(size=4)))
        assert np.all(np.isfinite(out.data))
