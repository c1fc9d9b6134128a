import numpy as np
import pytest

from marginlab import training
from marginlab.data import Dataset
from marginlab.models import ModelSpec
from marginlab.optim import BETA1, BETA2, EPS, RHO, OptimState, step
from marginlab.training import TrainConfig, run_training


def test_sgd_descend():
    out = step(OptimState("sgd", 0.1), np.array(1.0), np.array(2.0))
    assert out == pytest.approx(0.8)


def test_sign_sgd_ascend():
    alpha = 2.0 / 255.0
    out = step(OptimState("sign_sgd", alpha), np.zeros(2),
               np.array([-3.7, 0.2]), "ascend")
    assert np.allclose(out, [-alpha, alpha])


def test_sign_of_zero_is_zero():
    out = step(OptimState("sign_sgd", 0.5), np.array([1.0]), np.array([0.0]))
    assert out == pytest.approx(1.0)


def test_rmsprop_first_step_magnitude():
    g = 2.3
    state = OptimState("rmsprop", 0.01)
    out = step(state, np.array(0.0), np.array(g))
    expected = -0.01 * g / (np.sqrt(0.01 * g * g) + 1e-8)
    assert out == pytest.approx(expected)
    assert abs(out) == pytest.approx(0.1, rel=1e-5)


def test_adam_first_step_is_lr_sized():
    out = step(OptimState("adam", 0.01), np.array(0.0), np.array(5.0))
    assert out == pytest.approx(-0.01, rel=1e-6)


def test_unknown_kind_and_shape_mismatch():
    with pytest.raises(ValueError):
        OptimState("momentum", 0.1)
    with pytest.raises(ValueError):
        step(OptimState("sgd", 0.1), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        step(OptimState("sgd", 0.1), np.zeros(2), np.zeros(2), "sideways")


@pytest.mark.parametrize("kind", ["sgd", "sign_sgd", "rmsprop", "adam"])
def test_descend_decreases_quadratic(kind):
    x = np.array(1.0)
    state = OptimState(kind, 1e-3)
    for _ in range(5):
        x = step(state, x, 2.0 * x)
    assert x ** 2 < 1.0


@pytest.mark.parametrize("kind", ["sgd", "sign_sgd", "rmsprop", "adam"])
def test_ascend_is_descend_of_negated_gradient(kind):
    rng = np.random.default_rng(0)
    g = rng.normal(size=4)
    a = step(OptimState(kind, 0.05), np.zeros(4), g, "ascend")
    b = step(OptimState(kind, 0.05), np.zeros(4), -g, "descend")
    assert np.array_equal(a, b)


def test_state_evolution_deterministic():
    rng = np.random.default_rng(1)
    grads = [rng.normal(size=3) for _ in range(10)]

    def run():
        state, x = OptimState("adam", 0.01), np.zeros(3)
        for g in grads:
            x = step(state, x, g)
        return x

    assert np.array_equal(run(), run())


def test_lr_schedule(monkeypatch):
    # epoch e (from 0) trains at lr * factor ** (decay epochs <= e)
    lrs = []

    def recording_step(state, var, grad, direction):
        lrs.append(state.lr)
        return step(state, var, grad, direction)
    monkeypatch.setattr(training, "opt_step", recording_step)
    data = Dataset(np.random.default_rng(0).uniform(size=(10, 2)), np.arange(10) % 3)
    cfg = TrainConfig("erm", epochs=3, lr=0.1, decay_epochs=(1, 2), decay_factor=0.1)
    run_training(ModelSpec("linear", 2, 3), data, cfg)
    rates = list(dict.fromkeys(lrs))  # the distinct rates, in order
    assert rates[0] == pytest.approx(0.1)
    assert rates[1] == pytest.approx(0.01)
    assert rates[2] == pytest.approx(0.001)
    assert len(rates) == 3
    with pytest.raises(ValueError):
        TrainConfig("erm", epochs=1, decay_epochs=(150, 100))


def _allocating_step(kind, lr, slots, n, var, grad, direction):
    """The plain formulas, one fresh array per term: the reference for step."""
    if direction == "ascend":
        grad = -grad
    if kind == "sgd":
        return var - lr * grad
    if kind == "sign_sgd":
        return var - lr * np.sign(grad)
    if kind == "rmsprop":
        slots["v"] = RHO * slots.get("v", 0.0) + (1.0 - RHO) * grad * grad
        return var - lr * grad / (np.sqrt(slots["v"]) + EPS)
    slots["m"] = BETA1 * slots.get("m", 0.0) + (1.0 - BETA1) * grad
    slots["v"] = BETA2 * slots.get("v", 0.0) + (1.0 - BETA2) * grad * grad
    m_hat = slots["m"] / (1.0 - BETA1 ** n)
    v_hat = slots["v"] / (1.0 - BETA2 ** n)
    return var - lr * m_hat / (np.sqrt(v_hat) + EPS)


@pytest.mark.parametrize("shape", [(), (5, 7), (3, 5, 7)], ids=["0d", "nd", "mnd"])
@pytest.mark.parametrize("direction", ["descend", "ascend"])
@pytest.mark.parametrize("kind", ["sgd", "sign_sgd", "rmsprop", "adam"])
def test_fused_step_is_bit_equal_to_the_allocating_rule(kind, direction, shape):
    rng = np.random.default_rng(7)
    state, ref_slots = OptimState(kind, 0.03), {}
    var = ref = rng.normal(size=shape)
    for n in range(1, 11):
        grad = rng.normal(size=shape)
        if shape:  # zeros and signed zeros exercise sign() and the moments
            grad[..., 0] = 0.0
            grad[..., 1] = -0.0
        var_before, grad_before = var.copy(), grad.copy()
        out = step(state, var, grad, direction)
        ref = _allocating_step(kind, 0.03, ref_slots, n, ref, grad, direction)
        assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()
        assert var.tobytes() == var_before.tobytes()
        assert grad.tobytes() == grad_before.tobytes()
        for held in (var, *state.slots.values()):
            assert not np.shares_memory(out, held)
        var = ref = out
    if kind in ("rmsprop", "adam"):  # sgd and sign-SGD hold no slots
        with pytest.raises(ValueError, match="optimizer state shape"):
            step(state, np.zeros((2, *shape)), np.zeros((2, *shape)), direction)
