import numpy as np
import pytest

from marginlab import training
from marginlab.data import Dataset
from marginlab.models import ModelSpec
from marginlab.optim import OptimState, step
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
