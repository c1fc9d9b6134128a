import numpy as np
import pytest

from marginlab.objectives import (cross_entropy, cross_entropy_rows, entropy,
                                  lambda_star, lse_smoothed_margin, margin_rows,
                                  max_margin_over_classes, nll_of_probs,
                                  zero_one_error)


def test_cross_entropy_uniform_logits():
    assert cross_entropy(np.zeros((1, 10)), [3]).item() == pytest.approx(np.log(10.0))
    assert cross_entropy_rows(np.zeros((1, 10)), np.array([3]))[0][0] == \
        pytest.approx(np.log(10.0))


def test_cross_entropy_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((1, 3)), [5])
    with pytest.raises(ValueError):
        cross_entropy_rows(np.zeros((1, 3)), np.array([5]))


def test_kernel_objectives_take_list_labels():
    ces, grad = cross_entropy_rows(np.zeros((1, 3)), [1])
    assert ces[0] == pytest.approx(np.log(3.0))
    assert grad[0, 1] == pytest.approx(1.0 / 3.0 - 1.0)
    margins, grad = margin_rows([0], [2], 3, (1,))(np.array([[0.5, 0.0, 2.0]]))
    assert margins.tolist() == [1.5] and grad.tolist() == [[-1.0, 0.0, 1.0]]
    with pytest.raises(ValueError):
        cross_entropy_rows(np.zeros((1, 3)), [3])
    with pytest.raises(ValueError):
        margin_rows([0], [3], 3, (1,))


def test_nll_of_explicit_probability_vectors():
    eps = 0.01
    z_b = np.array([0.5 - eps, 0.5 + eps] + [0.0] * 8)
    z_a = np.full(10, 0.1)
    z_a[0] += eps
    z_a[1] -= eps
    assert nll_of_probs(z_b, 0) == pytest.approx(-np.log(0.49))
    assert nll_of_probs(z_a, 0) == pytest.approx(-np.log(0.11))


def test_zero_one_error_cases():
    assert zero_one_error([0.2, 0.0, 0.0], 0) == 0
    s = 0.8 / np.sqrt(2.0)
    assert zero_one_error([1 - s, -s, s], 0) == 1
    assert zero_one_error([1.0, 1.0, 1.0], 0) == 0  # lowest-index tie-break


def test_max_margin_tie_breaks():
    assert max_margin_over_classes([0.2, 0.0, 0.0], 0) == (1, pytest.approx(-0.2))
    assert max_margin_over_classes([0.0, 1.0, 0.0], 0) == (1, pytest.approx(1.0))
    assert max_margin_over_classes([5.0, 5.0, 5.0], 1) == (0, pytest.approx(0.0))
    with pytest.raises(ValueError):
        max_margin_over_classes([1.0], 0)


def test_lse_single_wrong_class_is_exact():
    margins = np.array([0.0, -0.37])
    for mu in (0.5, 1.0, 50.0):
        assert lse_smoothed_margin(margins, 0, mu) == pytest.approx(-0.37)


def test_lse_equal_margins():
    margins = np.array([0.0, 0.0, 0.0])
    assert lse_smoothed_margin(margins, 0, 1.0) == pytest.approx(np.log(2.0))
    margins2 = np.array([0.0, -0.2, -0.2])
    assert lse_smoothed_margin(margins2, 0, 10.0) == pytest.approx(
        -0.2 + np.log(2.0) / 10.0)


def test_lambda_star_cases():
    w = lambda_star(np.array([0.0, 0.3, 0.3]), 0, 1.0)
    assert np.allclose(w, [0.0, 0.5, 0.5])
    # strong temperature saturates onto the unique best class
    w = lambda_star(np.array([0.0, 0.1, 0.2]), 0, 1000.0)
    assert w[2] >= 0.999
    w = lambda_star(np.array([0.0, -1.3]), 0, 7.0)
    assert np.allclose(w, [0.0, 1.0])


@pytest.mark.parametrize("mu", [0.0, -1.0, float("nan"), float("inf")])
def test_smoothed_margin_rejects_a_mu_that_is_not_positive(mu):
    logits = np.array([0.0, 0.3, -0.2])
    for closed_form in (lse_smoothed_margin, lambda_star):
        with pytest.raises(ValueError, match="mu"):
            closed_form(logits, 0, mu)


def test_margin_error_equivalence_probes():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        logits = rng.normal(size=int(rng.integers(2, 7)))
        y = int(rng.integers(logits.size))
        _, value = max_margin_over_classes(logits, y)
        err = zero_one_error(logits, y)
        if value > 0:
            assert err == 1
        elif value < 0:
            assert err == 0


def test_base2_cross_entropy_upper_bounds_error():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        logits = rng.normal(size=int(rng.integers(2, 11))) * rng.uniform(0.1, 5.0)
        y = int(rng.integers(logits.size))
        base2 = cross_entropy_rows(logits[None], np.array([y]))[0][0] / np.log(2.0)
        assert base2 >= zero_one_error(logits, y)


def test_lse_sandwich():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        logits = rng.normal(size=k)
        y = int(rng.integers(k))
        top = max(np.delete(logits - logits[y], y))
        for mu in (1.0, 10.0, 100.0):
            lse = lse_smoothed_margin(logits, y, mu)
            assert top - 1e-12 <= lse <= top + np.log(k - 1) / mu + 1e-12


def test_lambda_star_duality_identity():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        logits, y = rng.normal(size=k), int(rng.integers(k))
        mu = float(rng.uniform(0.2, 50.0))
        w = lambda_star(logits, y, mu)
        assert w.min() >= 0 and w[y] == 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        lhs = float(w @ (logits - logits[y])) + entropy(w) / mu
        assert abs(lhs - lse_smoothed_margin(logits, y, mu)) < 1e-9


def test_surrogate_vs_margin_ranking_example():
    # the surrogate prefers the non-adversarial vector; the margin does not
    eps, k, y = 0.01, 10, 0
    z_a = np.full(k, 1.0 / k)
    z_a[0] += eps
    z_a[1] -= eps
    z_b = np.zeros(k)
    z_b[0], z_b[1] = 0.5 - eps, 0.5 + eps
    assert nll_of_probs(z_a, y) > nll_of_probs(z_b, y)
    _, m_a = max_margin_over_classes(z_a, y)
    _, m_b = max_margin_over_classes(z_b, y)
    assert m_a < 0 < m_b
