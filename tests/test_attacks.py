import numpy as np
import pytest

from marginlab.attacks import (AttackConfig, beta_attack, beta_attack_batch,
                               closed_form_linear_attack, fgsm, fgsm_batch,
                               grid_margin_per_class, grid_max_cross_entropy,
                               grid_oracle_attack, pgd_surrogate,
                               pgd_surrogate_batch, project, resolve_step_size,
                               targeted_ascent_batch, targeted_margin_ascent)
from marginlab.data import EVAL
from marginlab.models import ModelSpec, forward_logits, init_params, linear_model
from marginlab.objectives import zero_one_error

CE_WEIGHT = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.0]])
CE_BIAS = np.zeros(3)
CE_X = np.array([0.0, -1.0])
CE_EPS = 0.8
CE_TARGET_MARGIN = 0.8 * np.sqrt(2.0) - 1.0


def counterexample():
    return linear_model(CE_WEIGHT, CE_BIAS)


def l2_cfg(steps=50, optimizer="rmsprop", step_size=None):
    return AttackConfig(epsilon=CE_EPS, norm="l2", steps=steps,
                        optimizer=optimizer, step_size=step_size, box=False,
                        seed=0)


def test_project_linf_box():
    cfg = AttackConfig(epsilon=0.2, norm="l_inf", box=True)
    assert project(np.array([0.5]), np.array([0.9]), cfg) == pytest.approx(0.7)
    assert project(np.array([0.9]), np.array([1.3]), cfg) == pytest.approx(1.0)


def test_project_l2_radial():
    cfg = AttackConfig(epsilon=0.8, norm="l2", box=False)
    x = np.array([0.0, -1.0])
    candidate = x + 1.5 * np.array([0.8, 0.8])
    out = project(x, candidate, cfg)
    assert np.linalg.norm(out - x) == pytest.approx(0.8)


def test_project_l2_box_scales_then_clips():
    # feasible, but not the Euclidean projection onto ball and box: the
    # feasible (1, 0.5 + sqrt(0.24)) is nearer the candidate
    cfg = AttackConfig(epsilon=0.5, norm="l2", box=True)
    x, candidate = np.array([0.9, 0.5]), np.array([1.5, 1.0])
    out = project(x, candidate, cfg)
    assert out == pytest.approx([1.0, 0.8200922], abs=1e-7)
    assert np.linalg.norm(out - candidate) == pytest.approx(0.5314, abs=1e-4)
    nearer = np.array([1.0, 0.5 + np.sqrt(0.24)])
    assert np.linalg.norm(nearer - x) <= 0.5 + 1e-12
    assert np.linalg.norm(nearer - candidate) < 0.5002


def test_project_linf_idempotent():
    rng = np.random.default_rng(0)
    cfg = AttackConfig(epsilon=0.15, norm="l_inf", box=True)
    for _ in range(100):
        x = rng.uniform(size=3)
        cand = x + rng.uniform(-1, 1, 3)
        once = project(x, cand, cfg)
        assert np.array_equal(project(x, once, cfg), once)


def test_project_feasibility_fuzz():
    rng = np.random.default_rng(1)
    for _ in range(200):
        norm = "l_inf" if rng.random() < 0.5 else "l2"
        box = bool(rng.random() < 0.5)
        eps = float(rng.uniform(0.01, 0.5))
        cfg = AttackConfig(epsilon=eps, norm=norm, box=box)
        x = rng.uniform(size=4)
        out = project(x, x + rng.normal(size=4), cfg)
        if norm == "l_inf":
            assert np.max(np.abs(out - x)) <= eps + 1e-9
        else:
            assert np.linalg.norm(out - x) <= eps + 1e-9
        if box:
            assert np.all(out >= -1e-12) and np.all(out <= 1 + 1e-12)


def test_step_size_defaults():
    assert resolve_step_size(AttackConfig(epsilon=8 / 255, steps=10)) == \
        pytest.approx(2 / 255)
    assert resolve_step_size(AttackConfig(epsilon=0.3, steps=10)) == \
        pytest.approx(0.06)
    assert resolve_step_size(AttackConfig(epsilon=0.3, steps=10,
                                          step_size=0.5)) == 0.5


def test_fgsm_linear_binary_flips_along_weight_sign():
    w = np.array([[1.0, -1.0], [-2.0, 2.0]])
    spec, params = linear_model(w, np.zeros(2))
    x = np.array([0.6, 0.2])
    cfg = AttackConfig(epsilon=0.1, norm="l_inf", box=True)
    res = fgsm(spec, params, x, 0, cfg)
    # ascent on the loss pushes toward the wrong class's weight rows
    grad_dir = np.sign(w[:, 1] - w[:, 0])
    assert np.allclose(np.sign(res.eta_star), grad_dir)


@pytest.mark.parametrize("hidden", [(), (6,)], ids=["linear", "mlp"])
def test_fgsm_batch_rows_match_per_sample_fgsm(hidden):
    spec = ModelSpec("mlp" if hidden else "linear", 3, 4, hidden)
    params = init_params(spec, 2)
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(12, 3))
    preds = np.argmax(forward_logits(spec, params, X).data, axis=1)
    y = preds.copy()
    y[0] = (preds[0] + 1) % 4  # misclassified at the clean point
    cfg = AttackConfig(epsilon=0.1, norm="l_inf", box=True)
    etas = fgsm_batch(spec, params, X, y, cfg)
    for x, label, eta in zip(X, y, etas):
        assert np.array_equal(eta, fgsm(spec, params, x, label, cfg).eta_star)
    assert np.array_equal(etas[0], np.zeros(3))
    assert np.all(np.abs(etas[1:]).max(axis=1) > 0)
    with pytest.raises(ValueError, match="l_inf"):
        fgsm_batch(spec, params, X, y, AttackConfig(epsilon=0.1, norm="l2"))


def test_fgsm_zero_gradient_and_zero_eps():
    spec, params = linear_model(np.zeros((2, 2)), np.array([1.0, 0.0]))
    cfg = AttackConfig(epsilon=0.1, norm="l_inf", box=True)
    res = fgsm(spec, params, np.array([0.5, 0.5]), 0, cfg)
    assert np.allclose(res.eta_star, 0.0)
    res0 = fgsm(spec, params, np.array([0.5, 0.5]), 0,
                AttackConfig(epsilon=0.0, norm="l_inf", box=True))
    assert np.allclose(res0.eta_star, 0.0)
    with pytest.raises(ValueError):
        fgsm(spec, params, np.array([0.5, 0.5]), 0,
             AttackConfig(epsilon=0.1, norm="l2"))


def test_pgd_zero_eps_reports_clean_error():
    spec, params = counterexample()
    cfg = AttackConfig(epsilon=0.0, norm="l2", steps=5, box=False)
    res = pgd_surrogate(spec, params, CE_X, 0, cfg)
    assert np.allclose(res.eta_star, 0.0)
    assert res.success == bool(
        zero_one_error(forward_logits(spec, params, CE_X).data[0], 0))


def test_pgd_misclassified_clean_point_succeeds_immediately():
    spec, params = counterexample()
    cfg = AttackConfig(epsilon=0.1, norm="l2", steps=5, box=False)
    res = pgd_surrogate(spec, params, CE_X, 1, cfg)  # wrong label on purpose
    assert res.success and np.allclose(res.eta_star, 0.0)


def test_pgd_fails_on_counterexample_while_margin_attack_succeeds():
    spec, params = counterexample()
    pgd = pgd_surrogate(spec, params, CE_X, 0,
                        l2_cfg(steps=200, optimizer="sgd", step_size=0.05))
    assert not pgd.success
    # its surrogate optimum sits near (0, 0.8), still correctly classified
    grid_eta, _ = grid_max_cross_entropy(spec, params, CE_X, 0, CE_EPS, 200,
                                         norm="l2", box=False)
    assert np.allclose(grid_eta, [0.0, CE_EPS], atol=5e-3)
    beta = beta_attack(spec, params, CE_X, 0, l2_cfg())
    assert beta.success


def test_targeted_ascent_counterexample_both_classes():
    spec, params = counterexample()
    for j in (1, 2):
        eta, margin = targeted_margin_ascent(spec, params, CE_X, 0, j, l2_cfg())
        assert margin == pytest.approx(CE_TARGET_MARGIN, abs=1e-3)
        assert np.linalg.norm(eta) == pytest.approx(CE_EPS, abs=1e-3)
    with pytest.raises(ValueError):
        targeted_margin_ascent(spec, params, CE_X, 0, 0, l2_cfg())


@pytest.mark.parametrize("labels", [[0, -1], [3, 0]], ids=["negative", "past-K"])
def test_cross_entropy_attacks_reject_labels_out_of_range(labels):
    spec, params = counterexample()
    X, y, cfg = np.zeros((2, 2)), np.array(labels), AttackConfig(epsilon=0.1)

    def targeted(spec, params, X, y, cfg):  # every target a class other than y
        return targeted_ascent_batch(spec, params, X, y, (y + 1) % 3, cfg)
    for attack in (fgsm_batch, pgd_surrogate_batch, targeted, beta_attack_batch):
        with pytest.raises(ValueError, match="class index out of range"):
            attack(spec, params, X, y, cfg)


def test_targeted_ascent_matches_linear_closed_form():
    rng = np.random.default_rng(2)
    cfg = AttackConfig(epsilon=0.4, norm="l2", steps=50, optimizer="sgd",
                       step_size=10.0, box=False, seed=3)
    for _ in range(20):
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        spec, params = linear_model(w, b)
        x = rng.normal(size=4)
        y = int(rng.integers(3))
        closed = closed_form_linear_attack(w, b, x, y, cfg.epsilon, "l2")
        j = closed.j_star
        _, margin = targeted_margin_ascent(spec, params, x, y, j, cfg)
        assert margin == pytest.approx(closed.margin_value, abs=1e-4)


def test_beta_attack_counterexample():
    spec, params = counterexample()
    res = beta_attack(spec, params, CE_X, 0, l2_cfg())
    assert res.success
    logits = forward_logits(spec, params, CE_X + res.eta_star).data[0]
    assert np.allclose(np.abs(logits), [0.43, 0.57, 0.57], atol=1e-2)


def test_beta_attack_certified_robust_point_fails():
    # true class weight dominates everywhere in the ball
    w = np.array([[5.0, 0.1], [0.0, 0.1]])
    spec, params = linear_model(w, np.array([1.0, 0.0]))
    x = np.array([0.8, 0.5])
    cfg = AttackConfig(epsilon=0.1, norm="l_inf", steps=30, box=True, seed=0)
    oracle = grid_oracle_attack(spec, params, x, 0, 0.1, 60, "l_inf", True)
    assert not oracle.success
    res = beta_attack(spec, params, x, 0, cfg)
    assert not res.success


def test_beta_two_class_equals_single_target():
    w = np.random.default_rng(4).normal(size=(3, 2))
    spec, params = linear_model(w, np.zeros(2))
    x = np.random.default_rng(5).uniform(size=3)
    cfg = AttackConfig(epsilon=0.2, norm="l_inf", steps=20, box=True, seed=7)
    res = beta_attack(spec, params, x, 0, cfg)
    eta, margin = targeted_margin_ascent(spec, params, x, 0, 1, cfg,
                                         seed=cfg.seed)
    assert np.array_equal(res.eta_star, eta)
    assert res.margin_value == pytest.approx(margin, abs=1e-12)


def test_attack_results_feasible_fuzz():
    rng = np.random.default_rng(6)
    for _ in range(30):
        spec = ModelSpec("mlp", 2, 3, (5,))
        params = init_params(spec, int(rng.integers(1000)))
        x = rng.uniform(size=2)
        y = int(rng.integers(3))
        eps = float(rng.uniform(0.02, 0.3))
        norm = "l_inf" if rng.random() < 0.5 else "l2"
        cfg = AttackConfig(epsilon=eps, norm=norm, steps=10, box=True,
                           seed=int(rng.integers(1000)))
        res = beta_attack(spec, params, x, y, cfg)
        if norm == "l_inf":
            assert np.max(np.abs(res.eta_star)) <= eps + 1e-9
        else:
            assert np.linalg.norm(res.eta_star) <= eps + 1e-9
        assert np.all(x + res.eta_star >= -1e-12)
        assert np.all(x + res.eta_star <= 1 + 1e-12)
        logits = forward_logits(spec, params, x + res.eta_star).data[0]
        assert res.success == bool(zero_one_error(logits, y))


def test_beta_batch_matches_per_sample():
    rng = np.random.default_rng(8)
    spec = ModelSpec("linear", 2, 3)
    params = init_params(spec, 0)
    X = rng.uniform(size=(5, 2))
    y = rng.integers(3, size=5)
    cfg = AttackConfig(epsilon=0.1, norm="l_inf", steps=8, box=True, seed=1)
    etas, j_stars, margins = beta_attack_batch(spec, params, X, y, cfg)
    assert etas.shape == X.shape
    assert np.all(margins >= -10)
    assert np.all(j_stars != y)


def test_beta_batch_is_fold_of_serial_slot_ascents():
    # slot s of row i targets the s-th smallest class != y[i] and draws its
    # start from the key (seed, EVAL, 0, 0, s); a later slot replaces the
    # running best only when its margin is strictly larger.  Stacked slots
    # must match the serial ascents bit for bit.
    for hidden, k, n in (((5,), 4, 24),          # all 3 slots in one stack
                         ((32, 32), 10, 200)):   # 9 slots in groups of 5 and 4
        rng = np.random.default_rng(9)
        spec = ModelSpec("mlp", 3, k, hidden)
        params = init_params(spec, 2)
        X = rng.uniform(size=(n, 3))
        y = rng.integers(k, size=n)
        cfg = AttackConfig(epsilon=0.1, norm="l_inf", steps=6, box=True, seed=0)
        etas, j_stars, margins = beta_attack_batch(spec, params, X, y, cfg, seed=7)

        best_eta, best_j = np.zeros_like(X), np.zeros(n, dtype=np.intp)
        best_m = np.full(n, -np.inf)
        for s in range(k - 1):
            targets = np.array([[j for j in range(k) if j != yi][s] for yi in y])
            eta_s, m_s = targeted_ascent_batch(spec, params, X, y, targets, cfg,
                                               seed=[(7, EVAL, 0, 0, s)])
            better = m_s > best_m
            best_eta[better], best_j[better] = eta_s[better], targets[better]
            best_m[better] = m_s[better]
        assert np.array_equal(etas, best_eta)
        assert np.array_equal(j_stars, best_j)
        assert np.array_equal(margins, best_m)

        # pgd leaves every row misclassified at the clean point exactly in place
        clean_wrong = np.argmax(forward_logits(spec, params, X).data, axis=1) != y
        assert clean_wrong.any() and not clean_wrong.all()
        pgd = pgd_surrogate_batch(spec, params, X, y, cfg, seed=7)
        assert np.all(pgd[clean_wrong] == 0.0)
        assert np.any(pgd[~clean_wrong] != 0.0)


def test_targeted_batch_with_a_seed_list_is_one_call_per_block():
    rng = np.random.default_rng(10)
    spec = ModelSpec("mlp", 3, 4, (5,))
    params = init_params(spec, 1)
    X, y = rng.uniform(size=(6, 3)), np.array([0, 1, 2, 3, 0, 1])
    t1, t2 = (y + 1) % 4, (y + 2) % 4
    cfg = AttackConfig(epsilon=0.1, norm="l2", steps=4)
    etas, margins = targeted_ascent_batch(spec, params, np.tile(X, (2, 1)),
                                          np.tile(y, 2), np.concatenate([t1, t2]),
                                          cfg, seed=[(3, EVAL, 0, 0, 0),
                                                      (8, EVAL, 0, 0, 0)])
    e1, m1 = targeted_ascent_batch(spec, params, X, y, t1, cfg, seed=3)
    e2, m2 = targeted_ascent_batch(spec, params, X, y, t2, cfg, seed=8)
    assert np.array_equal(etas, np.concatenate([e1, e2]))
    assert np.array_equal(margins, np.concatenate([m1, m2]))


def test_batch_attacks_accept_an_empty_batch():
    spec = ModelSpec("mlp", 3, 4, (5,))
    params = init_params(spec, 0)
    X, y = np.zeros((0, 3)), np.zeros(0, dtype=np.intp)
    cfg = AttackConfig(epsilon=0.1, steps=3)
    etas, j_stars, margins = beta_attack_batch(spec, params, X, y, cfg)
    assert etas.shape == (0, 3) and j_stars.shape == (0,) and margins.shape == (0,)
    assert pgd_surrogate_batch(spec, params, X, y, cfg).shape == (0, 3)
    assert fgsm_batch(spec, params, X, y, cfg).shape == (0, 3)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.1])
def test_attack_config_rejects_bad_epsilon(eps):
    with pytest.raises(ValueError, match="epsilon"):
        AttackConfig(epsilon=eps)


def test_closed_form_cases():
    closed = closed_form_linear_attack(CE_WEIGHT, CE_BIAS, CE_X, 0, CE_EPS, "l2")
    assert closed.margin_value == pytest.approx(CE_TARGET_MARGIN, abs=1e-12)
    assert np.linalg.norm(closed.eta_star) == pytest.approx(CE_EPS)
    assert closed.j_star == 1  # exact tie between the wrong classes

    zero = closed_form_linear_attack(CE_WEIGHT, CE_BIAS, CE_X, 0, 0.0, "l2")
    assert np.allclose(zero.eta_star, 0.0)

    # dominant true-class row: margin bound w.x + eps*||dw|| stays negative
    w = np.array([[4.0, 0.2], [0.0, 0.0]])
    res = closed_form_linear_attack(w, np.zeros(2), np.array([1.0, 0.0]), 0,
                                    0.2, "l2")
    assert res.margin_value < 0 and not res.success

    same = closed_form_linear_attack(np.ones((2, 2)), np.array([0.5, -0.5]),
                                     np.array([0.1, 0.1]), 0, 0.3, "l2")
    assert np.allclose(same.eta_star, 0.0)
    assert same.margin_value == pytest.approx(-1.0)


def test_grid_oracle_counterexample():
    spec, params = counterexample()
    res = grid_oracle_attack(spec, params, CE_X, 0, CE_EPS, 200, "l2", False)
    assert res.success
    # discretization error on the l2 boundary is O(2*eps/resolution)
    assert res.margin_value == pytest.approx(CE_TARGET_MARGIN, abs=5e-3)
    assert res.margin_value <= CE_TARGET_MARGIN + 1e-12


def test_grid_oracle_edge_cases():
    spec, params = counterexample()
    res = grid_oracle_attack(spec, params, CE_X, 0, 0.0, 10, "l2", False)
    assert not res.success and np.allclose(res.eta_star, 0.0)

    zspec, zparams = linear_model(np.zeros((2, 3)), np.zeros(3))
    res = grid_oracle_attack(zspec, zparams, np.array([0.5, 0.5]), 0, 0.1, 5)
    assert res.margin_value == 0.0 and not res.success

    with pytest.raises(ValueError):
        grid_oracle_attack(ModelSpec("linear", 4, 2), init_params(
            ModelSpec("linear", 4, 2), 0), np.zeros(4), 0, 0.1, 5)
    # no grid oracle searches a ball it was not asked for
    for oracle in (grid_oracle_attack, grid_margin_per_class, grid_max_cross_entropy):
        with pytest.raises(ValueError, match="l3"):
            oracle(spec, params, CE_X, 0, 0.1, 5, "l3")
        with pytest.raises(ValueError, match="epsilon"):
            oracle(spec, params, CE_X, 0, -0.1, 5)


def test_grid_margin_per_class_consistent_with_oracle():
    spec = ModelSpec("mlp", 2, 3, (6,))
    params = init_params(spec, 12)
    x = np.array([0.4, 0.6])
    per_class = grid_margin_per_class(spec, params, x, 0, 0.15, 41)
    oracle = grid_oracle_attack(spec, params, x, 0, 0.15, 41)
    assert max(m for _, m in per_class.values()) == pytest.approx(
        oracle.margin_value, abs=1e-12)
