import numpy as np
import pytest

from marginlab.attacks import AttackConfig, beta_attack_batch
from marginlab.data import DatasetSpec, Dataset, generate_dataset
from marginlab.models import ModelSpec, init_params, linear_model
from marginlab.objectives import cross_entropy
from marginlab.tensor import Tensor
from marginlab.training import (TrainConfig, accuracy, evaluate_robust,
                                run_training, sbeta_weighted_loss,
                                select_checkpoints, train_beta_at, train_erm,
                                train_pgd_at, train_sbeta_at)

CE_WEIGHT = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.0]])


def blobs(n=120, k=3, noise=0.08, seed=0):
    return generate_dataset(DatasetSpec("gaussian_blobs", n, k, noise, seed))


def small_attack(eps=0.05, steps=5):
    return AttackConfig(epsilon=eps, norm="l_inf", steps=steps, box=True, seed=0)


def params_equal(a, b, tol=0.0):
    for (na, va), (nb, vb) in zip(a, b):
        assert na == nb
        if tol == 0.0:
            assert np.array_equal(va.data, vb.data)
        else:
            assert np.allclose(va.data, vb.data, atol=tol)


def test_erm_fits_separable_blobs():
    data = blobs()
    spec = ModelSpec("linear", 2, 3)
    cfg = TrainConfig("erm", epochs=20, lr=0.5, seed=0)
    ckpt, metrics = train_erm(spec, data, cfg)
    assert accuracy(spec, ckpt.params, data) >= 0.99
    assert metrics[-1].loss < metrics[0].loss


def test_zero_lr_leaves_params_unchanged():
    data = blobs(n=30)
    spec = ModelSpec("linear", 2, 3)
    cfg = TrainConfig("erm", epochs=2, lr=0.0, seed=1)
    run = run_training(spec, data, cfg)
    params_equal(run.checkpoints[-1].params, init_params(spec, 1))


def test_training_is_deterministic_per_seed():
    data = blobs(n=60)
    spec = ModelSpec("mlp", 2, 3, (8,))
    cfg = TrainConfig("beta_at", epochs=3, lr=0.2, seed=5,
                      attack=small_attack())
    a = run_training(spec, data, cfg)
    b = run_training(spec, data, cfg)
    params_equal(a.checkpoints[-1].params, b.checkpoints[-1].params)
    assert [m.val_robust for m in a.metrics] == [m.val_robust for m in b.metrics]
    assert [m.loss for m in a.metrics] == [m.loss for m in b.metrics]


@pytest.mark.parametrize("algorithm", ["pgd_at", "beta_at", "sbeta_at"])
def test_zero_epsilon_reduces_to_erm(algorithm):
    data = blobs(n=60)
    spec = ModelSpec("linear", 2, 3)
    base = TrainConfig("erm", epochs=3, lr=0.3, seed=2)
    ref = run_training(spec, data, base)
    cfg = TrainConfig(algorithm, epochs=3, lr=0.3, seed=2,
                      attack=small_attack(eps=0.0))
    run = run_training(spec, data, cfg)
    params_equal(ref.checkpoints[-1].params, run.checkpoints[-1].params)


def test_sbeta_two_classes_matches_beta():
    # with a single wrong class the smoothing weight is identically one,
    # so the weighted loss equals the plain loss at the attacked point
    data = generate_dataset(DatasetSpec("gaussian_blobs", 40, 2, 0.08, 3))
    spec = ModelSpec("linear", 2, 2)
    atk = small_attack(eps=0.05, steps=5)
    a = run_training(spec, data, TrainConfig("beta_at", epochs=3, lr=0.3,
                                             seed=4, attack=atk))
    b = run_training(spec, data, TrainConfig("sbeta_at", epochs=3, lr=0.3,
                                             seed=4, attack=atk, mu=1.0))
    params_equal(a.checkpoints[-1].params, b.checkpoints[-1].params, tol=1e-9)


def test_sbeta_weights_saturate_at_large_mu():
    spec = ModelSpec("linear", 2, 3)
    params = init_params(spec, 6).with_grad()
    X = np.array([[0.3, 0.7]])
    y = np.array([0])
    wrong = np.array([[1, 2]])
    slot_etas = [np.array([[0.02, 0.0]]), np.array([[0.0, -0.02]])]
    big = sbeta_weighted_loss(spec, params, X, y, slot_etas, wrong, 1e3).item()
    # compare against the single cross-entropy term of the best slot
    per_term = []
    for eta, j in zip(slot_etas, wrong[0]):
        logits = np.asarray(
            np.atleast_2d(X) + eta) @ params["w0"].data + params["b0"].data
        m = logits[0, j] - logits[0, y[0]]
        ce = cross_entropy(Tensor(logits), y).item()
        per_term.append((m, ce))
    best_ce = max(per_term)[1]
    assert big == pytest.approx(best_ce, abs=1e-6)


def test_select_checkpoints_prefers_earliest_tie():
    data = blobs(n=30)
    spec = ModelSpec("linear", 2, 3)
    run = run_training(spec, data, TrainConfig("erm", epochs=4, lr=0.0, seed=0))
    # frozen params: every epoch ties on validation accuracy
    assert run.selection.best_metrics.epoch == 1
    assert run.selection.last_metrics.epoch == 4
    with pytest.raises(ValueError):
        select_checkpoints([], [])


def test_robust_never_exceeds_clean_in_metrics():
    data = blobs(n=90, noise=0.15)
    spec = ModelSpec("mlp", 2, 3, (8,))
    cfg = TrainConfig("pgd_at", epochs=4, lr=0.3, seed=7,
                      attack=small_attack(eps=0.1, steps=8))
    run = run_training(spec, data, cfg)
    for m in run.metrics:
        assert m.train_robust <= m.train_clean + 1e-12
        assert m.val_robust <= m.val_clean + 1e-12


def test_evaluate_robust_attack_hierarchy():
    data = blobs(n=60, noise=0.15)
    spec = ModelSpec("linear", 2, 3)
    ckpt, _ = train_erm(spec, data, TrainConfig("erm", epochs=10, lr=0.5, seed=0))
    cfg = AttackConfig(epsilon=0.1, norm="l_inf", steps=20, box=True, seed=0)
    grid = evaluate_robust(spec, ckpt.params, data, "grid_oracle", cfg,
                           resolution=41)
    beta = evaluate_robust(spec, ckpt.params, data, "beta", cfg)
    pgd = evaluate_robust(spec, ckpt.params, data, "pgd", cfg)
    assert grid["clean"] == beta["clean"] == pgd["clean"]
    # the exhaustive search is at least as strong as either iterative attack
    assert grid["robust"] <= beta["robust"] + 1e-12
    assert grid["robust"] <= pgd["robust"] + 1e-12
    with pytest.raises(ValueError):
        evaluate_robust(spec, ckpt.params, data, "spectral", cfg)


def test_margin_and_surrogate_training_attack_different_points():
    # single fixed point where the surrogate ascent and the margin ascent
    # disagree about the worst perturbation
    spec, params = linear_model(CE_WEIGHT, np.zeros(3))
    # two copies of the point: one trains, one validates
    data = Dataset(np.array([[0.0, -1.0]] * 2), np.array([0, 0], dtype=np.intp))
    atk = AttackConfig(epsilon=0.8, norm="l2", steps=500, optimizer="sgd",
                       step_size=0.5, box=False, seed=0)
    seen = {}

    def make_hook(tag):
        def hook(epoch, step, X, y, etas, j_stars):
            seen[tag] = etas[0].copy()
        return hook

    common = dict(epochs=1, lr=1e-6, seed=0, val_fraction=0.5, attack=atk)
    run_training(spec, data, TrainConfig("pgd_at", **common),
                 hook=make_hook("pgd"), init=params)
    run_training(spec, data, TrainConfig("beta_at", **common),
                 hook=make_hook("beta"), init=params)
    s = 0.8 / np.sqrt(2.0)
    assert np.allclose(seen["pgd"], [0.0, 0.8], atol=1e-2)
    assert np.allclose(np.abs(seen["beta"]), [s, s], atol=1e-2)


def test_sbeta_hook_reports_the_beta_attack_of_the_batch():
    # on the first batch the params are still init_params(spec, seed), so
    # the best of sbeta's per-class slots is beta_attack_batch on that batch
    data = blobs(n=60, k=4)
    spec = ModelSpec("mlp", 2, 4, (6,))
    atk = small_attack(eps=0.1, steps=4)
    calls = []
    run_training(spec, data, TrainConfig("sbeta_at", epochs=2, lr=0.3, seed=3,
                                         attack=atk),
                 hook=lambda *args: calls.append(args))
    assert [c[:2] for c in calls] == [(1, 0), (2, 0)]  # 48 rows: one batch
    epoch, step, X, y, etas, j_stars = calls[0]
    ref_etas, ref_j, _ = beta_attack_batch(spec, init_params(spec, 3), X, y, atk,
                                           seed=(3 << 20) ^ (1 << 10) ^ 0)
    assert np.array_equal(etas, ref_etas)
    assert np.array_equal(j_stars, ref_j)
    assert np.all(j_stars != y)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig("gan", epochs=1)
    with pytest.raises(ValueError):
        TrainConfig("erm", epochs=0)
    with pytest.raises(ValueError):
        TrainConfig("beta_at", epochs=1)  # missing attack
    with pytest.raises(ValueError):
        TrainConfig("sbeta_at", epochs=1, attack=small_attack(), mu=0.0)
    with pytest.raises(ValueError, match="foo"):
        TrainConfig("erm", epochs=1, optimizer="foo")
    with pytest.raises(ValueError, match="foo"):
        AttackConfig(epsilon=0.1, optimizer="foo")


@pytest.mark.parametrize("frac", [0.0, 1.0, -0.2, 1.5, float("nan")])
def test_train_config_rejects_bad_val_fraction(frac):
    with pytest.raises(ValueError, match="val_fraction"):
        TrainConfig("erm", epochs=1, val_fraction=frac)


@pytest.mark.parametrize("frac", [0.01, 0.97])
def test_run_training_rejects_an_empty_split(frac):
    # of 10 rows, 0.01 rounds to no validation row and 0.97 to no training row
    with pytest.raises(ValueError, match="empty"):
        run_training(ModelSpec("linear", 2, 3), blobs(n=10),
                     TrainConfig("erm", epochs=1, val_fraction=frac))


@pytest.mark.parametrize("split", ["train", "test"])
def test_run_training_rejects_labels_outside_the_model(split):
    data, wide = blobs(n=30), blobs(n=30, k=4)
    train, test = (wide, data) if split == "train" else (data, wide)
    with pytest.raises(ValueError, match=rf"{split} labels \[3\]"):
        run_training(ModelSpec("linear", 2, 3), train,
                     TrainConfig("erm", epochs=1), test)


def test_sbeta_training_runs_and_fits():
    data = blobs(n=60)
    spec = ModelSpec("linear", 2, 3)
    cfg = TrainConfig("sbeta_at", epochs=25, lr=1.0, seed=1,
                      attack=small_attack(eps=0.05, steps=5), mu=5.0)
    ckpt, metrics = train_sbeta_at(spec, data, cfg)
    assert accuracy(spec, ckpt.params, data) >= 0.95
    assert np.isfinite(metrics[-1].loss)
