import itertools
import warnings

import numpy as np
import pytest

from marginlab import attacks, training
from marginlab.attacks import AttackConfig, beta_attack_batch
from marginlab.data import TRAIN, DatasetSpec, Dataset, generate_dataset
from marginlab.models import ModelSpec, init_params, linear_model, predict
from marginlab.objectives import cross_entropy
from marginlab.tensor import Tensor
from marginlab.training import (TrainConfig, accuracy, evaluate_robust,
                                run_training, sbeta_weighted_loss,
                                select_checkpoints)

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
    run = run_training(spec, data, TrainConfig("erm", epochs=20, lr=0.5, seed=0))
    ckpt, metrics = run.selection.last, run.metrics
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
    params_equal(a.checkpoints[-1].params, b.checkpoints[-1].params)
    assert [m.loss for m in a.metrics] == [m.loss for m in b.metrics]


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
    ckpt = run_training(spec, data, TrainConfig("erm", epochs=10, lr=0.5,
                                                seed=0)).selection.last
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
    with pytest.raises(ValueError, match="spectral"):
        evaluate_robust(spec, ckpt.params, data, "spectral",
                        AttackConfig(epsilon=0.0))


@pytest.mark.parametrize("kind", ["fgsm", "pgd", "beta", "grid_oracle"])
def test_evaluate_robust_on_an_empty_split_is_nan(kind):
    spec = ModelSpec("linear", 2, 3)
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.intp))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evaluate_robust(spec, init_params(spec, 0), empty, kind,
                              small_attack())
    assert np.isnan(out["clean"]) and np.isnan(out["robust"])


def erm_model(k, hidden, n=600):
    data = blobs(n=n, k=k, noise=0.15, seed=k)
    spec = ModelSpec("mlp" if hidden else "linear", 2, k, hidden)
    run = run_training(spec, data, TrainConfig("erm", epochs=3, lr=0.5, seed=1))
    return spec, run.selection.last.params, data


@pytest.mark.parametrize("k", [2, 3, 10])
@pytest.mark.parametrize("hidden", [(), (64,)], ids=["linear", "mlp"])
def test_beta_early_exit_accuracy_equals_the_full_fold(hidden, k):
    # 600 rows stack 5 linear slots per group, and MLP-64 slots once rows
    # leave, so rows drop out between groups and the rest regroup
    spec, params, data = erm_model(k, hidden)
    correct = predict(spec, params, data.X) == data.y
    for norm, box, eps in itertools.product(("l_inf", "l2"), (True, False),
                                            (0.02, 0.08, 0.3)):
        cfg = AttackConfig(epsilon=eps, norm=norm, steps=5, box=box, seed=3)
        etas = beta_attack_batch(spec, params, data.X, data.y, cfg)[0]
        full = np.mean(correct & (predict(spec, params, data.X + etas) == data.y))
        assert evaluate_robust(spec, params, data, "beta", cfg)["robust"] == full


def test_beta_early_exit_attacks_only_rows_still_robust(monkeypatch):
    # a row misclassified at x never reaches targeted_ascent_batch, and a
    # row that a group breaks is absent from every later group
    spec, params, data = erm_model(10, (64,))
    correct = predict(spec, params, data.X) == data.y
    calls, targeted = [], attacks.targeted_ascent_batch

    def recording(spec, params, X, y, targets, cfg, seed=None, live=None):
        assert np.array_equal(X, np.tile(data.X[live], (len(seed), 1)))
        etas, margins = targeted(spec, params, X, y, targets, cfg, seed=seed, live=live)
        calls.append((live.copy(), len(seed), margins))
        return etas, margins
    monkeypatch.setattr(attacks, "targeted_ascent_batch", recording)
    evaluate_robust(spec, params, data, "beta",
                    AttackConfig(epsilon=0.2, steps=5, seed=3))
    assert np.array_equal(calls[0][0], correct) and not correct.all()
    assert sum(m for _, m, _ in calls) == 9
    for (live, m, margins), (later, _, _) in zip(calls, calls[1:]):
        left = live.copy()
        left[np.flatnonzero(live)[(margins.reshape(m, -1) > 0).any(axis=0)]] = False
        assert np.array_equal(later, left)
    assert calls[-1][0].sum() < calls[0][0].sum()
    assert max(m for _, m, _ in calls[1:]) > calls[0][1]  # fewer rows, larger groups


def test_monitor_forwards_each_split_clean_once(monkeypatch):
    # one attacked epoch: predict sees each split's clean X once, and the
    # attacked points once
    predict, train_val_split = training.predict, training.train_val_split
    seen, splits = [], []

    def recording_predict(spec, params, x):
        seen.append(x)
        return predict(spec, params, x)

    def recording_split(*args):
        out = train_val_split(*args)
        splits.extend(out)
        return out
    monkeypatch.setattr(training, "predict", recording_predict)
    monkeypatch.setattr(training, "train_val_split", recording_split)
    spec = ModelSpec("linear", 2, 3)
    test = blobs(n=30, seed=4)
    run_training(spec, blobs(n=60), TrainConfig("pgd_at", epochs=1, seed=0,
                                                attack=small_attack()), test)
    for split in (*splits, test):
        assert sum(x is split.X for x in seen) == 1
    assert len(seen) == 6


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
    # the best of sbeta's per-class slots is beta_attack_batch on that batch,
    # keyed (seed, TRAIN, epoch, step); small sgd steps keep the etas tied
    # to their random starts, so another key gives other etas
    data = blobs(n=60, k=4)
    spec = ModelSpec("mlp", 2, 4, (6,))
    atk = AttackConfig(epsilon=0.1, steps=4, optimizer="sgd", step_size=0.01)
    calls = []
    run_training(spec, data, TrainConfig("sbeta_at", epochs=2, lr=0.3, seed=3,
                                         attack=atk),
                 hook=lambda *args: calls.append(args))
    assert [c[:2] for c in calls] == [(1, 0), (2, 0)]  # 48 rows: one batch
    epoch, step, X, y, etas, j_stars = calls[0]
    params = init_params(spec, 3)
    ref_etas, ref_j, _ = beta_attack_batch(spec, params, X, y, atk,
                                           seed=(3, TRAIN, 1, 0))
    assert np.array_equal(etas, ref_etas)
    assert np.array_equal(j_stars, ref_j)
    assert np.all(j_stars != y)
    for other in ((3, TRAIN, 1, 1), (3, TRAIN, 2, 0), 3):
        other_etas, _, _ = beta_attack_batch(spec, params, X, y, atk, seed=other)
        assert not np.array_equal(etas, other_etas)


def test_every_attack_stream_of_a_run_is_distinct(monkeypatch):
    # over 1024 batches an epoch: each batch attack and each monitored split
    # of every epoch draws its random start from a key of its own
    pgd, seeds = training.pgd_surrogate_batch, []

    def recording_pgd(*args, seed):
        seeds.append(seed)
        return pgd(*args, seed=seed)
    monkeypatch.setattr(training, "pgd_surrogate_batch", recording_pgd)
    run_training(ModelSpec("linear", 2, 3), blobs(n=1300),
                 TrainConfig("pgd_at", epochs=3, batch_size=1, lr=0.1, seed=1,
                             attack=small_attack(steps=1)))
    assert len(seeds) == 3 * (1040 + 2)  # batches, then the train and val splits
    assert len(set(seeds)) == len(seeds)


def test_run_training_stops_on_a_non_finite_parameter():
    # a -inf bias behind a ReLU leaves every loss finite, so only the
    # parameter check sees it
    spec = ModelSpec("mlp", 2, 3, (4,))
    params = init_params(spec, 0).replaced({"b0": np.array([-np.inf, 0.0, 0.0, 0.0])})
    with pytest.raises(FloatingPointError, match="parameters at epoch 1, step 0"):
        run_training(spec, blobs(n=60), TrainConfig("erm", epochs=2), init=params)


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
    run = run_training(spec, data, cfg)
    ckpt, metrics = run.selection.last, run.metrics
    assert accuracy(spec, ckpt.params, data) >= 0.95
    assert np.isfinite(metrics[-1].loss)
