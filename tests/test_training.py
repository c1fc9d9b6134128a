import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from marginlab import attacks, training
from marginlab.attacks import (AttackConfig, beta_attack_batch, grid_oracle_attack,
                               wrong_classes)
from marginlab.data import TRAIN, DatasetSpec, Dataset, generate_dataset
from marginlab.models import (ModelSpec, backward, forward, forward_logits, init_params,
                              linear_model, predict)
from marginlab.objectives import (cross_entropy, cross_entropy_rows, lambda_star,
                                  margin_rows)
from marginlab.tensor import Tensor
from marginlab.training import (TrainConfig, evaluate_robust, run_training,
                                sbeta_weighted_loss, select_checkpoints)

CE_WEIGHT = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.0]])


def blobs(n=120, k=3, noise=0.08, seed=0):
    return generate_dataset(DatasetSpec("gaussian_blobs", n, k, noise, seed))


def small_attack(eps=0.05, steps=5):
    return AttackConfig(epsilon=eps, norm="l_inf", steps=steps, box=True, seed=0)


def params_equal(a, b, tol=0.0):
    for (na, va), (nb, vb) in zip(a, b):
        assert na == nb
        if tol == 0.0:
            assert np.array_equal(va, vb)
        else:
            assert np.allclose(va, vb, atol=tol)


def test_erm_fits_separable_blobs():
    data = blobs()
    spec = ModelSpec("linear", 2, 3)
    run = run_training(spec, data, TrainConfig("erm", epochs=20, lr=0.5, seed=0))
    ckpt, metrics = run.selection.last, run.metrics
    assert np.mean(predict(spec, ckpt.params, data.X) == data.y) >= 0.99
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
    params = init_params(spec, 6)
    X = np.array([[0.3, 0.7]])
    y = np.array([0])
    slot_etas = np.array([[[0.02, 0.0]], [[0.0, -0.02]]])
    big = sbeta_weighted_loss(spec, params, X, y, slot_etas, 1e3).item()
    # compare against the single cross-entropy term of the best slot (slot
    # s attacks wrong class s + 1)
    per_term = []
    for eta, j in zip(slot_etas, (1, 2)):
        logits = np.asarray(
            np.atleast_2d(X) + eta) @ params["w0"] + params["b0"]
        m = logits[0, j] - logits[0, y[0]]
        ce = cross_entropy(Tensor(logits), y).item()
        per_term.append((m, ce))
    best_ce = max(per_term)[1]
    assert big == pytest.approx(best_ce, abs=1e-6)


def _sbeta_closed_form(spec, params, X, y, slot_etas, mu):
    """(loss, parameter gradients) of sbeta_weighted_loss on the kernel: one
    forward over the flat slot points, w = lambda_star of each row's slot
    margins, dL/dce = w/n and dL/dm = mu*w*(ce - sum_s w*ce)/n."""
    k, (n, d) = spec.class_count, X.shape
    logits, cache = forward(spec, params, (X + slot_etas).reshape((k - 1) * n, d))
    wrong, labels = wrong_classes(y, k), np.tile(y, k - 1)
    margins, dmargins = margin_rows(labels, wrong.T.ravel(), k, ((k - 1) * n,))(logits)
    m = margins.reshape(k - 1, n)
    w = np.empty_like(m)
    for i in range(n):  # the margins as logits, 0 at y
        row = np.zeros(k)
        row[wrong[i]] = m[:, i]
        w[:, i] = lambda_star(row, y[i], mu)[wrong[i]]
    ces, dlogits = cross_entropy_rows(logits, labels, (w / n).ravel())
    ces = ces.reshape(k - 1, n)
    dm = mu * w * (ces - (w * ces).sum(axis=0)) / n
    dlogits += dm.ravel()[:, None] * dmargins
    return (w * ces).sum() * (1.0 / n), backward(params, cache, dlogits, "params")


@pytest.mark.parametrize("hidden", [None, (16,), (8, 8)])
@pytest.mark.parametrize("k", [3, 4, 10])
@pytest.mark.parametrize("mu", [0.1, 1.0, 20.0, 1e3])
def test_sbeta_graph_loss_matches_the_closed_form(hidden, k, mu):
    spec = (ModelSpec("linear", 2, k) if hidden is None
            else ModelSpec("mlp", 2, k, hidden))
    rng = np.random.default_rng(k)
    params = {name: rng.normal(size=v.shape)
              for name, v in init_params(spec, 0).items()}
    X, y = rng.normal(size=(7, 2)), rng.integers(k, size=7)
    slot_etas = rng.uniform(-0.05, 0.05, size=(k - 1, 7, 2))
    loss, grads = training._on_graph(
        lambda p: sbeta_weighted_loss(spec, p, X, y, slot_etas, mu))(params)
    ref_loss, ref_grads = _sbeta_closed_form(spec, params, X, y, slot_etas, mu)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    # At mu = 1e3 both forms can sit near this bound from an 80-bit reference
    # (wider etas read up to 3e-12): dL/dm cancels ce against sum w*ce, times mu
    for name, ref in ref_grads.items():
        assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("algorithm", ["beta_at", "sbeta_at"])
def test_checkpoints_keep_their_epoch_params(algorithm):
    # parameter arrays are shared between parameter sets, not copied per
    # step: later epochs must not write into an earlier checkpoint
    data = blobs(n=60)
    spec = ModelSpec("mlp", 2, 3, (8,))
    cfg = dict(lr=0.2, optimizer="adam", seed=5, attack=small_attack())
    three = run_training(spec, data, TrainConfig(algorithm, epochs=3, **cfg))
    one = run_training(spec, data, TrainConfig(algorithm, epochs=1, **cfg))
    for (na, va), (nb, vb) in zip(three.checkpoints[0].params.items(),
                                  one.checkpoints[0].params.items()):
        assert na == nb and va.tobytes() == vb.tobytes()
    assert three.checkpoints[0].params["w0"].tobytes() != \
        three.checkpoints[-1].params["w0"].tobytes()


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


def _robust_equals_the_full_fold(spec, params, data, cfgs):
    """(evaluate_robust's beta score, rows it certified) per cfg, the score
    checked against the full fold.  Only evaluate_robust's bounds are
    recorded, before the attack (_proved) and after its first group: the
    full fold bounds its later ranks too."""
    correct = predict(spec, params, data.X) == data.y
    margin_bounds, retired = attacks._margin_bounds, []

    def recording(*args):
        out = margin_bounds(*args)
        retired[-1] += int((out < 0).all(axis=1).sum())
        return out
    scores = []
    for cfg in cfgs:
        etas = beta_attack_batch(spec, params, data.X, data.y, cfg)[0]
        full = np.mean(correct & (predict(spec, params, data.X + etas) == data.y))
        retired.append(0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(attacks, "_margin_bounds", recording)
            patch.setattr(training, "_margin_bounds", recording)
            scores.append(evaluate_robust(spec, params, data, "beta", cfg)["robust"])
        assert scores[-1] == full
    return scores, retired


@pytest.mark.parametrize("k", [2, 3, 10])
@pytest.mark.parametrize("hidden", [(), (64,)], ids=["linear", "mlp"])
def test_beta_early_exit_accuracy_equals_the_full_fold(hidden, k):
    # 600 rows stack 5 linear slots per group, and MLP-64 slots once rows
    # leave, so rows drop out between groups and the rest regroup.  With the
    # last two classes' weights and biases tied, their margin is exactly 0
    # everywhere; with no steps only the clean point is a candidate and no
    # bound runs.  Otherwise the bounds run before the attack and after its
    # first group; at the smallest eps they certify rows of every model.
    spec, params, data = erm_model(k, hidden)
    tie = [*range(k - 1), k - 2]
    w, b = f"w{len(hidden)}", f"b{len(hidden)}"
    tied = {**params, w: params[w][:, tie], b: params[b][tie]}
    for norm, box, eps in itertools.product(("l_inf", "l2"), (True, False),
                                            (0.02, 0.08, 0.3)):
        cfg = AttackConfig(epsilon=eps, norm=norm, steps=5, box=box, seed=3)
        for model in (params, tied):
            _, retired = _robust_equals_the_full_fold(
                spec, model, data,
                [replace(cfg, steps=steps) for steps in (5, 0, 1, 2)])
            if eps == 0.02 and model is params:
                assert retired[0] > 0


@pytest.mark.parametrize("k", [5, 10])
@pytest.mark.parametrize("hidden", [(), (64,)], ids=["linear", "mlp"])
def test_beta_early_exit_keeps_the_full_folds_best_class(hidden, k):
    # a class is dropped only when its bound is below the row's best margin
    # after the first group, so it could never have won the fold: every row
    # neither broken nor certified keeps the full fold's j*.  Dropping every
    # class whose bound is < 0 would not: a class between the row's margin
    # and 0 may be its best (MLP-64, K=5 at eps 0.3 has such rows).
    spec, params, data = erm_model(k, hidden)
    correct = predict(spec, params, data.X) == data.y
    where = {x.tobytes(): i for i, x in enumerate(data.X)}
    margin_bounds, certified = attacks._margin_bounds, []

    def recording(spec, params, X, y, cfg):
        out = margin_bounds(spec, params, X, y, cfg)
        certified.extend(where[x.tobytes()] for x in X[(out < 0).all(axis=1)])
        return out
    checked = 0
    for norm, box, eps in itertools.product(("l_inf", "l2"), (True, False),
                                            (0.1, 0.2, 0.3)):
        cfg = AttackConfig(epsilon=eps, norm=norm, steps=5, box=box, seed=3)
        certified.clear()
        with pytest.MonkeyPatch.context() as patch:  # the rows live certifies
            patch.setattr(attacks, "_margin_bounds", recording)
            _, j_stars, margins = beta_attack_batch(spec, params, data.X, data.y, cfg,
                                                    live=correct)
        full = beta_attack_batch(spec, params, data.X, data.y, cfg)[1]
        unsettled = correct & ~(margins > 0)
        unsettled[certified] = False
        assert np.array_equal(j_stars[unsettled], full[unsettled])
        checked += unsettled.sum()
    assert checked > 0  # few for a linear model, whose exact bound settles the rest


def test_beta_early_exit_accuracy_equals_the_full_fold_at_784d():
    # MLP-256 at K=10, the benchmark's shape: margins of a row subset may
    # move in their last bits with the row count, verdicts must not; the
    # certificate retires rows at the smallest eps
    rng = np.random.default_rng(16)
    spec = ModelSpec("mlp", 784, 10, (256,))
    params = init_params(spec, 5)
    X = rng.uniform(size=(200, 784))
    data = Dataset(X, predict(spec, params, X))  # every row correct at x
    robust, retired = _robust_equals_the_full_fold(spec, params, data, [
        AttackConfig(epsilon=eps, steps=3, seed=4) for eps in (0.002, 0.005, 0.01)])
    assert 0 < min(robust) and max(robust) < 1 and len(set(robust)) == 3
    assert retired[0] > 0


def test_beta_early_exit_attacks_only_rows_still_robust(monkeypatch):
    # a row misclassified at x or proved before the attack (_proved) never
    # reaches targeted_ascent_batch; its first target is its most confusable
    # class: the largest clean logit but its own, the lower class on ties
    # (class 9 takes the weights and bias of the class most often most
    # confusable, c, so c comes first).  The bounds run once more, after the
    # first call, on exactly the rows that call left unbroken; the rows they
    # certify are absent from every later group.  A later rank of a row runs
    # its open classes first (bound >= g, its best margin after the first
    # call), in clean-margin order, and the row leaves once a group breaks it
    # or no open class is left.  No grid point breaks a certified row.
    spec, params, data = erm_model(10, (64,))

    def wrong_logits(params):  # (logits with each row's own class at -inf, correct)
        logits = forward_logits(spec, params, data.X).data
        correct = np.argmax(logits, axis=1) == data.y
        logits[np.arange(len(data)), data.y] = -np.inf
        return logits, correct
    logits, correct = wrong_logits(params)
    c = np.bincount(np.argmax(logits[correct], axis=1), minlength=10)[:9].argmax()
    tie = [*range(9), c]
    params = {**params, "w1": params["w1"][:, tie], "b1": params["b1"][tie]}
    logits, correct = wrong_logits(params)
    where = {x.tobytes(): i for i, x in enumerate(data.X)}
    events, proved_first = [], np.zeros(len(data), bool)
    targeted, margin_bounds = attacks.targeted_ascent_batch, attacks._margin_bounds

    def rows_of(X):
        return np.array([where[x.tobytes()] for x in X], dtype=np.intp)

    def recording(spec, params, X, y, targets, cfg, **kwargs):
        assert kwargs["retire"] and all(np.array_equal(layer, X[0]) for layer in X)
        rows = rows_of(X[0])
        assert np.array_equal(y, data.y[rows])
        etas, margins = targeted(spec, params, X, y, targets, cfg, **kwargs)
        events.append(("call", rows, targets, margins))
        return etas, margins

    def recording_bounds(spec, params, X, y, cfg):
        out = margin_bounds(spec, params, X, y, cfg)
        events.append(("bounds", rows_of(X), out))
        return out

    def recording_proved(spec, params, X, y, cfg):
        out = margin_bounds(spec, params, X, y, cfg)
        proved_first[rows_of(X)] = (out < 0).all(axis=1)
        return out
    monkeypatch.setattr(attacks, "targeted_ascent_batch", recording)
    monkeypatch.setattr(attacks, "_margin_bounds", recording_bounds)
    monkeypatch.setattr(training, "_margin_bounds", recording_proved)
    eps = 0.2
    evaluate_robust(spec, params, data, "beta", AttackConfig(epsilon=eps, steps=5, seed=3))

    kinds = [e[0] for e in events]
    assert kinds.count("bounds") == 1 and kinds.index("bounds") == 1
    calls = [e[1:] for e in events if e[0] == "call"]
    rows, targets, margins = calls[0]
    assert np.array_equal(rows, np.flatnonzero(correct & ~proved_first))
    assert proved_first.any() and not correct.all()
    assert np.array_equal(targets[0], np.argmax(logits[rows], axis=1))
    assert (targets[0] == c).sum() >= 5
    _, checked, bounds = events[1]
    assert np.array_equal(checked, rows[~(margins > 0).any(axis=0)])
    proved = (bounds < 0).all(axis=1)
    assert 0 < proved.sum() < len(checked)

    # each row's later ranks: its open classes first, in clean-margin order
    wrong = wrong_classes(data.y, 10)
    every, raw = np.arange(len(data)), forward_logits(spec, params, data.X).data
    clean = raw[every[:, None], wrong] - raw[every, data.y][:, None]
    order = np.argsort(-clean, axis=1, kind="stable")
    m0, g = len(targets), dict(zip(rows, margins.max(axis=0)))
    seq, stop = {}, {}
    for i, u in zip(checked[~proved], bounds[~proved]):
        slots = order[i, m0:]
        shut = u[slots] < g[i]
        seq[i] = wrong[i, np.concatenate([slots[~shut], slots[shut]])]
        stop[i] = m0 + (~shut).sum()
    assert sum(stop.values()) < len(stop) * 9  # some classes were dropped
    alive, first = checked, m0
    for rows, targets, margins in calls[1:]:
        assert np.array_equal(rows, [i for i in alive if stop.get(i, 0) > first])
        for col, i in enumerate(rows):
            assert np.array_equal(targets[:, col],
                                  seq[i][first - m0:first - m0 + len(targets)])
        alive, first = rows[~(margins > 0).any(axis=0)], first + len(targets)
    assert len(calls) > 1 and not [i for i in alive if stop.get(i, 0) > first]
    for i in checked[proved]:
        assert not grid_oracle_attack(spec, params, data.X[i], data.y[i], eps, 20).success


def test_a_leaving_row_takes_no_backward_pass(monkeypatch):
    # inside each retiring ascent the kernel runs forward, backward, ...,
    # forward: a row that breaks leaves before that step's backward pass, so
    # each backward holds the rows of the next forward, fewer than its own
    # forward's on a step where rows leave.  Rows certified before the attack
    # (_proved) never enter it
    spec, params, data = erm_model(5, (16,))
    calls, certified = [], []
    targeted, margin_bounds = attacks.targeted_ascent_batch, attacks._margin_bounds

    def recording(*args, **kwargs):
        assert kwargs["retire"]
        calls.append([])
        return targeted(*args, **kwargs)

    def recording_bounds(*args):
        out = margin_bounds(*args)
        certified.append(int((out < 0).all(axis=1).sum()))
        return out

    def record(name):  # the rows of forward's x and of backward's dlogits
        fn = getattr(attacks, name)

        def recording_kernel(*args):
            calls[-1].append((name, args[2].shape[:-1]))
            return fn(*args)
        monkeypatch.setattr(attacks, name, recording_kernel)
    record("forward")
    record("backward")
    monkeypatch.setattr(attacks, "targeted_ascent_batch", recording)
    monkeypatch.setattr(training, "_margin_bounds", recording_bounds)
    out = evaluate_robust(spec, params, data, "beta",
                          AttackConfig(epsilon=0.1, step_size=0.01, seed=3))
    assert sum(certified) > 0 and out["robust"] < out["clean"]  # rows certify, rows break
    leaving = 0
    for events in calls:
        kinds, rows = zip(*events)
        assert kinds == ("forward", "backward") * (len(kinds) // 2) + ("forward",)
        for own, back, after in zip(rows[::2], rows[1::2], rows[2::2]):
            assert back == after and back[-1] <= own[-1]
            leaving += back[-1] < own[-1]
    assert leaving >= 3  # at the start and at later iterates


@pytest.mark.parametrize("kind", ["fgsm", "pgd", "beta"])
def test_evaluate_robust_predicts_only_the_open_rows(monkeypatch, kind):
    # predict sees x + eta of exactly the open rows: those correct at x and,
    # for pgd and beta, not proved by the margin bounds, for beta, not
    # broken; every other row's verdict is known.  pgd and beta attack only
    # the rows correct at x and not proved, pgd with the full-batch call's
    # etas.  The score is the full predict's, on a set whose every row is
    # correct at x (the bounds prove some of them), one with a single correct
    # row (well inside its class: the bounds prove it) and one with none
    spec, params, data = erm_model(3, (16,), n=300)
    cfg = AttackConfig(epsilon=0.05, steps=5, seed=3)
    fit = predict(spec, params, data.X)
    margins = beta_attack_batch(spec, params, data.X, fit, cfg)[2]
    one = np.arange(len(data)) == np.argmin(margins)
    seen, lives = [], []

    def recording(spec, params, x):
        seen.append(x.copy())
        return predict(spec, params, x)

    def recording_attack(name):
        attack = getattr(training, name)

        def run(*args, live, **kwargs):
            lives.append(live.copy())
            return attack(*args, live=live, **kwargs)
        monkeypatch.setattr(training, name, run)
    monkeypatch.setattr(training, "predict", recording)
    recording_attack("pgd_surrogate_batch")
    recording_attack("beta_attack_batch")
    for y, n_open in ((fit, None), (np.where(one, fit, (fit + 1) % 3), int(kind == "fgsm")),
                      ((fit + 1) % 3, 0)):
        ok = fit == y
        if kind == "fgsm":
            etas, open_ = attacks.fgsm_batch(spec, params, data.X, y, cfg), ok
        elif kind == "pgd":
            etas = attacks.pgd_surrogate_batch(spec, params, data.X, y, cfg)
        seen.clear()
        lives.clear()
        out = evaluate_robust(spec, params, Dataset(data.X, y), kind, cfg)
        if kind != "fgsm":
            (open_,) = lives
            proved = ok & ~open_
            assert not (open_ & ~ok).any()
            assert (attacks._margin_bounds(spec, params, data.X[proved], y[proved], cfg)
                    < 0).all()
        if kind == "beta":
            etas, _, margins = beta_attack_batch(spec, params, data.X, y, cfg, live=open_)
            open_ = open_ & ~(margins > 0)
        assert len(seen) == 1 and np.array_equal(seen[0], (data.X + etas)[open_])
        assert out["clean"] == np.mean(ok)
        assert out["robust"] == np.mean(ok & (predict(spec, params, data.X + etas) == y))
        if n_open is None:
            assert 0 < out["robust"] and (kind == "fgsm") == (open_.sum() == len(data))
        else:
            assert open_.sum() == n_open


@pytest.mark.parametrize("hidden, kind", [
    pytest.param(hidden, kind, id=name if kind == "pgd" else f"{name}-{kind}")
    for kind in ("pgd", "beta")
    for hidden, name in (((), "linear"), ((16,), "mlp16"), ((8, 8), "mlp8-8"))])
def test_pgd_robust_accuracy_proves_only_robust_rows_and_keeps_its_score(monkeypatch,
                                                                         hidden, kind):
    # every row evaluate_robust proves and skips, for pgd and beta alike,
    # survives the grid oracle, and the score is one full-batch attack's (pgd,
    # or beta's full fold) plus predict; the bound settles nothing behind two
    # hidden layers
    spec, params, data = erm_model(3, hidden, n=120)
    name = {"pgd": "pgd_surrogate_batch", "beta": "beta_attack_batch"}[kind]
    attack, lives = getattr(training, name), []

    def recording(*args, live, **kwargs):
        lives.append(live.copy())
        return attack(*args, live=live, **kwargs)
    monkeypatch.setattr(training, name, recording)
    correct = predict(spec, params, data.X) == data.y
    n_proved = 0
    for eps in (0.01, 0.05, 0.12):
        cfg = AttackConfig(epsilon=eps, steps=10, seed=2)
        lives.clear()
        out = evaluate_robust(spec, params, data, kind, cfg)
        (live,) = lives
        proved = np.flatnonzero(correct & ~live)
        n_proved += len(proved)
        for i in proved:
            assert not grid_oracle_attack(spec, params, data.X[i], data.y[i], eps,
                                          20).success
        etas = attack(spec, params, data.X, data.y, cfg)
        etas = etas[0] if kind == "beta" else etas
        assert out["robust"] == np.mean(correct & (predict(spec, params, data.X + etas)
                                                   == data.y))
    assert (n_proved == 0) == (len(hidden) > 1)


def _bound_chunks(monkeypatch, spec, params, data, cfg):
    """The row counts of the _margin_bounds calls of evaluate_robust("pgd")."""
    sizes = []

    def recording(spec, params, X, y, cfg):
        sizes.append(len(X))
        return attacks._margin_bounds(spec, params, X, y, cfg)
    monkeypatch.setattr(training, "_margin_bounds", recording)
    evaluate_robust(spec, params, data, "pgd", cfg)
    return sizes


def test_pgd_robust_accuracy_bounds_doubling_chunks_while_half_prove(monkeypatch):
    # at 10 steps: nothing proves behind two hidden layers, so one chunk of 16
    # rows.  Where most rows prove, chunks of 16, 32, 64, ... rows until the
    # correct rows run out, and a chunk that proves fewer than half is the
    # last.  Below 5 steps no chunk can pay for itself; with none, no bound
    cfg = AttackConfig(epsilon=0.01, steps=10, seed=2)
    spec, params, data = erm_model(3, (8, 8), n=300)
    assert _bound_chunks(monkeypatch, spec, params, data, cfg) == [16]
    # class 0 wins iff x0 > 0; a row is proved iff x0 > eps.  Rows 16..47
    # sit inside the ball's reach of the boundary
    spec, params = linear_model(np.array([[1.0, -1.0], [0.0, 0.0]]), np.zeros(2))
    x0 = np.where((np.arange(200) >= 16) & (np.arange(200) < 48), 0.005, 0.5)
    near = Dataset(np.stack([x0, np.full(200, 0.5)], axis=1), np.zeros(200, np.intp))
    assert _bound_chunks(monkeypatch, spec, params, near, cfg) == [16, 32]
    spec, params, data = erm_model(3, (), n=300)
    left, chunks = int(np.sum(predict(spec, params, data.X) == data.y)), []
    while left > 0:
        chunks.append(min(left, 16 << len(chunks)))
        left -= chunks[-1]
    assert len(chunks) >= 4
    assert _bound_chunks(monkeypatch, spec, params, data, cfg) == chunks
    assert _bound_chunks(monkeypatch, spec, params, data, replace(cfg, steps=4)) == [16]
    assert _bound_chunks(monkeypatch, spec, params, data, replace(cfg, steps=0)) == []


def test_monitor_forwards_each_split_clean_once(monkeypatch):
    # one attacked epoch of pgd_at and of beta_at: each split's clean X runs
    # through the model once, its logits handed to the attack, and predict
    # sees the attacked points once
    train_val_split = training.train_val_split
    clean, attacked, splits = [], [], []

    def record(module, name, seen):
        fn = getattr(module, name)

        def recording(spec, params, x):
            seen.append(x)
            return fn(spec, params, x)
        monkeypatch.setattr(module, name, recording)

    def recording_split(*args):
        out = train_val_split(*args)
        splits.extend(out)
        return out
    record(training, "forward", clean)
    record(attacks, "forward", clean)
    record(training, "predict", attacked)
    monkeypatch.setattr(training, "train_val_split", recording_split)
    spec = ModelSpec("linear", 2, 3)
    test = blobs(n=30, seed=4)
    for algorithm in ("pgd_at", "beta_at"):
        for seen in (clean, attacked, splits):
            seen.clear()
        run_training(spec, blobs(n=60), TrainConfig(algorithm, epochs=1, seed=0,
                                                    attack=small_attack()), test)
        for split in (*splits, test):
            assert sum(x is split.X for x in clean) == 1
            assert not any(x is split.X for x in attacked)
        assert len(attacked) == 3


@pytest.mark.parametrize("kind", ["fgsm", "pgd", "beta"])
def test_evaluate_robust_forwards_the_clean_batch_once(monkeypatch, kind):
    # the clean X runs through the model once per call: its logits go to
    # the attack, and fgsm also takes the forward cache for its gradient
    seen = []
    for module in (training, attacks):
        def recording(spec, params, x, forward=module.forward):
            seen.append(x)
            return forward(spec, params, x)
        monkeypatch.setattr(module, "forward", recording)
    spec = ModelSpec("mlp", 2, 3, (8,))
    data = blobs(n=100)
    evaluate_robust(spec, init_params(spec, 0), data, kind, small_attack())
    assert sum(x is data.X for x in seen) == 1


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

    def recording_pgd(*args, seed, **kwargs):
        seeds.append(seed)
        return pgd(*args, seed=seed, **kwargs)
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
    params = {**init_params(spec, 0), "b0": np.array([-np.inf, 0.0, 0.0, 0.0])}
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


@pytest.mark.parametrize("field, value", [
    ("lr", -0.5), ("lr", float("nan")), ("lr", float("inf")),
    ("decay_factor", -1.0), ("decay_factor", float("nan")),
    ("mu", float("nan")), ("mu", float("inf")),
])
def test_train_config_rejects_numbers_that_train_silently_wrong(field, value):
    # a negative lr trains uphill, a negative decay factor flips every later
    # step, and a NaN mu passes a plain mu <= 0 check
    with pytest.raises(ValueError, match=field):
        TrainConfig("sbeta_at", epochs=1, attack=small_attack(), **{field: value})


def test_train_config_keeps_a_zero_lr_and_decay_factor():
    cfg = TrainConfig("erm", epochs=1, lr=0.0, decay_factor=0.0)
    assert cfg.lr == 0.0 and cfg.decay_factor == 0.0


@pytest.mark.parametrize("epochs", [(2, 1), (1, 1), (-1,), (-2, 3)])
def test_train_config_rejects_bad_decay_epochs(epochs):
    # checked at construction, not first in run_training; a negative epoch
    # would decay from the start exactly like epoch 0
    with pytest.raises(ValueError, match="decay epochs"):
        TrainConfig("erm", epochs=1, decay_epochs=epochs)


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
    assert np.mean(predict(spec, ckpt.params, data.X) == data.y) >= 0.95
    assert np.isfinite(metrics[-1].loss)
