"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import json
import os
import time

import numpy as np
import pytest

from marginlab.attacks import (AttackConfig, closed_form_linear_attack,
                               grid_margin_per_class, grid_oracle_attack, project,
                               targeted_margin_ascent)
from marginlab.cli import gradient_error, main
from marginlab.data import DatasetSpec, generate_dataset
from marginlab.models import (ModelSpec, backward, forward, forward_logits,
                              init_params, linear_model)
from marginlab.objectives import (cross_entropy_rows, entropy, lambda_star,
                                  lse_smoothed_margin, margin_rows,
                                  max_margin_over_classes, nll_of_probs,
                                  zero_one_error)
from marginlab.training import TrainConfig, evaluate_robust, run_training

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def report(number, label):
    """Decorator printing the criterion verdict next to the pytest outcome."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")
        return inner
    return wrap


@report(1, "linear counterexample reproduction")
def test_criterion_1_counterexample(capsys):
    t0 = time.perf_counter()
    assert main(["repro", "appendix-d"]) == 0
    assert time.perf_counter() - t0 < 5.0
    out = capsys.readouterr().out
    with capsys.disabled():
        assert "PASS" in out


@report(2, "surrogate/margin ranking example")
def test_criterion_2_ranking_example():
    t0 = time.perf_counter()
    k, eps, y = 10, 0.01, 0
    z_a = np.full(k, 1.0 / k)
    z_a[0] += eps
    z_a[1] -= eps
    z_b = np.zeros(k)
    z_b[0], z_b[1] = 0.5 - eps, 0.5 + eps
    ce_a, ce_b = nll_of_probs(z_a, y), nll_of_probs(z_b, y)
    assert ce_a == pytest.approx(-np.log(0.11), abs=1e-12)
    assert ce_b == pytest.approx(-np.log(0.49), abs=1e-12)
    _, m_a = max_margin_over_classes(z_a, y)
    _, m_b = max_margin_over_classes(z_b, y)
    assert ce_a > ce_b            # the surrogate prefers the harmless vector
    assert m_a < 0.0 < m_b        # the margin prefers the adversarial one
    assert m_b == pytest.approx(2 * eps, abs=1e-12)
    assert time.perf_counter() - t0 < 1.0


@report(3, "grid margin / misclassification equivalence")
def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    eps, res = 0.15, 41
    agree = 0
    for i in range(100):
        spec = ModelSpec("linear", 2, 3) if i < 50 else ModelSpec("mlp", 2, 3, (16,))
        params = init_params(spec, 1000 + i)
        x = rng.uniform(size=2)
        y = int(rng.integers(3))
        per_class = grid_margin_per_class(spec, params, x, y, eps, res)
        best_margin = max(m for _, m in per_class.values())
        oracle = grid_oracle_attack(spec, params, x, y, eps, res)
        ok = (best_margin > 0) == oracle.success
        if best_margin > 0:
            logits = forward_logits(spec, params, x + oracle.eta_star).data[0]
            ok = ok and bool(zero_one_error(logits, y))
        agree += ok
    assert agree == 100
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.parametrize("hidden", [None, (5,), (5, 4)],
                         ids=["linear", "mlp5", "mlp5-4"])
def test_kernel_gradients_match_finite_differences(hidden):
    d, k = 3, 4
    spec = ModelSpec("mlp", d, k, hidden) if hidden else ModelSpec("linear", d, k)
    rng = np.random.default_rng(11)
    params = init_params(spec, 0)
    params = {n: rng.normal(size=v.shape) for n, v in params.items()}
    worst = 0.0
    for shape in ((6, d), (3, 6, d)):  # a batch and a slot stack
        x = rng.normal(size=shape)
        dlogits = rng.normal(size=(*shape[:-1], k))

        def f(pts, p):  # the scalar whose gradient at the logits is dlogits
            return float(np.sum(dlogits * forward(spec, p, pts)[0]))
        cache = forward(spec, params, x)[1]
        worst = max(worst, gradient_error(lambda v: f(v, params), x,
                                          backward(params, cache, dlogits)))
        if len(shape) == 2:  # wrt="params" takes a batch only
            grads = backward(params, cache, dlogits, "params")
            assert sorted(grads) == sorted(params)
            worst = max(worst, gradient_error(lambda p: f(x, p), params, grads))
    assert worst < 1e-5


def test_kernel_objectives_match_finite_differences():
    rng = np.random.default_rng(12)
    m, n, k = 2, 3, 5
    worst = 0.0
    for _ in range(20):
        logits = rng.normal(size=(m, n, k)) * 3.0
        y = rng.integers(k, size=m * n)
        targets = (y + 1 + rng.integers(k - 1, size=m * n)) % k
        coef = rng.normal(size=(m, n))  # the scalar is sum(coef * values)
        margin = margin_rows(y, targets, k, (m, n))
        worst = max(worst, gradient_error(
            lambda lg: float(np.sum(coef * margin(lg)[0])), logits,
            coef[..., None] * margin(logits)[1]))
        flat, weight = logits.reshape(-1, k), coef.ravel()
        for w in (weight, 1.0 / len(flat)):  # per-row weights and one scalar
            worst = max(worst, gradient_error(
                lambda lg: float(np.sum(w * cross_entropy_rows(lg, y)[0])), flat,
                cross_entropy_rows(flat, y, w)[1]))
    assert worst < 1e-5


@report(4, "gradient correctness")
def test_criterion_4_gradients(capsys):
    # gradcheck's checks, each against central differences: models.backward at
    # the input and the params, margin_rows, weighted cross_entropy_rows,
    # lambda_star as the gradient of lse_smoothed_margin, and sbeta_at's
    # defender loss, training.sbeta_weighted_loss, at the params and the etas
    assert main(["gradcheck", "--trials", "100", "--seed", "4"]) == 0
    assert float(capsys.readouterr().out.split()[-1]) < 1e-5  # the worst error


@report(5, "analytic invariant suites")
def test_criterion_5_invariants():
    rng = np.random.default_rng(5)
    for _ in range(1000):  # (a) base-2 surrogate dominates the 0-1 error
        logits = rng.normal(size=int(rng.integers(2, 11))) * rng.uniform(0.1, 5)
        y = int(rng.integers(logits.size))
        base2 = cross_entropy_rows(logits[None], np.array([y]))[0][0] / np.log(2.0)
        assert base2 >= zero_one_error(logits, y)
    for _ in range(1000):  # (b) smoothed-margin sandwich
        k = int(rng.integers(2, 9))
        logits, y = rng.normal(size=k), int(rng.integers(k))
        top = max(np.delete(logits - logits[y], y))
        for mu in (1.0, 10.0, 100.0):
            v = lse_smoothed_margin(logits, y, mu)
            assert top - 1e-12 <= v <= top + np.log(k - 1) / mu + 1e-12
    for _ in range(1000):  # (c) weight simplex membership + duality identity
        k = int(rng.integers(2, 9))
        logits, y = rng.normal(size=k), int(rng.integers(k))
        mu = float(rng.uniform(0.2, 50.0))
        w = lambda_star(logits, y, mu)
        assert w.min() >= 0 and w[y] == 0.0
        assert abs(w.sum() - 1.0) < 1e-12
        lhs = float(w @ (logits - logits[y])) + entropy(w) / mu
        assert abs(lhs - lse_smoothed_margin(logits, y, mu)) < 1e-9
    for _ in range(1000):  # (d) projection feasibility and idempotence
        norm = "l_inf" if rng.random() < 0.5 else "l2"
        eps = float(rng.uniform(0.01, 0.5))
        cfg = AttackConfig(epsilon=eps, norm=norm, box=True)
        x = rng.uniform(size=3)
        out = project(x, x + rng.normal(size=3), cfg)
        if norm == "l_inf":
            assert np.max(np.abs(out - x)) <= eps + 1e-12
            assert np.array_equal(project(x, out, cfg), out)
        else:
            assert np.linalg.norm(out - x) <= eps + 1e-9
        assert out.min() >= -1e-12 and out.max() <= 1 + 1e-12


@report(6, "linear targeted ascent matches the closed form")
def test_criterion_6_linear_exactness():
    rng = np.random.default_rng(6)
    cfg = AttackConfig(epsilon=0.3, norm="l2", steps=50, optimizer="sgd",
                       step_size=100.0, box=False, seed=0)
    for i in range(100):
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=4)
        spec, params = linear_model(w, b)
        x = rng.normal(size=5)
        y = int(rng.integers(4))
        for j in range(4):
            if j == y:
                continue
            delta_w = w[:, j] - w[:, y]
            target = float(delta_w @ x + b[j] - b[y]
                           + cfg.epsilon * np.linalg.norm(delta_w))
            _, margin = targeted_margin_ascent(spec, params, x, y, j, cfg)
            assert margin == pytest.approx(target, abs=1e-3)
        closed = closed_form_linear_attack(w, b, x, y, cfg.epsilon, "l2")
        best = max(float((w[:, j] - w[:, y]) @ x + b[j] - b[y]
                         + cfg.epsilon * np.linalg.norm(w[:, j] - w[:, y]))
                   for j in range(4) if j != y)
        assert closed.margin_value == pytest.approx(best, abs=1e-9)


def _train_and_grid_robust(algorithm, seed, test_data, epochs=20, steps=10):
    data = generate_dataset(DatasetSpec("gaussian_blobs", 600, 3, 0.08, seed))
    spec = ModelSpec("linear", 2, 3)
    atk = AttackConfig(epsilon=0.1, norm="l_inf", steps=steps, box=True, seed=0)
    cfg = TrainConfig(algorithm, epochs=epochs, lr=0.5, seed=seed, attack=atk)
    run = run_training(spec, data, cfg)
    params = run.selection.best.params
    out = evaluate_robust(spec, params, test_data, "grid_oracle", atk,
                          resolution=41)
    return spec, params, out["robust"]


@report(7, "desk-scale robust training")
def test_criterion_7_training_behavior():
    t0 = time.perf_counter()
    test_data = generate_dataset(DatasetSpec("gaussian_blobs", 150, 3, 0.08, 999))
    _, _, first = _train_and_grid_robust("beta_at", 0, test_data)
    assert first >= 0.85
    beta_scores, pgd_scores = [first], []
    for seed in range(1, 10):
        beta_scores.append(_train_and_grid_robust("beta_at", seed, test_data)[2])
    for seed in range(10):
        pgd_scores.append(_train_and_grid_robust("pgd_at", seed, test_data)[2])
    assert np.mean(beta_scores) >= np.mean(pgd_scores) - 0.02
    assert time.perf_counter() - t0 < 600.0


@report(8, "margin attack is at least as strong on average")
def test_criterion_8_attack_strength():
    test_data = generate_dataset(DatasetSpec("gaussian_blobs", 150, 3, 0.15, 998))
    atk = AttackConfig(epsilon=0.1, norm="l_inf", steps=20, box=True, seed=0)
    beta_acc, pgd_acc = [], []
    for i in range(20):
        algorithm = ("erm", "pgd_at", "beta_at", "sbeta_at")[i % 4]
        data = generate_dataset(DatasetSpec("gaussian_blobs", 200, 3, 0.15, i))
        spec = ModelSpec("mlp", 2, 3, (8,)) if i % 2 else ModelSpec("linear", 2, 3)
        train_atk = AttackConfig(epsilon=0.1, norm="l_inf", steps=5, box=True,
                                 seed=0)
        cfg = TrainConfig(algorithm, epochs=5, lr=0.5, seed=i,
                          attack=None if algorithm == "erm" else train_atk)
        run = run_training(spec, data, cfg)
        params = run.selection.last.params
        beta_acc.append(evaluate_robust(spec, params, test_data, "beta",
                                        atk)["robust"])
        pgd_acc.append(evaluate_robust(spec, params, test_data, "pgd",
                                       atk)["robust"])
    assert np.mean(beta_acc) <= np.mean(pgd_acc) + 0.005


@report(9, "out-of-scope results are stated, curve schema is emitted")
def test_criterion_9_scope_statement(tmp_path):
    text = open(README).read()
    assert "not reproduc" in " ".join(text.lower().replace("*", "").split())
    assert "epoch,train_clean,train_robust,val_clean,val_robust," \
           "test_clean,test_robust,loss,seconds" in text
    # the harness emits the learning-curve schema for best-vs-last inspection
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"n": 40}, "epochs": 2,
                               "attack": {"epsilon": 0.05, "steps": 3}}))
    csv = str(tmp_path / "curve.csv")
    assert main(["train", "--config", str(cfg), "--out-csv", csv]) == 0
    header = open(csv).read().splitlines()[0]
    assert header == ("epoch,train_clean,train_robust,val_clean,val_robust,"
                      "test_clean,test_robust,loss,seconds")


@report(10, "byte-identical reruns")
def test_criterion_10_determinism(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for algorithm in ("sbeta_at", "beta_at"):  # beta_at's checkpoint is attacked below
        cfg.write_text(json.dumps({"dataset": {"n": 60}, "epochs": 3,
                                   "algorithm": algorithm,
                                   "attack": {"epsilon": 0.05, "steps": 4}}))
        outputs = []
        for tag in ("a", "b"):
            csv = str(tmp_path / f"{tag}.csv")
            js = str(tmp_path / f"{tag}.json")
            ck = str(tmp_path / f"{tag}_ckpt.json")
            assert main(["train", "--config", str(cfg), "--out-csv", csv,
                         "--out-json", js, "--ckpt-last", ck]) == 0
            outputs.append(tuple(open(p, "rb").read() for p in (csv, js, ck)))
        assert outputs[0] == outputs[1]

    attack_cfg = tmp_path / "attack.json"
    attack_cfg.write_text(json.dumps({
        "dataset": {"n": 40}, "checkpoint": str(tmp_path / "a_ckpt.json"),
        "kind": "beta", "attack": {"epsilon": 0.05, "steps": 4}}))
    docs = []
    for tag in ("c", "d"):
        out = str(tmp_path / f"{tag}.json")
        assert main(["attack", "--config", str(attack_cfg), "--out", out]) == 0
        docs.append(open(out, "rb").read())
    assert docs[0] == docs[1]

    eval_cfg = tmp_path / "eval.json"
    eval_cfg.write_text(json.dumps({
        "dataset": {"n": 40},
        "checkpoints": {"last": str(tmp_path / "a_ckpt.json")},
        "attacks": ["fgsm", "pgd", "beta"],
        "attack": {"epsilon": 0.05, "steps": 4}}))
    grids = []
    for tag in ("e", "f"):
        out = str(tmp_path / f"{tag}.csv")
        assert main(["eval", "--config", str(eval_cfg), "--out", out]) == 0
        grids.append(open(out, "rb").read())
    assert grids[0] == grids[1]
    capsys.readouterr()
