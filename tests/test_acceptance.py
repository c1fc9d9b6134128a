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

from marginlab.attacks import (AttackConfig, _wrong_class_table,
                               closed_form_linear_attack, grid_margin_per_class,
                               grid_oracle_attack, project, targeted_margin_ascent)
from marginlab.cli import main
from marginlab.data import DatasetSpec, generate_dataset
from marginlab.models import (ModelSpec, forward_logits, init_params,
                              linear_model)
from marginlab.objectives import (MarginVector, SmoothingConfig, cross_entropy,
                                  entropy, lambda_star, lse_smoothed_margin,
                                  lse_smoothed_margin_t,
                                  max_margin_over_classes, negative_margin,
                                  nll_of_probs, zero_one_error)
from marginlab.tensor import Tensor, finite_diff_check
from marginlab.training import (TrainConfig, evaluate_robust, run_training,
                                sbeta_weighted_loss)

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


def _numeric_param_grads(fn, params, h=1e-6):
    base = {n: v.data.copy() for n, v in params}
    grads = {}
    for name in base:
        g = np.zeros_like(base[name])
        for idx in np.ndindex(*g.shape):
            vp = {n: base[n].copy() for n in base}
            vm = {n: base[n].copy() for n in base}
            vp[name][idx] += h
            vm[name][idx] -= h
            g[idx] = (fn(params.replaced(vp)) - fn(params.replaced(vm))) / (2 * h)
        grads[name] = g
    return grads


@report(4, "gradient correctness")
def test_criterion_4_gradients():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        k = 5
        logits = rng.normal(size=k)
        y = int(rng.integers(k))
        j = int((y + 1 + rng.integers(k - 1)) % k)
        worst = max(worst,
                    finite_diff_check(lambda t: cross_entropy(t, y), Tensor(logits)),
                    finite_diff_check(lambda t: negative_margin(t, y, j),
                                      Tensor(logits)),
                    finite_diff_check(
                        lambda t: lse_smoothed_margin_t(t, y, SmoothingConfig(5.0)),
                        Tensor(logits)))
    assert worst < 1e-5

    # full smoothed weighted loss, w.r.t. both inputs and parameters
    spec = ModelSpec("mlp", 2, 3, (4,))
    worst = 0.0
    for trial in range(100):
        params = init_params(spec, 4000 + trial)
        X = rng.normal(size=(2, 2))
        y = rng.integers(3, size=2)
        wrong = _wrong_class_table(y, 3)
        slot_etas = [rng.normal(size=(2, 2)) * 0.05 for _ in range(2)]
        mu = float(rng.uniform(0.5, 20.0))

        params_g = params.with_grad()
        loss = sbeta_weighted_loss(spec, params_g, X, y, slot_etas, wrong, mu)
        loss.backward()
        numeric = _numeric_param_grads(
            lambda p: sbeta_weighted_loss(spec, p.with_grad(), X, y, slot_etas,
                                          wrong, mu).item(), params)
        for name, tensor in params_g:
            analytic = tensor.grad if tensor.grad is not None else 0.0
            denom = max(1.0, float(np.max(np.abs(analytic))))
            worst = max(worst, float(np.max(np.abs(numeric[name] - analytic)))
                        / denom)
        if trial < 10:  # input gradients, via perturbation of the first slot
            h = 1e-6
            for idx in np.ndindex(2, 2):
                def val(delta):
                    etas = [e.copy() for e in slot_etas]
                    etas[0][idx] += delta
                    return sbeta_weighted_loss(spec, params.with_grad(), X, y,
                                               etas, wrong, mu).item()
                num = (val(h) - val(-h)) / (2 * h)
                # rebuild with tensor etas to read the analytic input gradient
                eta_t = [Tensor(e, requires_grad=True) for e in slot_etas]
                loss2 = _sbeta_loss_with_eta_grad(spec, params, X, y, eta_t,
                                                  wrong, mu)
                loss2.backward()
                ana = eta_t[0].grad[idx]
                worst = max(worst, abs(num - ana) / max(1.0, abs(ana)))
    assert worst < 1e-5


def _sbeta_loss_with_eta_grad(spec, params, X, y, eta_tensors, wrong, mu):
    from marginlab.tensor import add, div, mul, sub, take_per_row, texp, tsum
    n = X.shape[0]
    margins, ces = [], []
    for s, eta in enumerate(eta_tensors):
        logits = forward_logits(spec, params.with_grad(),
                                add(Tensor(np.asarray(X, dtype=np.float64)), eta))
        m = sub(take_per_row(logits, wrong[:, s]), take_per_row(logits, y))
        margins.append(m)
        ces.append(cross_entropy(logits, y))
    shift = np.max(np.stack([m.data for m in margins]) * mu, axis=0)
    exps = [texp(sub(mul(m, mu), Tensor(shift))) for m in margins]
    denom = exps[0]
    for e in exps[1:]:
        denom = denom + e
    weighted = None
    for e, ce in zip(exps, ces):
        term = mul(div(e, denom), ce)
        weighted = term if weighted is None else weighted + term
    return mul(tsum(weighted), 1.0 / n)


@report(5, "analytic invariant suites")
def test_criterion_5_invariants():
    rng = np.random.default_rng(5)
    for _ in range(1000):  # (a) base-2 surrogate dominates the 0-1 error
        logits = rng.normal(size=int(rng.integers(2, 11))) * rng.uniform(0.1, 5)
        y = int(rng.integers(logits.size))
        assert cross_entropy(logits, y, base=2).item() >= zero_one_error(logits, y)
    for _ in range(1000):  # (b) smoothed-margin sandwich
        k = int(rng.integers(2, 9))
        mv = MarginVector.from_logits(rng.normal(size=k), int(rng.integers(k)))
        top = max(np.delete(mv.values, mv.y))
        for mu in (1.0, 10.0, 100.0):
            v = lse_smoothed_margin(mv, SmoothingConfig(mu))
            assert top - 1e-12 <= v <= top + np.log(k - 1) / mu + 1e-12
    for _ in range(1000):  # (c) weight simplex membership + duality identity
        k = int(rng.integers(2, 9))
        mv = MarginVector.from_logits(rng.normal(size=k), int(rng.integers(k)))
        cfg = SmoothingConfig(float(rng.uniform(0.2, 50.0)))
        w = lambda_star(mv, cfg)
        assert w.min() >= 0 and w[mv.y] == 0.0
        assert abs(w.sum() - 1.0) < 1e-12
        lhs = float(w @ mv.values) + entropy(w) / cfg.mu
        assert abs(lhs - lse_smoothed_margin(mv, cfg)) < 1e-9
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
