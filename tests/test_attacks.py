import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from marginlab import attacks
from marginlab.attacks import (AttackConfig, _gather, _key, _linf_bounds, _margin_bounds,
                               _slot_draws, _uniform_start, beta_attack,
                               beta_attack_batch,
                               closed_form_linear_attack, fgsm, fgsm_batch,
                               grid_margin_per_class, grid_max_cross_entropy,
                               grid_oracle_attack, grid_points, pgd_surrogate,
                               pgd_surrogate_batch, project, resolve_step_size,
                               targeted_ascent_batch, targeted_margin_ascent,
                               wrong_classes)
from marginlab.data import EVAL, DatasetSpec, generate_dataset, stream
from marginlab.models import (ModelSpec, forward_logits, init_params, linear_model,
                              predict)
from marginlab.objectives import zero_one_error
from marginlab.training import TrainConfig, run_training

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


@pytest.mark.parametrize("live", [False, True], ids=["all-rows", "live-rows"])
@pytest.mark.parametrize("box", [True, False])
@pytest.mark.parametrize("norm,epsilon", [("l_inf", 0.2), ("l2", 1.5)])
def test_uniform_start_matches_the_broadcast_draw(norm, epsilon, box, live):
    # the scaled random draw has the bits of Generator.uniform(lo, hi) with
    # the bounds broadcast per element; live rows gather their rows of the
    # whole-batch draw, as rows off the mask spanning [0, 0] would give them
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(12, 5))
    X[0], X[1, :2] = 0.0, 1.0  # rows and coordinates on the box faces
    cfg = AttackConfig(epsilon=epsilon, norm=norm, box=box)
    key = (9, EVAL, 0, 0, 2)
    mask = np.arange(12) % 3 != 1 if live else np.ones(12, dtype=bool)
    x = X[mask]
    lo, hi = _linf_bounds(x, cfg)
    bounds = np.zeros((2, 12, 5))
    bounds[:, mask] = lo, hi
    expected = project(x, stream(*key).uniform(*bounds)[mask], cfg)
    u = np.empty(x.shape)
    _gather(stream(*key), np.flatnonzero(mask), u)
    out = _uniform_start(x, _linf_bounds(x, cfg), cfg, u)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [1, 2, 784])
def test_gather_has_the_bits_of_the_whole_batch_draw(d):
    # any ascending rows, long gaps jumped or short ones drawn through, from
    # a fresh generator or one restarted after other draws
    n = {1: 3000, 2: 1500, 784: 40}[d]
    key = (4, EVAL, 0, 0, 3)
    whole = stream(*key).random((n, d))
    rng = np.random.default_rng(d)
    subsets = [[], [0], [n - 1], list(range(n)), [1, 2, n - 2], [0, n - 1]]
    subsets += [np.sort(rng.choice(n, size, replace=False)) for size in (1, 5, n // 3, n - 1)]
    gen = stream(*key)
    state = gen.bit_generator.state
    for rows in subsets:
        rows = np.asarray(rows, dtype=np.intp)
        for _ in range(2):  # the second time the generator has been used
            gen.bit_generator.state = state
            out = np.full((len(rows), d), np.nan)
            _gather(gen, rows, out)
            assert out.tobytes() == whole[rows].tobytes()


@pytest.mark.parametrize("n,d", [(30, 2), (50, 784)], ids=["kept", "gathered"])
def test_slot_draws_give_each_pair_its_slots_whole_batch_row(n, d):
    # group after group, in any order of slots and rows: pair (l, j) holds
    # row rows[j] of its slot's whole-batch draw
    k, seed = 6, (7, EVAL, 2, 1)
    cfg = AttackConfig(epsilon=0.1)
    whole = np.stack([stream(*_key(seed, cfg, s)).random((n, d)) for s in range(k - 1)])
    draw = _slot_draws(seed, cfg, (k - 1, n, d))
    rng = np.random.default_rng(n)
    order = np.argsort(rng.uniform(size=(n, k - 1)), axis=1)
    for first, m, rows in ((0, 2, np.arange(n)), (2, 1, np.array([3, 4, n - 1])),
                           (3, 2, np.sort(rng.choice(n, n // 2, replace=False))),
                           (0, 1, np.array([], dtype=np.intp)), (0, 5, np.arange(n))):
        slot_of = order[rows, first:first + m].T
        u = draw(slot_of, rows)
        assert u.shape == (m, len(rows), d)
        assert u.tobytes() == whole[slot_of, rows].tobytes()


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


@pytest.mark.parametrize("norm", ["l_inf", "l2"])
def test_pgd_under_live_attacks_its_correct_rows_with_the_full_batch_etas(norm):
    # a live row correct at x gets the whole-batch call's eta bit for bit, so
    # its start is its row of the whole-batch draw; every other row keeps 0,
    # and a mask that leaves out only rows wrong at x is the plain call
    spec = ModelSpec("mlp", 2, 3, (8,))
    params = init_params(spec, 0)
    X, y = np.random.default_rng(1).random((40, 2)), np.arange(40) % 3
    cfg = AttackConfig(epsilon=0.1, norm=norm, steps=5, seed=4)
    ok = predict(spec, params, X) == y
    full = pgd_surrogate_batch(spec, params, X, y, cfg)
    assert 0 < ok.sum() < len(X) and np.abs(full[ok]).max() > 0
    for live in (np.arange(40) % 3 != 1, np.arange(40) >= 37, np.zeros(40, bool), ok):
        etas = pgd_surrogate_batch(spec, params, X, y, cfg, live=live)
        assert np.array_equal(etas, np.where((live & ok)[:, None], full, 0.0))


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
            eta_s, m_s = targeted_ascent_batch(
                spec, params, X, y, targets, cfg,
                draw=lambda: stream(7, EVAL, 0, 0, s).random(X.shape))
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


@pytest.mark.parametrize("k", [2, 3, 5, 10])
@pytest.mark.parametrize("hidden", [(), (48,)], ids=["linear", "mlp"])
@pytest.mark.parametrize("n", [20, 1000], ids=["stacked", "one-slot-groups"])
def test_beta_slots_are_the_serial_slot_ascents(n, hidden, k):
    # 20 rows stack every slot in one group; at 1000 rows each slot is a
    # group of its own.  Slot s of the buffer holds exactly the one-slot
    # ascent on the s-th wrong class, and the result is their strict-> fold.
    # With no steps, two classes that share a weight column (init biases are
    # 0) tie exactly, and the lower one must keep the row.
    rng = np.random.default_rng(k)
    spec = ModelSpec("mlp" if hidden else "linear", 40, k, hidden)
    params = init_params(spec, 3)
    last = f"w{len(hidden)}"
    tied = {**params, last: params[last][:, [*range(k - 1), k - 2]]}
    X, y = rng.uniform(size=(n, 40)), rng.integers(k, size=n)
    cfg = AttackConfig(epsilon=0.05, norm="l2", steps=3, seed=4)
    for params, cfg in ((params, cfg), (tied, replace(cfg, steps=0))):
        buf = np.full((k - 1, n, 40), np.nan)
        etas, j_stars, margins = beta_attack_batch(spec, params, X, y, cfg, slots=buf)

        best = (np.zeros_like(X), np.zeros(n, dtype=np.intp), np.full(n, -np.inf))
        for s in range(k - 1):
            targets = wrong_classes(y, k)[:, s]
            eta_s, m_s = targeted_ascent_batch(
                spec, params, X, y, targets, cfg,
                draw=lambda: stream(*_key(None, cfg, s)).random(X.shape))
            assert np.array_equal(buf[s], eta_s)
            better = m_s > best[2]
            for kept, new in zip(best, (eta_s, targets, m_s)):
                kept[better] = new[better]
        assert np.array_equal(etas, best[0])
        assert np.array_equal(j_stars, best[1])
        assert np.array_equal(margins, best[2])


def _serial_fold(spec, params, X, y, cfg):
    """BETA's full fold one slot at a time, in class order: ((etas, j*,
    margins), a later slot taking a row only with a strictly larger margin;
    every slot's margins [n, K-1])."""
    k = spec.class_count
    best = (np.zeros_like(X), np.zeros(len(X), dtype=np.intp), np.full(len(X), -np.inf))
    per_slot = np.empty((len(X), k - 1))
    for s in range(k - 1):
        targets = wrong_classes(y, k)[:, s]
        eta_s, per_slot[:, s] = targeted_ascent_batch(
            spec, params, X, y, targets, cfg,
            draw=lambda: stream(*_key(None, cfg, s)).random(X.shape))
        better = per_slot[:, s] > best[2]
        for kept, new in zip(best, (eta_s, targets, per_slot[:, s])):
            kept[better] = new[better]
    return best, per_slot


def _fold_with_pairs(spec, params, X, y, cfg, slots=None, sizes=None):
    """(beta_attack_batch's fold, ran): ran[i] lists the classes that the
    ascents of row i targeted, from [m, rows, d] stacks and [pairs, d]
    batches alike; sizes, a list, receives each call's pair count."""
    where = {x.tobytes(): i for i, x in enumerate(X)}
    ran = [[] for _ in X]

    def recording(spec, params, stack, y, targets, cfg, **kwargs):
        rows = stack[0] if stack.ndim == 3 else stack
        for i, t in zip((where[x.tobytes()] for x in rows),
                        targets.reshape(-1, len(rows)).T):
            ran[i].extend(t.tolist())
        if sizes is not None:
            sizes.append(targets.size)
        return targeted_ascent_batch(spec, params, stack, y, targets, cfg, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attacks, "targeted_ascent_batch", recording)
        fold = beta_attack_batch(spec, params, X, y, cfg, slots=slots)
    return fold, ran


@pytest.mark.parametrize("norm", ["l_inf", "l2"])
@pytest.mark.parametrize("k", [3, 5, 10])
@pytest.mark.parametrize("hidden", [(), (48,), (8, 8)], ids=["linear", "mlp", "mlp-8-8"])
def test_beta_fold_drops_only_the_pairs_that_cannot_win(hidden, k, norm):
    # 1000 rows of d = 40 run one rank per group: each row's most confusable
    # class first, then the bounds U of every pair (_margin_bounds) against
    # the row's best margin g so far.  A later pair with U < g can neither
    # win nor tie the fold, so it is dropped, and the pairs left run as flat
    # pair batches of at most max(n, 2**15 // max(d, hidden..., K)) pairs.
    # Against the serial fold j* is equal, and a linear model's fold bit
    # for bit; an MLP-48's pair batches run on other row counts, whose
    # margins may move in their last bits.  A deeper MLP's bounds are +inf,
    # so it runs every pair, and so does sbeta_at's slots path.  With the
    # last two classes tied and no steps, their margins are equal
    # everywhere: the upper one is never dropped where the lower one holds
    # g, and the lower one keeps the row.  (A tie that two ascents reach is
    # exact only when both run on the same rows.)
    rng = np.random.default_rng(k)
    n = 1000
    spec = ModelSpec("mlp" if hidden else "linear", 40, k, hidden)
    params = init_params(spec, 3)
    X, y = rng.uniform(size=(n, 40)), rng.integers(k, size=n)
    # the last two classes share a column, raised to be the best in about
    # half the rows
    w, b = f"w{len(hidden)}", f"b{len(hidden)}"
    tie = [*range(k - 1), k - 2]
    logits = forward_logits(spec, params, X).data
    bump = (np.array(tie) == k - 2) * np.median(logits.max(axis=1) - logits[:, k - 2])
    tied = {**params, w: params[w][:, tie], b: params[b][tie] + bump}
    cfg = AttackConfig(epsilon=0.05 if norm == "l2" else 0.01, norm=norm, seed=4)
    cap = max(n, 2 ** 15 // max(40, *hidden, k))
    for model, steps in ((params, 3), (tied, 0)):
        cfg = replace(cfg, steps=steps)
        sizes = []
        (etas, j_stars, margins), ran = _fold_with_pairs(spec, model, X, y, cfg, sizes=sizes)
        assert max(sizes) <= cap
        (ref_etas, ref_j, ref_margins), per_slot = _serial_fold(spec, model, X, y, cfg)
        assert np.array_equal(j_stars, ref_j)
        if hidden:
            assert np.allclose(margins, ref_margins, rtol=1e-12, atol=0)
        else:
            assert np.array_equal(etas, ref_etas)
            assert np.array_equal(margins, ref_margins)
        pairs = sum(map(len, ran))
        if len(hidden) > 1:
            assert pairs == n * (k - 1)
        else:
            assert pairs < n * (k - 1)
        # each pair ran at most once: the row's first pair (whose group runs
        # on every row) and exactly the later pairs whose U reaches g, that
        # first pair's margin; no dropped pair ran
        bounds = _margin_bounds(spec, model, X, y, cfg)
        raw = forward_logits(spec, model, X).data
        clean = np.take_along_axis(raw, wrong_classes(y, k), 1) - raw[np.arange(n), y, None]
        first = np.argsort(-clean, axis=1, kind="stable")[:, 0]
        g = per_slot[np.arange(n), first]
        for i, classes in enumerate(ran):
            assert len(set(classes)) == len(classes)
            open_ = (bounds[i] >= g[i]) | (np.arange(k - 1) == first[i])
            assert sorted(classes) == wrong_classes(y, k)[i, open_].tolist()
        if model is tied:
            lower = (j_stars == k - 2) & (y < k - 2)
            assert lower.sum() > 100
            assert all(k - 1 in ran[i] for i in np.flatnonzero(lower))
    slots = np.empty((k - 1, n, 40))
    ran = _fold_with_pairs(spec, tied, X, y, cfg, slots)[1]
    assert sum(map(len, ran)) == n * (k - 1)


def test_beta_rejects_live_with_slots():
    # a live call never attacks a row wrong at x and retires rows early, so
    # it would leave their slots unwritten: it fails before any ascent
    data = generate_dataset(DatasetSpec("gaussian_blobs", 200, 5, 0.15, 5))
    spec = ModelSpec("mlp", 2, 5, (16,))
    params = init_params(spec, 0)
    slots = np.full((4, 200, 2), np.nan)
    with pytest.raises(ValueError, match="live.*slots"):
        beta_attack_batch(spec, params, data.X, data.y, AttackConfig(epsilon=0.05, steps=5),
                          live=np.ones(200, bool), slots=slots)
    assert np.isnan(slots).all()


def test_targeted_ascent_rejects_certify_without_retire():
    # the certificate runs only where rows retire, so without retire it
    # would be dropped unread
    spec, params = counterexample()
    with pytest.raises(ValueError, match="certify"):
        targeted_ascent_batch(spec, params, np.zeros((2, 2)), np.array([0, 0]),
                              np.array([1, 2]), AttackConfig(epsilon=0.1),
                              certify=lambda rows, g: np.zeros(len(rows), bool))


def test_beta_fold_drops_pairs_bit_for_bit_at_784d():
    # the training benchmark's shape: a 64-row batch at 784-d, MLP-256,
    # K = 10, one rank per group; the fold that drops pairs has the serial
    # fold's bits
    rng = np.random.default_rng(21)
    spec = ModelSpec("mlp", 784, 10, (256,))
    params = init_params(spec, 5)
    X, y = rng.uniform(size=(64, 784)), rng.integers(10, size=64)
    cfg = AttackConfig(epsilon=8 / 255, steps=3, seed=2)
    fold, ran = _fold_with_pairs(spec, params, X, y, cfg)
    assert sum(map(len, ran)) < 64 * 9
    for got, want in zip(fold, _serial_fold(spec, params, X, y, cfg)[0]):
        assert np.array_equal(got, want)


def test_targeted_batch_on_a_stack_is_one_call_per_layer():
    # layers of one batch with their own targets and draws, and the clean
    # margins handed in, give the bits of one call per layer
    rng = np.random.default_rng(10)
    spec = ModelSpec("mlp", 3, 4, (5,))
    params = init_params(spec, 1)
    X, y = rng.uniform(size=(6, 3)), np.array([0, 1, 2, 3, 0, 1])
    t1, t2 = (y + 1) % 4, (y + 2) % 4
    cfg = AttackConfig(epsilon=0.1, norm="l2", steps=4)
    logits = forward_logits(spec, params, X).data
    rows = np.arange(6)
    etas, margins = targeted_ascent_batch(
        spec, params, np.broadcast_to(X, (2, 6, 3)), y, np.stack([t1, t2]), cfg,
        draw=lambda: np.stack([stream(3, EVAL, 0, 0, 0).random(X.shape),
                               stream(8, EVAL, 0, 0, 0).random(X.shape)]),
        clean=np.stack([logits[rows, t] - logits[rows, y] for t in (t1, t2)]))
    e1, m1 = targeted_ascent_batch(spec, params, X, y, t1, cfg, seed=3)
    e2, m2 = targeted_ascent_batch(spec, params, X, y, t2, cfg, seed=8)
    assert np.array_equal(etas, np.stack([e1, e2]))
    assert np.array_equal(margins, np.stack([m1, m2]))


@pytest.mark.parametrize("optimizer,step_size", [("rmsprop", 0.01), ("sgd", 0.02)])
def test_a_retired_row_keeps_its_candidates_up_to_its_first_break(optimizer, step_size):
    # with retire, row i leaves every layer after the first step s that gives
    # one of its layers a margin > 0: all its layers then hold what the
    # ascent with s steps holds, which evaluates the same candidates.  Class
    # 4 copies class 3's weights, so a row labelled 3 has margin exactly 0
    # towards 4 at every point, which must not retire it.
    k, n = 5, 200
    spec = ModelSpec("mlp", 3, k, (8,))
    rng = np.random.default_rng(7)
    params = {"w0": rng.normal(size=(3, 8)), "b0": rng.normal(size=8) * 0.5,
              "w1": rng.normal(size=(8, k)), "b1": rng.normal(size=k) * 0.5}
    params["w1"][:, 4], params["b1"][4] = params["w1"][:, 3], params["b1"][3]
    X = rng.uniform(size=(n, 3))
    y = np.argmax(forward_logits(spec, params, X).data, axis=1)  # 3, never 4, on ties
    targets = wrong_classes(y, k)[:, 1:4].T  # layer 2 of a row labelled 3 targets 4
    cfg = AttackConfig(epsilon=0.2, steps=8, optimizer=optimizer, step_size=step_size,
                       seed=2)
    stack = np.broadcast_to(X, (3, n, 3))
    etas, margins = targeted_ascent_batch(spec, params, stack, y, targets, cfg, retire=True)
    runs = [targeted_ascent_batch(spec, params, stack, y, targets, replace(cfg, steps=s))
            for s in range(1, cfg.steps + 1)]
    broke = np.array([(m > 0).any(axis=0) for _, m in runs])  # [steps, rows]
    first = np.where(broke.any(axis=0), broke.argmax(axis=0), cfg.steps - 1)
    checked = first > 0  # a break in one step may be the start's or the iterate's
    for i in np.flatnonzero(checked):
        ref_etas, ref_margins = runs[first[i]]
        assert np.array_equal(etas[:, i], ref_etas[:, i])
        assert np.array_equal(margins[:, i], ref_margins[:, i])
    assert np.array_equal((margins > 0).any(axis=0), broke[-1])
    # the check saw rows that break late, rows that never break, and ties
    assert (checked & broke[-1]).sum() >= 10 and (~broke[-1]).sum() >= 10
    assert (margins[2, y == 3] == 0).sum() >= 10


@pytest.mark.parametrize("k", [2, 3, 10])
@pytest.mark.parametrize("hidden", [(), (16,)], ids=["linear", "mlp"])
def test_certified_rows_have_no_misclassified_grid_point(hidden, k):
    # the relaxation is sound per pair: no point of a grid over the feasible
    # set gives a class a margin >= its bound U, so no grid point breaks a
    # certified row (every U < 0), and most rows certify at the smallest
    # eps.  A linear model's bound is exact, so under l_inf, where the
    # corners of the set are grid points, U is the grid's best margin and a
    # row certifies exactly when its grid margin is < 0 (rows within 1e-6 of
    # 0 aside).  A class tied with another has a margin of exactly 0
    # everywhere, so its U is > 0.
    data = generate_dataset(DatasetSpec("gaussian_blobs", 200, k, 0.15, k))
    spec = ModelSpec("mlp" if hidden else "linear", 2, k, hidden)
    params = run_training(spec, data, TrainConfig("erm", epochs=3, lr=0.5, seed=1)
                          ).selection.last.params
    X = data.X[:100]
    y = predict(spec, params, X)
    w, b = f"w{len(hidden)}", f"b{len(hidden)}"
    tie = [*range(k - 1), k - 2]
    tied = {**params, w: params[w][:, tie], b: params[b][tie]}
    for norm, box, eps in itertools.product(("l_inf", "l2"), (True, False),
                                            (0.01, 0.05, 0.2)):
        cfg = AttackConfig(epsilon=eps, norm=norm, box=box)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounds = _margin_bounds(spec, params, X, y, cfg)
            assert (_margin_bounds(spec, tied, X, np.full(len(X), k - 2), cfg)[:, -1] > 0).all()
        grid = np.array([[m for _, m in grid_margin_per_class(
            spec, params, x, t, eps, 15, norm, box).values()] for x, t in zip(X, y)])
        assert bounds.shape == grid.shape == (len(X), k - 1)
        assert (grid < bounds).all()
        certified = (bounds < 0).all(axis=1)
        if eps == 0.01:
            assert certified.mean() > 0.5
        if not hidden and norm == "l_inf":
            assert np.allclose(bounds, grid, rtol=0, atol=1e-6)
            margin = grid.max(axis=1)
            clear = np.abs(margin) > 1e-6
            assert np.array_equal(certified[clear], margin[clear] < 0)


def test_a_deeper_mlp_certifies_nothing():
    # the relaxation covers one hidden layer; a deeper model's every bound
    # is +inf, so no row is certified and no slot is dropped
    spec = ModelSpec("mlp", 2, 3, (8, 8))
    params = init_params(spec, 0)
    X = np.random.default_rng(0).uniform(size=(50, 2))
    bounds = _margin_bounds(spec, params, X, predict(spec, params, X),
                            AttackConfig(epsilon=1e-6))
    assert bounds.shape == (50, 2) and np.isposinf(bounds).all()


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


@pytest.mark.parametrize("step_size", [-0.04, 0.0, float("nan"), float("inf")])
def test_attack_config_rejects_bad_step_size(step_size):
    # a negative step runs the ascent downhill and a NaN one poisons it, and
    # either way the robust accuracy it reports is wrong
    with pytest.raises(ValueError, match="step_size must be finite and > 0"):
        AttackConfig(epsilon=0.1, step_size=step_size)


@pytest.mark.parametrize("resolution", [0, -1])
def test_grid_points_rejects_a_resolution_below_one(resolution):
    # at 0 the grid is the single corner x - eps, which certifies too much
    with pytest.raises(ValueError, match=f"resolution must be >= 1, got {resolution}"):
        grid_points(np.array([0.5, 0.5]), 0.1, resolution)


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
