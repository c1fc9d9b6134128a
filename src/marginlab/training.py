"""Training loops (plain surrogate minimization, surrogate-attack training,
margin-attack training and its smoothed variant), robust evaluation, and
best-vs-last checkpoint selection."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .attacks import (AttackConfig, _fold_slots, _slot_groups, _slots_of,
                      beta_attack_batch, fgsm, grid_oracle_attack,
                      pgd_surrogate_batch, targeted_ascent_batch)
from .data import Dataset, train_val_split
from .models import Checkpoint, ModelSpec, ParamSet, forward_logits, init_params, predict
from .objectives import cross_entropy
from .optim import KINDS, LrSchedule, OptimState, lr_at
from .optim import step as opt_step
from .tensor import Tensor, sub, take_per_row, texp, tsum, mul, div

ALGORITHMS = ("erm", "pgd_at", "beta_at", "sbeta_at")


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str
    epochs: int
    batch_size: int = 64
    optimizer: str = "sgd"
    lr: float = 0.5
    decay_epochs: tuple = ()
    decay_factor: float = 0.1
    attack: AttackConfig = None
    mu: float = 1.0
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError(f"epochs and batch size must be >= 1, got "
                             f"{self.epochs} and {self.batch_size}")
        if self.optimizer not in KINDS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.algorithm == "sbeta_at" and self.mu <= 0:
            raise ValueError("sbeta_at needs mu > 0")
        if self.attack is None and self.algorithm != "erm":
            raise ValueError(f"{self.algorithm} needs an attack config")
        if not 0 < self.val_fraction < 1:  # also rejects NaN
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


@dataclass
class EpochMetrics:
    epoch: int
    train_clean: float
    train_robust: float
    val_clean: float
    val_robust: float
    test_clean: float
    test_robust: float
    loss: float
    seconds: float


@dataclass
class SelectionReport:
    best: Checkpoint
    best_metrics: EpochMetrics
    last: Checkpoint
    last_metrics: EpochMetrics


@dataclass
class TrainingRun:
    checkpoints: list
    metrics: list
    selection: SelectionReport


def accuracy(spec: ModelSpec, params: ParamSet, data: Dataset) -> float:
    if len(data) == 0:
        return float("nan")
    return float(np.mean(predict(spec, params, data.X) == data.y))


def _robust_accuracy_batched(spec, params, data, attack_kind, cfg, seed):
    if len(data) == 0:
        return float("nan")
    if attack_kind in ("pgd", "pgd_at", "erm"):
        etas = pgd_surrogate_batch(spec, params, data.X, data.y, cfg, seed=seed)
    else:
        etas, _, _ = beta_attack_batch(spec, params, data.X, data.y, cfg, seed=seed)
    preds = predict(spec, params, data.X + etas)
    clean_preds = predict(spec, params, data.X)
    survived = (preds == data.y) & (clean_preds == data.y)
    return float(np.mean(survived))


def evaluate_robust(spec: ModelSpec, params: ParamSet, data: Dataset,
                    attack_kind: str, cfg: AttackConfig, resolution: int = 41,
                    seed: int = None) -> dict:
    """Clean accuracy and the fraction surviving the chosen attack; the
    random starts draw from seed, or from cfg.seed when it is None."""
    seed = cfg.seed if seed is None else seed
    clean = accuracy(spec, params, data)
    if cfg.epsilon == 0:
        return {"clean": clean, "robust": clean}
    if attack_kind in ("pgd", "beta"):
        robust = _robust_accuracy_batched(spec, params, data, attack_kind, cfg, seed)
    elif attack_kind == "fgsm":
        ok = [not fgsm(spec, params, x, y, cfg).success
              for x, y in zip(data.X, data.y)]
        robust = float(np.mean(ok))
    elif attack_kind == "grid_oracle":
        if data.dim > 3:
            raise ValueError("grid oracle evaluation is limited to d <= 3")
        ok = [not grid_oracle_attack(spec, params, x, y, cfg.epsilon, resolution,
                                     cfg.norm, cfg.box).success
              for x, y in zip(data.X, data.y)]
        robust = float(np.mean(ok))
    else:
        raise ValueError(f"unknown attack kind {attack_kind!r}")
    return {"clean": clean, "robust": robust}


def _descend(params, optimizers, lr, loss_of):
    """One defender step: backpropagate the scalar loss_of(params) and move
    every parameter with its own optimizer; returns (new params, loss)."""
    params_g = params.with_grad()
    loss = loss_of(params_g)
    loss.backward()
    updates = {}
    for name, tensor in params_g:
        opt = optimizers[name]
        opt.lr = lr
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        updates[name] = opt_step(opt, tensor.data, grad, "descend")
    return params.replaced(updates), float(loss.item())


def _mean_cross_entropy(spec, X, y):
    """Surrogate-descent loss at the points X, as a function of the params."""
    return lambda params: mul(
        tsum(cross_entropy(forward_logits(spec, params, X), y)), 1.0 / X.shape[0])


def sbeta_weighted_loss(spec, params, X, y, slot_etas, wrong, mu) -> Tensor:
    """Margin-softmax weighted cross-entropy over all per-class perturbations,
    as a differentiable scalar; the weights stay inside the graph, so
    gradients flow through them as well as through the per-term losses."""
    n, n_slots = np.atleast_2d(X).shape[0], len(slot_etas)
    margins, ces = [], []
    for s in range(n_slots):
        logits = forward_logits(spec, params, np.atleast_2d(X) + slot_etas[s])
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


def run_training(spec: ModelSpec, train_data: Dataset, cfg: TrainConfig,
                 test_data: Dataset = None, hook=None,
                 init: ParamSet = None) -> TrainingRun:
    """Train per the configured algorithm; returns per-epoch checkpoints,
    metrics, and the best/last selection.

    The optional hook is called as hook(epoch, step, X, y, etas, j_stars)
    after each batch attack, for every algorithm but erm when epsilon > 0.
    For sbeta_at, etas and j_stars are the best of the per-class slots, as
    beta_attack_batch reports them; for pgd_at, j_stars is None.
    """
    test_data = test_data if test_data is not None else Dataset(
        np.zeros((0, train_data.dim)), np.zeros(0, dtype=np.intp))
    for name, split in (("train", train_data), ("test", test_data)):
        bad = split.y[(split.y < 0) | (split.y >= spec.class_count)]
        if bad.size:
            raise ValueError(f"{name} labels {np.unique(bad).tolist()} lie "
                             f"outside the model's classes 0..{spec.class_count - 1}")
    tr, val = train_val_split(train_data, cfg.val_fraction, cfg.seed)
    if len(tr) == 0 or len(val) == 0:
        raise ValueError(f"val_fraction {cfg.val_fraction} of {len(train_data)} "
                         "rows leaves the train or validation split empty")
    schedule = LrSchedule(cfg.lr, cfg.decay_epochs, cfg.decay_factor)
    params = init.copy() if init is not None else init_params(spec, cfg.seed)
    optimizers = {name: OptimState(cfg.optimizer, cfg.lr) for name, _ in params}
    atk = cfg.attack
    eps0 = atk is None or atk.epsilon == 0
    attacked = cfg.algorithm != "erm" and not eps0

    checkpoints, metrics = [], []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        lr = lr_at(schedule, epoch - 1)
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, epoch, 0x5F0F)))
        order = shuffle_rng.permutation(len(tr))
        epoch_loss, n_batches = 0.0, 0
        for step_i, lo in enumerate(range(0, len(tr), cfg.batch_size)):
            idx = order[lo:lo + cfg.batch_size]
            X, y = tr.X[idx], tr.y[idx]
            atk_seed = (cfg.seed << 20) ^ (epoch << 10) ^ step_i
            j_stars = None
            if not attacked:
                loss_of = _mean_cross_entropy(spec, X, y)
            elif cfg.algorithm == "pgd_at":
                etas = pgd_surrogate_batch(spec, params, X, y, atk, seed=atk_seed)
                loss_of = _mean_cross_entropy(spec, X + etas, y)
            elif cfg.algorithm == "beta_at":
                etas, j_stars, _ = beta_attack_batch(spec, params, X, y, atk,
                                                     seed=atk_seed)
                loss_of = _mean_cross_entropy(spec, X + etas, y)
            else:  # sbeta_at: the defender needs every slot, the hook the best
                slots = []
                for rows, labels, targets, seeds in _slot_groups(spec, X, y, atk_seed):
                    slots += _slots_of(len(seeds), targets, *targeted_ascent_batch(
                        spec, params, rows, labels, targets, atk, seed=seeds))
                etas, j_stars, _ = _fold_slots(slots)
                slot_etas = [slot for _, slot, _ in slots]
                wrong = np.stack([t for t, _, _ in slots], 1)
                loss_of = lambda p: sbeta_weighted_loss(
                    spec, p, X, y, slot_etas, wrong, cfg.mu)
            if hook is not None and attacked:
                hook(epoch, step_i, X, y, etas, j_stars)
            params, loss = _descend(params, optimizers, lr, loss_of)
            epoch_loss += loss
            n_batches += 1

        monitor_kind = "pgd" if cfg.algorithm in ("erm", "pgd_at") else "beta"
        eval_seed = (cfg.seed << 20) ^ (epoch << 10) ^ 0xE7A1
        scores = []  # (clean, robust) per split, in EpochMetrics field order
        for salt, split in enumerate((tr, val, test_data)):
            clean = accuracy(spec, params, split)
            scores += [clean, clean if eps0 else _robust_accuracy_batched(
                spec, params, split, monitor_kind, atk, eval_seed ^ salt)]
        row = EpochMetrics(
            epoch,
            *scores,
            loss=epoch_loss / n_batches,
            seconds=time.perf_counter() - t0,
        )
        metrics.append(row)
        checkpoints.append(Checkpoint(spec, params.copy(), {
            "algorithm": cfg.algorithm, "epoch": epoch, "seed": cfg.seed}))

    selection = select_checkpoints(metrics, checkpoints)
    return TrainingRun(checkpoints, metrics, selection)


def select_checkpoints(metrics, checkpoints) -> SelectionReport:
    """Best = highest validation robust accuracy (earliest epoch on ties)."""
    if not metrics:
        raise ValueError("need at least one epoch")
    best_i = 0
    for i, row in enumerate(metrics):
        if row.val_robust > metrics[best_i].val_robust:
            best_i = i
    return SelectionReport(best=checkpoints[best_i], best_metrics=metrics[best_i],
                           last=checkpoints[-1], last_metrics=metrics[-1])


def _wrap(algorithm):
    def runner(spec, train_data, cfg: TrainConfig, test_data=None, hook=None):
        cfg = replace(cfg, algorithm=algorithm)
        run = run_training(spec, train_data, cfg, test_data, hook)
        return run.selection.last, run.metrics
    runner.__name__ = f"train_{algorithm}"
    return runner


train_erm = _wrap("erm")
train_pgd_at = _wrap("pgd_at")
train_beta_at = _wrap("beta_at")
train_sbeta_at = _wrap("sbeta_at")
