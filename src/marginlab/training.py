"""Training loops (plain surrogate minimization, surrogate-attack training,
margin-attack training and its smoothed variant), robust evaluation, and
best-vs-last checkpoint selection."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .attacks import (AttackConfig, _slot_groups, beta_attack_batch, fgsm_batch,
                      grid_oracle_attack, pgd_surrogate_batch, targeted_ascent_batch)
from .data import (MONITOR, SHUFFLE, TRAIN, Dataset, check_numbers, stream,
                   train_val_split)
from .models import (Checkpoint, ModelSpec, ParamSet, backward, forward, forward_logits,
                     init_params, predict)
from .objectives import cross_entropy, cross_entropy_rows
from .optim import KINDS, LrSchedule, OptimState, lr_at
from .optim import step as opt_step
from .tensor import Tensor, sub, take_per_row, texp, tsum, mul, div

ALGORITHMS = ("erm", "pgd_at", "beta_at", "sbeta_at")
ATTACK_KINDS = ("fgsm", "pgd", "beta", "grid_oracle")


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str
    epochs: int
    batch_size: int = 64
    optimizer: str = "sgd"
    lr: float = 0.5
    decay_epochs: tuple[int, ...] = ()
    decay_factor: float = 0.1
    attack: AttackConfig = None
    mu: float = 1.0
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        check_numbers(self)
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


def _check_labels(spec: ModelSpec, name: str, data: Dataset):
    bad = data.y[(data.y < 0) | (data.y >= spec.class_count)]
    if bad.size:
        raise ValueError(f"{name} labels {np.unique(bad).tolist()} lie "
                         f"outside the model's classes 0..{spec.class_count - 1}")


def evaluate_robust(spec: ModelSpec, params: ParamSet, data: Dataset,
                    attack_kind: str, cfg: AttackConfig, resolution: int = 41,
                    seed: int = None) -> dict:
    """Clean accuracy and the fraction of rows correct both at x and at the
    attacked point x + eta (for grid_oracle: not broken anywhere on the
    grid); the random starts draw from seed, or from cfg.seed when None.
    beta exits early, so in eval, attack and the monitor alike: it calls
    beta_attack_batch with live=correct, a row leaves with the first slot
    that gives it a margin > 0, and rows no slot breaks are scored at their
    best eta over all K-1 slots."""
    if attack_kind not in ATTACK_KINDS:
        raise ValueError(f"unknown attack kind {attack_kind!r}")
    _check_labels(spec, "dataset", data)
    if len(data) == 0:
        return {"clean": float("nan"), "robust": float("nan")}
    correct = predict(spec, params, data.X) == data.y
    if cfg.epsilon == 0:
        survived = correct
    elif attack_kind == "grid_oracle":
        survived = [not grid_oracle_attack(spec, params, x, y, cfg.epsilon,
                                           resolution, cfg.norm, cfg.box).success
                    for x, y in zip(data.X, data.y)]
    else:
        live = correct
        if attack_kind == "fgsm":
            etas = fgsm_batch(spec, params, data.X, data.y, cfg)
        elif attack_kind == "pgd":
            etas = pgd_surrogate_batch(spec, params, data.X, data.y, cfg, seed=seed)
        else:  # early exit: a row a slot breaks leaves with its margin > 0
            etas, _, margins = beta_attack_batch(spec, params, data.X, data.y, cfg,
                                                 seed=seed, live=correct)
            live = correct & ~(margins > 0)
        survived = live & (predict(spec, params, data.X + etas) == data.y)
    return {"clean": float(np.mean(correct)), "robust": float(np.mean(survived))}


def _descend(params, optimizers, lr, loss_of):
    """One defender step: loss_of(params) -> (loss, {name: gradient}), then
    every parameter moves with its own optimizer; returns (new params, loss)."""
    loss, grads = loss_of(params)
    updates = {}
    for name, tensor in params:
        opt = optimizers[name]
        opt.lr = lr
        updates[name] = opt_step(opt, tensor.data, grads[name], "descend")
    return params.replaced(updates), float(loss)


def _mean_cross_entropy(spec, X, y):
    """Surrogate-descent loss_of at the points X, on the models kernel."""
    def loss_of(params):
        logits, cache = forward(spec, params, X)
        ces, dlogits = cross_entropy_rows(logits, y, 1.0 / len(X))
        return ces.sum() * (1.0 / len(X)), backward(params, cache, dlogits, "params")
    return loss_of


def _on_graph(loss_t):
    """loss_of for a scalar graph loss_t(params) -> Tensor, by backpropagation."""
    def loss_of(params):
        params = params.with_grad()
        loss = loss_t(params)
        loss.backward()
        return loss.item(), {name: tensor.grad for name, tensor in params}
    return loss_of


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
    For sbeta_at, whose defender takes every per-class slot, etas and j_stars
    are the best slot, the lowest class on ties, as beta_attack_batch reports
    them; for pgd_at, j_stars is None.  A non-finite defender loss (each
    step) or parameter (each epoch) raises FloatingPointError.
    """
    test_data = test_data if test_data is not None else Dataset(
        np.zeros((0, train_data.dim)), np.zeros(0, dtype=np.intp))
    for name, split in (("train", train_data), ("test", test_data)):
        _check_labels(spec, name, split)
    tr, val = train_val_split(train_data, cfg.val_fraction, cfg.seed)
    if len(tr) == 0 or len(val) == 0:
        raise ValueError(f"val_fraction {cfg.val_fraction} of {len(train_data)} "
                         "rows leaves the train or validation split empty")
    schedule = LrSchedule(cfg.lr, cfg.decay_epochs, cfg.decay_factor)
    params = init.copy() if init is not None else init_params(spec, cfg.seed)
    optimizers = {name: OptimState(cfg.optimizer, cfg.lr) for name, _ in params}
    atk = cfg.attack or AttackConfig(epsilon=0.0)  # erm without an attack
    attacked = cfg.algorithm != "erm" and atk.epsilon > 0

    checkpoints, metrics = [], []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        lr = lr_at(schedule, epoch - 1)
        order = stream(cfg.seed, SHUFFLE, epoch).permutation(len(tr))
        epoch_loss = 0.0
        for step_i, lo in enumerate(range(0, len(tr), cfg.batch_size)):
            idx = order[lo:lo + cfg.batch_size]
            X, y = tr.X[idx], tr.y[idx]
            key = (cfg.seed, TRAIN, epoch, step_i)
            j_stars = None
            if not attacked:
                loss_of = _mean_cross_entropy(spec, X, y)
            elif cfg.algorithm == "pgd_at":
                etas = pgd_surrogate_batch(spec, params, X, y, atk, seed=key)
                loss_of = _mean_cross_entropy(spec, X + etas, y)
            elif cfg.algorithm == "beta_at":
                etas, j_stars, _ = beta_attack_batch(spec, params, X, y, atk,
                                                     seed=key)
                loss_of = _mean_cross_entropy(spec, X + etas, y)
            else:  # sbeta_at: the defender needs every slot, the hook the best
                slot_etas, wrong, margins = [], [], []
                for rows, labels, targets, keys, _ in _slot_groups(spec, X, y, key, atk):
                    group = targeted_ascent_batch(spec, params, rows, labels, targets,
                                                  atk, seed=keys)
                    slot_etas.append(group[0].reshape(len(keys), *X.shape))
                    wrong.append(targets)
                    margins.append(group[1].reshape(len(keys), len(X)))
                slot_etas = np.concatenate(slot_etas)
                wrong = np.concatenate(wrong).reshape(len(slot_etas), len(X)).T
                every = np.arange(len(X))
                best = np.argmax(np.concatenate(margins), axis=0)  # lowest class on ties
                etas, j_stars = slot_etas[best, every], wrong[every, best]
                loss_of = _on_graph(lambda p: sbeta_weighted_loss(
                    spec, p, X, y, slot_etas, wrong, cfg.mu))
            if hook is not None and attacked:
                hook(epoch, step_i, X, y, etas, j_stars)
            params, loss = _descend(params, optimizers, lr, loss_of)
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite defender loss at epoch {epoch}, "
                                         f"step {step_i}")
            epoch_loss += loss
        if not all(np.isfinite(t.data).all() for _, t in params):
            raise FloatingPointError(f"non-finite parameters at epoch {epoch}, "
                                     f"step {step_i}")

        monitor_kind = "pgd" if cfg.algorithm in ("erm", "pgd_at") else "beta"
        scores = []  # (clean, robust) per split, in EpochMetrics field order
        for i, split in enumerate((tr, val, test_data)):
            scores += evaluate_robust(spec, params, split, monitor_kind, atk,
                                      seed=(cfg.seed, MONITOR, epoch, i)).values()
        row = EpochMetrics(
            epoch,
            *scores,
            loss=epoch_loss / (step_i + 1),
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

