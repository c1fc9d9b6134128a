"""Training loops (plain surrogate minimization, surrogate-attack training,
margin-attack training and its smoothed variant), robust evaluation, and
best-vs-last checkpoint selection."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .attacks import (AttackConfig, _margin_bounds, beta_attack_batch, fgsm_batch,
                      grid_oracle_attack, pgd_surrogate_batch, wrong_classes)
from .attacks import targeted_ascent_batch  # unused: perfbench's tracer wraps this binding
from .data import (MONITOR, SHUFFLE, TRAIN, Dataset, check_numbers, stream,
                   train_val_split)
from .models import (Checkpoint, ModelSpec, backward, forward, forward_logits,
                     init_params, predict, with_grad)
from .objectives import _check_mu, cross_entropy, cross_entropy_rows
from .optim import KINDS, OptimState
from .optim import step as opt_step
from .tensor import Tensor, div, mul, reshape, sub, take_per_row, texp, tsum

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
        for name in ("lr", "decay_factor"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        decay = list(self.decay_epochs)
        if decay != sorted(set(decay)) or any(e < 0 for e in decay):
            raise ValueError(f"decay epochs must be strictly increasing and >= 0, "
                             f"got {decay}")
        if self.algorithm == "sbeta_at":
            _check_mu(self.mu)
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


def _check_labels(spec: ModelSpec, name: str, data: Dataset):
    bad = data.y[(data.y < 0) | (data.y >= spec.class_count)]
    if bad.size:
        raise ValueError(f"{name} labels {np.unique(bad).tolist()} lie "
                         f"outside the model's classes 0..{spec.class_count - 1}")


def _proved(spec, params, data, correct, cfg):
    """bool[n]: the rows correct at x whose margin bounds are all < 0, bounded in
    data order in chunks of 16, 32, 64, ... rows until one proves under 5/cfg.steps
    of its rows (half at 10 steps; no bound at 0): at 784-d a bound costs ~5 PGD or
    BETA ascent steps."""
    proved, rows, size = np.zeros(len(data), bool), np.flatnonzero(correct), 16
    while cfg.steps and len(rows):
        i, rows = rows[:size], rows[size:]
        proved[i] = ok = (_margin_bounds(spec, params, data.X[i], data.y[i], cfg) < 0).all(1)
        if np.count_nonzero(ok) * cfg.steps < 5 * len(i):
            break
        size *= 2
    return proved


def evaluate_robust(spec: ModelSpec, params: dict, data: Dataset,
                    attack_kind: str, cfg: AttackConfig, resolution: int = 41,
                    seed: int = None) -> dict:
    """{"clean": the share of rows correct at x, "robust": the share correct
    both at x and at the attacked point x + eta} for attack_kind fgsm, pgd,
    beta or grid_oracle (robust: not broken anywhere on the grid); the random
    starts draw from seed, or from cfg.seed when None.  pgd and beta first
    bound the rows correct at x (_proved) and attack only the rest, each from
    its row of the whole-batch draw; a proved row is robust.  beta leaves a
    row once its verdict is known, by a break or a certificate after its
    first group (beta_attack_batch with live); the score equals the full
    fold's.  fgsm, one step, attacks every row correct at x.  Only the rows
    still open (correct at x and, for pgd and beta, not proved, for beta, not
    broken) are checked at x + eta."""
    if attack_kind not in ATTACK_KINDS:
        raise ValueError(f"unknown attack kind {attack_kind!r}")
    _check_labels(spec, "dataset", data)
    if len(data) == 0:
        return {"clean": float("nan"), "robust": float("nan")}
    logits, cache = forward(spec, params, data.X)  # predict's
    cache = cache if attack_kind == "fgsm" else None  # not held through pgd or beta
    correct = np.argmax(logits, axis=1) == data.y
    if cfg.epsilon == 0:
        survived = correct
    elif attack_kind == "grid_oracle":
        survived = [not grid_oracle_attack(spec, params, x, y, cfg.epsilon,
                                           resolution, cfg.norm, cfg.box).success
                    for x, y in zip(data.X, data.y)]
    else:
        live = survived = correct  # live: the rows checked at x + eta
        if attack_kind == "fgsm":
            etas = fgsm_batch(spec, params, data.X, data.y, cfg, clean=(logits, cache))
        else:  # a proved row survives unattacked
            live = correct & ~_proved(spec, params, data, correct, cfg)
            if attack_kind == "pgd":
                etas = pgd_surrogate_batch(spec, params, data.X, data.y, cfg, seed=seed,
                                           logits=logits, live=live)
            else:  # early exit: a row broken leaves with its margin > 0
                etas, _, margins = beta_attack_batch(spec, params, data.X, data.y, cfg,
                                                     seed=seed, live=live, logits=logits)
                survived = correct & ~(margins > 0)
                live &= survived
        at, survived = slice(None) if live.all() else np.flatnonzero(live), survived.copy()
        survived[at] = predict(spec, params, data.X[at] + etas[at]) == data.y[at]
    return {"clean": float(np.mean(correct)), "robust": float(np.mean(survived))}


def _descend(params, optimizers, lr, loss_of):
    """One defender step: loss_of(params) -> (loss, {name: gradient}), then
    every parameter moves with its own optimizer; returns (new params, loss)."""
    loss, grads = loss_of(params)
    updates = {}
    for name, value in params.items():
        opt = optimizers[name]
        opt.lr = lr
        updates[name] = opt_step(opt, value, grads[name], "descend")
    return updates, float(loss)


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
        params = with_grad(params)
        loss = loss_t(params)
        loss.backward()
        return loss.item(), {name: tensor.grad for name, tensor in params.items()}
    return loss_of


def sbeta_weighted_loss(spec, params, X, y, slot_etas, mu) -> Tensor:
    """Margin-softmax weighted cross-entropy over the K-1 per-class
    perturbations slot_etas[K-1, n, d], as a differentiable scalar; the
    weights stay inside the graph, so gradients flow through them as well as
    through the per-term losses.  One graph runs over the flat slot points
    Tensor(X) + slot_etas, slot-major, so an eta stack given as a gradient
    leaf gets its gradient too."""
    (n, d), slots = X.shape, spec.class_count - 1
    points = reshape(Tensor(X) + slot_etas, (slots * n, d))
    logits = forward_logits(spec, params, points)
    labels = np.tile(y, slots)
    m = reshape(sub(take_per_row(logits, wrong_classes(y, slots + 1).T.ravel()),
                    take_per_row(logits, labels)), (slots, n))
    ces = reshape(cross_entropy(logits, labels), (slots, n))
    exps = texp(sub(mul(m, mu), Tensor(np.max(m.data * mu, axis=0))))
    return mul(tsum(mul(div(exps, tsum(exps, axis=0)), ces)), 1.0 / n)


def run_training(spec: ModelSpec, train_data: Dataset, cfg: TrainConfig,
                 test_data: Dataset = None, hook=None,
                 init: dict = None) -> TrainingRun:
    """Train per the configured algorithm; returns per-epoch checkpoints,
    metrics, and the best/last selection.

    The optional hook is called as hook(epoch, step, X, y, etas, j_stars)
    after each batch attack, for every algorithm but erm when epsilon > 0.
    beta_at and sbeta_at make one beta_attack_batch call per batch, and the
    hook gets its fold: the best slot, the lowest class on ties; sbeta_at
    also has it fill every slot's etas for its defender.  For pgd_at,
    j_stars is None.  A non-finite defender loss (each step) or parameter
    (each epoch) raises FloatingPointError.
    """
    test_data = test_data if test_data is not None else Dataset(
        np.zeros((0, train_data.dim)), np.zeros(0, dtype=np.intp))
    for name, split in (("train", train_data), ("test", test_data)):
        _check_labels(spec, name, split)
    tr, val = train_val_split(train_data, cfg.val_fraction, cfg.seed)
    if len(tr) == 0 or len(val) == 0:
        raise ValueError(f"val_fraction {cfg.val_fraction} of {len(train_data)} "
                         "rows leaves the train or validation split empty")
    params = ({name: v.copy() for name, v in init.items()} if init is not None
              else init_params(spec, cfg.seed))
    optimizers = {name: OptimState(cfg.optimizer, cfg.lr) for name in params}
    atk = cfg.attack or AttackConfig(epsilon=0.0)  # erm without an attack
    attacked = cfg.algorithm != "erm" and atk.epsilon > 0

    checkpoints, metrics = [], []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        lr = cfg.lr * cfg.decay_factor ** sum(1 for e in cfg.decay_epochs if e < epoch)
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
            else:  # beta_at, sbeta_at; sbeta_at's defender weighs every slot
                slot_etas = (np.empty((spec.class_count - 1, *X.shape))
                             if cfg.algorithm == "sbeta_at" else None)
                etas, j_stars, _ = beta_attack_batch(spec, params, X, y, atk,
                                                     seed=key, slots=slot_etas)
                loss_of = (_mean_cross_entropy(spec, X + etas, y) if slot_etas is None
                           else _on_graph(lambda p: sbeta_weighted_loss(
                               spec, p, X, y, slot_etas, cfg.mu)))
            if hook is not None and attacked:
                hook(epoch, step_i, X, y, etas, j_stars)
            params, loss = _descend(params, optimizers, lr, loss_of)
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite defender loss at epoch {epoch}, "
                                         f"step {step_i}")
            epoch_loss += loss
        if not all(np.isfinite(v).all() for v in params.values()):
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
        checkpoints.append(Checkpoint(spec, {n: v.copy() for n, v in params.items()}, {
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

