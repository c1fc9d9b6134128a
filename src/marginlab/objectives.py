"""Losses and margin quantities: cross-entropy, 0-1 error, class margins,
the smoothed (log-sum-exp) margin aggregate and its closed-form weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, as_tensor, logsumexp, reshape, sub, take,
                     take_per_row, tsum, mul)

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class SmoothingConfig:
    mu: float = 1.0

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("temperature mu must be positive")


@dataclass(frozen=True)
class MarginVector:
    """Per-class logit gaps against the true class; values[y] is 0."""
    values: np.ndarray
    y: int

    @staticmethod
    def from_logits(logits, y: int) -> "MarginVector":
        logits = np.asarray(logits, dtype=np.float64)
        return MarginVector(logits - logits[y], int(y))


def cross_entropy(logits, y, base="e") -> Tensor:
    """-log softmax(logits)[y], differentiable; logits is [K] or [n,K].

    For batched logits, y is a per-row class array and the result is the
    per-row loss vector.
    """
    logits = as_tensor(logits)
    if logits.data.ndim == 1:
        k = logits.data.shape[0]
        yi = int(y)
        if not 0 <= yi < k:
            raise ValueError(f"class index {yi} out of range for K={k}")
        row = reshape(logits, (1, k))
        loss = sub(logsumexp(row, axis=1), take_per_row(row, [yi]))
        out = tsum(loss)
    else:
        y = np.asarray(y, dtype=np.intp)
        _check_classes(logits.data.shape[1], y)
        out = sub(logsumexp(logits, axis=1), take_per_row(logits, y))
    if base == 2:
        out = mul(out, 1.0 / _LN2)
    elif base != "e":
        raise ValueError("base must be 'e' or 2")
    return out


def _check_classes(k, *labels):
    if any(np.any(c < 0) or np.any(c >= k) for c in labels):
        raise ValueError("class index out of range")


def cross_entropy_rows(logits, y, weight=1.0):
    """(cross_entropy per row of logits[n,K], the gradient of weight times
    their sum wrt the logits) in plain numpy, with the graph's ops in order;
    weight is a scalar or one weight per row."""
    _check_classes(logits.shape[1], y)
    shift = logits.max(axis=1, keepdims=True)
    exps = np.exp(logits - shift)
    sums = exps.sum(axis=1)
    rows = np.arange(len(logits))
    grad = (weight / sums)[:, None] * exps
    grad[rows, y] -= weight
    return np.log(sums) + shift[:, 0] - logits[rows, y], grad


def margin_rows(y, targets, k, shape):
    """objective(logits[*shape, K]) -> (logits[target] - logits[y] per flat
    row, its gradient e_target - e_y, the same at every point: built once)."""
    _check_classes(k, y, targets)
    rows = np.arange(len(y))
    grad = np.zeros((len(y), k))
    grad[rows, targets], grad[rows, y] = 1.0, -1.0
    grad = grad.reshape(*shape, k)

    def objective(logits):
        flat = logits.reshape(-1, k)
        return (flat[rows, targets] - flat[rows, y]).reshape(shape), grad
    return objective


def nll_of_probs(probs, y: int, base="e") -> float:
    """-log probs[y] for an explicit probability vector."""
    p = np.asarray(probs, dtype=np.float64)
    val = -np.log(p[int(y)])
    return float(val / _LN2) if base == 2 else float(val)


def zero_one_error(logits, y: int) -> int:
    """1 iff argmax (lowest index on ties) differs from y."""
    logits = np.asarray(logits, dtype=np.float64)
    return int(np.argmax(logits) != int(y))


def negative_margin(logits, y: int, j: int) -> Tensor:
    """logits[j] - logits[y], differentiable through the logits."""
    logits = as_tensor(logits)
    picked = take(logits, [int(j), int(y)])
    return tsum(sub(take(picked, [0]), take(picked, [1])))


def max_margin_over_classes(logits, y: int):
    """(j_star, value): best margin over j != y, lowest index on ties."""
    logits = np.asarray(logits, dtype=np.float64)
    k = logits.shape[0]
    if k < 2:
        raise ValueError("need at least two classes")
    y = int(y)
    margins = logits - logits[y]
    margins[y] = -np.inf
    j_star = int(np.argmax(margins))
    return j_star, float(margins[j_star])


def lse_smoothed_margin(margins: MarginVector, cfg: SmoothingConfig) -> float:
    """(1/mu) * log sum_{j != y} exp(mu * m_j), stabilized."""
    m = np.delete(margins.values, margins.y) * cfg.mu
    c = m.max()
    return float((c + np.log(np.exp(m - c).sum())) / cfg.mu)


def lse_smoothed_margin_t(logits, y: int, cfg: SmoothingConfig) -> Tensor:
    """Differentiable version, evaluated from raw logits."""
    logits = as_tensor(logits)
    k = logits.data.shape[0]
    others = [j for j in range(k) if j != int(y)]
    m = sub(take(logits, others), tsum(take(logits, [int(y)])))
    scaled = reshape(mul(m, cfg.mu), (1, len(others)))
    return mul(tsum(logsumexp(scaled, axis=1)), 1.0 / cfg.mu)


def lambda_star(margins: MarginVector, cfg: SmoothingConfig) -> np.ndarray:
    """Softmax weights exp(mu*m_j)/sum over j != y; exactly 0 at y."""
    k = margins.values.shape[0]
    if k < 2:
        raise ValueError("need at least two classes")
    m = margins.values * cfg.mu
    mask = np.ones(k, dtype=bool)
    mask[margins.y] = False
    c = m[mask].max()
    w = np.zeros(k)
    w[mask] = np.exp(m[mask] - c)
    w /= w[mask].sum()
    return w


def entropy(weights: np.ndarray) -> float:
    """Shannon entropy with the 0*log(0)=0 convention."""
    w = np.asarray(weights, dtype=np.float64)
    nz = w[w > 0]
    return float(-(nz * np.log(nz)).sum())
