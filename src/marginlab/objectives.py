"""Losses and margin quantities: cross-entropy, 0-1 error, class margins,
the smoothed (log-sum-exp) margin aggregate and its closed-form weights."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, logsumexp, sub, take_per_row


def cross_entropy(logits, y) -> Tensor:
    """-log softmax(logits)[y] per row of logits[n,K], differentiable; y is a
    per-row class array."""
    logits, y = as_tensor(logits), np.asarray(y, dtype=np.intp)
    check_classes(logits.data.shape[1], y)
    return sub(logsumexp(logits, axis=1), take_per_row(logits, y))


def check_classes(k, *labels):
    labels = [np.asarray(c) for c in labels]
    if any(np.any(c < 0) or np.any(c >= k) for c in labels):
        raise ValueError("class index out of range")


def cross_entropy_rows(logits, y, weight=1.0):
    """(cross_entropy per row of logits[n,K], the gradient of weight times
    their sum wrt the logits) in plain numpy, with the graph's ops in order;
    weight is a scalar or one weight per row."""
    check_classes(logits.shape[1], y)
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
    check_classes(k, y, targets)
    rows = np.arange(len(y))
    grad = np.zeros((len(y), k))
    grad[rows, targets], grad[rows, y] = 1.0, -1.0
    grad = grad.reshape(*shape, k)

    def objective(logits):
        flat = logits.reshape(-1, k)
        return (flat[rows, targets] - flat[rows, y]).reshape(shape), grad
    return objective


def nll_of_probs(probs, y: int) -> float:
    """-log probs[y] for an explicit probability vector."""
    return float(-np.log(np.asarray(probs, dtype=np.float64)[int(y)]))


def zero_one_error(logits, y: int) -> int:
    """1 iff argmax (lowest index on ties) differs from y."""
    logits = np.asarray(logits, dtype=np.float64)
    return int(np.argmax(logits) != int(y))


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


def _check_mu(mu):
    if not (np.isfinite(mu) and mu > 0):
        raise ValueError(f"temperature mu must be finite and > 0, got {mu}")


def lse_smoothed_margin(logits, y: int, mu: float) -> float:
    """(1/mu) * log sum_{j != y} exp(mu * m_j) over the margins
    m = logits - logits[y], stabilized; margins in place of logits give the
    same value."""
    _check_mu(mu)
    logits = np.asarray(logits, dtype=np.float64)
    m = np.delete(logits - logits[int(y)], int(y)) * mu
    c = m.max()
    return float((c + np.log(np.exp(m - c).sum())) / mu)


def lambda_star(logits, y: int, mu: float) -> np.ndarray:
    """Softmax weights exp(mu*m_j)/sum over j != y of the margins
    m = logits - logits[y]; exactly 0 at y."""
    _check_mu(mu)
    logits = np.asarray(logits, dtype=np.float64)
    k = logits.shape[0]
    if k < 2:
        raise ValueError("need at least two classes")
    m = (logits - logits[int(y)]) * mu
    mask = np.ones(k, dtype=bool)
    mask[int(y)] = False
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
