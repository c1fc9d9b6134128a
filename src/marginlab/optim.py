"""First-order update rules shared by attacks and training: SGD, sign-SGD,
RMSprop and Adam."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KINDS = ("sgd", "sign_sgd", "rmsprop", "adam")
RHO = 0.99                  # RMSprop second-moment decay
BETA1, BETA2 = 0.9, 0.999   # Adam moment decays
EPS = 1e-8


@dataclass
class OptimState:
    kind: str
    lr: float
    step_count: int = 0
    slots: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")


def step(state: OptimState, var: np.ndarray, grad: np.ndarray,
         direction: str = "descend") -> np.ndarray:
    """One in-place-free update; returns the new variable value.

    `ascend` is exactly `descend` on the negated gradient, so the two
    directions are bit-identical mirrors.
    """
    var = np.asarray(var, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if var.shape != grad.shape:
        raise ValueError(f"variable shape {var.shape} != gradient shape {grad.shape}")
    if direction == "ascend":
        grad = -grad
    elif direction != "descend":
        raise ValueError("direction must be 'ascend' or 'descend'")

    state.step_count += 1
    if state.kind == "sgd":
        return var - state.lr * grad
    if state.kind == "sign_sgd":
        return var - state.lr * np.sign(grad)
    if state.kind == "rmsprop":
        v = state.slots.get("v", np.zeros_like(var))
        v = RHO * v + (1.0 - RHO) * grad * grad
        state.slots["v"] = v
        return var - state.lr * grad / (np.sqrt(v) + EPS)
    # adam
    m = state.slots.get("m", np.zeros_like(var))
    v = state.slots.get("v", np.zeros_like(var))
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad * grad
    state.slots["m"] = m
    state.slots["v"] = v
    t = state.step_count
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    return var - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
