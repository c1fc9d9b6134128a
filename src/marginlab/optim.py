"""First-order update rules shared by attacks and training: SGD, sign-SGD,
RMSprop and Adam.

A step updates its moments in place, with one scratch array per state, and
writes the new value into one fresh array; it runs the ops of the plain
formulas (var - lr * g / (sqrt(v) + eps), ...) in their order, so every bit
is theirs.
"""

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
    """One update; returns the new variable value in a fresh array.

    var and grad are never written.  RMSprop and Adam keep their moments
    ("v", and "m" for Adam) and a scratch array "t" in state.slots, updated
    in place, so var keeps the shape of the state's first step.  `ascend` is
    exactly `descend` on the negated gradient, so the two directions are
    bit-identical mirrors.
    """
    var = np.asarray(var, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if var.shape != grad.shape:
        raise ValueError(f"variable shape {var.shape} != gradient shape {grad.shape}")
    if direction not in ("ascend", "descend"):
        raise ValueError("direction must be 'ascend' or 'descend'")
    slots = state.slots
    if state.kind in ("rmsprop", "adam"):
        if not slots:
            names = ("m", "v", "t") if state.kind == "adam" else ("v", "t")
            slots.update((name, np.zeros(var.shape)) for name in names)
        elif slots["t"].shape != var.shape:
            raise ValueError(f"variable shape {var.shape} != optimizer state "
                             f"shape {slots['t'].shape}")

    state.step_count += 1
    out = np.empty(var.shape)
    # the negated gradient lives in out until the update overwrites it
    g = np.negative(grad, out=out) if direction == "ascend" else grad
    if state.kind == "sgd":  # var - lr * g
        np.multiply(g, state.lr, out=out)
    elif state.kind == "sign_sgd":  # var - lr * sign(g)
        # into a second array: numpy's in-place sign is ~6x slower on mixed signs
        out = np.sign(g, out=np.empty(var.shape))
        out *= state.lr
    else:
        v, t = slots["v"], slots["t"]
        decay = RHO if state.kind == "rmsprop" else BETA2
        if state.kind == "adam":  # m = BETA1 * m + (1 - BETA1) * g
            m = slots["m"]
            np.multiply(g, 1.0 - BETA1, out=t)
            m *= BETA1
            m += t
        # v = decay * v + (1 - decay) * g * g
        np.multiply(g, 1.0 - decay, out=t)
        t *= g
        v *= decay
        v += t
        if state.kind == "rmsprop":  # var - lr * g / (sqrt(v) + EPS)
            np.sqrt(v, out=t)
            np.multiply(g, state.lr, out=out)
        else:  # var - lr * m_hat / (sqrt(v_hat) + EPS), bias-corrected moments
            n = state.step_count
            np.divide(m, 1.0 - BETA1 ** n, out=out)
            out *= state.lr
            np.divide(v, 1.0 - BETA2 ** n, out=t)
            np.sqrt(t, out=t)
        t += EPS
        out /= t
    return np.subtract(var, out, out=out)
