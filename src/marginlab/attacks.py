"""Perturbation search inside a norm ball: projections, surrogate baselines
(FGSM, projected ascent on cross-entropy), per-class margin ascent with the
final best-class selection, a closed form for linear models, and exhaustive
grid oracles for low-dimensional certification.

Every iterative attack (margin ascent to one target class, and the
cross-entropy baseline) runs the same projected-ascent loop, which differs
only in the per-row objective on the logits.  The loop tracks the best
candidate it actually evaluated (clean point, random start, every iterate) so
the reported perturbation is never worse than doing nothing; this is what
makes robust accuracy <= clean accuracy hold exactly during evaluation.

BETA's K-1 per-class problems (slots) are independent: one
targeted_ascent_batch call runs a group of them on a leading slot axis
(points [m,n,d]) while m*n*max(d, hidden..., K) <= 2**15, each slot on its
own stream and matmuls, so results are bit-identical to one slot at a time.
beta_attack_batch is the one fold over them; with a mask live (robust
accuracy) it exits early, attacking rows correct at x until a slot breaks
them, with starts drawn on the whole batch.  sbeta_at keeps every slot.
The loop, FGSM and the grid oracles build no autodiff graph: they run the
models.forward/backward kernel on per-row (values, gradient) objectives,
with the graph's bits; single-sample results stay on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EVAL, check_numbers, stream
from .models import ModelSpec, ParamSet, backward, forward, forward_logits
# cross_entropy is unused here; perfbench's tracer wraps this binding
from .objectives import (cross_entropy, cross_entropy_rows, margin_rows,
                         max_margin_over_classes, zero_one_error)
from .optim import KINDS, OptimState, step

NORMS = ("l_inf", "l2")


def _check_ball(epsilon, norm):
    if not np.isfinite(epsilon) or epsilon < 0:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}")


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float
    norm: str = "l_inf"
    steps: int = 10
    optimizer: str = None   # resolved per attack: rmsprop for margin ascent, sign_sgd for pgd
    step_size: float = None
    box: bool = True
    seed: int = 0

    def __post_init__(self):
        check_numbers(self)
        _check_ball(self.epsilon, self.norm)
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.optimizer is not None and self.optimizer not in KINDS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def resolve_step_size(cfg: AttackConfig) -> float:
    """2/255 at the canonical eps=8/255, otherwise 2*eps/steps."""
    if cfg.step_size is not None:
        return cfg.step_size
    if np.isclose(cfg.epsilon, 8.0 / 255.0):
        return 2.0 / 255.0
    return 2.0 * cfg.epsilon / max(cfg.steps, 1)


@dataclass
class AttackResult:
    eta_star: np.ndarray
    j_star: int
    margin_value: float
    success: bool
    per_class_margins: np.ndarray


def _result_at(spec, params, x, y, eta) -> AttackResult:
    logits = forward_logits(spec, params, x + eta).data[0]
    return AttackResult(np.asarray(eta, dtype=np.float64),
                        *max_margin_over_classes(logits, y),
                        success=bool(zero_one_error(logits, y)),
                        per_class_margins=logits - logits[int(y)])


# -- feasible set --------------------------------------------------------------


def _linf_bounds(x, cfg: AttackConfig):
    """(lo, hi): the l_inf ball around x, cut to the unit box when cfg.box."""
    lo, hi = x - cfg.epsilon, x + cfg.epsilon
    if cfg.box:
        lo, hi = np.maximum(lo, 0.0), np.minimum(hi, 1.0)
    return lo, hi


def project(x: np.ndarray, candidate: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """Map a candidate point back into the ball around x (and the unit box).

    Under l2 with box=True this scales onto the ball and then clips to the
    box: the result is feasible but is not the Euclidean projection onto
    ball and box.  For x=(0.9, 0.5), candidate (1.5, 1.0) and eps=0.5 it
    returns (1.0, 0.820), 0.531 from the candidate, while the feasible
    (1.0, 0.990) lies 0.500 away.
    """
    x = np.asarray(x, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if x.shape != candidate.shape:
        raise ValueError("x and candidate shapes differ")
    if cfg.norm == "l_inf":
        return np.clip(candidate, *_linf_bounds(x, cfg))
    eta = candidate - x
    norms = np.linalg.norm(eta, axis=-1, keepdims=True)
    scale = np.where(norms > cfg.epsilon, cfg.epsilon / np.maximum(norms, 1e-300), 1.0)
    out = x + eta * scale
    if cfg.box:
        # x is in the box, so clamping only moves coordinates toward x and
        # cannot grow the perturbation norm
        out = np.clip(out, 0.0, 1.0)
    return out


def _key(seed, cfg: AttackConfig, slot=0) -> tuple:
    """The stream key of one slot of an attack: seed is the (seed, kind,
    epoch, step) run_training passes, or an int (cfg.seed when None) for EVAL."""
    return (*(seed if isinstance(seed, tuple) else
              (cfg.seed if seed is None else seed, EVAL, 0, 0)), slot)


def _uniform_start(x: np.ndarray, cfg: AttackConfig, key, live=None) -> np.ndarray:
    """A feasible random start around x[n,d], drawn from stream(*key) on the
    whole batch and cut to x's rows when x holds the True rows of mask live."""
    lo, hi = _linf_bounds(x, cfg)
    if live is None:
        return project(x, stream(*key).uniform(lo, hi), cfg)
    bounds = np.zeros((2, len(live), x.shape[1]))  # rows not attacked span [0, 0]
    bounds[:, live] = lo, hi
    return project(x, stream(*key).uniform(*bounds)[live], cfg)


# -- projected ascent, per-class margin ascent ---------------------------------


def _ascend(spec, params, X, cfg, start, objective, optimizer):
    """Projected ascent on a per-row objective(logits[..., n, K]) -> (values
    [..., n], dvalues/dlogits) through models.forward/backward, from the start
    that start() draws; the one loop behind every iterative attack.  X is a
    batch [n,d] or a stack [m,n,d]; `optimizer` is used when cfg names none.

    Returns (etas[..., n, d], values[..., n], clean_logits[..., n, K]): per
    row the best candidate evaluated (clean point, random start, every
    iterate) and its objective value, plus the logits at the clean point.
    Each iterate's value comes from the forward pass built for its gradient.
    """
    clean, _ = forward(spec, params, X)
    best_pts, best_vals = X.copy(), objective(clean)[0]

    def keep(pts, vals):
        improved = vals > best_vals
        best_vals[improved] = vals[improved]
        best_pts[improved] = pts[improved]

    if cfg.epsilon > 0 and cfg.steps > 0:
        pts = start()  # first, so the bounds are not held through its peak memory
        bounds = _linf_bounds(X, cfg) if cfg.norm == "l_inf" else None
        opt = OptimState(cfg.optimizer or optimizer, resolve_step_size(cfg))
        for _ in range(cfg.steps):
            logits, cache = forward(spec, params, pts)
            vals, dlogits = objective(logits)
            keep(pts, vals)
            pts = step(opt, pts, backward(params, cache, dlogits), direction="ascend")
            pts = np.clip(pts, *bounds) if bounds else project(X, pts, cfg)
        keep(pts, objective(forward(spec, params, pts)[0])[0])
    return best_pts - X, best_vals, clean


def _wrong_class_table(y, k):
    """[n, K-1]: slot s of row i is the s-th smallest class index != y[i]."""
    slots = np.arange(k - 1)
    return slots + (slots >= np.asarray(y, dtype=np.intp)[:, None])


# 2**15 float64s is 256 KB per activation.  On 2-D MLP-16 BETA calls the
# groups this allows made 400- to 1000-row batches 7-42% faster, while 2-3
# slots of a 2000-row batch moved -6% to +9% and 9 slots lost 25-32%;
# all K-1 slots of a 2000x784 batch ran 15% slower stacked than one by one.
_GROUP_ELEMS = 2 ** 15


def _slot_groups(spec, X, y, seed, cfg, live=None):
    """Per group of wrong-class slots, in slot order, the targeted_ascent_batch
    arguments (rows[m*r,d] = m copies of the r rows of X[n,d] that the mask
    live holds as the group starts, all when None; labels, targets, keys[m])
    and those rows' indices; slot s draws from _key(seed, cfg, s)."""
    n, d = X.shape
    k = spec.class_count
    wrong = _wrong_class_table(y, k)
    first = 0
    while first < k - 1 and (live is None or live.any()):
        rows = np.arange(n) if live is None else np.flatnonzero(live)
        part = X if live is None else X[rows]
        m = min(k - 1 - first,
                max(1, _GROUP_ELEMS // max(1, len(rows) * max(d, *spec.hidden, k))))
        yield (np.tile(part, (m, 1)) if m > 1 else part, np.tile(y[rows], m),
               wrong[rows, first:first + m].T.ravel(),
               [_key(seed, cfg, s) for s in range(first, first + m)], rows)
        first += m


def targeted_ascent_batch(spec: ModelSpec, params: ParamSet, X: np.ndarray,
                          y: np.ndarray, targets: np.ndarray, cfg: AttackConfig,
                          seed=None, live=None):
    """Projected ascent on logits[target] - logits[y] for a whole batch.

    Returns (etas[n,d], margins[n]) for the best iterate each row has seen;
    the clean point and the random start are both in the candidate set.
    A list of m stream keys splits the rows into m equal blocks on a slot
    axis: each block draws its start from its own key and gets its own
    matmuls, so the result has the bits of m calls, one per block.  Blocks
    that hold the True rows of a mask live draw their starts on its batch.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    if np.any(targets == y):
        raise ValueError("target class must differ from the true class")
    keys = seed if isinstance(seed, list) else [_key(seed, cfg)]
    stack = X.reshape(len(keys), len(X) // len(keys), X.shape[1])
    # flatten only the logits: [m*n, d] rows can change a matmul's bits
    margin = margin_rows(y, targets, spec.class_count, stack.shape[:2])

    # drawn in _ascend, whose first step frees it; one block is not copied
    def start():
        starts = [_uniform_start(x, cfg, key, live) for x, key in zip(stack, keys)]
        return np.stack(starts) if len(starts) > 1 else starts[0][None]

    etas, margins, _ = _ascend(spec, params, stack, cfg, start, margin, "rmsprop")
    return etas.reshape(X.shape), margins.ravel()


def targeted_margin_ascent(spec: ModelSpec, params: ParamSet, x, y: int,
                           j: int, cfg: AttackConfig, seed=None):
    """(eta, margin) for a single sample and a single target class."""
    etas, margins = targeted_ascent_batch(
        spec, params, np.atleast_2d(x), np.array([y]), np.array([j]), cfg,
        seed=seed)
    return etas[0], float(margins[0])


def beta_attack_batch(spec: ModelSpec, params: ParamSet, X: np.ndarray,
                      y: np.ndarray, cfg: AttackConfig, seed=None, live=None):
    """Per-class margin ascent for every wrong class, then the best class:
    (etas[n,d], j_stars[n], margins[n]), each slot with exactly the bits of
    a serial targeted_ascent_batch on its own key; strict > keeps the lowest
    class on ties.  The one BETA fold: a bool mask live attacks only its rows
    and drops each row once a slot gives it a margin > 0, which stays its
    best; rows never attacked keep eta 0, j* 0 and margin -inf."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    best = (np.zeros(X.shape), np.zeros(len(X), np.intp), np.full(len(X), -np.inf))
    live = None if live is None else live.copy()
    for rows, labels, targets, keys, at in _slot_groups(spec, X, y, seed, cfg, live):
        etas, margins = targeted_ascent_batch(spec, params, rows, labels, targets,
                                              cfg, seed=keys, live=live)
        margins = margins.reshape(len(keys), len(at))
        for slot in zip(etas.reshape(*margins.shape, X.shape[1]),
                        targets.reshape(margins.shape), margins):
            improved = slot[2] > best[2][at]
            for kept, new in zip(best, slot):
                kept[at[improved]] = new[improved]
        if live is not None:
            live[at[(margins > 0).any(axis=0)]] = False
    return best


def beta_attack(spec: ModelSpec, params: ParamSet, x, y: int,
                cfg: AttackConfig, seed=None) -> AttackResult:
    """Best-over-classes margin attack on a single sample."""
    etas, _, _ = beta_attack_batch(spec, params, np.atleast_2d(x),
                                   np.array([y]), cfg, seed=seed)
    return _result_at(spec, params, np.asarray(x, dtype=np.float64), y, etas[0])


# -- surrogate baselines -------------------------------------------------------


def fgsm_batch(spec: ModelSpec, params: ParamSet, X: np.ndarray,
               y: np.ndarray, cfg: AttackConfig):
    """One epsilon-sized sign step on the cross-entropy gradient; returns etas.

    Rows misclassified at the clean point keep eta=0.
    """
    if cfg.norm != "l_inf":
        raise ValueError("fgsm is defined for the l_inf norm only")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    logits, cache = forward(spec, params, X)
    grad = backward(params, cache, cross_entropy_rows(logits, y)[1])
    etas = project(X, X + cfg.epsilon * np.sign(grad), cfg) - X
    etas[np.argmax(logits, axis=1) != y] = 0.0
    return etas


def fgsm(spec: ModelSpec, params: ParamSet, x, y: int,
         cfg: AttackConfig) -> AttackResult:
    """Single epsilon-sized sign step on a single sample."""
    etas = fgsm_batch(spec, params, np.atleast_2d(x), np.array([y]), cfg)
    return _result_at(spec, params, np.asarray(x, dtype=np.float64), y, etas[0])


def pgd_surrogate_batch(spec: ModelSpec, params: ParamSet, X: np.ndarray,
                        y: np.ndarray, cfg: AttackConfig, seed=None):
    """Projected ascent on cross-entropy with a random start; returns etas.

    Rows misclassified at the clean point keep eta=0; the others return the
    highest-loss candidate evaluated.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    etas, _, clean_logits = _ascend(
        spec, params, X, cfg, lambda: _uniform_start(X, cfg, _key(seed, cfg)),
        lambda logits: cross_entropy_rows(logits, y), "sign_sgd")
    etas[np.argmax(clean_logits, axis=1) != y] = 0.0
    return etas


def pgd_surrogate(spec: ModelSpec, params: ParamSet, x, y: int,
                  cfg: AttackConfig, seed=None) -> AttackResult:
    etas = pgd_surrogate_batch(spec, params, np.atleast_2d(x), np.array([y]),
                               cfg, seed=seed)
    return _result_at(spec, params, np.asarray(x, dtype=np.float64), y, etas[0])


# -- oracles -------------------------------------------------------------------


def closed_form_linear_attack(weight, bias, x, y: int, epsilon: float,
                              norm: str = "l2") -> AttackResult:
    """Exact per-class margin maximizer for a linear model, no box constraint.

    For class j the optimum of (w_j - w_y) . (x + eta) over the ball is
    eta = eps * (w_j - w_y)/||.||_2 (l2) or eps * sign(w_j - w_y) (l_inf).
    """
    _check_ball(epsilon, norm)
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = int(y)
    k = weight.shape[1]
    best = None
    for j in range(k):
        if j == y:
            continue
        delta = weight[:, j] - weight[:, y]
        if norm == "l2":
            nrm = np.linalg.norm(delta)
            eta = epsilon * delta / nrm if nrm > 0 else np.zeros_like(x)
        else:
            eta = epsilon * np.sign(delta)
        margin = float(delta @ (x + eta) + bias[j] - bias[y])
        if best is None or margin > best[0]:
            best = (margin, j, eta)
    margin, j_star, eta = best
    logits = (x + eta) @ weight + bias
    margins = logits - logits[y]
    return AttackResult(eta_star=eta, j_star=j_star, margin_value=margin,
                        success=bool(zero_one_error(logits, y)),
                        per_class_margins=margins)


def grid_points(x: np.ndarray, epsilon: float, resolution: int,
                norm: str = "l_inf", box: bool = True) -> np.ndarray:
    """All feasible points of a (2*resolution+1)^d axis grid around x."""
    _check_ball(epsilon, norm)
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    if d > 3:
        raise ValueError("grid oracle is limited to d <= 3")
    if epsilon == 0:
        pts = x[None, :].copy()
    else:
        axes = [x[i] + np.linspace(-epsilon, epsilon, 2 * resolution + 1)
                for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
    if box:
        pts = np.clip(pts, 0.0, 1.0)
    if norm == "l2":
        keep = np.linalg.norm(pts - x, axis=1) <= epsilon * (1 + 1e-12)
        pts = pts[keep]
    return pts


def _grid_eval(spec, params, pts, y, chunk=65536):
    """(logits[n, K], margins[n, K] against class y) over grid points, run
    through models.forward in chunks."""
    logits = np.concatenate([forward(spec, params, pts[lo:lo + chunk])[0]
                             for lo in range(0, pts.shape[0], chunk)])
    return logits, logits - logits[:, [int(y)]]


def grid_oracle_attack(spec: ModelSpec, params: ParamSet, x, y: int,
                       epsilon: float, resolution: int, norm: str = "l_inf",
                       box: bool = True) -> AttackResult:
    """Exhaustive search: margin-best grid point plus an any-misclassified flag."""
    x = np.asarray(x, dtype=np.float64)
    pts = grid_points(x, epsilon, resolution, norm, box)
    logits, margins = _grid_eval(spec, params, pts, y)
    m = margins.copy()
    m[:, int(y)] = -np.inf
    best_per_pt = m.max(axis=1)
    idx = int(np.argmax(best_per_pt))
    j_star = int(np.argmax(m[idx]))
    return AttackResult(
        eta_star=pts[idx] - x,
        j_star=j_star,
        margin_value=float(best_per_pt[idx]),
        success=bool((np.argmax(logits, axis=1) != int(y)).any()),
        per_class_margins=margins[idx],
    )


def grid_margin_per_class(spec: ModelSpec, params: ParamSet, x, y: int,
                          epsilon: float, resolution: int, norm: str = "l_inf",
                          box: bool = True):
    """Best grid margin and maximizer for each wrong class separately."""
    x = np.asarray(x, dtype=np.float64)
    pts = grid_points(x, epsilon, resolution, norm, box)
    _, margins = _grid_eval(spec, params, pts, y)
    out = {}
    for j in range(spec.class_count):
        if j == int(y):
            continue
        idx = int(np.argmax(margins[:, j]))
        out[j] = (pts[idx] - x, float(margins[idx, j]))
    return out


def grid_max_cross_entropy(spec: ModelSpec, params: ParamSet, x, y: int,
                           epsilon: float, resolution: int, norm: str = "l_inf",
                           box: bool = True):
    """Grid maximizer of the cross-entropy surrogate; (eta, loss value)."""
    x = np.asarray(x, dtype=np.float64)
    pts = grid_points(x, epsilon, resolution, norm, box)
    logits, _ = _grid_eval(spec, params, pts, y)
    ces = cross_entropy_rows(logits, np.full(len(pts), int(y)))[0]
    idx = int(np.argmax(ces))
    return pts[idx] - x, float(ces[idx])
