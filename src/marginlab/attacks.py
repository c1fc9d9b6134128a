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
own seed and matmuls, so results are bit-identical to one slot at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelSpec, ParamSet, forward_logits
from .objectives import cross_entropy, zero_one_error
from .optim import KINDS, OptimState, step
from .tensor import Tensor, reshape, sub, take_per_row, tsum

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
    margins = logits - logits[int(y)]
    m = margins.copy()
    m[int(y)] = -np.inf
    j_star = int(np.argmax(m))
    return AttackResult(
        eta_star=np.asarray(eta, dtype=np.float64),
        j_star=j_star,
        margin_value=float(m[j_star]),
        success=bool(zero_one_error(logits, y)),
        per_class_margins=margins,
    )


# -- feasible set --------------------------------------------------------------


def project(x: np.ndarray, candidate: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """Map a candidate point back into the ball around x (and the unit box)."""
    x = np.asarray(x, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if x.shape != candidate.shape:
        raise ValueError("x and candidate shapes differ")
    if cfg.norm == "l_inf":
        lo, hi = x - cfg.epsilon, x + cfg.epsilon
        if cfg.box:
            lo, hi = np.maximum(lo, 0.0), np.minimum(hi, 1.0)
        return np.clip(candidate, lo, hi)
    eta = candidate - x
    norms = np.linalg.norm(eta, axis=-1, keepdims=True)
    scale = np.where(norms > cfg.epsilon, cfg.epsilon / np.maximum(norms, 1e-300), 1.0)
    out = x + eta * scale
    if cfg.box:
        # x is in the box, so clamping only moves coordinates toward x and
        # cannot grow the perturbation norm
        out = np.clip(out, 0.0, 1.0)
    return out


def _uniform_start(x: np.ndarray, cfg: AttackConfig, seed) -> np.ndarray:
    """A feasible random start around x[n,d], drawn from seed (cfg.seed if None)."""
    seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence((int(seed),)))
    lo, hi = x - cfg.epsilon, x + cfg.epsilon
    if cfg.box:
        lo, hi = np.maximum(lo, 0.0), np.minimum(hi, 1.0)
    start = rng.uniform(lo, hi)
    return project(x, start, cfg)


# -- projected ascent, per-class margin ascent ---------------------------------


def _ascend(spec, params, X, cfg, start, objective, optimizer):
    """Projected ascent on a per-row objective(logits[..., n, K]) -> [..., n],
    from the random start that start() draws; the one loop behind every
    iterative attack.  X is a batch [n,d] or a stack [m,n,d] of problems
    (a broadcast view is fine); `optimizer` is used when cfg names none.

    Returns (etas[..., n, d], values[..., n], clean_logits[..., n, K]): per
    row the best candidate evaluated (clean point, random start, every
    iterate) and its objective value, plus the logits at the clean point.
    Each iterate's value comes from the forward pass built for its gradient.
    """
    clean = forward_logits(spec, params, X)
    # keep only the clean logits' values: the graph holds every activation
    best_pts, best_vals, clean = X.copy(), objective(clean).data, clean.data

    def keep(pts, vals):
        improved = vals > best_vals
        best_vals[improved] = vals[improved]
        best_pts[improved] = pts[improved]

    if cfg.epsilon > 0 and cfg.steps > 0:
        pts = start()
        opt = OptimState(cfg.optimizer or optimizer, resolve_step_size(cfg))
        for _ in range(cfg.steps):
            pert = Tensor(pts, requires_grad=True)
            vals = objective(forward_logits(spec, params, pert))
            tsum(vals).backward()
            keep(pts, vals.data)
            pts = project(X, step(opt, pts, pert.grad, direction="ascend"), cfg)
        keep(pts, objective(forward_logits(spec, params, pts)).data)
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


def _slot_groups(spec, X, y, base):
    """Per group of wrong-class slots, in slot order, the targeted_ascent_batch
    arguments (rows[m*n,d] = m copies of X[n,d], labels, targets, seeds[m]);
    slot s is seeded base*(K-1)+s."""
    n, d = X.shape
    k = spec.class_count
    wrong = _wrong_class_table(y, k)
    size = max(1, _GROUP_ELEMS // max(1, n * max(d, *spec.hidden, k)))
    for first in range(0, k - 1, size):
        m = min(size, k - 1 - first)
        yield (np.tile(X, (m, 1)) if m > 1 else X, np.tile(y, m),
               wrong[:, first:first + m].T.ravel(),
               [int(base) * (k - 1) + s for s in range(first, first + m)])


def _slots_of(m, *flat):
    """Per-slot tuples of a group's flat [m*n, ...] results."""
    return zip(*(a.reshape(m, len(a) // m, *a.shape[1:]) for a in flat))


def _fold_slots(slots, best=None):
    """Fold (targets, etas, margins) slots into the running best (etas,
    j_stars, margins), started when best is None; strict > keeps the lower
    class index on ties."""
    for targets, etas, margins in slots:
        if best is None:
            best = (np.zeros_like(etas), np.zeros_like(targets),
                    np.full_like(margins, -np.inf))
        improved = margins > best[2]
        for kept, new in zip(best, (etas, targets, margins)):
            kept[improved] = new[improved]
    return best


def targeted_ascent_batch(spec: ModelSpec, params: ParamSet, X: np.ndarray,
                          y: np.ndarray, targets: np.ndarray, cfg: AttackConfig,
                          seed=None):
    """Projected ascent on logits[target] - logits[y] for a whole batch.

    Returns (etas[n,d], margins[n]) for the best iterate each row has seen;
    the clean point and the random start are both in the candidate set.
    A list of m seeds splits the rows into m equal blocks on a slot axis:
    each block draws its start from its own seed and gets its own matmuls,
    so the result has the bits of m calls, one per block.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    if np.any(targets == y):
        raise ValueError("target class must differ from the true class")
    seeds = list(seed) if np.ndim(seed) else [seed]
    stack = X.reshape(len(seeds), len(X) // len(seeds), X.shape[1])

    # flatten only the logits: [m*n, d] rows can change a matmul's bits
    def margin(logits):
        flat = reshape(logits, (-1, logits.shape[-1]))
        return reshape(sub(take_per_row(flat, targets), take_per_row(flat, y)),
                       stack.shape[:2])

    # drawn in _ascend, whose first step frees it; one block is not copied
    def start():
        starts = [_uniform_start(x, cfg, s) for x, s in zip(stack, seeds)]
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
                      y: np.ndarray, cfg: AttackConfig, seed=None):
    """Per-class margin ascent for every wrong class, then the best class.

    Returns (etas[n,d], j_stars[n], margins[n]).  The K-1 target slots run
    in groups on a slot axis while m*n*max(d, hidden..., K) <= 2**15, each
    slot with exactly the bits of a serial targeted_ascent_batch on its own
    seed; a group is folded in and dropped before the next one runs.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    best = None
    for rows, labels, targets, seeds in _slot_groups(
            spec, X, y, cfg.seed if seed is None else seed):
        etas, margins = targeted_ascent_batch(spec, params, rows, labels, targets,
                                              cfg, seed=seeds)
        best = _fold_slots(_slots_of(len(seeds), targets, etas, margins), best)
    return best


def beta_attack(spec: ModelSpec, params: ParamSet, x, y: int,
                cfg: AttackConfig, seed=None) -> AttackResult:
    """Best-over-classes margin attack on a single sample."""
    etas, _, _ = beta_attack_batch(spec, params, np.atleast_2d(x),
                                   np.array([y]), cfg, seed=seed)
    return _result_at(spec, params, np.asarray(x, dtype=np.float64), y, etas[0])


# -- surrogate baselines -------------------------------------------------------


def fgsm(spec: ModelSpec, params: ParamSet, x, y: int,
         cfg: AttackConfig) -> AttackResult:
    """Single epsilon-sized sign step on the cross-entropy gradient."""
    if cfg.norm != "l_inf":
        raise ValueError("fgsm is defined for the l_inf norm only")
    x = np.asarray(x, dtype=np.float64)
    clean_logits = forward_logits(spec, params, x).data[0]
    if zero_one_error(clean_logits, y):
        return _result_at(spec, params, x, y, np.zeros_like(x))
    pert = Tensor(x[None, :], requires_grad=True)
    loss = tsum(cross_entropy(forward_logits(spec, params, pert), np.array([y])))
    loss.backward()
    candidate = x + cfg.epsilon * np.sign(pert.grad[0])
    eta = project(x, candidate, cfg) - x
    return _result_at(spec, params, x, y, eta)


def pgd_surrogate_batch(spec: ModelSpec, params: ParamSet, X: np.ndarray,
                        y: np.ndarray, cfg: AttackConfig, seed=None):
    """Projected ascent on cross-entropy with a random start; returns etas.

    Rows misclassified at the clean point keep eta=0; the others return the
    highest-loss candidate evaluated.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    etas, _, clean_logits = _ascend(
        spec, params, X, cfg, lambda: _uniform_start(X, cfg, seed),
        lambda logits: cross_entropy(logits, y), "sign_sgd")
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
    """(errors[n], margins[n, K]) over grid points, evaluated in chunks."""
    outs_err, outs_m = [], []
    for lo in range(0, pts.shape[0], chunk):
        logits = forward_logits(spec, params, pts[lo:lo + chunk]).data
        margins = logits - logits[:, [int(y)]]
        errs = np.argmax(logits, axis=1) != int(y)
        outs_err.append(errs)
        outs_m.append(margins)
    return np.concatenate(outs_err), np.concatenate(outs_m)


def grid_oracle_attack(spec: ModelSpec, params: ParamSet, x, y: int,
                       epsilon: float, resolution: int, norm: str = "l_inf",
                       box: bool = True) -> AttackResult:
    """Exhaustive search: margin-best grid point plus an any-misclassified flag."""
    x = np.asarray(x, dtype=np.float64)
    pts = grid_points(x, epsilon, resolution, norm, box)
    errors, margins = _grid_eval(spec, params, pts, y)
    m = margins.copy()
    m[:, int(y)] = -np.inf
    best_per_pt = m.max(axis=1)
    idx = int(np.argmax(best_per_pt))
    j_star = int(np.argmax(m[idx]))
    return AttackResult(
        eta_star=pts[idx] - x,
        j_star=j_star,
        margin_value=float(best_per_pt[idx]),
        success=bool(errors.any()),
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
    ces = []
    for lo in range(0, pts.shape[0], 65536):
        chunk = pts[lo:lo + 65536]
        labels = np.full(chunk.shape[0], int(y))
        ces.append(cross_entropy(forward_logits(spec, params, chunk), labels).data)
    ces = np.concatenate(ces)
    idx = int(np.argmax(ces))
    return pts[idx] - x, float(ces[idx])
