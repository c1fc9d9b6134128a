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

BETA's K-1 per-class problems (slots) are independent.  beta_attack_batch
holds the one loop over them and the one fold, for training and evaluation
alike.  Each row takes its slots most confusable first, by clean margin.
Every targeted_ascent_batch call runs a flat batch of (row, slot) pairs,
[pairs, d] with one target each, and each pair starts from its row of its
slot's whole-batch draw, whichever call it runs in.  The first call holds
every row's first m ranks, while m*rows*max(d, hidden..., K) <= 2**15.  A
linear relaxation of each ReLU (Wong & Kolter 2018, CROWN) bounds every
margin over the whole feasible set, at about one backward pass per slot
(_margin_bounds); it is exact for linear models, covers one hidden layer,
and settles nothing deeper.  After the first call, a later slot whose bound
is below the row's best margin so far can neither win nor tie its fold, so
it is dropped; the pairs left run rank by rank, in calls of at most
max(n, 2**15 // max(d, hidden..., K)) pairs.  A call's pair count can move
a margin in its last bits.  Under a mask live (robust accuracy) only its
rows are attacked, and all of a row's pairs in a call leave on the first
ascent step that gives one of them a margin > 0, before that step's
backward pass, since its verdict is then known; after the first call the
rows still unbroken are bounded, and a row whose bounds are all < 0 is
certified and leaves.  evaluate_robust bounds the rows correct at x before
PGD or BETA runs and attacks only the rows left unproved (live).  Given a
slots array (sbeta_at, whose defender weighs every slot), nothing is
dropped and the loop hands back every slot's etas.
No attack builds an autodiff graph: the loop, FGSM, the grid oracles and
single-sample results run the models.forward/backward kernel on per-row
(values, gradient) objectives, with the graph's bits.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .data import EVAL, check_numbers, stream
from .models import ModelSpec, backward, forward
from .models import forward_logits  # unused: perfbench's tracer wraps this binding
from .objectives import cross_entropy  # unused: perfbench's tracer wraps this binding
from .objectives import (check_classes, cross_entropy_rows, margin_rows,
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
        if self.step_size is not None and not (np.isfinite(self.step_size)
                                               and self.step_size > 0):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
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


def _result_at(spec, params, x, y, eta) -> AttackResult:
    logits = forward(spec, params, np.atleast_2d(x + eta))[0][0]
    return AttackResult(np.asarray(eta, dtype=np.float64),
                        *max_margin_over_classes(logits, y),
                        success=bool(zero_one_error(logits, y)))


# -- feasible set --------------------------------------------------------------


def _linf_bounds(x, cfg: AttackConfig):
    """(lo, hi): the l_inf ball around x, cut to the unit box when cfg.box."""
    lo, hi = x - cfg.epsilon, x + cfg.epsilon
    if cfg.box:
        np.maximum(lo, 0.0, out=lo)
        np.minimum(hi, 1.0, out=hi)
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


def _check_live(live, n):
    """A mask live of the rows to attack is a bool array [n]: an int mask
    would index rows, and a shorter one broadcast."""
    if live is not None and not (isinstance(live, np.ndarray) and live.dtype == bool
                                 and live.shape == (n,)):
        raise ValueError(f"live must be a bool array of shape ({n},)")


def _key(seed, cfg: AttackConfig, slot=0) -> tuple:
    """The stream key of one slot of an attack: seed is the (seed, kind,
    epoch, step) run_training passes, or an int (cfg.seed when None) for EVAL."""
    return (*(seed if isinstance(seed, tuple) else
              (cfg.seed if seed is None else seed, EVAL, 0, 0)), slot)


def _uniform_start(x: np.ndarray, bounds, cfg: AttackConfig, u) -> np.ndarray:
    """A feasible random start around x[n, d] from its bounds =
    _linf_bounds(x, cfg): the uniform [0, 1) draws u, shaped like x, scaled in
    place to [lo, hi) and projected onto the ball.  With u a generator's
    random(x.shape) this has the bits of its uniform(lo, hi)."""
    lo, hi = bounds
    u *= hi - lo
    u += lo
    if cfg.norm == "l_inf":
        return np.clip(u, lo, hi, out=u)
    return project(x, u, cfg)


# a gap of more draws than this is jumped with advance, not drawn through:
# 512 doubles take ~1.5 us to draw, about one advance and one more call
_SKIP = 512


def _gather(gen, rows, out):
    """Fill out[len(rows), d] with rows `rows` (ascending) of
    gen.random((N, d)), for any N > rows[-1], with its exact bits: PCG64's
    random takes one 64-bit output per double, so runs of wanted rows are
    drawn and gaps of more than _SKIP doubles jumped with advance."""
    d, jump = out.shape[1], _SKIP // out.shape[1]
    starts = np.flatnonzero(np.diff(rows, prepend=-np.inf) > jump + 1).tolist()
    pos = 0  # the row gen draws next
    for i, j in zip(starts, [*starts[1:], len(rows)]):
        if rows[i] - pos > jump:
            gen.bit_generator.advance(int(rows[i] - pos) * d)
            pos = rows[i]
        last = rows[j - 1] + 1
        if last - pos == j - i:
            gen.random(out=out[i:j])
        else:
            out[i:j] = gen.random((last - pos, d))[rows[i:j] - pos]
        pos = last


def _slot_draws(seed, cfg: AttackConfig, shape):
    """draw(slot[p], rows[p]) -> u[p, d] for a batch of shape[1] rows and
    shape[0] slots: pair j gets row rows[j] of
    stream(*_key(seed, cfg, slot[j])).random(shape[1:]), with its bits,
    whatever was drawn before; a slot holds a row at most once per call.  A
    batch of at most _GROUP_ELEMS numbers keeps every slot's whole draw; for
    a larger one each slot's generator is built once, restarted from its
    saved state and its rows gathered in ascending order.  Gathering at every
    size costs a small batch a restore and a gather per slot in each call:
    on the 2-D desk benchmark (2 vCPUs) that read eval_s.beta 1.26x and
    epoch_s.beta_at 1.24x, slower in 8 of 8 pairs."""
    n_slots, n, d = shape
    if n * d <= _GROUP_ELEMS:  # at most 2.4 MB for 10 classes; one fancy index a call
        kept = np.empty(shape)
        for s in range(n_slots):
            stream(*_key(seed, cfg, s)).random(out=kept[s])
        return lambda slot, rows: kept[slot, rows]
    gens = {}

    def draw(slot, rows):
        u = np.empty((len(rows), d))
        for s in np.unique(slot).tolist():
            if s not in gens:
                gen = stream(*_key(seed, cfg, s))
                gens[s] = gen, gen.bit_generator.state
            gen, state = gens[s]
            gen.bit_generator.state = state
            cols = np.flatnonzero(slot == s)
            cols = cols[np.argsort(rows[cols], kind="stable")]  # _gather's rows ascend
            part = np.empty((len(cols), d))
            _gather(gen, rows[cols], part)
            u[cols] = part
        return u
    return draw


# -- projected ascent, per-class margin ascent ---------------------------------


def _ascend(spec, params, X, cfg, start, objective, optimizer, best_vals,
            retire=None):
    """Projected ascent on a per-row objective(logits[n, K]) -> (values[n],
    dvalues/dlogits) through models.forward/backward, from the start that
    start(_linf_bounds(X, cfg)) draws; the one loop behind every iterative
    attack.  X is a batch [n, d]; `optimizer` is used when cfg names none;
    best_vals, the objective at X (the clean candidate), is overwritten.

    Returns (etas[n, d], values[n]): per row the best candidate evaluated
    (clean point, random start, every iterate) and its objective value.
    Each iterate's value comes from the forward pass built for its gradient.
    Given retire = (ids[n], objective_on(rows) -> the objective on those rows
    of X), every row of an id leaves on the first step whose iterate makes
    one of that id's best values > 0, with its best candidate so far, before
    that step's backward pass.
    """
    best_pts, gone = X.copy(), []  # gone: (rows, etas, values) of rows that left
    d = X.shape[1]

    def keep(pts, vals):
        improved = vals > best_vals
        # a masked copy costs the same however few rows improve, a row
        # copied by index about 64 + d masked numbers: index only when few
        if 2 * np.count_nonzero(improved) * (d + 64) < improved.size * d:
            best_vals[improved] = vals[improved]
            best_pts[improved] = pts[improved]
        else:
            np.copyto(best_vals, vals, where=improved)
            np.copyto(best_pts, pts, where=improved[:, None])

    if cfg.epsilon > 0 and cfg.steps > 0:
        bounds = _linf_bounds(X, cfg)
        pts = start(bounds)
        opt = OptimState(cfg.optimizer or optimizer, resolve_step_size(cfg))
        rows = np.arange(len(X))  # the call's rows still ascending
        if retire is not None:
            ids, objective_on = retire
            broke = np.zeros(ids.max(initial=-1) + 1, bool)  # by id
        for _ in range(cfg.steps):
            logits, cache = forward(spec, params, pts)
            vals, dlogits = objective(logits)
            keep(pts, vals)
            if retire is not None:
                # only ids that broke on this iterate: the others left
                broke[ids[best_vals > 0]] = True
                left = broke[ids]
                if left.any():  # they leave before this step's backward pass
                    out, stay = np.flatnonzero(left), np.flatnonzero(~left)
                    gone.append((rows[out], best_pts[out] - X[out], best_vals[out]))
                    # one copy at a time, each source freed as it is replaced; the
                    # input gradient reads only the ReLU masks of the cache
                    cache = ((), [mask[stay] for mask in cache[1]])
                    dlogits = dlogits[stay]
                    X, pts, best_pts = X[stay], pts[stay], best_pts[stay]
                    bounds = tuple(b[stay] for b in bounds)
                    for key in opt.slots:
                        opt.slots[key] = opt.slots[key][stay]
                    best_vals, rows, ids = best_vals[stay], rows[stay], ids[stay]
                    objective = objective_on(rows)
                    if not len(rows):
                        break
            # step returns a fresh array, so the clip may write into it
            pts = step(opt, pts, backward(params, cache, dlogits), direction="ascend")
            pts = (np.clip(pts, *bounds, out=pts) if cfg.norm == "l_inf"
                   else project(X, pts, cfg))
        else:
            keep(pts, objective(forward(spec, params, pts)[0])[0])
    if not gone:
        return best_pts - X, best_vals
    gone.append((rows, best_pts - X, best_vals))
    etas = np.empty((sum(len(r) for r, _, _ in gone), X.shape[1]))
    values = np.empty(len(etas))
    for r, e, v in gone:
        etas[r], values[r] = e, v
    return etas, values


def wrong_classes(y, k):
    """[n, K-1]: slot s of row i is the s-th smallest class index != y[i];
    the one statement of BETA's slot order."""
    slots = np.arange(k - 1)
    return slots + (slots >= np.asarray(y, dtype=np.intp)[:, None])


# 2**15 float64s is 256 KB per activation.  On 2-D MLP-16 BETA calls the
# first calls this allows (m ranks of every row) made 400- to 1000-row
# batches 7-42% faster, while 2-3 slots of a 2000-row batch moved -6% to +9%
# and 9 slots lost 25-32%; all K-1 slots of a 2000x784 batch ran 15% slower
# in one call than one by one (measured when a call stacked its ranks).
# Later calls hold max(n, this // width) pairs; with no cap a 784-d fold
# moved a margin's last bit.  A batch of at most this many numbers also
# keeps each slot's whole random draw for the call (_slot_draws).
_GROUP_ELEMS = 2 ** 15


def targeted_ascent_batch(spec: ModelSpec, params: dict, X: np.ndarray,
                          y: np.ndarray, targets: np.ndarray, cfg: AttackConfig,
                          seed=None, draw=None, clean=None, retire=None):
    """Projected ascent on logits[target] - logits[y] for a flat batch of
    pairs X[p, d], y[p] and targets[p].  Returns (etas[p, d], margins[p])
    for the best candidate each pair has seen: the clean point, the random
    start and every iterate.  The start draws
    stream(*_key(seed, cfg)).random(X.shape), or draw() gives those uniform
    draws; clean, the margins at X, saves their forward pass.  Given retire,
    each pair's row id [p], all of a row's pairs leave on the first step
    that gives one of them a best margin > 0, before that step's backward
    pass, and keep their best candidates up to that step.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    if np.any(targets == y):
        raise ValueError("target class must differ from the true class")

    def margin(rows=slice(None)):
        t = targets[rows]
        return margin_rows(y[rows], t, spec.class_count, t.shape)

    objective = margin()
    clean = (objective(forward(spec, params, X)[0])[0] if clean is None
             else np.array(clean, dtype=np.float64))
    draw = draw or (lambda: stream(*_key(seed, cfg)).random(X.shape))
    # drawn in _ascend, whose first step frees it
    return _ascend(spec, params, X, cfg,
                   lambda bounds: _uniform_start(X, bounds, cfg, draw()),
                   objective, "rmsprop", clean,
                   None if retire is None else (np.asarray(retire, np.intp), margin))


def targeted_margin_ascent(spec: ModelSpec, params: dict, x, y: int,
                           j: int, cfg: AttackConfig, seed=None):
    """(eta, margin) for a single sample and a single target class."""
    etas, margins = targeted_ascent_batch(
        spec, params, np.atleast_2d(x), np.array([y]), np.array([j]), cfg,
        seed=seed)
    return etas[0], float(margins[0])


# rows per chunk of the bounds, which relax one chunk's ReLUs at a time:
# [rows, K-1, H] margin coefficients of at most this many numbers (512 KB;
# their image in the input is d/H times as large).  With 2**20 numbers of
# [rows, K-1, max(d, H)], held inside an ascent, the 784-d MLP-256 training
# benchmark peaked at 156-157 MB against 150.6 MB.  With 2**15, desk
# eval_s.pgd read +16% in 10 of 10 pairs: glibc's mmap threshold, which freed
# chunks raise, stayed below its 256 KB activations, mapped afresh each time.
_CERT_ELEMS = 2 ** 16


def _margin_bounds(spec, params, X, y, cfg: AttackConfig):
    """U[n, K-1]: for each row of X and wrong class, in slot order
    (wrong_classes), a value that no margin logits[j] - logits[y] computed at
    a feasible point reaches, from the linear relaxation of Wong & Kolter
    2018 and CROWN (Zhang et al. 2018).  The row is certified, unbroken by
    any feasible point, iff every U < 0.

    The pre-activations of a hidden layer are bounded exactly over the l_inf
    box _linf_bounds(X, cfg), or over the l2 ball (the box ignored: it only
    shrinks the set).  Each unstable ReLU, lower < 0 < upper, is bounded
    above by its chord where the margin's coefficient is >= 0 and below by
    0 or z (the line nearer the ReLU) where it is < 0, so each wrong class's
    margin gets a bound linear in the input, maximised in closed form over
    the set.  U is that bound + tau, tau = 1e-9 * (1 + the magnitudes of the
    two logits' terms), which dominates the float64 rounding of the bound and
    of the forward pass, so a margin of exactly 0 anywhere (tied classes)
    has U > 0.  A linear model's bound is its exact maximum; a model of two
    or more hidden layers gets U = +inf.
    """
    n, k = len(X), spec.class_count
    if len(spec.hidden) > 1:
        return np.full((n, k - 1), np.inf)
    w, b = params[f"w{len(spec.hidden)}"], params[f"b{len(spec.hidden)}"]
    w0, b0 = params["w0"], params["b0"]  # a linear model's output layer
    w0_abs = np.abs(w0)
    w0_sum = w0_abs.sum(axis=0)
    radius = cfg.epsilon * np.linalg.norm(w0, axis=0) if cfg.norm == "l2" else None
    wrong, out = wrong_classes(y, k), np.empty((n, k - 1))
    step = max(1, _CERT_ELEMS // ((k - 1) * len(w)))
    for s in range(0, n, step):
        i = slice(s, s + step)
        if cfg.norm == "l_inf":
            lo, hi = _linf_bounds(X[i], cfg)
            base, rad = (lo + hi) * 0.5, (hi - lo) * 0.5
            reach = np.abs(base).max(axis=1) + rad.max(axis=1)  # >= |x'| anywhere
        else:
            base, rad = X[i], None
            reach = np.abs(base).max(axis=1) + cfg.epsilon
        # size[rows, K] >= the sum of |terms| of each logit at any feasible point
        size = np.outer(reach, w0_sum)
        a = w.T[wrong[i]]  # [rows, K-1, H]: margin = a . h + db
        a -= w.T[y[i]][:, None]
        bound = b[wrong[i]] - b[y[i]][:, None]
        if spec.hidden:
            z = base @ w0 + b0
            r = radius if rad is None else rad @ w0_abs  # the intervals' radii
            lower, upper = z - r, z + r
            unstable = (lower < 0) & (upper > 0)
            chord = np.divide(upper, upper - lower, out=(lower >= 0) * 1.0, where=unstable)
            line = (lower >= 0) | unstable & (upper >= -lower)  # lower line: z (1) or 0
            shift = np.where(unstable, -lower, 0.0)  # upper line: chord * (z + shift)
            size = (size + np.abs(b0)) @ np.abs(w)
            a *= np.where(a >= 0, chord[:, None], line[:, None])
            bound += (np.maximum(a, 0) @ shift[:, :, None])[..., 0]
            coef = (a.reshape(-1, a.shape[2]) @ w0.T).reshape(*a.shape[:2], -1)
        else:
            z, coef = base, a
        size += np.abs(b)
        bound += (a @ z[:, :, None])[..., 0]
        bound += (cfg.epsilon * np.linalg.norm(coef, axis=2) if rad is None
                  else (np.abs(coef, out=coef) @ rad[:, :, None])[..., 0])
        rows = np.arange(len(size))[:, None]
        out[i] = 1e-9 * (1 + size[rows, wrong[i]] + size[rows, y[i, None]])  # tau
        out[i] += bound
    return out


def beta_attack_batch(spec: ModelSpec, params: dict, X: np.ndarray,
                      y: np.ndarray, cfg: AttackConfig, seed=None, live=None,
                      slots=None, logits=None):
    """Per-class margin ascent for every wrong class, then the best class:
    (etas[n,d], j_stars[n], margins[n]), the lowest class on equal margins.
    The one loop over BETA's slots: slot s of row i targets column s of
    wrong_classes(y, K) and starts from row i of the whole-batch draw keyed
    _key(seed, cfg, s), whichever call it runs in.  Each row takes its
    slots most confusable first (largest clean margin, the lower slot on
    ties), as flat (row, rank) pairs in targeted_ascent_batch calls.  The
    first call holds every row's first m ranks, rank by rank, while
    m*rows*max(d, hidden..., K) <= _GROUP_ELEMS.  The clean logits are
    computed once, or passed as logits[n,K].  After the first call the full
    fold bounds every pair (_margin_bounds; no bound for two or more hidden
    layers) and drops each later pair whose bound is below the row's best
    margin, since it can neither win nor tie the fold.  The pairs left run
    rank by rank, rows ascending within a rank, in calls of at most
    max(n, _GROUP_ELEMS // max(d, hidden..., K)) pairs, whose pair counts
    can move a margin in its last bits.  An array slots[K-1,n,d] (not with
    live) receives each slot's etas, and then nothing is dropped.
    A mask live (a bool array [n]) attacks only its rows and retires each
    row on the first ascent step that gives one of its pairs a margin > 0,
    before its backward pass: it returns that step's best candidate, and rows
    never attacked keep eta 0, j* 0 and margin -inf.  Under live the bounds
    run after the first call too (not with cfg.steps 0), on the rows it left
    unbroken: a row whose bounds are all < 0 is certified and leaves with its
    best candidate, its margin <= 0, and each later slot whose bound is below
    the row's best margin is dropped.  The open slots run first and a row
    leaves once none are left, so the best class, its eta and the verdict
    are the full fold's."""
    if live is not None and slots is not None:  # live leaves unattacked rows' slots unset
        raise ValueError("beta_attack_batch takes live or slots, not both")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    (n, d), k = X.shape, spec.class_count
    check_classes(k, y)
    _check_live(live, n)
    wrong = wrong_classes(y, k)
    best = (np.zeros(X.shape), np.zeros(n, np.intp), np.full(n, -np.inf))
    logits = forward(spec, params, X)[0] if logits is None else logits
    rows = np.arange(n)
    clean = logits[rows[:, None], wrong] - logits[rows, y][:, None]  # [n, K-1] margins
    order = np.argsort(-clean, axis=1, kind="stable")
    draw = _slot_draws(seed, cfg, (k - 1, n, d))
    full, live = live is None, np.ones(n, bool) if live is None else live.copy()
    stop = np.full(n, k - 1)  # each row runs its ranks below stop
    width = max(d, *spec.hidden, k)

    def fold(at, etas, targets, margins):
        # pairs of distinct rows against each row's best so far: the lower
        # class on equal margins, and a NaN never wins
        kept_m = best[2][at]
        better = (margins > kept_m) | ((margins == kept_m) & (targets < best[1][at]))
        for kept, value in zip(best, (etas, targets, margins)):
            kept[at[better]] = value[better]
    at = np.flatnonzero(live)
    m = min(k - 1, max(1, _GROUP_ELEMS // (max(len(at), 1) * width)))  # the first call's ranks
    ranks, pairs = np.arange(m).repeat(len(at)), np.tile(at, m)
    cap, first = len(pairs), True
    while len(pairs):
        at, rank = pairs[:cap], ranks[:cap]
        targets = wrong[at, slot_of := order[at, rank]]
        etas, margins = targeted_ascent_batch(
            spec, params, X if np.array_equal(at, rows) else X[at], y[at], targets, cfg,
            draw=lambda: draw(slot_of, at), clean=clean[at, slot_of],
            retire=None if full else at)
        if slots is not None:
            slots[slot_of, at] = etas
        for r in range(rank[0], rank[-1] + 1):  # rank-major: a rank holds a row once
            p = rank == r
            fold(at[p], etas[p], targets[p], margins[p])
        if not full:
            live[at[margins > 0]] = False
        if first:  # bound once, then every open later pair, rank-major
            if slots is None and m < k - 1 and (full or cfg.steps):
                i = np.flatnonzero(live)
                bounds = _margin_bounds(spec, params, X if full else X[i], y[i], cfg)
                # a later rank whose bound is < g, the row's best margin (+inf
                # for a row live certifies), can neither win nor tie the fold:
                # it moves past the row's stop
                g = best[2][i] if full else np.where((bounds < 0).all(axis=1), np.inf,
                                                     best[2][i])
                later = order[i, m:]
                shut = np.take_along_axis(bounds, later, axis=1) < g[:, None]
                order[i, m:] = np.take_along_axis(
                    later, np.argsort(shut, axis=1, kind="stable"), axis=1)
                stop[i] -= shut.sum(axis=1)
            ranks, pairs = np.nonzero(np.arange(m, k - 1)[:, None] < stop)
            ranks += m
            cap, first = max(n, _GROUP_ELEMS // width), False
        else:
            ranks, pairs = ranks[cap:], pairs[cap:]
        still = live[pairs]  # a row broken in an earlier call runs no more pairs
        ranks, pairs = ranks[still], pairs[still]
    return best


def beta_attack(spec: ModelSpec, params: dict, x, y: int,
                cfg: AttackConfig, seed=None) -> AttackResult:
    """Best-over-classes margin attack on a single sample."""
    etas, _, _ = beta_attack_batch(spec, params, np.atleast_2d(x),
                                   np.array([y]), cfg, seed=seed)
    return _result_at(spec, params, np.asarray(x, dtype=np.float64), y, etas[0])


# -- surrogate baselines -------------------------------------------------------


def fgsm_batch(spec: ModelSpec, params: dict, X: np.ndarray,
               y: np.ndarray, cfg: AttackConfig, clean=None):
    """One epsilon-sized sign step on the cross-entropy gradient; returns etas.

    Rows misclassified at the clean point keep eta=0.  clean, the (logits,
    cache) of models.forward at X when the caller has them, saves that pass.
    """
    if cfg.norm != "l_inf":
        raise ValueError("fgsm is defined for the l_inf norm only")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    logits, cache = forward(spec, params, X) if clean is None else clean
    grad = backward(params, cache, cross_entropy_rows(logits, y)[1])
    etas = project(X, X + cfg.epsilon * np.sign(grad), cfg) - X
    etas[np.argmax(logits, axis=1) != y] = 0.0
    return etas


def fgsm(spec: ModelSpec, params: dict, x, y: int,
         cfg: AttackConfig) -> AttackResult:
    """Single epsilon-sized sign step on a single sample."""
    etas = fgsm_batch(spec, params, np.atleast_2d(x), np.array([y]), cfg)
    return _result_at(spec, params, np.asarray(x, dtype=np.float64), y, etas[0])


def pgd_surrogate_batch(spec: ModelSpec, params: dict, X: np.ndarray,
                        y: np.ndarray, cfg: AttackConfig, seed=None, logits=None,
                        live=None):
    """Projected ascent on cross-entropy with a random start; returns etas.

    Rows misclassified at the clean point keep eta=0; the others return the
    highest-loss candidate evaluated.  logits[n,K], the clean logits when
    the caller has them, saves their forward pass.  Under a mask live only its
    rows correct at x are attacked, each from its row of the whole-batch draw;
    when those are all rows correct at x, the call is the plain one (no copies).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    _check_live(live, len(X))
    clean_logits = forward(spec, params, X)[0] if logits is None else logits
    wrong = np.argmax(clean_logits, axis=1) != y
    rows = None if live is None or (live | wrong).all() else np.flatnonzero(live & ~wrong)
    part, yp, lp = (X, y, clean_logits) if rows is None else (
        X[rows], y[rows], clean_logits[rows])

    def start(bounds):
        gen = stream(*_key(seed, cfg))
        if rows is None:
            return _uniform_start(X, bounds, cfg, gen.random(X.shape))
        _gather(gen, rows, u := np.empty(part.shape))
        return _uniform_start(part, bounds, cfg, u)
    found, _ = _ascend(spec, params, part, cfg, start,
                       lambda logits: cross_entropy_rows(logits, yp), "sign_sgd",
                       cross_entropy_rows(lp, yp)[0])
    etas = found if rows is None else np.zeros(X.shape)
    if rows is not None:
        etas[rows] = found
    etas[wrong] = 0.0
    return etas


def pgd_surrogate(spec: ModelSpec, params: dict, x, y: int,
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
    return AttackResult(eta_star=eta, j_star=j_star, margin_value=margin,
                        success=bool(zero_one_error(logits, y)))


def check_resolution(resolution) -> None:
    """A grid resolution is an int >= 1 (a bool is not)."""
    if isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral):
        raise ValueError(f"grid resolution must be int, got {resolution!r}")
    if resolution < 1:
        raise ValueError(f"grid resolution must be >= 1, got {resolution}")


def check_grid_dim(d) -> None:
    """A grid oracle enumerates (2*resolution+1)^d points: d <= 3 only."""
    if d > 3:
        raise ValueError(f"grid oracle is limited to d <= 3, got d={d}")


def grid_points(x: np.ndarray, epsilon: float, resolution: int,
                norm: str = "l_inf", box: bool = True) -> np.ndarray:
    """All feasible points of a (2*resolution+1)^d axis grid around x."""
    _check_ball(epsilon, norm)
    check_resolution(resolution)
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    check_grid_dim(d)
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


def grid_oracle_attack(spec: ModelSpec, params: dict, x, y: int,
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
    )


def grid_margin_per_class(spec: ModelSpec, params: dict, x, y: int,
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


def grid_max_cross_entropy(spec: ModelSpec, params: dict, x, y: int,
                           epsilon: float, resolution: int, norm: str = "l_inf",
                           box: bool = True):
    """Grid maximizer of the cross-entropy surrogate; (eta, loss value)."""
    x = np.asarray(x, dtype=np.float64)
    pts = grid_points(x, epsilon, resolution, norm, box)
    logits, _ = _grid_eval(spec, params, pts, y)
    ces = cross_entropy_rows(logits, np.full(len(pts), int(y)))[0]
    idx = int(np.argmax(ces))
    return pts[idx] - x, float(ces[idx])
