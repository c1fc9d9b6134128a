"""Outside-in layer trace for marginlab.

The tracer replaces marginlab's public functions with timing and counting
wrappers for the duration of a ``with`` block, then puts every original
back.  Functions are imported by name across the package (``forward_logits``
lives in four module namespaces, ``step`` is ``opt_step`` in ``training``),
so each span lists every binding site, not just the defining module.  A
binding that a later version of the package no longer has is skipped, and
its metrics read 0.

Times are inclusive busy seconds per span (``attacks.beta_s`` contains the
``attacks.targeted_s`` of its K-1 subproblems, which contain forward and
backward time).  A call that re-enters a span it is already inside is not
counted twice.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# per-layer metrics the traced run reports; count-type ones must repeat exactly
COUNT_METRICS = (
    "tensor.backward_calls", "tensor.graph_nodes",
    "models.forward_calls", "models.forward_rows", "models.ckpt_bytes",
    "optim.attack_step_calls", "optim.attack_step_elems",
    "optim.defender_step_calls",
    "attacks.project_calls", "attacks.targeted_calls",
    "objectives.cross_entropy_calls", "training.batches",
)
TIME_METRICS = (
    "tensor.backward_s", "models.forward_s", "models.ckpt_save_s",
    "models.ckpt_load_s", "optim.attack_step_s", "optim.defender_step_s",
    "attacks.project_s", "attacks.targeted_s", "attacks.beta_s",
    "attacks.pgd_s", "objectives.cross_entropy_s", "training.batch_attack_s",
    "training.monitor_s", "training.defender_s", "data.generate_s",
    "cli.overhead_s", "reports.emit_s",
)
_ATTACK_SPANS = ("attacks.targeted", "attacks.beta", "attacks.pgd")

# slack for floating-point rounding in the perturbation checks
_ETA_TOL = 1e-12


def _sites(ml):
    """span -> binding sites (owner object, attribute name)."""
    m, a, t, c = ml.models, ml.attacks, ml.training, ml.cli
    return {
        "models.forward": [(m, "forward_logits"), (a, "forward_logits"),
                           (t, "forward_logits"), (c, "forward_logits")],
        "models.ckpt_save": [(m, "save_checkpoint"), (c, "save_checkpoint")],
        "models.ckpt_load": [(m, "load_checkpoint"), (c, "load_checkpoint")],
        "optim.attack_step": [(a, "step")],
        "optim.defender_step": [(t, "opt_step")],
        "attacks.project": [(a, "project")],
        "attacks.targeted": [(a, "targeted_ascent_batch"),
                             (t, "targeted_ascent_batch")],
        "attacks.beta": [(a, "beta_attack_batch"), (t, "beta_attack_batch")],
        "attacks.pgd": [(a, "pgd_surrogate_batch"), (t, "pgd_surrogate_batch")],
        "objectives.cross_entropy": [(ml.objectives, "cross_entropy"),
                                     (a, "cross_entropy"), (t, "cross_entropy"),
                                     (c, "cross_entropy")],
        "training.run": [(t, "run_training"), (c, "run_training")],
        "training.predict": [(t, "predict")],
        "data.generate": [(ml.data, "generate_dataset"), (c, "generate_dataset"),
                          (ml.data, "train_val_split"), (t, "train_val_split")],
        "reports.emit": [(ml.reports, "emit_report"), (c, "emit_report")],
        "cli.main": [(c, "main")],
        "tensor.backward": [(ml.tensor.Tensor, "backward")],
        "tensor.topo": [(ml.tensor.Tensor, "_topo")],
    }


def _rows(x):
    data = getattr(x, "data", x)
    return 1 if np.ndim(data) == 1 else int(np.shape(data)[0])


class Tracer:
    """Context manager: patch on enter, restore on exit, record in between.

    ``time`` and ``count`` are keyed by span; ``eta_checks`` counts the
    attack results whose perturbations were checked against the ball and
    the box, and ``eta_failures`` lists the ones that broke them.
    """

    def __init__(self, ml, param_tensors: int):
        self.ml = ml
        self.param_tensors = param_tensors
        self.time = defaultdict(float)
        self.count = defaultdict(int)
        self.eta_checks = 0
        self.eta_failures = []
        self._depth = defaultdict(int)
        self._saved = []

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        for span, sites in _sites(self.ml).items():
            for owner, attr in sites:
                original = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if original is None:
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        return False

    def bindings_restored(self) -> bool:
        """True when every patched attribute holds its original again."""
        for owner, attr, original in self._saved:
            current = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if current is not original:
                return False
        return bool(self._saved)

    def _wrap(self, span, fn):
        after = getattr(self, "_after_" + span.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if self._depth[span]:
                return fn(*args, **kwargs)
            caller = sys._getframe(1).f_code.co_name
            self._depth[span] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._depth[span] -= 1
            self.time[span] += dt
            self.count[span] += 1
            if after is not None:
                after(args, kwargs, out, dt, caller)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-span extras ----------------------------------------------------

    def _after_models_forward(self, args, kwargs, out, dt, caller):
        self.count["models.forward_rows"] += _rows(args[2] if len(args) > 2
                                                   else kwargs["x"])

    def _after_optim_attack_step(self, args, kwargs, out, dt, caller):
        self.count["optim.attack_step_elems"] += int(np.size(args[1]))

    def _after_models_ckpt_save(self, args, kwargs, out, dt, caller):
        self.count["models.ckpt_bytes"] += os.path.getsize(args[0])

    def _after_tensor_topo(self, args, kwargs, out, dt, caller):
        self.count["tensor.graph_nodes"] += len(out)

    def _after_training_run(self, args, kwargs, out, dt, caller):
        if self._depth["cli.main"]:
            self.time["cli.inner_run"] += dt

    def _after_training_predict(self, args, kwargs, out, dt, caller):
        if self._depth["training.run"]:
            self.time["training.monitor"] += dt

    def _attack_call(self, span, args, kwargs, etas, dt, caller):
        # the batch loop calls attacks from run_training itself; the
        # per-epoch monitor calls them from a helper.  Subproblems of an
        # attack already being timed are not attributed again.
        nested = any(self._depth[s] for s in _ATTACK_SPANS)
        if self._depth["training.run"] and not nested:
            key = ("training.batch_attack" if caller == "run_training"
                   else "training.monitor")
            self.time[key] += dt
        cfg = next((v for v in (*args, *kwargs.values())
                    if isinstance(v, self.ml.attacks.AttackConfig)), None)
        X = np.atleast_2d(np.asarray(args[2], dtype=np.float64))
        self.eta_checks += 1
        if not eta_ok(X, etas, cfg):
            self.eta_failures.append(span)

    def _after_attacks_targeted(self, args, kwargs, out, dt, caller):
        self._attack_call("attacks.targeted", args, kwargs, out[0], dt, caller)

    def _after_attacks_beta(self, args, kwargs, out, dt, caller):
        margins = np.asarray(out[2])
        self.count["attacks.beta_rows"] += int(margins.size)
        self.count["attacks.beta_successes"] += int(np.sum(margins > 0))
        self._attack_call("attacks.beta", args, kwargs, out[0], dt, caller)

    def _after_attacks_pgd(self, args, kwargs, out, dt, caller):
        self._attack_call("attacks.pgd", args, kwargs, out, dt, caller)

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics of everything recorded so far."""
        t, c = self.time, self.count
        return {
            "tensor.backward_s": t["tensor.backward"],
            "tensor.backward_calls": c["tensor.backward"],
            "tensor.graph_nodes": c["tensor.graph_nodes"],
            "models.forward_s": t["models.forward"],
            "models.forward_calls": c["models.forward"],
            "models.forward_rows": c["models.forward_rows"],
            "models.ckpt_save_s": t["models.ckpt_save"],
            "models.ckpt_load_s": t["models.ckpt_load"],
            "models.ckpt_bytes": c["models.ckpt_bytes"],
            "optim.attack_step_s": t["optim.attack_step"],
            "optim.attack_step_calls": c["optim.attack_step"],
            "optim.attack_step_elems": c["optim.attack_step_elems"],
            "optim.defender_step_s": t["optim.defender_step"],
            "optim.defender_step_calls": c["optim.defender_step"],
            "attacks.project_s": t["attacks.project"],
            "attacks.project_calls": c["attacks.project"],
            "attacks.targeted_s": t["attacks.targeted"],
            "attacks.targeted_calls": c["attacks.targeted"],
            "attacks.beta_s": t["attacks.beta"],
            "attacks.pgd_s": t["attacks.pgd"],
            "attacks.beta_rows": c["attacks.beta_rows"],
            "attacks.beta_successes": c["attacks.beta_successes"],
            "objectives.cross_entropy_s": t["objectives.cross_entropy"],
            "objectives.cross_entropy_calls": c["objectives.cross_entropy"],
            "training.batch_attack_s": t["training.batch_attack"],
            "training.monitor_s": t["training.monitor"],
            "training.defender_s": (t["training.run"] - t["training.batch_attack"]
                                    - t["training.monitor"]),
            "training.batches": c["optim.defender_step"] // self.param_tensors,
            "data.generate_s": t["data.generate"],
            "cli.overhead_s": t["cli.main"] - t["cli.inner_run"],
            "reports.emit_s": t["reports.emit"],
        }


def eta_ok(X, etas, cfg) -> bool:
    """||eta|| <= eps in the attack's norm and x + eta inside [0, 1]."""
    etas = np.atleast_2d(np.asarray(etas, dtype=np.float64))
    if cfg is None or etas.shape != X.shape or not np.all(np.isfinite(etas)):
        return False
    if cfg.norm == "l_inf":
        size = np.abs(etas).max(axis=1) if etas.size else np.zeros(0)
    else:
        size = np.linalg.norm(etas, axis=1)
    ok = bool(np.all(size <= cfg.epsilon * (1 + 1e-9) + _ETA_TOL))
    if cfg.box:
        pts = X + etas
        ok &= bool(np.all(pts >= -_ETA_TOL) and np.all(pts <= 1 + _ETA_TOL))
    return ok


def combine(setup: dict, cycles: list) -> dict:
    """Per-layer report for one set-up plus one cycle.

    Counts are the set-up's plus the (identical) per-cycle counts; times are
    the set-up's plus the median over cycles.
    """
    out = {}
    for name in COUNT_METRICS + ("attacks.beta_rows", "attacks.beta_successes"):
        out[name] = setup[name] + cycles[0][name]
    for name in TIME_METRICS:
        out[name] = setup[name] + float(np.median([c[name] for c in cycles]))
    rows = out.pop("attacks.beta_rows")
    wins = out.pop("attacks.beta_successes")
    out["attacks.beta_success_share"] = wins / rows if rows else 0.0
    return out


def counts_of(metrics: dict) -> dict:
    keys = COUNT_METRICS + ("attacks.beta_rows", "attacks.beta_successes")
    return {k: metrics[k] for k in keys}
