"""Command-line harness: dataset generation, training runs, attacks and
evaluation grids, exhaustive oracle checks, gradient checks, and
self-verifying reproduction commands.

Each JSON config block is merged over its defaults and handed to the
dataclass it describes, which checks its own values. `main` is the one error
boundary: a value the library rejects (a ValueError) or a missing input file
is a usage error, and a training run that goes non-finite is an error.

Exit codes: 0 success, 1 verification mismatch or a numerical blow-up in
training, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import objectives
from .attacks import (AttackConfig, beta_attack, closed_form_linear_attack,
                      grid_max_cross_entropy, grid_oracle_attack)
from .data import Dataset, DatasetSpec, generate_dataset, load_idx
from .models import (ModelSpec, linear_model, load_checkpoint,
                     save_checkpoint, forward_logits)
from .objectives import (SmoothingConfig, cross_entropy,
                         max_margin_over_classes, negative_margin,
                         nll_of_probs)
from .reports import atomic_write, emit_report, emit_table
from .tensor import Tensor, finite_diff_check
from .training import ATTACK_KINDS, TrainConfig, evaluate_robust, run_training


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- config plumbing -----------------------------------------------------------

TRAIN_DEFAULTS = {
    "dataset": {"kind": "gaussian_blobs", "n": 600, "class_count": 3,
                "noise": 0.08, "seed": 0, "images": None, "labels": None},
    "test_dataset": None,   # merged over the resolved "dataset" block
    "model": {"kind": "linear", "hidden": []},
    "algorithm": "beta_at",
    "epochs": 10,
    "batch_size": 64,
    "optimizer": "sgd",
    "lr": 0.5,
    "decay_epochs": [],
    "decay_factor": 0.1,
    "attack": {"epsilon": 0.1, "norm": "l_inf", "steps": 10,
               "optimizer": None, "step_size": None, "box": True, "seed": 0},
    "mu": 1.0,
    "seed": 0,
    "val_fraction": 0.2,
}


def _merge(defaults, override, path=""):
    """A copy of defaults with override in place, merged block by block; an
    unknown field, or a block or list given as another type, is rejected."""
    if isinstance(defaults, (dict, list)) and not isinstance(override, type(defaults)):
        raise UsageError(f"config {path[:-1] or 'file'} must be a "
                         f"{type(defaults).__name__}, got {override!r}")
    if not isinstance(defaults, dict):
        return override
    out = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise UsageError(f"unknown config field {path + key!r}")
        out[key] = _merge(defaults[key], value, path + key + ".")
    return out


def _load_config(path):
    with open(path) as fh:
        return json.load(fh)


def _echo(command, cfg):
    print(json.dumps({"command": command, "config": cfg}, indent=2))


def _build_dataset(dcfg) -> Dataset:
    fields = dict(dcfg)
    paths = fields.pop("images", None), fields.pop("labels", None)
    if fields["kind"] == "idx_files":
        if None in paths:
            raise UsageError(f"idx_files needs images and labels paths, got {paths}")
        return load_idx(*paths)
    return generate_dataset(DatasetSpec(**fields))


# -- subcommands ---------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _merge(TRAIN_DEFAULTS, _load_config(args.config) if args.config else {})
    for key in ("algorithm", "epochs", "seed"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    _echo("train", cfg)

    dataset, test_dataset = cfg.pop("dataset"), cfg.pop("test_dataset")
    data = _build_dataset(dataset)
    test = (_build_dataset(_merge(dataset, test_dataset, "test_dataset."))
            if test_dataset else None)
    spec = ModelSpec(**cfg.pop("model"), input_dim=data.dim,
                     class_count=int(data.y.max()) + 1)
    tcfg = TrainConfig(**{**cfg, "attack": AttackConfig(**cfg["attack"])})
    run = run_training(spec, data, tcfg, test)
    if args.out_csv:
        emit_report(run.metrics, "csv", args.out_csv, timing=args.timing)
    if args.out_json:
        emit_report(run.metrics, "json", args.out_json, timing=args.timing)
    if args.ckpt_best:
        save_checkpoint(args.ckpt_best, run.selection.best)
    if args.ckpt_last:
        save_checkpoint(args.ckpt_last, run.selection.last)
    print(f"best epoch {run.selection.best_metrics.epoch} "
          f"val_robust {run.selection.best_metrics.val_robust:.4f}; "
          f"last epoch {run.selection.last_metrics.epoch} "
          f"val_robust {run.selection.last_metrics.val_robust:.4f}")
    return 0


EVAL_DEFAULTS = {
    "dataset": {"kind": "gaussian_blobs", "n": 300, "class_count": 3,
                "noise": 0.08, "seed": 1},
    "checkpoints": {"best": None, "last": None},
    "attacks": ["fgsm", "pgd", "beta"],
    "attack": {"epsilon": 0.1, "norm": "l_inf", "steps": 20,
               "optimizer": None, "step_size": None, "box": True, "seed": 0},
    "grid_resolution": 41,
}


def cmd_eval(args) -> int:
    cfg = _merge(EVAL_DEFAULTS, _load_config(args.config) if args.config else {})
    _echo("eval", cfg)
    unknown = [kind for kind in cfg["attacks"] if kind not in ATTACK_KINDS]
    if unknown:  # checked before any kind runs
        raise UsageError(f"unknown attack kinds {unknown}")
    data = _build_dataset(cfg["dataset"])
    acfg = AttackConfig(**cfg["attack"])
    rows = []
    for label in ("best", "last"):
        path = cfg["checkpoints"][label]
        if path is None:
            continue
        ckpt = load_checkpoint(path)
        for kind in cfg["attacks"]:
            out = evaluate_robust(ckpt.spec, ckpt.params, data, kind, acfg,
                                  resolution=cfg["grid_resolution"], seed=acfg.seed)
            rows.append((label, kind, out["clean"], out["robust"]))
            print(f"{label:5s} {kind:12s} clean {out['clean']:.4f} "
                  f"robust {out['robust']:.4f}")
    if args.out:
        emit_table(("checkpoint", "attack", "clean", "robust"), rows, args.out)
    return 0


ATTACK_DEFAULTS = {
    "dataset": {"kind": "gaussian_blobs", "n": 100, "class_count": 3,
                "noise": 0.08, "seed": 2},
    "checkpoint": None,
    "kind": "beta",
    "attack": {"epsilon": 0.1, "norm": "l_inf", "steps": 20,
               "optimizer": None, "step_size": None, "box": True, "seed": 0},
}


def cmd_attack(args) -> int:
    cfg = _merge(ATTACK_DEFAULTS, _load_config(args.config) if args.config else {})
    if cfg["checkpoint"] is None:
        raise UsageError("attack needs a checkpoint path in the config")
    _echo("attack", cfg)
    ckpt = load_checkpoint(cfg["checkpoint"])
    data = _build_dataset(cfg["dataset"])
    acfg = AttackConfig(**cfg["attack"])
    out = evaluate_robust(ckpt.spec, ckpt.params, data, cfg["kind"], acfg,
                          seed=acfg.seed)
    doc = {"kind": cfg["kind"], "clean": round(out["clean"], 6),
           "robust": round(out["robust"], 6)}
    print(json.dumps(doc))
    if args.out:
        atomic_write(args.out, json.dumps(doc, indent=2))
    return 0


ORACLE_DEFAULTS = {
    "dataset": {"kind": "gaussian_blobs", "n": 60, "class_count": 3,
                "noise": 0.08, "seed": 3},
    "checkpoint": None,
    "epsilon": 0.1,
    "norm": "l_inf",
    "box": True,
    "resolution": 41,
}


def cmd_oracle(args) -> int:
    cfg = _merge(ORACLE_DEFAULTS, _load_config(args.config) if args.config else {})
    if cfg["checkpoint"] is None:
        raise UsageError("oracle needs a checkpoint path in the config")
    _echo("oracle", cfg)
    ckpt = load_checkpoint(cfg["checkpoint"])
    data = _build_dataset(cfg["dataset"])
    robust, agree = 0, 0
    for x, y in zip(data.X, data.y):
        res = grid_oracle_attack(ckpt.spec, ckpt.params, x, y, cfg["epsilon"],
                                 cfg["resolution"], cfg["norm"], cfg["box"])
        robust += not res.success
        agree += (res.margin_value > 0) == res.success
    n = len(data)
    print(f"grid-oracle robust accuracy {robust / n:.4f} "
          f"(margin/misclassification agreement {agree}/{n})")
    return 0 if agree == n else 1


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        k = 5
        logits = rng.normal(size=k)
        y = int(rng.integers(k))
        j = int((y + 1 + rng.integers(k - 1)) % k)
        e1 = finite_diff_check(lambda t: cross_entropy(t, y), Tensor(logits))
        e2 = finite_diff_check(lambda t: negative_margin(t, y, j), Tensor(logits))
        e3 = finite_diff_check(
            lambda t: objectives.lse_smoothed_margin_t(t, y, SmoothingConfig(5.0)),
            Tensor(logits))
        worst = max(worst, e1, e2, e3)
    print(f"max relative gradient error over {args.trials} trials: {worst:.3e}")
    return 0 if worst < 1e-5 else 1


# -- reproduction commands -----------------------------------------------------

COUNTEREXAMPLE_WEIGHT = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.0]])
COUNTEREXAMPLE_BIAS = np.zeros(3)
COUNTEREXAMPLE_X = np.array([0.0, -1.0])
COUNTEREXAMPLE_EPS = 0.8


def _repro_counterexample() -> int:
    spec, params = linear_model(COUNTEREXAMPLE_WEIGHT, COUNTEREXAMPLE_BIAS)
    x, y, eps = COUNTEREXAMPLE_X, 0, COUNTEREXAMPLE_EPS
    ok = True

    # surrogate maximization, solved exactly on a fine grid
    eta_ce, _ = grid_max_cross_entropy(spec, params, x, y, eps, 200,
                                       norm="l2", box=False)
    logits_ce = forward_logits(spec, params, x + eta_ce).data[0]
    print(f"surrogate-optimal perturbation {np.round(eta_ce, 3).tolist()} "
          f"-> logits {np.round(logits_ce, 3).tolist()}")
    ok &= np.allclose(eta_ce, [0.0, eps], atol=5e-3)
    ok &= np.allclose(logits_ce, [0.2, 0.0, 0.0], atol=5e-3)
    ok &= not bool(objectives.zero_one_error(logits_ce, y))

    # the same maximum along the ball boundary, checked on a 1-D scan
    t = np.linspace(0.0, eps, 20001)
    vals = (np.exp(-t) + np.exp(t)) * np.exp(np.sqrt(eps * eps - t * t))
    ok &= int(np.argmax(vals)) == 0

    target = eps * np.sqrt(2.0) - 1.0
    closed = closed_form_linear_attack(COUNTEREXAMPLE_WEIGHT,
                                       COUNTEREXAMPLE_BIAS, x, y, eps, "l2")
    ok &= abs(closed.margin_value - target) < 1e-9

    acfg = AttackConfig(epsilon=eps, norm="l2", steps=50, optimizer="rmsprop",
                        box=False, seed=0)
    res = beta_attack(spec, params, x, y, acfg)
    logits_beta = forward_logits(spec, params, x + res.eta_star).data[0]
    print(f"margin-optimal perturbation {np.round(res.eta_star, 3).tolist()} "
          f"-> logits {np.round(logits_beta, 3).tolist()}")
    ok &= abs(np.linalg.norm(res.eta_star) - eps) < 1e-3
    ok &= abs(res.margin_value - target) < 1e-3
    ok &= bool(res.success)
    # the two wrong classes tie at the optimum; either symmetric solution
    # ((0.43, -0.57, 0.57) or its mirror) is a valid outcome
    ok &= np.allclose(np.abs(logits_beta), [0.43, 0.57, 0.57], atol=1e-2)
    ok &= logits_beta[1] * logits_beta[2] < 0
    print("counterexample checks", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _repro_weak_surrogate_ranking() -> int:
    k, eps = 10, 0.01
    z_a = np.full(k, 1.0 / k)
    z_a[0] += eps
    z_a[1] -= eps
    z_b = np.zeros(k)
    z_b[0], z_b[1] = 0.5 - eps, 0.5 + eps
    y = 0
    ce_a, ce_b = nll_of_probs(z_a, y), nll_of_probs(z_b, y)
    _, m_a = max_margin_over_classes(z_a, y)
    _, m_b = max_margin_over_classes(z_b, y)
    print(f"cross-entropy: A {ce_a:.5f}  B {ce_b:.5f} -> surrogate picks "
          f"{'A' if ce_a > ce_b else 'B'}")
    print(f"max margin:    A {m_a:+.5f}  B {m_b:+.5f} -> margin picks "
          f"{'A' if m_a > m_b else 'B'}")
    ok = (ce_a > ce_b) and (m_a < 0.0 < m_b) and (m_b > m_a)
    ok &= abs(ce_a - (-np.log(0.11))) < 1e-9
    ok &= abs(ce_b - (-np.log(0.49))) < 1e-9
    print("ranking checks", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_repro(args) -> int:
    if args.case == "appendix-d":
        return _repro_counterexample()
    return _repro_weak_surrogate_ranking()


# -- entry ---------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="marginlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training loop")
    p.add_argument("--config")
    p.add_argument("--algorithm", choices=("erm", "pgd_at", "beta_at", "sbeta_at"))
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    p.add_argument("--ckpt-best")
    p.add_argument("--ckpt-last")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock seconds (breaks byte-identical reruns)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="attack a checkpoint on a dataset")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("eval", help="best/last x attack evaluation grid")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="exhaustive grid certification")
    p.add_argument("--config")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("repro", help="self-verifying reproduction cases")
    p.add_argument("case", choices=("appendix-d", "example-1"))
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
