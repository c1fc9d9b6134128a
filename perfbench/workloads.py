"""The benchmark's three workloads: seeded inputs, set-up, the timed cycle
and the correctness checks on every output.

Every workload runs the same cycle: one training run with each of the four
algorithms, then ``evaluate_robust`` with ``pgd`` and ``beta`` on a held-out
set, using a model that set-up pretrained with ERM and round-tripped through
a JSON checkpoint.  The workloads differ in scale and in which part
dominates:

* ``desk-train``  - 2-D gaussian blobs through ``marginlab.cli.main``; many
  tiny calls, so graph bookkeeping and per-call overhead dominate.
* ``synth784-train`` - 784-d synthetic set through the Python API; 64-row
  batch attacks plus a per-epoch monitor over whole splits.
* ``synth784-eval`` - the same 784-d code as one large 2000-row attack call;
  its short training runs are a single batch watched by a large monitor.

The 784-d runs fine-tune the pretrained model (``run_training(init=...)``):
one epoch from scratch at this width leaves a model whose robust accuracy
moves with every seed, so the quality metrics would say nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from tracer import eta_ok

ALGORITHMS = ("erm", "pgd_at", "beta_at", "sbeta_at")
EVAL_ATTACKS = ("pgd", "beta")
CLASSES = 10
BATCH = 64
ATTACK_STEPS = 10
BLOB_NOISE = 0.08
# 784-d set: class centres 0.5 + SPREAD * (+-1 code), pixel noise NOISE
SPREAD = 0.06
NOISE = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int                  # 2: gaussian blobs via the CLI; 784: synthetic
    hidden: int
    train_rows: int           # rows of each training run, validation included
    val_fraction: float
    epochs: int
    lr: float                 # Adam, for the timed training runs
    train_eps: float
    pretrain_rows: int
    pretrain_epochs: int
    pretrain_lr: float
    eval_rows: int
    eval_eps: float
    eval_repeats: int         # evaluate_robust calls per attack per cycle
    setup_repeats: int

    @property
    def via_cli(self) -> bool:
        return self.dim == 2

    @property
    def param_tensors(self) -> int:
        return 4  # weight and bias of the hidden and the output layer

    def shape(self) -> dict:
        return {"dim": self.dim, "classes": CLASSES, "hidden": [self.hidden],
                "batch": BATCH, "train_rows": self.train_rows,
                "val_fraction": self.val_fraction, "epochs": self.epochs,
                "train_eps": self.train_eps, "pretrain_rows": self.pretrain_rows,
                "pretrain_epochs": self.pretrain_epochs, "lr": self.lr,
                "pretrain_lr": self.pretrain_lr,
                "eval_rows": self.eval_rows, "eval_eps": self.eval_eps,
                "attack_steps": ATTACK_STEPS}


WORKLOADS = {w.name: w for w in (
    Workload("desk-train", dim=2, hidden=16, train_rows=1000, val_fraction=0.4,
             epochs=20, lr=0.01, train_eps=0.05, pretrain_rows=1000,
             pretrain_epochs=40, pretrain_lr=0.01, eval_rows=2000, eval_eps=0.12,
             eval_repeats=10, setup_repeats=5),
    Workload("synth784-train", dim=784, hidden=256, train_rows=1000,
             val_fraction=0.5, epochs=1, lr=1e-4, train_eps=8 / 255,
             pretrain_rows=2000, pretrain_epochs=20, pretrain_lr=1e-3, eval_rows=500,
             eval_eps=14 / 255, eval_repeats=1, setup_repeats=3),
    Workload("synth784-eval", dim=784, hidden=256, train_rows=600,
             val_fraction=0.9, epochs=1, lr=1e-4, train_eps=8 / 255,
             pretrain_rows=2000, pretrain_epochs=20, pretrain_lr=1e-3, eval_rows=2000,
             eval_eps=14 / 255, eval_repeats=1, setup_repeats=3),
)}


# -- inputs --------------------------------------------------------------------


def synth784(ml, seed: int, role: int, n: int):
    """n rows of the 784-d set for one seed.

    The ten class centres are rows of a 16x16 Sylvester-Hadamard matrix
    tiled to 784 coordinates, so every pair of centres differs in exactly
    half the coordinates and each seed poses a problem of the same
    difficulty.  The seed draws the sign and order of the coordinates
    (shared by every role) and, per role, the labels and the noise.
    """
    geometry = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    code = np.array([[1.0]])
    while code.shape[0] < 16:
        code = np.block([[code, code], [code, -code]])
    code = np.tile(code[1:CLASSES + 1], (1, 784 // 16))
    code = code * geometry.choice([-1.0, 1.0], size=784)
    code = code[:, geometry.permutation(784)]
    centres = 0.5 + SPREAD * code

    rng = np.random.default_rng(np.random.SeedSequence((seed, role)))
    y = rng.permutation(np.arange(n) % CLASSES).astype(np.intp)
    X = np.clip(centres[y] + NOISE * rng.standard_normal((n, 784)), 0.0, 1.0)
    return ml.data.Dataset(X, y)


def _blobs(ml, seed: int, n: int):
    return ml.data.generate_dataset(
        ml.data.DatasetSpec("gaussian_blobs", n, CLASSES, BLOB_NOISE, seed))


# data roles; each draws its own stream from the workload seed
_PRETRAIN, _TRAIN, _EVAL = 1, 2, 3


def _role_seed(seed, role):
    return int(np.random.SeedSequence((seed, role)).generate_state(1)[0])


# -- set-up --------------------------------------------------------------------


@dataclass
class State:
    spec: object
    params: object            # the pretrained model, as loaded from its checkpoint
    train: object             # 784-d training set (None for the CLI workload)
    eval: object
    ckpt_bytes: bytes
    configs: dict             # algorithm -> CLI config path


def setup(ml, wl: Workload, seed: int, workdir: str) -> State:
    """Generate the inputs, pretrain the evaluation model with ERM and
    round-trip it through a JSON checkpoint, as ``train`` then ``eval``."""
    spec = ml.models.ModelSpec("mlp", wl.dim, CLASSES, (wl.hidden,))
    if wl.via_cli:
        pre = _blobs(ml, _role_seed(seed, _PRETRAIN), wl.pretrain_rows)
        ev = _blobs(ml, _role_seed(seed, _EVAL), wl.eval_rows)
        train = None
    else:
        pre = synth784(ml, seed, _PRETRAIN, wl.pretrain_rows)
        train = synth784(ml, seed, _TRAIN, wl.train_rows)
        ev = synth784(ml, seed, _EVAL, wl.eval_rows)
    cfg = ml.training.TrainConfig("erm", epochs=wl.pretrain_epochs,
                                  batch_size=BATCH, optimizer="adam",
                                  lr=wl.pretrain_lr, seed=seed)
    run = ml.training.run_training(spec, pre, cfg)
    path = os.path.join(workdir, "pretrained.json")
    ml.models.save_checkpoint(path, run.selection.last)
    ckpt = ml.models.load_checkpoint(path)
    with open(path, "rb") as fh:
        ckpt_bytes = fh.read()
    configs = {}
    if wl.via_cli:
        for algorithm in ALGORITHMS:
            configs[algorithm] = os.path.join(workdir, f"{algorithm}.cfg.json")
            with open(configs[algorithm], "w") as fh:
                json.dump(_cli_config(wl, seed, algorithm), fh)
    return State(ckpt.spec, ckpt.params, train, ev, ckpt_bytes, configs)


def _cli_config(wl: Workload, seed: int, algorithm: str) -> dict:
    return {
        "dataset": {"kind": "gaussian_blobs", "n": wl.train_rows,
                    "class_count": CLASSES, "noise": BLOB_NOISE,
                    "seed": _role_seed(seed, _TRAIN)},
        "model": {"kind": "mlp", "hidden": [wl.hidden]},
        "algorithm": algorithm, "epochs": wl.epochs, "batch_size": BATCH,
        "optimizer": "adam", "lr": wl.lr,
        "attack": {"epsilon": wl.train_eps, "steps": ATTACK_STEPS, "seed": seed},
        "seed": seed, "val_fraction": wl.val_fraction,
    }


# -- the timed cycle -----------------------------------------------------------


@dataclass
class Cycle:
    seconds: dict             # metric -> list of samples
    outputs: dict             # what must be identical across cycles and runs
    failures: list            # labels of failed operations
    attempted: int


def _attack_cfg(ml, eps, seed):
    return ml.attacks.AttackConfig(epsilon=eps, steps=ATTACK_STEPS, seed=seed)


def _check_curve(text: str):
    """(final val_robust, ok) from a learning-curve CSV: losses finite and
    robust <= clean on every split of every epoch."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    ok = len(lines) > 1
    val_robust = float("nan")
    for line in lines[1:]:
        row = dict(zip(header, (float(v) for v in line.split(","))))
        ok &= math.isfinite(row["loss"])
        for split in ("train", "val", "test"):
            clean, robust = row[split + "_clean"], row[split + "_robust"]
            ok &= not (robust > clean)  # NaN (empty split) passes
        val_robust = row["val_robust"]
    ok &= math.isfinite(val_robust)
    return val_robust, ok


def run_cycle(ml, wl: Workload, st: State, seed: int, workdir: str) -> Cycle:
    """Train with each algorithm, then evaluate the pretrained model."""
    seconds = {f"epoch_s.{a}": [] for a in ALGORITHMS}
    seconds.update({f"eval_s.{k}": [] for k in EVAL_ATTACKS})
    outputs, failures, attempted = {}, [], 0

    for algorithm in ALGORITHMS:
        attempted += 1
        csv = os.path.join(workdir, f"{algorithm}.csv")
        if wl.via_cli:
            ckpt = os.path.join(workdir, f"{algorithm}.last.json")
            argv = ["train", "--config", st.configs[algorithm],
                    "--out-csv", csv, "--ckpt-last", ckpt]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                code = ml.cli.main(argv)
                dt = perf_counter() - t0
            if code != 0:
                failures.append(f"train {algorithm}: exit {code}")
                continue
            with open(ckpt, "rb") as fh:
                outputs[f"ckpt.{algorithm}"] = fh.read()
        else:
            cfg = ml.training.TrainConfig(
                algorithm, epochs=wl.epochs, batch_size=BATCH,
                optimizer="adam", lr=wl.lr,
                attack=_attack_cfg(ml, wl.train_eps, seed), seed=seed,
                val_fraction=wl.val_fraction)
            t0 = perf_counter()
            run = ml.training.run_training(st.spec, st.train, cfg,
                                           init=st.params)
            dt = perf_counter() - t0
            ml.reports.emit_report(run.metrics, "csv", csv)
        seconds[f"epoch_s.{algorithm}"].append(dt / wl.epochs)
        with open(csv) as fh:
            text = fh.read()
        outputs[f"csv.{algorithm}"] = text
        val_robust, ok = _check_curve(text)
        outputs[f"val_robust.{algorithm}"] = val_robust
        if not ok:
            failures.append(f"train {algorithm}: non-finite loss or robust > clean")

    acfg = _attack_cfg(ml, wl.eval_eps, seed)
    for _ in range(wl.eval_repeats):
        for kind in EVAL_ATTACKS:
            attempted += 1
            t0 = perf_counter()
            out = ml.training.evaluate_robust(st.spec, st.params, st.eval, kind,
                                              acfg, seed=seed)
            seconds[f"eval_s.{kind}"].append(perf_counter() - t0)
            clean, robust = out["clean"], out["robust"]
            if not (0.0 < clean and robust <= clean):
                failures.append(f"eval {kind}: clean {clean} robust {robust}")
                continue
            success = (clean - robust) / clean
            key = f"attack_success.{kind}"
            if outputs.setdefault(key, success) != success:
                failures.append(f"eval {kind}: result differs between repeats")
    # the paper's ordering: the margin attack is at least as strong as PGD
    attempted += 1
    if not outputs.get("attack_success.beta", 0) >= outputs.get("attack_success.pgd", 1):
        failures.append("eval: BETA flipped fewer rows than PGD")
    return Cycle(seconds, outputs, failures, attempted)


def verify_perturbations(ml, wl: Workload, st: State, seed: int) -> list:
    """Run both batch attacks on the evaluation rows, outside any timing,
    and check every returned eta: inside the eps-ball and x + eta in [0, 1].
    Returns the labels of the attacks that broke a constraint."""
    acfg = _attack_cfg(ml, wl.eval_eps, seed)
    X, y = st.eval.X, st.eval.y
    bad = []
    etas = ml.attacks.pgd_surrogate_batch(st.spec, st.params, X, y, acfg,
                                          seed=seed)
    if not eta_ok(X, etas, acfg):
        bad.append("pgd eta outside the ball or the box")
    etas, _, _ = ml.attacks.beta_attack_batch(st.spec, st.params, X, y, acfg,
                                              seed=seed)
    if not eta_ok(X, etas, acfg):
        bad.append("beta eta outside the ball or the box")
    return bad
