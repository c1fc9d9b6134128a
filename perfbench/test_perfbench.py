"""Checks of the benchmark's own machinery: the input generator, the
perturbation check and the tracer's hygiene.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import argparse
import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from marginlab import (attacks, cli, data, models, objectives, optim,  # noqa: E402
                       reports, tensor, training)

import tracer  # noqa: E402
import workloads  # noqa: E402

ML = argparse.Namespace(attacks=attacks, cli=cli, data=data, models=models,
                        objectives=objectives, optim=optim, reports=reports,
                        tensor=tensor, training=training)

# a desk-train cycle small enough for a unit test
TINY = dataclasses.replace(workloads.WORKLOADS["desk-train"], train_rows=120,
                           epochs=2, pretrain_rows=120, pretrain_epochs=2,
                           eval_rows=40, eval_repeats=1)


def _bindings():
    out = {}
    for span, sites in tracer._sites(ML).items():
        for owner, attr in sites:
            out[(span, id(owner), attr)] = (owner.__dict__.get(attr)
                                            if isinstance(owner, type)
                                            else getattr(owner, attr))
    return out


def _traced_cycle(tmp_path):
    st = workloads.setup(ML, TINY, 3, str(tmp_path))
    with tracer.Tracer(ML, TINY.param_tensors) as tr:
        cycle = workloads.run_cycle(ML, TINY, st, 3, str(tmp_path))
    return st, tr, cycle


def test_synth784_is_seeded_and_equidistant(monkeypatch):
    a = workloads.synth784(ML, 5, 2, 40)
    b = workloads.synth784(ML, 5, 2, 40)
    c = workloads.synth784(ML, 6, 2, 40)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.X, c.X)
    assert a.X.shape == (40, 784) and 0.0 <= a.X.min() and a.X.max() <= 1.0
    assert np.bincount(a.y, minlength=10).tolist() == [4] * 10
    # noise-free rows sit on the centres: every pair differs in half the pixels
    monkeypatch.setattr(workloads, "NOISE", 0.0)
    clean = workloads.synth784(ML, 5, 2, 10)
    order = np.argsort(clean.y)
    centres = clean.X[order]
    diff = (np.abs(centres[:, None, :] - centres[None, :, :]) > 0).sum(axis=2)
    assert set(diff[~np.eye(10, dtype=bool)].tolist()) == {392}


def test_eta_check_rejects_points_outside_ball_or_box():
    cfg = attacks.AttackConfig(epsilon=0.1)
    X = np.full((2, 3), 0.5)
    assert tracer.eta_ok(X, np.full((2, 3), 0.1), cfg)
    assert not tracer.eta_ok(X, np.full((2, 3), 0.1 + 1e-6), cfg)
    X_edge = np.full((1, 3), 0.95)
    assert not tracer.eta_ok(X_edge, np.full((1, 3), 0.08), cfg)
    l2 = attacks.AttackConfig(epsilon=0.1, norm="l2")
    assert not tracer.eta_ok(X[:1], np.full((1, 3), 0.1), l2)


def test_traced_cycle_restores_every_binding(tmp_path):
    before = _bindings()
    _, tr, cycle = _traced_cycle(tmp_path)
    assert tr.bindings_restored()
    assert _bindings() == before
    assert not cycle.failures and not tr.eta_failures and tr.eta_checks > 0


def test_traced_counts_repeat_and_outputs_match_untraced(tmp_path):
    st, first, traced = _traced_cycle(tmp_path)
    with tracer.Tracer(ML, TINY.param_tensors) as second:
        workloads.run_cycle(ML, TINY, st, 3, str(tmp_path))
    plain = workloads.run_cycle(ML, TINY, st, 3, str(tmp_path))
    assert tracer.counts_of(first.metrics()) == tracer.counts_of(second.metrics())
    assert traced.outputs == plain.outputs
    m = first.metrics()
    # every layer the desk cycle reaches is seen
    for name in ("tensor.backward_calls", "models.forward_calls",
                 "optim.attack_step_calls", "optim.defender_step_calls",
                 "attacks.targeted_calls", "objectives.cross_entropy_calls",
                 "training.batches"):
        assert m[name] > 0, name
    assert m["cli.overhead_s"] > 0 and m["reports.emit_s"] > 0
    # defender batches: ceil(rows * (1 - val) / 64) per epoch, per algorithm
    per_run = -(-round(TINY.train_rows * (1 - TINY.val_fraction)) // 64)
    assert m["training.batches"] == 4 * TINY.epochs * per_run


def test_bindings_restored_when_the_traced_code_raises(tmp_path):
    before = _bindings()
    with pytest.raises(ValueError):
        with tracer.Tracer(ML, 4):
            training.run_training(models.ModelSpec("linear", 2, 3),
                                  data.Dataset(np.zeros((0, 2)),
                                               np.zeros(0, dtype=np.intp)),
                                  training.TrainConfig("erm", epochs=1))
    assert _bindings() == before
