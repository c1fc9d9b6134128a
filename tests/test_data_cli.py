import json
import struct

import numpy as np
import pytest

from marginlab import cli, training
from marginlab.attacks import AttackConfig, AttackResult
from marginlab.cli import main
from marginlab.data import (EVAL, MONITOR, SHUFFLE, SPLIT, TRAIN, DatasetSpec,
                            IdxCountMismatchError, IdxMagicError,
                            IdxTruncationError, generate_dataset, load_idx,
                            stream, train_val_split)
from marginlab.models import Checkpoint, ModelSpec, init_params, save_checkpoint
from marginlab.reports import CSV_HEADER, emit_report
from marginlab.training import EpochMetrics, TrainConfig


def test_blobs_balanced_and_in_box():
    data = generate_dataset(DatasetSpec("gaussian_blobs", 91, 3, 0.1, 0))
    counts = np.bincount(data.y, minlength=3)
    assert counts.max() - counts.min() <= 1
    assert data.X.min() >= 0.0 and data.X.max() <= 1.0


def test_blobs_deterministic_per_seed():
    a = generate_dataset(DatasetSpec("gaussian_blobs", 50, 3, 0.1, 7))
    b = generate_dataset(DatasetSpec("gaussian_blobs", 50, 3, 0.1, 7))
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = generate_dataset(DatasetSpec("gaussian_blobs", 50, 3, 0.1, 8))
    assert not np.array_equal(a.X, c.X)


def test_noise_free_blobs_collapse_to_centers():
    data = generate_dataset(DatasetSpec("gaussian_blobs", 30, 3, 0.0, 0))
    for c in range(3):
        pts = data.X[data.y == c]
        assert np.allclose(pts, pts[0])


def test_other_generators_produce_valid_data():
    for kind in ("two_moons_3class", "xor_grid"):
        data = generate_dataset(DatasetSpec(kind, 60, 2 if kind == "xor_grid"
                                            else 3, 0.05, 1))
        assert len(data) == 60
        assert data.X.min() >= 0.0 and data.X.max() <= 1.0
    with pytest.raises(ValueError):
        DatasetSpec("spirals", 10)
    with pytest.raises(ValueError):
        DatasetSpec("gaussian_blobs", 2, 3)


def write_idx(tmp_path, n=6, rows=2, cols=2, image_magic=0x803,
              label_magic=0x801, n_labels=None, truncate_images=0):
    n_labels = n if n_labels is None else n_labels
    pixels = bytes(range(n * rows * cols))
    img = struct.pack(">IIII", image_magic, n, rows, cols) + pixels
    if truncate_images:
        img = img[:-truncate_images]
    labels = struct.pack(">II", label_magic, n_labels) + bytes(
        i % 3 for i in range(n_labels))
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labels.idx"
    ip.write_bytes(img)
    lp.write_bytes(labels)
    return str(ip), str(lp)


def test_idx_roundtrip(tmp_path):
    ip, lp = write_idx(tmp_path)
    data = load_idx(ip, lp)
    assert data.X.shape == (6, 4)
    assert data.X[0, 1] == pytest.approx(1 / 255)
    assert data.y.tolist() == [0, 1, 2, 0, 1, 2]


def test_idx_error_classes(tmp_path):
    ip, lp = write_idx(tmp_path, image_magic=0x804)
    with pytest.raises(IdxMagicError):
        load_idx(ip, lp)
    ip, lp = write_idx(tmp_path, n_labels=5)
    with pytest.raises(IdxCountMismatchError):
        load_idx(ip, lp)
    ip, lp = write_idx(tmp_path, truncate_images=3)
    with pytest.raises(IdxTruncationError):
        load_idx(ip, lp)


def test_train_val_split_deterministic_and_disjoint():
    data = generate_dataset(DatasetSpec("gaussian_blobs", 100, 3, 0.1, 0))
    tr1, val1 = train_val_split(data, 0.2, 5)
    tr2, val2 = train_val_split(data, 0.2, 5)
    assert np.array_equal(tr1.X, tr2.X) and np.array_equal(val1.X, val2.X)
    assert len(tr1) == 80 and len(val1) == 20
    combined = np.concatenate([tr1.X, val1.X])
    assert np.array_equal(np.sort(combined, axis=0), np.sort(data.X, axis=0))


def metrics_rows():
    return [EpochMetrics(1, 0.9, 0.8, 0.88, 0.77, 0.86, 0.75, 0.42, 1.23),
            EpochMetrics(2, 0.95, 0.85, 0.9, 0.8, 0.9, 0.78, 0.33, 1.11)]


def test_emit_report_csv_schema(tmp_path):
    path = str(tmp_path / "curve.csv")
    emit_report(metrics_rows(), "csv", path)
    lines = open(path).read().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,0.900000,0.800000,0.880000,0.770000,0.860000,0.750000,0.420000,0.000000"
    emit_report(metrics_rows(), "csv", path, timing=True)
    assert open(path).read().splitlines()[1].endswith(",1.230000")
    with pytest.raises(ValueError):
        emit_report(metrics_rows(), "yaml", path)


def test_emit_report_json_mirror(tmp_path):
    path = str(tmp_path / "curve.json")
    emit_report(metrics_rows(), "json", path)
    docs = json.load(open(path))
    assert [d["epoch"] for d in docs] == [1, 2]
    assert docs[0]["seconds"] == 0.0
    assert set(docs[0]) == set(CSV_HEADER.split(","))


def train_config(tmp_path, **overrides):
    cfg = {"dataset": {"n": 40}, "epochs": 2,
           "attack": {"epsilon": 0.05, "steps": 3}}
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"learning_rate": 0.1}')
    assert main(["train", "--config", str(bad)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["train", "--config", str(notjson)]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["attack"]) == 2  # checkpoint is required
    capsys.readouterr()


BLOCK_3 = {"kind": "gaussian_blobs", "n": 30, "class_count": 3, "noise": 0.08,
           "seed": 9}


# each case: the command, its config, and the rejected value the error names
@pytest.mark.parametrize("command, cfg, rejected", [
    pytest.param("train", {"attack": {"epsilon": float("nan")}}, "nan",
                 id="train-cfg0"),
    pytest.param("train", {"val_fraction": 1.5}, "1.5", id="train-cfg1"),
    pytest.param("train", {"model": {"kind": "mlp", "hidden": [0]}}, "[0]",
                 id="train-cfg2"),
    pytest.param("eval", {"attack": {"epsilon": float("nan")}}, "nan",
                 id="eval-cfg3"),
    pytest.param("attack", {"attack": {"norm": "l1"}}, "'l1'", id="attack-cfg4"),
    pytest.param("train", {"optimizer": "foo"}, "'foo'", id="train-optimizer"),
    pytest.param("train", {"dataset": {"n": 2}}, "n=2", id="train-dataset-n"),
    pytest.param("train", {"dataset": {"n": 4}, "val_fraction": 0.1},
                 "val_fraction 0.1 of 4 rows", id="train-empty-split"),
    pytest.param("train", {"test_dataset": {**BLOCK_3, "bogus": 1}},
                 "'test_dataset.bogus'", id="train-test-dataset-field"),
    pytest.param("train", {"test_dataset": {**BLOCK_3, "class_count": 5}},
                 "test labels [3, 4]", id="train-test-dataset-labels"),
    pytest.param("oracle", {"norm": "l3"}, "'l3'", id="oracle-norm"),
    pytest.param("oracle", {"epsilon": -0.1}, "-0.1", id="oracle-epsilon"),
    pytest.param("oracle", {"checkpoint": "missing.json"}, "missing.json",
                 id="oracle-missing-checkpoint"),
    pytest.param("eval", {"attacks": ["spectral"]}, "'spectral'",
                 id="eval-attack-kind"),
    pytest.param("attack", {"attack": {"optimizer": "foo"}}, "'foo'",
                 id="attack-optimizer"),
    pytest.param("train", {"lr": "x"}, "lr must be float, got 'x'", id="train-lr-type"),
    pytest.param("train", {"decay_epochs": "x"}, "decay_epochs", id="train-decay-type"),
    pytest.param("train", {"attack": {"steps": 2.5}}, "steps must be int, got 2.5",
                 id="train-steps-type"),
    pytest.param("train", {"model": {"kind": "mlp", "hidden": [2.5]}},
                 "hidden must be tuple[int, ...], got [2.5]", id="train-hidden-type"),
    pytest.param("train", {"attack": None}, "attack must be a dict, got None",
                 id="train-attack-null"),
    pytest.param("train", {"dataset": {"kind": "idx_files"}}, "idx_files",
                 id="train-idx-without-paths"),
    pytest.param("eval", {"attack": {"epsilon": 0.0}, "attacks": ["spectral"]},
                 "'spectral'", id="eval-attack-kind-at-eps0"),
    pytest.param("train", {"attack": {"box": "false"}},
                 "box must be bool, got 'false'", id="train-box-type"),
    pytest.param("train", {"seed": -1}, "TrainConfig.seed", id="train-negative-seed"),
    pytest.param("eval", {"dataset": {**BLOCK_3, "class_count": 5}, "attacks": ["beta"]},
                 "labels [3, 4]", id="eval-dataset-labels"),
    pytest.param("attack", {"dataset": {**BLOCK_3, "class_count": 5}},
                 "labels [3, 4]", id="attack-dataset-labels"),
    pytest.param("train", {"dataset": {"kind": "xor_grid", "class_count": 3}},
                 "class_count=3", id="train-xor-grid-classes"),
    pytest.param("train", {"dataset": {"kind": "two_moons_3class", "class_count": 5}},
                 "class_count=5", id="train-two-moons-classes"),
])
def test_cli_rejects_invalid_config_values(tmp_path, capsys, command, cfg,
                                           rejected):
    spec = ModelSpec("linear", 2, 3)
    ckpt = str(tmp_path / "ckpt.json")
    save_checkpoint(ckpt, Checkpoint(spec, init_params(spec, 0), {}))
    if command == "eval":
        cfg["checkpoints"] = {"best": ckpt}
    elif command in ("attack", "oracle"):
        cfg["checkpoint"] = str(tmp_path / cfg.get("checkpoint", "ckpt.json"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and rejected in err


def test_cli_rejects_a_config_file_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    assert main(["train", "--config", str(path)]) == 2
    assert "must be a dict, got [1, 2]" in capsys.readouterr().err


def test_cli_eval_checks_every_attack_kind_before_running_any(tmp_path, capsys):
    spec = ModelSpec("linear", 2, 3)
    ckpt = str(tmp_path / "ckpt.json")
    save_checkpoint(ckpt, Checkpoint(spec, init_params(spec, 0), {}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"checkpoints": {"best": ckpt}, "dataset": {"n": 9},
                                "attacks": ["pgd", "spectral"]}))
    out = tmp_path / "grid.csv"
    assert main(["eval", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "'spectral'" in captured.err and "robust" not in captured.out
    assert not out.exists()


def test_cli_eval_rejects_a_negative_seed_before_running_any_attack(tmp_path, capsys):
    spec = ModelSpec("linear", 2, 3)
    ckpt = str(tmp_path / "ckpt.json")
    save_checkpoint(ckpt, Checkpoint(spec, init_params(spec, 0), {}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"checkpoints": {"best": ckpt}, "dataset": {"n": 9},
                                "attacks": ["fgsm", "pgd"], "attack": {"seed": -1}}))
    assert main(["eval", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "AttackConfig.seed" in captured.err and "robust" not in captured.out


@pytest.mark.parametrize("make", [
    lambda: DatasetSpec("gaussian_blobs", 10, seed=-1),
    lambda: AttackConfig(epsilon=0.1, seed=-1),
    lambda: TrainConfig("erm", epochs=1, seed=-1),
], ids=["DatasetSpec", "AttackConfig", "TrainConfig"])
def test_configs_reject_a_negative_seed(make):
    with pytest.raises(ValueError, match=r"\.seed must be >= 0, got -1"):
        make()


# numerical failures are the subject here, so numpy's overflow warnings are too
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_train_stops_on_a_non_finite_loss(tmp_path, capsys):
    cfg = train_config(tmp_path, epochs=3, algorithm="erm", lr=1e200,
                       dataset={"n": 120}, model={"kind": "mlp", "hidden": [8]})
    csv, ckpt = tmp_path / "curve.csv", tmp_path / "last.json"
    assert main(["train", "--config", cfg, "--out-csv", str(csv),
                 "--ckpt-last", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "epoch 1, step" in err
    assert not csv.exists() and not ckpt.exists()


def test_derived_streams_are_distinct_from_each_other_and_the_seed():
    draws = [np.random.default_rng(5).random(4)]
    draws += [stream(5, kind).random(4)
              for kind in (SPLIT, SHUFFLE, TRAIN, MONITOR, EVAL)]
    draws += [stream(5, TRAIN, 1, 2, 3).random(4), stream(5, TRAIN, 1, 3, 2).random(4)]
    assert len({d.tobytes() for d in draws}) == len(draws)


def test_cli_test_dataset_merges_over_dataset(tmp_path, capsys):
    # a partial block keeps the training set's distribution with its own draw
    curves = []
    for test_dataset in ({"n": 30, "seed": 9}, BLOCK_3):
        out = str(tmp_path / f"curve{len(curves)}.csv")
        cfg = train_config(tmp_path, test_dataset=test_dataset)
        assert main(["train", "--config", cfg, "--out-csv", out]) == 0
        curves.append(open(out).read())
    assert curves[0] == curves[1]
    assert "nan" not in curves[0]  # the test columns are filled
    capsys.readouterr()


def test_cli_attack_seed_reaches_the_batch_attack(tmp_path, capsys, monkeypatch):
    seen = []

    def recording(attack):
        def run(*args, seed, **kwargs):
            seen.append(seed)
            return attack(*args, seed=seed, **kwargs)
        return run
    for name in ("beta_attack_batch", "pgd_surrogate_batch"):  # what evaluate_robust calls
        monkeypatch.setattr(training, name, recording(getattr(training, name)))
    spec = ModelSpec("linear", 2, 3)
    ckpt = str(tmp_path / "ckpt.json")
    save_checkpoint(ckpt, Checkpoint(spec, init_params(spec, 0), {}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"checkpoints": {"best": ckpt},
                                "attacks": ["pgd", "beta"],
                                "attack": {"steps": 2, "seed": 7}}))
    assert main(["eval", "--config", str(path)]) == 0
    path.write_text(json.dumps({"checkpoint": ckpt, "attack": {"seed": 123}}))
    assert main(["attack", "--config", str(path)]) == 0
    assert seen == [7, 7, 123]
    capsys.readouterr()


def test_cli_oracle_reports_a_disagreement(tmp_path, capsys, monkeypatch):
    spec = ModelSpec("linear", 2, 3)
    ckpt = str(tmp_path / "ckpt.json")
    save_checkpoint(ckpt, Checkpoint(spec, init_params(spec, 0), {}))
    # a positive margin that did not misclassify: the oracle contradicts itself
    monkeypatch.setattr(cli, "grid_oracle_attack",
                        lambda *a: AttackResult(np.zeros(2), 1, 1.0, False,
                                                     np.zeros(3)))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"checkpoint": ckpt, "dataset": {"n": 6}}))
    assert main(["oracle", "--config", str(path)]) == 1
    assert "agreement 0/6" in capsys.readouterr().out


def test_cli_train_reads_idx_files(tmp_path, capsys):
    ip, lp = write_idx(tmp_path, n=30)
    cfg = train_config(tmp_path, dataset={"kind": "idx_files", "images": ip,
                                          "labels": lp})
    out = str(tmp_path / "curve.csv")
    assert main(["train", "--config", cfg, "--out-csv", out]) == 0
    assert len(open(out).read().splitlines()) == 3  # header + 2 epochs
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eval", "attack", "oracle"])
def test_cli_commands_read_idx_files(tmp_path, capsys, command):
    ip, lp = write_idx(tmp_path, n=30, rows=1, cols=3)
    spec = ModelSpec("linear", 3, 3)
    ckpt = str(tmp_path / "ckpt.json")
    save_checkpoint(ckpt, Checkpoint(spec, init_params(spec, 0), {}))
    cfg = {"dataset": {"kind": "idx_files", "images": ip, "labels": lp}}
    cfg.update({"eval": {"checkpoints": {"best": ckpt}, "attack": {"steps": 2}},
                "attack": {"checkpoint": ckpt, "attack": {"steps": 2}},
                "oracle": {"checkpoint": ckpt, "resolution": 2}}[command])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 0
    capsys.readouterr()


def test_cli_repro_commands_pass(capsys):
    assert main(["repro", "example-1"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["repro", "appendix-d"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_gradcheck_passes(capsys):
    assert main(["gradcheck", "--trials", "5"]) == 0
    capsys.readouterr()


def test_cli_train_eval_oracle_roundtrip(tmp_path, capsys):
    cfg = train_config(tmp_path)
    csv_path = str(tmp_path / "curve.csv")
    best = str(tmp_path / "best.json")
    last = str(tmp_path / "last.json")
    assert main(["train", "--config", cfg, "--out-csv", csv_path,
                 "--ckpt-best", best, "--ckpt-last", last]) == 0
    assert open(csv_path).read().splitlines()[0] == CSV_HEADER

    eval_cfg = tmp_path / "eval.json"
    eval_cfg.write_text(json.dumps({
        "dataset": {"n": 30},
        "checkpoints": {"best": best, "last": last},
        "attacks": ["fgsm", "beta"],
        "attack": {"epsilon": 0.05, "steps": 3}}))
    out = str(tmp_path / "grid.csv")
    assert main(["eval", "--config", str(eval_cfg), "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "checkpoint,attack,clean,robust"
    assert len(lines) == 5

    oracle_cfg = tmp_path / "oracle.json"
    oracle_cfg.write_text(json.dumps({
        "dataset": {"n": 20}, "checkpoint": last,
        "epsilon": 0.05, "resolution": 21}))
    assert main(["oracle", "--config", str(oracle_cfg)]) == 0
    capsys.readouterr()


def test_cli_train_rerun_is_byte_identical(tmp_path, capsys):
    cfg = train_config(tmp_path)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    ca, cb = str(tmp_path / "ca.json"), str(tmp_path / "cb.json")
    assert main(["train", "--config", cfg, "--out-csv", a, "--ckpt-last", ca]) == 0
    assert main(["train", "--config", cfg, "--out-csv", b, "--ckpt-last", cb]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(ca, "rb").read() == open(cb, "rb").read()
    capsys.readouterr()



def test_cli_flags_leave_the_defaults_alone(capsys):
    assert main(["train", "--algorithm", "erm", "--epochs", "1", "--seed", "3"]) == 0
    assert (cli.TRAIN_DEFAULTS["algorithm"], cli.TRAIN_DEFAULTS["epochs"],
            cli.TRAIN_DEFAULTS["seed"]) == ("beta_at", 10, 0)
    capsys.readouterr()
