import json
from dataclasses import asdict

import numpy as np
import pytest

from marginlab.models import (Checkpoint, CheckpointError, ModelSpec, backward,
                              forward, forward_logits, init_params, linear_model,
                              load_checkpoint, predict, save_checkpoint, with_grad)
from marginlab.objectives import cross_entropy, cross_entropy_rows, margin_rows
from marginlab.tensor import Tensor, mul, sub, take_per_row, tsum
from marginlab.training import _mean_cross_entropy

# three-class linear counterexample model used throughout the suite
CE_WEIGHT = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 0.0]])
CE_BIAS = np.zeros(3)


def test_forward_counterexample_points():
    spec, params = linear_model(CE_WEIGHT, CE_BIAS)
    assert np.allclose(forward_logits(spec, params, [0.0, -0.2]).data,
                       [[0.2, 0.0, 0.0]])
    s = 0.8 / np.sqrt(2.0)
    out = forward_logits(spec, params, [s, s - 1.0]).data[0]
    assert np.allclose(out, [1 - s, -s, s])
    assert np.allclose(np.round(out, 2), [0.43, -0.57, 0.57])


def test_zero_parameter_mlp_gives_zero_logits():
    spec = ModelSpec("mlp", 2, 3, (4,))
    params = init_params(spec, 0)
    zeroed = {n: np.zeros_like(v) for n, v in params.items()}
    out = forward_logits(spec, zeroed, np.random.default_rng(0).uniform(size=(5, 2)))
    assert np.allclose(out.data, 0.0)


def test_init_deterministic_per_seed():
    spec = ModelSpec("mlp", 3, 2, (5,))
    a, b = init_params(spec, 42), init_params(spec, 42)
    for (na, va), (nb, vb) in zip(a.items(), b.items()):
        assert na == nb and np.array_equal(va, vb)
    c = init_params(spec, 43)
    assert any(not np.array_equal(va, vc)
               for (_, va), (_, vc) in zip(a.items(), c.items()))


def test_params_are_arrays_and_only_with_grad_builds_leaves(tmp_path):
    spec = ModelSpec("mlp", 2, 3, (4,))
    params = init_params(spec, 0)
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, Checkpoint(spec, params))
    replaced = {**params, "b0": np.ones(4)}
    copied = {n: v.copy() for n, v in params.items()}
    for ps in (params, load_checkpoint(path).params, replaced, copied):
        assert all(type(v) is np.ndarray and v.dtype == np.float64 for v in ps.values())
    assert replaced["w0"] is params["w0"] and copied["w0"] is not params["w0"]

    before = [(n, v, v.copy()) for n, v in params.items()]
    leaves = with_grad(params)
    assert all(isinstance(t, Tensor) and t.requires_grad and not t._parents
               for t in leaves.values())
    tsum(forward_logits(spec, leaves, np.ones((2, 2)))).backward()
    assert all(t.grad is not None for t in leaves.values())
    for (n, v), (name, array, values) in zip(params.items(), before):
        assert n == name and v is array and np.array_equal(v, values)


def test_linear_param_count():
    params = init_params(ModelSpec("linear", 2, 3), 0)
    assert sum(v.size for v in params.values()) == 9


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("linear", 2, 1)
    with pytest.raises(ValueError):
        ModelSpec("conv", 2, 3)
    with pytest.raises(ValueError):
        ModelSpec("mlp", 2, 3, (0,))
    with pytest.raises(ValueError, match="tanh"):
        ModelSpec("mlp", 2, 3, (4,), activation="tanh")
    with pytest.raises(ValueError):
        forward_logits(*linear_model(CE_WEIGHT, CE_BIAS), np.zeros((1, 5)))


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    spec = ModelSpec("mlp", 2, 3, (7,))
    params = init_params(spec, 9)
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, Checkpoint(spec, params, {"algorithm": "erm",
                                                    "epoch": 3, "seed": 9}))
    loaded = load_checkpoint(path)
    probe = np.random.default_rng(1).uniform(size=(4, 2))
    before = forward_logits(spec, params, probe).data
    after = forward_logits(loaded.spec, loaded.params, probe).data
    assert np.array_equal(before, after)
    assert loaded.meta["epoch"] == 3


@pytest.mark.parametrize("spec", [ModelSpec("linear", 2, 3), ModelSpec("mlp", 2, 3, (8,)),
                                  ModelSpec("mlp", 784, 10, (256,))],
                         ids=["linear", "mlp-8", "784-256-10"])
def test_checkpoint_bytes_are_the_json_of_the_document(tmp_path, spec):
    # the file is written in chunks, with the bytes of one json.dumps; a
    # NaN, an infinity and a -0.0 keep json's spelling
    params = init_params(spec, 4)
    params["b0"][:3] = [np.nan, -np.inf, -0.0]
    meta = {"algorithm": "beta_at", "epoch": 2, "seed": 4, "note": "é"}
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, Checkpoint(spec, params, meta))
    doc = {"spec": asdict(spec),
           "params": [{"name": n, "shape": list(v.shape), "data": v.ravel().tolist()}
                      for n, v in params.items()],
           "meta": meta}
    with open(path) as fh:
        assert fh.read() == json.dumps(doc)


def test_checkpoint_counterexample_roundtrip(tmp_path):
    spec, params = linear_model(CE_WEIGHT, CE_BIAS)
    path = str(tmp_path / "lin.json")
    save_checkpoint(path, Checkpoint(spec, params, {}))
    loaded = load_checkpoint(path)
    assert np.allclose(forward_logits(loaded.spec, loaded.params,
                                      [0.0, -0.2]).data, [[0.2, 0.0, 0.0]])


def test_truncated_checkpoint_raises(tmp_path):
    spec, params = linear_model(CE_WEIGHT, CE_BIAS)
    path = str(tmp_path / "trunc.json")
    save_checkpoint(path, Checkpoint(spec, params, {}))
    raw = open(path).read()
    with open(path, "w") as fh:
        fh.write(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_missing_field_named(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write('{"spec": {"kind": "linear", "input_dim": 2, "class_count": 3},'
                 ' "params": [{"name": "w0", "shape": [2, 3]}], "meta": {}}')
    with pytest.raises(CheckpointError, match="data"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", ["hidden", "name"])
def test_checkpoint_must_match_its_spec(tmp_path, edit):
    spec = ModelSpec("mlp", 2, 3, (8,))
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(path, Checkpoint(spec, init_params(spec, 0), {}))
    doc = json.load(open(path))
    if edit == "hidden":
        doc["spec"]["hidden"] = [4]  # the weights stay 8 wide
    else:
        doc["params"][2]["name"] = "v1"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(CheckpointError, match="spec"):
        load_checkpoint(path)


def test_predict_tie_break_lowest_index():
    spec, params = linear_model(np.zeros((2, 3)), np.zeros(3))
    assert predict(spec, params, np.ones((4, 2))).tolist() == [0, 0, 0, 0]


def test_forward_is_pure():
    spec = ModelSpec("mlp", 2, 3, (6,))
    params = init_params(spec, 1)
    x = np.random.default_rng(2).uniform(size=(3, 2))
    a = forward_logits(spec, params, x).data
    b = forward_logits(spec, params, x).data
    assert np.array_equal(a, b)


# (hidden widths, points): BETA's desk slot stack (9 slots of 64 2-D rows,
# K=10) and one 64-row batch of the 784-d MLP-256
@pytest.mark.parametrize("hidden, shape", [
    ((), (9, 64, 2)), ((16,), (9, 64, 2)), ((16, 8), (9, 64, 2)),
    ((256,), (64, 784))], ids=["linear", "mlp16", "mlp16-8", "mlp256"])
def test_kernel_matches_the_graph_bit_for_bit(hidden, shape):
    k, (n, d) = 10, shape[-2:]
    spec = ModelSpec("mlp" if hidden else "linear", d, k, hidden)
    params = init_params(spec, 4)
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=shape)
    y = rng.integers(k, size=shape[:-1])
    targets = (y + 1 + rng.integers(k - 1, size=y.shape)) % k
    logits, cache = forward(spec, params, pts)
    margins, dmargins = margin_rows(y.ravel(), targets.ravel(), k, y.shape)(logits)
    dpts = backward(params, cache, dmargins)
    blocks = zip(pts.reshape(-1, n, d), y.reshape(-1, n), targets.reshape(-1, n),
                 logits.reshape(-1, n, k), margins.reshape(-1, n),
                 dpts.reshape(-1, n, d))
    for x, yb, tb, logits_b, margins_b, dx_margin in blocks:
        ces, dces = cross_entropy_rows(logits_b, yb)
        dx_ce = backward(params, forward(spec, params, x)[1], dces)
        for objective, values, dx in (
                (lambda lg: sub(take_per_row(lg, tb), take_per_row(lg, yb)),
                 margins_b, dx_margin),
                (lambda lg: cross_entropy(lg, yb), ces, dx_ce)):
            xt = Tensor(x, requires_grad=True)
            graph_logits = forward_logits(spec, params, xt)
            graph_values = objective(graph_logits)
            tsum(graph_values).backward()
            assert np.array_equal(logits_b, graph_logits.data)
            assert np.array_equal(values, graph_values.data)
            assert np.array_equal(dx, xt.grad)
        assert np.array_equal(predict(spec, params, x),
                              np.argmax(graph_logits.data, axis=1))

    # the defender's mean cross-entropy and its parameter gradients
    x, yb = pts.reshape(-1, n, d)[0], y.reshape(-1, n)[0]
    loss, grads = _mean_cross_entropy(spec, x, yb)(params)
    leaves = with_grad(params)
    graph_loss = mul(tsum(cross_entropy(forward_logits(spec, leaves, x), yb)), 1.0 / n)
    graph_loss.backward()
    assert loss == graph_loss.item()
    assert sorted(grads) == sorted(leaves)
    for name, leaf in leaves.items():
        assert np.array_equal(grads[name], leaf.grad)
