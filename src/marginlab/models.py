"""Linear and MLP classifiers with deterministic init and JSON checkpoints.
Parameters are a dict of float64 arrays in layer order w0, b0, w1, b1, ..."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import check_numbers
from .tensor import Tensor, affine, relu, reshape


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    kind: str                 # "linear" | "mlp"
    input_dim: int
    class_count: int
    hidden: tuple[int, ...] = ()
    activation: str = "relu"

    def __post_init__(self):
        check_numbers(self)
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.class_count < 2:
            raise ValueError("need input_dim >= 1 and class_count >= 2")
        if self.kind == "linear" and self.hidden:
            raise ValueError("linear model takes no hidden widths")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        if self.activation != "relu":  # forward_logits and forward are ReLU only
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def layer_dims(self):
        dims = [self.input_dim, *self.hidden, self.class_count]
        return list(zip(dims[:-1], dims[1:]))


def with_grad(params: dict) -> dict:
    """Copy whose arrays are wrapped as autodiff gradient leaves, the one
    place a Tensor is built from parameters; for forward_logits only (the
    kernel and save_checkpoint take plain arrays)."""
    return {name: Tensor(v, requires_grad=True) for name, v in params.items()}


@dataclass
class Checkpoint:
    spec: ModelSpec
    params: dict
    meta: dict = field(default_factory=dict)


def init_params(spec: ModelSpec, seed: int) -> dict:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights, zero biases."""
    rng = np.random.default_rng(seed)
    params = {}
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims()):
        bound = 1.0 / np.sqrt(fan_in)
        params[f"w{i}"] = rng.uniform(-bound, bound, (fan_in, fan_out))
        params[f"b{i}"] = np.zeros(fan_out)
    return params


def forward_logits(spec: ModelSpec, params: dict, x) -> Tensor:
    """Logits for a batch x[n,d] on the autodiff graph, the reference for
    forward/backward (a 1-D x is treated as a single row)."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim == 1:
        x = reshape(x, (1, x.data.shape[0]))
    if x.data.shape[1] != spec.input_dim:
        raise ValueError(f"input width {x.data.shape[1]} != spec d={spec.input_dim}")
    n_layers = len(spec.layer_dims())
    out = x
    for i in range(n_layers):
        out = affine(out, params[f"w{i}"], params[f"b{i}"])
        if i < n_layers - 1:
            out = relu(out)
    return out


def forward(spec: ModelSpec, params: dict, x):
    """(logits, cache: each layer's input and hidden ReLU mask) for a batch
    x[n,d] or a stack x[m,n,d], with forward_logits' ops in plain numpy."""
    out, acts, masks = np.asarray(x, dtype=np.float64), [], []
    if out.shape[-1] != spec.input_dim:
        raise ValueError(f"input width {out.shape[-1]} != spec d={spec.input_dim}")
    n_layers = len(spec.layer_dims())
    for i in range(n_layers):
        acts.append(out)
        out = out @ params[f"w{i}"] + params[f"b{i}"]
        if i < n_layers - 1:
            masks.append(out > 0.0)
            out = np.where(masks[-1], out, 0.0)
    return out, (acts, masks)


def backward(params: dict, cache, dlogits, wrt="input"):
    """The gradient at the input x of a forward cache, or {name: gradient} for
    wrt="params" (x[n,d] only), with the graph's ops in the graph's order."""
    acts, masks = cache
    g, grads = dlogits, {}
    for i in reversed(range(len(masks) + 1)):
        if wrt == "params":
            grads[f"w{i}"], grads[f"b{i}"] = acts[i].T @ g, g.sum(axis=0)
            if i == 0:
                return grads
        g = g @ params[f"w{i}"].T
        if i > 0:
            g = g * masks[i - 1]
    return g


def linear_model(weight, bias) -> tuple:
    """(spec, params) for an explicit linear classifier; weight is [d,K]."""
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    spec = ModelSpec("linear", weight.shape[0], weight.shape[1])
    return spec, {"w0": weight, "b0": bias}


# numbers per json.dumps call in save_checkpoint.  Saving a 784-256-10 model
# took about as long with 2**10 to 2**14, and raised ru_maxrss by 0.1, 0.5,
# 1.2 and 2.4 MB at 2**10, 2**12, 2**13 and 2**14 (json.dump: 7.9 MB)
_SAVE_CHUNK = 2 ** 12


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Write the bytes of json.dumps({"spec", "params": [{"name", "shape",
    "data": flat values}], "meta"}), atomically.  Each parameter's numbers go
    through json.dumps (the C encoder) in chunks of _SAVE_CHUNK: json.dump
    runs the pure-Python encoder, and one json.dumps of the whole document
    would hold a 784-d MLP's ~10 MB of text."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(f'{{"spec": {json.dumps(asdict(ckpt.spec))}, "params": [')
        for i, (name, v) in enumerate(ckpt.params.items()):
            head = json.dumps({"name": name, "shape": list(v.shape)})[:-1]
            fh.write(f'{", " if i else ""}{head}, "data": [')
            flat = v.ravel()
            for s in range(0, flat.size, _SAVE_CHUNK):
                fh.write((", " if s else "")
                         + json.dumps(flat[s:s + _SAVE_CHUNK].tolist())[1:-1])
            fh.write("]}")
        fh.write(f'], "meta": {json.dumps(ckpt.meta)}}}')
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"malformed checkpoint JSON: {exc}") from exc
    for key in ("spec", "params", "meta"):
        if key not in doc:
            raise CheckpointError(f"checkpoint missing field {key!r}")
    s = doc["spec"]
    for key in ("kind", "input_dim", "class_count"):
        if key not in s:
            raise CheckpointError(f"checkpoint spec missing field {key!r}")
    spec = ModelSpec(s["kind"], s["input_dim"], s["class_count"],
                     tuple(s.get("hidden", ())), s.get("activation", "relu"))
    items = []
    for entry in doc["params"]:
        for key in ("name", "shape", "data"):
            if key not in entry:
                raise CheckpointError(f"checkpoint param missing field {key!r}")
        arr = np.asarray(entry["data"], dtype=np.float64)
        if arr.size != int(np.prod(entry["shape"])):
            raise CheckpointError(
                f"param {entry['name']!r}: data length {arr.size} does not "
                f"match shape {entry['shape']}")
        items.append((entry["name"], arr.reshape(entry["shape"])))
    expected = [(name, v.shape) for name, v in init_params(spec, 0).items()]
    found = [(name, arr.shape) for name, arr in items]
    if found != expected:
        raise CheckpointError(f"params {found} do not match the spec's {expected}")
    return Checkpoint(spec, dict(items), dict(doc["meta"]))


def predict(spec: ModelSpec, params: dict, x) -> np.ndarray:
    """argmax class per row, lowest index on ties."""
    return np.argmax(forward(spec, params, np.atleast_2d(x))[0], axis=1)
