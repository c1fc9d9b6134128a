"""Linear and MLP classifiers with deterministic init and JSON checkpoints."""

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
        if self.activation != "relu":  # forward_logits implements ReLU only
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def layer_dims(self):
        dims = [self.input_dim, *self.hidden, self.class_count]
        return list(zip(dims[:-1], dims[1:]))


class ParamSet:
    """Named, ordered parameter tensors."""

    def __init__(self, items):
        self._items = []
        seen = set()
        for name, value in items:
            if name in seen:
                raise ValueError(f"duplicate parameter name {name!r}")
            seen.add(name)
            self._items.append((name, value if isinstance(value, Tensor)
                                else Tensor(value)))

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, name):
        for n, v in self._items:
            if n == name:
                return v
        raise KeyError(name)

    def with_grad(self):
        """Copy whose tensors are marked as gradient leaves."""
        return ParamSet((n, Tensor(v.data, requires_grad=True, name=n))
                        for n, v in self._items)

    def replaced(self, updates: dict):
        """Copy with some parameters swapped for new arrays."""
        return ParamSet((n, Tensor(updates[n]) if n in updates else v)
                        for n, v in self._items)

    def copy(self):
        return ParamSet((n, Tensor(v.data.copy())) for n, v in self._items)


@dataclass
class Checkpoint:
    spec: ModelSpec
    params: ParamSet
    meta: dict = field(default_factory=dict)


def init_params(spec: ModelSpec, seed: int) -> ParamSet:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights, zero biases."""
    rng = np.random.default_rng(seed)
    items = []
    for i, (fan_in, fan_out) in enumerate(spec.layer_dims()):
        bound = 1.0 / np.sqrt(fan_in)
        items.append((f"w{i}", rng.uniform(-bound, bound, (fan_in, fan_out))))
        items.append((f"b{i}", np.zeros(fan_out)))
    return ParamSet(items)


def forward_logits(spec: ModelSpec, params: ParamSet, x) -> Tensor:
    """Logits for a batch x[n,d] or a stack of batches x[m,n,d] (a 1-D x is
    treated as a single row)."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim == 1:
        x = reshape(x, (1, x.data.shape[0]))
    if x.data.shape[-1] != spec.input_dim:
        raise ValueError(f"input width {x.data.shape[-1]} != spec d={spec.input_dim}")
    n_layers = len(spec.layer_dims())
    out = x
    for i in range(n_layers):
        out = affine(out, params[f"w{i}"], params[f"b{i}"])
        if i < n_layers - 1:
            out = relu(out)
    return out


def linear_model(weight, bias) -> tuple:
    """(spec, params) for an explicit linear classifier; weight is [d,K]."""
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    spec = ModelSpec("linear", weight.shape[0], weight.shape[1])
    params = ParamSet([("w0", weight), ("b0", bias)])
    return spec, params


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    doc = {
        "spec": asdict(ckpt.spec),
        "params": [
            {"name": n, "shape": list(v.data.shape), "data": v.data.ravel().tolist()}
            for n, v in ckpt.params
        ],
        "meta": ckpt.meta,
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)  # streamed: a 784-d MLP's text would add ~10 MB
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
    expected = [(name, t.shape) for name, t in init_params(spec, 0)]
    found = [(name, arr.shape) for name, arr in items]
    if found != expected:
        raise CheckpointError(f"params {found} do not match the spec's {expected}")
    return Checkpoint(spec, ParamSet(items), dict(doc["meta"]))


def predict(spec: ModelSpec, params: ParamSet, x) -> np.ndarray:
    """argmax class per row, lowest index on ties."""
    logits = forward_logits(spec, params, x).data
    return np.argmax(logits, axis=1)
