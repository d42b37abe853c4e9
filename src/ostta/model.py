"""Feed-forward encoder plus bias-free linear head, with hand-written
forward and backward passes over batches of input rows.

`ModelParams.stack` puts several models on a leading axis of every array;
forward and backward then run all of them in one pass of 3-D matrix
products, and an unstacked model is the no-axis case of the same code.

The head has num_known + 1 rows; the last row is the unknown class. Logits
are computed from the raw penultimate feature h, while the normalized
embedding z = h / ||h|| feeds the embedding-space machinery.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import atomic_open
from .numeric import l2_normalize

_CKPT_MAGIC = "ostta-ckpt-v1"
_ACTIVATIONS = ("tanh", "linear")


@dataclass
class ModelParams:
    weights: list[np.ndarray]      # per encoder layer, shape (out, in)
    biases: list[np.ndarray]       # per encoder layer, shape (out,)
    activations: list[str]         # "tanh" or "linear", per encoder layer
    head: np.ndarray               # (num_known + 1, embed_dim), no bias

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[-1]

    @property
    def embed_dim(self) -> int:
        return self.head.shape[-1]

    @property
    def num_known(self) -> int:
        return self.head.shape[-2] - 1

    @staticmethod
    def stack(models: list["ModelParams"]) -> "ModelParams":
        """One ModelParams whose arrays carry a leading axis, one slice per
        model of the same shapes and activations; forward and backward act
        on every slice at once."""
        return ModelParams(
            [np.stack(ws) for ws in zip(*(m.weights for m in models))],
            [np.stack(bs) for bs in zip(*(m.biases for m in models))],
            list(models[0].activations),
            np.stack([m.head for m in models]),
        )

    def unstack(self) -> list["ModelParams"]:
        """The models of a stacked ModelParams, as copies."""
        return [
            ModelParams([w[a].copy() for w in self.weights], [b[a].copy() for b in self.biases],
                        list(self.activations), self.head[a].copy())
            for a in range(self.head.shape[0])
        ]

    def param_bytes(self) -> bytes:
        chunks = [w.tobytes() for w in self.weights]
        chunks += [b.tobytes() for b in self.biases]
        chunks.append(self.head.tobytes())
        return b"".join(chunks)


@dataclass
class ForwardTrace:
    x: np.ndarray
    activations: list[np.ndarray]
    h: np.ndarray       # penultimate feature
    z: np.ndarray       # unit-norm embedding
    logits: np.ndarray


@dataclass
class ModelGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: np.ndarray

    @staticmethod
    def zeros_like(params: ModelParams) -> "ModelGrads":
        return ModelGrads(
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
            np.zeros_like(params.head),
        )


def init_model(
    input_dim: int,
    embed_dim: int,
    num_known: int,
    seed: int,
    hidden: tuple[int, ...] = (64, 64),
) -> ModelParams:
    """Uniform fan-in-scaled init for weights, zero biases, deterministic
    given seed. Hidden layers use tanh; the embedding layer is linear."""
    if min(input_dim, embed_dim, num_known) < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    sizes = [input_dim, *hidden, embed_dim]
    weights, biases, acts = [], [], []
    for i in range(len(sizes) - 1):
        fan_in = sizes[i]
        limit = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-limit, limit, size=(sizes[i + 1], fan_in)))
        biases.append(np.zeros(sizes[i + 1]))
        acts.append("tanh" if i < len(sizes) - 2 else "linear")
    limit = 1.0 / np.sqrt(embed_dim)
    head = rng.uniform(-limit, limit, size=(num_known + 1, embed_dim))
    return ModelParams(weights, biases, acts, head)


def _apply_act(pre: np.ndarray, act: str) -> np.ndarray:
    if act == "tanh":
        return np.tanh(pre)
    if act == "linear":
        return pre
    raise ValueError(f"unknown activation {act!r}")


def forward(params: ModelParams, x: np.ndarray) -> ForwardTrace:
    """Forward pass over the rows of an (n, input_dim) matrix. A 1-D x is
    the one-row case and gives a trace of 1-D arrays; stacked params give a
    trace with a leading slice axis, every slice fed the same rows. Raises
    on a zero or non-finite embedding row."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.input_dim:
        raise ValueError(f"input dim {x.shape[-1]} != model dim {params.input_dim}")
    acts = []
    a = x
    for w, b, act in zip(params.weights, params.biases, params.activations):
        # a stacked bias (A, out) broadcasts over its slice's rows
        a = _apply_act(a @ w.swapaxes(-1, -2) + (b[:, None] if b.ndim == 2 else b), act)
        acts.append(a)
    return ForwardTrace(x, acts, a, l2_normalize(a), a @ params.head.swapaxes(-1, -2))


def backward(params: ModelParams, trace: ForwardTrace, dlogits: np.ndarray) -> ModelGrads:
    """Gradients of the summed row losses w.r.t. all parameters, given
    dL/dlogits with the shape of trace.logits; per slice for stacked
    params."""
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != trace.logits.shape:
        raise ValueError("dlogits shape mismatch")
    inputs = [trace.x, *trace.activations]
    if dlogits.ndim == 1:
        dlogits, inputs = dlogits[None], [a[None] for a in inputs]
    dhead = dlogits.swapaxes(-1, -2) @ inputs[-1]
    da = dlogits @ params.head
    n = len(params.weights)
    dws: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    dbs: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for i in range(n - 1, -1, -1):
        if params.activations[i] == "tanh":
            dpre = da * (1.0 - inputs[i + 1] ** 2)
        else:
            dpre = da
        dws[i] = dpre.swapaxes(-1, -2) @ inputs[i]
        dbs[i] = dpre.sum(axis=-2)
        if i:
            da = dpre @ params.weights[i]
    return ModelGrads(dws, dbs, dhead)


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Header line (JSON) + raw little-endian float64 dumps, row-major,
    in layer order then head. Round-trips bit-exactly. Written through a
    temporary file, so a crash keeps the old checkpoint."""
    header = {
        "magic": _CKPT_MAGIC,
        "layer_shapes": [list(w.shape) for w in params.weights],
        "activations": params.activations,
        "head_shape": list(params.head.shape),
    }
    with atomic_open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for w, b in zip(params.weights, params.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.head, dtype="<f8").tobytes())


def _is_shape(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(type(v) is int and v > 0 for v in value))


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode())
        except ValueError:  # not UTF-8, or not JSON
            header = None
        if not isinstance(header, dict) or header.get("magic") != _CKPT_MAGIC:
            raise ValueError(f"not a model checkpoint: {path}")
        raw = fh.read()
    layers, head, acts = (header.get(k) for k in ("layer_shapes", "head_shape", "activations"))
    if not (isinstance(layers, list) and isinstance(acts, list) and len(acts) == len(layers)
            and all(map(_is_shape, [*layers, head])) and all(isinstance(a, str) for a in acts)):
        raise ValueError(f"{path}: the header needs layer_shapes and head_shape as [rows, cols] "
                         "lists and one activation name per layer")
    unknown = [a for a in acts if a not in _ACTIVATIONS]
    if unknown:
        raise ValueError(f"{path}: unknown activation {unknown[0]!r}; a layer is one of {_ACTIVATIONS}")
    # weights and bias per layer, then the head, each row-major
    shapes = [tuple(s) for shape in layers for s in (shape, shape[:1])]
    shapes.append(tuple(head))
    sizes = [int(np.prod(s)) for s in shapes]
    if len(raw) != 8 * sum(sizes):
        raise ValueError(f"{path}: {len(raw)} parameter bytes, its header needs {8 * sum(sizes)}")
    arrays, offset = [], 0
    for shape, count in zip(shapes, sizes):
        arrays.append(np.frombuffer(raw, "<f8", count, offset).reshape(shape).astype(np.float64))
        offset += 8 * count
    return ModelParams(arrays[0:-1:2], arrays[1:-1:2], acts, arrays[-1])
