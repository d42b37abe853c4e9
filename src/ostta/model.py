"""Feed-forward encoder plus bias-free linear head, with hand-written
forward and backward passes over batches of input rows.

A model's parameters live in one float64 buffer in checkpoint order, and
its weights, biases and head are views into it. `ModelParams.stack` puts
several models on a leading axis of the buffer, and so of every view;
forward and backward then run all of them in one pass of 3-D matrix
products, and an unstacked model is the no-axis case of the same code.

The head has num_known + 1 rows; the last row is the unknown class. Logits
are computed from the raw penultimate feature h; the normalized embedding
z = h / ||h||, divided out only when read, feeds the embedding machinery.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import atomic_open
from .numeric import block_rows, l2_norm

_CKPT_MAGIC = "ostta-ckpt-v1"
_ACTIVATIONS = ("tanh", "linear")


@dataclass
class ModelParams:
    """Copy one as `ModelParams(p.buffer.copy(), ...)`: a deepcopy would part
    the views from the copied buffer."""
    buffer: np.ndarray                 # (P,), or (A, P) for A stacked models
    activations: list[str]             # "tanh" or "linear", per encoder layer
    shapes: list[tuple[int, int]]      # (out, in) per encoder layer, then the head's
    # views into buffer, built from shapes by _views
    weights: list[np.ndarray] = field(init=False, repr=False)  # per layer, (out, in)
    biases: list[np.ndarray] = field(init=False, repr=False)   # per layer, (out,)
    head: np.ndarray = field(init=False, repr=False)           # (num_known + 1, embed_dim)

    def __post_init__(self) -> None:
        self.weights, self.biases, self.head = _views(self.buffer, self.shapes)

    @property
    def input_dim(self) -> int:
        return self.shapes[0][1]

    @property
    def embed_dim(self) -> int:
        return self.shapes[-1][1]

    @property
    def num_known(self) -> int:
        return self.shapes[-1][0] - 1

    @staticmethod
    def stack(models: list["ModelParams"]) -> "ModelParams":
        """One ModelParams over a buffer with one row per model of the same
        shapes and activations; forward and backward act on every row at
        once."""
        return ModelParams(np.stack([m.buffer for m in models]), list(models[0].activations),
                           list(models[0].shapes))

    def unstack(self) -> list["ModelParams"]:
        """The models of a stacked ModelParams, as copies."""
        return [ModelParams(row.copy(), list(self.activations), list(self.shapes))
                for row in self.buffer]

    def param_bytes(self) -> bytes:
        """The buffer's bytes: the body of this model's checkpoint."""
        return self.buffer.tobytes()


def _views(buffer: np.ndarray, shapes: list[tuple[int, int]]):
    """Weights, biases and head as views into buffer, which holds per layer
    its (out, in) weights and then its (out,) bias, then the head, each
    row-major; a stacked buffer's leading axis leads every view. The one
    place that knows the parameter layout."""
    order = [s for out, cols in shapes[:-1] for s in ((out, cols), (out,))] + [tuple(shapes[-1])]
    lead, views, start = buffer.shape[:-1], [], 0
    for shape in order:
        stop = start + math.prod(shape)
        view = buffer[..., start:stop].reshape(lead + shape)
        if not np.may_share_memory(view, buffer):  # a copy would drop writes
            raise AssertionError(f"the view of shape {shape} is a copy")
        views.append(view)
        start = stop
    if start != buffer.shape[-1]:
        raise ValueError(f"{8 * buffer.shape[-1]} parameter bytes, the shapes need {8 * start}")
    return views[0:-1:2], views[1:-1:2], views[-1]


@dataclass
class ForwardTrace:
    x: np.ndarray
    activations: list[np.ndarray]
    h: np.ndarray       # penultimate feature
    norm: float | np.ndarray  # ||h||, per row as a (..., 1) column
    logits: np.ndarray

    @property
    def z(self) -> np.ndarray:
        """The unit-norm embedding, divided out on each read: training never pays for it."""
        return self.h / self.norm


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
    shapes = list(zip(sizes[1:], sizes[:-1])) + [(num_known + 1, embed_dim)]
    count = sum(out * fan_in + out for out, fan_in in shapes[:-1]) + math.prod(shapes[-1])
    params = ModelParams(np.zeros(count), ["tanh"] * len(hidden) + ["linear"], shapes)
    for array in (*params.weights, params.head):  # in the order of the draws
        limit = 1.0 / np.sqrt(array.shape[1])
        array[...] = rng.uniform(-limit, limit, size=array.shape)
    return params


def forward(params: ModelParams, x: np.ndarray) -> ForwardTrace:
    """Forward pass over the rows of an (n, input_dim) matrix; for unstacked
    params a 1-D x is the one-row case and gives a trace of 1-D arrays. Stacked
    params give a trace with a leading slice axis, every slice fed the same
    rows. Raises on a zero or non-finite embedding row, before the head product."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.input_dim:
        raise ValueError(f"input dim {x.shape[-1]} != model dim {params.input_dim}")
    if x.ndim == 1 and params.buffer.ndim == 2:
        raise ValueError(f"stacked params of buffer shape {params.buffer.shape} need an "
                         f"(n, {params.input_dim}) x, not shape {x.shape}")
    acts = []
    a = x
    for w, b, act in zip(params.weights, params.biases, params.activations):
        a = a @ w.swapaxes(-1, -2)
        a += b[:, None] if b.ndim == 2 else b  # a stacked bias (A, out) per slice's rows
        if act == "tanh":
            np.tanh(a, out=a)
        acts.append(a)
    norm = l2_norm(a)  # raises on a bad row before the head product can overflow
    return ForwardTrace(x, acts, a, norm, a @ params.head.swapaxes(-1, -2))


def forward_rows(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit embeddings and logits of the rows of an (n, input_dim) x for
    unstacked params, as stacks of one-row products, so every row gets
    exactly the bits of its own 1-D `forward`, whatever rows share the call.
    A block's forward trace (input, every layer, z and logits) fits
    `block_rows`."""
    width = params.input_dim + sum(map(len, params.weights)) + params.embed_dim + len(params.head)
    rows = block_rows(width)
    z, logits = np.empty((len(x), params.embed_dim)), np.empty((len(x), len(params.head)))
    for i in range(0, len(x), rows):
        trace = forward(params, x[i : i + rows, None, :])
        z[i : i + rows], logits[i : i + rows] = trace.z[:, 0], trace.logits[:, 0]
        del trace  # else two blocks' activations are live during the next forward
    return z, logits


def backward(params: ModelParams, trace: ForwardTrace, dlogits: np.ndarray,
             out: ModelParams | None = None) -> ModelParams:
    """Gradients of the summed row losses w.r.t. all parameters, given
    dL/dlogits with the shape of trace.logits, per row for stacked params:
    written into `out`, or else into a ModelParams over a fresh buffer."""
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != trace.logits.shape:
        raise ValueError("dlogits shape mismatch")
    inputs = [trace.x, *trace.activations]
    if dlogits.ndim == 1:
        dlogits, inputs = dlogits[None], [a[None] for a in inputs]
    grads = out or ModelParams(np.empty_like(params.buffer), params.activations, params.shapes)
    np.matmul(dlogits.swapaxes(-1, -2), inputs[-1], out=grads.head)
    da = dlogits @ params.head
    for i in range(len(params.weights) - 1, -1, -1):
        if params.activations[i] == "tanh":  # da, a fresh array, becomes d(pre-activation)
            da *= 1.0 - inputs[i + 1] ** 2
        np.matmul(da.swapaxes(-1, -2), inputs[i], out=grads.weights[i])
        da.sum(axis=-2, out=grads.biases[i])
        if i:
            da = da @ params.weights[i]
    return grads


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Header line (JSON) + the buffer as raw little-endian float64, whose
    layout `_views` gives. Round-trips bit-exactly. Written through a
    temporary file, so a crash keeps the old checkpoint."""
    header = {
        "magic": _CKPT_MAGIC,
        "layer_shapes": [list(s) for s in params.shapes[:-1]],
        "activations": params.activations,
        "head_shape": list(params.shapes[-1]),
    }
    with atomic_open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(np.ascontiguousarray(params.buffer, dtype="<f8").tobytes())


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
    if not (isinstance(layers, list) and layers and isinstance(acts, list)
            and len(acts) == len(layers) and all(map(_is_shape, [*layers, head]))
            and all(isinstance(a, str) for a in acts)):
        raise ValueError(f"{path}: the header needs layer_shapes and head_shape as [rows, cols] "
                         "lists and one activation name per layer")
    unknown = [a for a in acts if a not in _ACTIVATIONS]
    if unknown:
        raise ValueError(f"{path}: unknown activation {unknown[0]!r}; a layer is one of {_ACTIVATIONS}")
    widths = [cols for _, cols in layers] + [head[1]]
    if widths[1:] != [rows for rows, _ in layers] or head[0] < 2:
        raise ValueError(f"{path}: layer shapes {layers} and head shape {head} do not chain; "
                         "each layer and the head take the previous layer's rows as columns, "
                         "and the head needs at least 2 rows")
    if len(raw) % 8:
        raise ValueError(f"{path}: {len(raw)} parameter bytes, not a whole number of float64s")
    buffer = np.frombuffer(raw, "<f8").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(buffer))
    if len(bad):
        raise ValueError(f"{path}: parameter {bad[0]} is {buffer[bad[0]]}, not finite")
    try:
        return ModelParams(buffer, acts, [tuple(s) for s in [*layers, head]])
    except ValueError as exc:  # a body of the wrong size for its header
        raise ValueError(f"{path}: {exc}") from None
