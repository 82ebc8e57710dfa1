"""Shallow per-correspondence networks with manual backpropagation.

Three learned blocks act row-wise on the n x 128 latent estimation state:
a state initializer (Fourier-lifted side information -> state), an inlier
decoder (state -> probability), and a one-step state transformer

    F <- mlp1([F, mlp2(A . mlp3(F))])

where A is the consensus attention operator, treated as a constant during
backpropagation (the score path runs through sampling and minimal solving,
which are not differentiated). Gradients are computed by reverse-mode
differentiation over explicit tapes and are exact for the recorded forward
pass; they are validated against central finite differences in the tests.

The forward pass runs in the dtype of the bundle's parameters: float64 for
training, float32 (``MlpBundle.astype(INFERENCE_DTYPE)``) for inference.
Decoded probabilities are float64 in both.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

LEAKY_SLOPE = 0.01
STATE_DIM = 128
FOURIER_FREQS = 8  # frequencies 2^0 .. 2^7, sin and cos each

_PROB_EPS = 1e-12  # decoder outputs clamped to (eps, 1-eps), in float64
# the precisions a bundle runs in: training needs float64; the inference
# adapters run in INFERENCE_DTYPE, where the n x 128 GEMMs are 2-3x faster
BUNDLE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))
INFERENCE_DTYPE = np.dtype(np.float32)

WEIGHTS_MAGIC = "caransac-weights"
WEIGHTS_VERSION = 1


class WeightFormatError(Exception):
    """Raised when a weight file cannot be parsed or does not match the architecture."""


def _exp_max(dtype: np.dtype) -> float:
    """Where the sigmoid clips -z: the largest whole number whose exp is finite
    in ``dtype`` (709 for float64, 88 for float32)."""
    return float(math.floor(math.log(np.finfo(dtype).max)))


def _apply_activation_inplace(z: np.ndarray, activation: str) -> np.ndarray:
    """Overwrite a fresh pre-activation buffer with the activation output."""
    if activation == "leaky_relu":
        np.maximum(z, LEAKY_SLOPE * z, out=z)
    elif activation == "tanh":
        np.tanh(z, out=z)
    elif activation == "sigmoid":
        np.negative(z, out=z)
        np.minimum(z, _exp_max(z.dtype), out=z)
        np.exp(z, out=z)
        z += 1.0
        np.reciprocal(z, out=z)
    elif activation != "none":
        raise ValueError(f"unknown activation {activation!r}")
    return z


def _activation_grad(y: np.ndarray, activation: str) -> np.ndarray:
    # every activation's derivative is a function of its output: the leaky
    # slope is positive so sign(y) == sign(z)
    if activation == "leaky_relu":
        return np.where(y > 0, 1.0, LEAKY_SLOPE)
    if activation == "tanh":
        return 1.0 - y * y
    if activation == "sigmoid":
        return y * (1.0 - y)
    if activation == "none":
        return np.ones_like(y)
    raise ValueError(f"unknown activation {activation!r}")


@dataclass
class LinearLayer:
    """y = act(x @ w.T + b) applied row-wise, in the dtype of ``w``: float32
    or float64 weights are kept as given, any other input becomes float64."""

    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        w = np.asarray(self.w)
        self.w = w if w.dtype in BUNDLE_DTYPES else w.astype(np.float64)
        self.b = np.asarray(self.b, dtype=self.w.dtype)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ValueError("inconsistent layer shapes")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise ValueError("layer parameters must be finite")


@dataclass
class Mlp:
    layers: list[LinearLayer]

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        for layer in self.layers:
            z = x @ layer.w.T
            z += layer.b
            y = _apply_activation_inplace(z, layer.activation)
            if tape is not None:
                tape.append((x, y))
            x = y
        return x

    def backward(self, grad_out: np.ndarray, tape: list, grads: list) -> np.ndarray:
        """Accumulate parameter gradients into ``grads``; return d(loss)/d(input)."""
        if len(tape) != len(self.layers):
            raise ValueError("tape does not match network depth")
        g = grad_out
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            x, y = tape[idx]
            dz = g * _activation_grad(y, layer.activation)
            dw, db = grads[idx]
            dw += dz.T @ x
            db += dz.sum(axis=0)
            g = dz @ layer.w
        return g

    def zero_grads(self) -> list:
        return [[np.zeros_like(l.w), np.zeros_like(l.b)] for l in self.layers]


def _xavier_layer(rng: np.random.Generator, n_out: int, n_in: int, activation: str) -> LinearLayer:
    bound = np.sqrt(6.0 / (n_in + n_out))
    w = rng.uniform(-bound, bound, size=(n_out, n_in))
    return LinearLayer(w, np.zeros(n_out), activation)


# (name, output width, input width, activation) for each layer, fixed order.
ARCHITECTURE: tuple[tuple[str, int, int, str], ...] = (
    ("init_state.0", 128, 16, "leaky_relu"),
    ("init_state.1", 128, 128, "none"),
    ("inlier_decoder.0", 64, 128, "leaky_relu"),
    ("inlier_decoder.1", 32, 64, "leaky_relu"),
    ("inlier_decoder.2", 1, 32, "sigmoid"),
    ("mlp1.0", 128, 256, "leaky_relu"),
    ("mlp1.1", 128, 128, "leaky_relu"),
    ("mlp1.2", 128, 128, "none"),
    ("mlp2.0", 128, 128, "tanh"),
    ("mlp2.1", 128, 128, "tanh"),
    ("mlp2.2", 128, 128, "none"),
    ("mlp3.0", 128, 128, "tanh"),
    ("mlp3.1", 128, 128, "tanh"),
    ("mlp3.2", 128, 128, "none"),
)

_NETS = ("init_state", "inlier_decoder", "mlp1", "mlp2", "mlp3")


@dataclass
class MlpBundle:
    """All trained parameters: the three transformer MLPs, the state
    initializer, the inlier decoder, and the refinement power alpha."""

    init_state: Mlp
    inlier_decoder: Mlp
    mlp1: Mlp
    mlp2: Mlp
    mlp3: Mlp
    alpha: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and positive")
        if len({l.w.dtype for net in self.nets().values() for l in net.layers}) > 1:
            raise ValueError("every layer of a bundle must have the same dtype")

    @property
    def dtype(self) -> np.dtype:
        """The precision the learned blocks run in: that of every layer."""
        return self.init_state.layers[0].w.dtype

    @staticmethod
    def initialize(seed: int = 0) -> "MlpBundle":
        rng = np.random.default_rng(seed)
        nets: dict[str, list[LinearLayer]] = {name: [] for name in _NETS}
        for name, n_out, n_in, act in ARCHITECTURE:
            net = name.split(".")[0]
            nets[net].append(_xavier_layer(rng, n_out, n_in, act))
        return MlpBundle(*(Mlp(nets[name]) for name in _NETS), alpha=1.0)

    def nets(self) -> dict[str, Mlp]:
        return {name: getattr(self, name) for name in _NETS}

    def copy(self) -> "MlpBundle":
        return self.astype(self.dtype)

    def astype(self, dtype) -> "MlpBundle":
        """A copy with every layer's parameters in ``dtype`` (float32 or float64).

        The forward pass runs in the bundle's dtype; the inlier probabilities
        are float64 either way. Training and its gradients need float64.
        """
        dtype = np.dtype(dtype)
        if dtype not in BUNDLE_DTYPES:
            raise ValueError(f"a bundle runs in float32 or float64, not {dtype}")
        nets = {
            name: Mlp([
                LinearLayer(l.w.astype(dtype), l.b.astype(dtype), l.activation) for l in net.layers
            ])
            for name, net in self.nets().items()
        }
        return MlpBundle(*(nets[name] for name in _NETS), alpha=self.alpha)


@dataclass
class BundleGrads:
    """Parameter gradients matching an MlpBundle's layout."""

    nets: dict[str, list]
    alpha: float = 0.0

    @staticmethod
    def zeros(bundle: MlpBundle) -> "BundleGrads":
        return BundleGrads({name: net.zero_grads() for name, net in bundle.nets().items()})

    def flat(self) -> np.ndarray:
        parts = []
        for name in _NETS:
            for dw, db in self.nets[name]:
                parts.append(dw.ravel())
                parts.append(db.ravel())
        parts.append(np.array([self.alpha]))
        return np.concatenate(parts)

    def scale(self, factor: float) -> None:
        for name in _NETS:
            for dw, db in self.nets[name]:
                dw *= factor
                db *= factor
        self.alpha *= factor


# ---------------------------------------------------------------------------
# forward ops


def fourier_lift(x: np.ndarray) -> np.ndarray:
    """Lift an (n,) array of scalars in [0, 1] to (n, 16) Fourier features.

    Layout is (sin(2^k pi x), cos(2^k pi x)) interleaved per frequency, for
    k = 0..7 ascending; the order is part of the weight-file contract.
    """
    x = np.asarray(x, dtype=np.float64)
    freqs = 2.0 ** np.arange(FOURIER_FREQS)
    angles = np.pi * x[:, None] * freqs[None, :]
    out = np.empty((x.shape[0], 2 * FOURIER_FREQS))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def init_state(bundle: MlpBundle, side_info: np.ndarray, tape: list | None = None) -> np.ndarray:
    """Initial n x 128 latent state, in the bundle's dtype, from
    per-correspondence side information."""
    x = fourier_lift(side_info).astype(bundle.dtype, copy=False)
    return bundle.init_state.forward(x, tape)


def decode_inliers(bundle: MlpBundle, f: np.ndarray, tape: list | None = None) -> np.ndarray:
    """Per-row float64 inlier probabilities, strictly inside (0, 1).

    The clip runs in float64: in float32, 1 - 1e-12 rounds to 1.0.
    """
    out = bundle.inlier_decoder.forward(f, tape)
    return np.clip(out[:, 0].astype(np.float64, copy=False), _PROB_EPS, 1.0 - _PROB_EPS)


@dataclass
class StateStepTape:
    """Forward record of one state update (and the decode that follows it)."""

    attention: object | None  # constant under backprop; None = update skipped
    mlp3: list = field(default_factory=list)
    mlp2: list = field(default_factory=list)
    mlp1: list = field(default_factory=list)
    decoder: list = field(default_factory=list)


def state_transform(bundle: MlpBundle, f: np.ndarray, a, tape: StateStepTape | None = None) -> np.ndarray:
    """One consensus-gated state update: mlp1([F, mlp2(A . mlp3(F))]).

    ``a`` is anything exposing ``dot``: a dense (n, n) attention ndarray or
    the factored ``ConsensusProduct``. A ``tape`` records the three MLPs;
    the caller sets its ``attention`` to the operator backward should apply.
    """
    y3 = bundle.mlp3.forward(f, tape.mlp3 if tape else None)
    g = a.dot(y3)
    y2 = bundle.mlp2.forward(g, tape.mlp2 if tape else None)
    x1 = np.concatenate([f, y2], axis=1)
    return bundle.mlp1.forward(x1, tape.mlp1 if tape else None)


@dataclass
class ForwardTape:
    """Recorded forward pass of the neural components over one estimation run."""

    init: list = field(default_factory=list)
    steps: list[StateStepTape] = field(default_factory=list)


def backward(
    bundle: MlpBundle,
    tape: ForwardTape,
    prob_grads: Sequence[np.ndarray],
) -> BundleGrads:
    """Backpropagate per-step probability gradients through the recorded run.

    ``prob_grads[q]`` is d(loss)/d(probabilities decoded after step q). The
    attention operators on the tape are constants. Returns accumulated
    gradients for every MLP parameter (alpha is trained separately).
    """
    if len(prob_grads) != len(tape.steps):
        raise ValueError("one probability gradient per recorded step is required")
    if not tape.init:
        raise ValueError("missing forward tape")
    grads = BundleGrads.zeros(bundle)

    state_dim = STATE_DIM
    df = None
    for step, dp in zip(reversed(tape.steps), reversed(list(prob_grads))):
        d_dec = bundle.inlier_decoder.backward(
            np.asarray(dp, dtype=np.float64)[:, None], step.decoder, grads.nets["inlier_decoder"]
        )
        df = d_dec if df is None else df + d_dec
        if step.attention is None:
            continue  # state update was skipped; df flows straight through
        dx1 = bundle.mlp1.backward(df, step.mlp1, grads.nets["mlp1"])
        df_direct = dx1[:, :state_dim]
        dy2 = dx1[:, state_dim:]
        dg = bundle.mlp2.backward(dy2, step.mlp2, grads.nets["mlp2"])
        dy3 = step.attention.dot(dg)  # A is symmetric, so A^T == A
        df_attn = bundle.mlp3.backward(dy3, step.mlp3, grads.nets["mlp3"])
        df = df_direct + df_attn
    if df is not None:
        bundle.init_state.backward(df, tape.init, grads.nets["init_state"])
    return grads


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return repr(float(x))


def save_weights(bundle: MlpBundle) -> bytes:
    """Serialize a bundle to the versioned textual weight format."""
    buf = io.StringIO()
    buf.write(f"{WEIGHTS_MAGIC} {WEIGHTS_VERSION}\n")
    buf.write(f"leaky_relu_slope {_fmt(LEAKY_SLOPE)}\n")
    buf.write(f"alpha {_fmt(bundle.alpha)}\n")
    nets = bundle.nets()
    for name, n_out, n_in, act in ARCHITECTURE:
        net, idx = name.split(".")
        layer = nets[net].layers[int(idx)]
        buf.write(f"layer {name} {act} {n_out} {n_in}\n")
        for row in layer.w:
            buf.write(" ".join(_fmt(v) for v in row) + "\n")
        buf.write("bias " + " ".join(_fmt(v) for v in layer.b) + "\n")
    return buf.getvalue().encode("ascii")


def _numbers(tokens: list[str], context: str) -> list[float]:
    """The tokens of one weight-file line as floats."""
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise WeightFormatError(f"{context}: {exc}") from None


def load_weights(blob: bytes) -> MlpBundle:
    """Parse a weight file; raises WeightFormatError on any mismatch."""
    try:
        lines = blob.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise WeightFormatError(f"not a text weight file: {exc}") from None
    pos = 0

    def next_line(context: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise WeightFormatError(f"truncated weight file while reading {context}")
        line = lines[pos]
        pos += 1
        return line

    header = next_line("header").split()
    if len(header) != 2 or header[0] != WEIGHTS_MAGIC:
        raise WeightFormatError("bad magic line")
    if header[1] != str(WEIGHTS_VERSION):
        raise WeightFormatError(f"unsupported weight version {header[1]}")
    slope = next_line("slope").split()
    if len(slope) != 2 or slope[0] != "leaky_relu_slope" or _numbers(slope[1:], "slope")[0] != LEAKY_SLOPE:
        raise WeightFormatError("unexpected leaky_relu_slope entry")
    alpha_line = next_line("alpha").split()
    if len(alpha_line) != 2 or alpha_line[0] != "alpha":
        raise WeightFormatError("missing alpha entry")
    alpha = _numbers(alpha_line[1:], "alpha")[0]
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise WeightFormatError(f"alpha must be finite and positive, got {alpha!r}")

    nets: dict[str, list[LinearLayer]] = {name: [] for name in _NETS}
    for name, n_out, n_in, act in ARCHITECTURE:
        fields = next_line(f"layer {name}").split()
        if len(fields) != 5 or fields[0] != "layer":
            raise WeightFormatError(f"expected a layer header for {name}")
        if fields[1] != name:
            raise WeightFormatError(f"expected layer {name}, found {fields[1]}")
        if fields[2] != act:
            raise WeightFormatError(f"layer {name}: expected activation {act}, found {fields[2]}")
        if fields[3:] != [str(n_out), str(n_in)]:
            raise WeightFormatError(
                f"layer {name}: expected shape {n_out}x{n_in}, found {fields[3]}x{fields[4]}"
            )
        rows = []
        for r in range(n_out):
            values = next_line(f"layer {name} row {r}").split()
            if len(values) != n_in:
                raise WeightFormatError(f"layer {name}: row {r} has {len(values)} values, expected {n_in}")
            rows.append(_numbers(values, f"layer {name} row {r}"))
        bias_fields = next_line(f"layer {name} bias").split()
        if not bias_fields or bias_fields[0] != "bias" or len(bias_fields) != n_out + 1:
            raise WeightFormatError(f"layer {name}: malformed bias line")
        w = np.array(rows)
        b = np.array(_numbers(bias_fields[1:], f"layer {name} bias"))
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise WeightFormatError(f"layer {name}: non-finite parameters")
        nets[name.split(".")[0]].append(LinearLayer(w, b, act))
    if pos != len(lines):
        raise WeightFormatError("trailing content after the last layer")
    return MlpBundle(*(Mlp(nets[name]) for name in _NETS), alpha=alpha)
