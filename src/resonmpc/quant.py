"""Software emulation of the fixed-point inference path.

Weights, biases, per-layer activations and pre-activations are 16-bit
signed words (the word width is a parameter).  Weight, bias and input binary points are chosen from the
tensors and calibration data; pre-activation words span the domain of
their consumer (the tanh table, or the output-box clip).
Inference runs entirely in integer arithmetic: wide accumulation,
round-to-nearest-even requantization with saturation, and a 1024-entry
interpolated tanh table, so results are bit-exact across platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, QuantizationError
from .plant import ControlInput
from .policy import PolicyNetwork, forward_batch

__all__ = [
    "QuantizedNetwork",
    "quantize",
    "forward_q",
    "forward_q_batch",
    "quantization_report",
    "save_quantized",
    "load_quantized",
]

QNET_FORMAT_VERSION = 1
TANH_TABLE_SIZE = 1024
TANH_RANGE = 4.0  # table domain [-4, 4]; a power of two
TANH_FRAC = 15  # Q15 table entries


def _frac_bits(max_abs: float, word_bits: int) -> int:
    """Fractional bits: sign + ceil(log2(max_abs)) integer bits out of the word."""
    if max_abs <= 0.0:
        return word_bits - 1
    int_bits = max(0, math.ceil(math.log2(max_abs))) + 1
    frac = (word_bits - 1) - int_bits
    if frac < -(word_bits - 1):
        raise QuantizationError(f"magnitude {max_abs} cannot fit a {word_bits}-bit word")
    return frac


def _quantize_array(a: np.ndarray, frac: int, word_bits: int) -> np.ndarray:
    q = np.rint(np.asarray(a, dtype=float) * float(2**frac))  # rint rounds half to even
    limit = 2 ** (word_bits - 1)
    if np.any(np.abs(q) >= limit):
        raise QuantizationError(
            f"value exceeds {word_bits}-bit range at {frac} fractional bits"
        )
    return q.astype(np.int64)


def _rne_rshift(v: np.ndarray, shift: int) -> np.ndarray:
    """Round-to-nearest-even arithmetic right shift on int64 arrays."""
    if shift <= 0:
        return v << (-shift)
    half = np.int64(1) << (shift - 1)
    mask = (np.int64(1) << shift) - 1
    q = v >> shift
    r = v & mask
    up = (r > half) | ((r == half) & ((q & 1) == 1))
    return q + up.astype(np.int64)


def _build_tanh_table() -> np.ndarray:
    xs = np.linspace(-TANH_RANGE, TANH_RANGE, TANH_TABLE_SIZE)
    return np.rint(np.tanh(xs) * 2**TANH_FRAC).astype(np.int64)


@dataclass(frozen=True)
class QuantizedNetwork:
    """Integer words plus per-tensor binary points for the policy network."""

    weight_words: tuple  # int64 arrays holding word_bits-wide values
    bias_words: tuple
    weight_fracs: tuple
    bias_fracs: tuple
    input_frac: int
    preact_fracs: tuple  # requantization format after each layer's accumulate
    tanh_table: np.ndarray  # int64, Q15 values
    word_bits: int
    input_lo: np.ndarray
    input_hi: np.ndarray
    output_lo: np.ndarray
    output_hi: np.ndarray

    @property
    def n_layers(self) -> int:
        return len(self.weight_words)


def quantize(
    net: PolicyNetwork, calibration: np.ndarray, word_bits: int = 16
) -> QuantizedNetwork:
    """Fixed-point version of `net`, formats calibrated on `calibration` inputs.

    Weight/bias formats come from each tensor's own range.  Each layer's
    accumulator is requantized to a word_bits-wide pre-activation whose range
    is the domain of its consumer: [-TANH_RANGE, TANH_RANGE) for hidden
    layers (the tanh table) and [-1, 1) for the output layer (the
    output-box clip).  The input format comes from the calibration inputs.
    """
    if net.activation != "tanh":
        raise ArgumentError("quantized inference supports tanh hidden layers only")
    calibration = np.asarray(calibration, dtype=float).reshape(-1, 3)
    if calibration.size == 0:
        raise ArgumentError("calibration set must be nonempty")
    xn = net.normalize_inputs(calibration)
    input_frac = _frac_bits(float(np.max(np.abs(xn))), word_bits)

    w_fracs, b_fracs, w_words, b_words = [], [], [], []
    for w, b in zip(net.weights, net.biases):
        wf = _frac_bits(float(np.max(np.abs(w))), word_bits)
        bf = _frac_bits(float(np.max(np.abs(b))), word_bits)
        w_fracs.append(wf)
        b_fracs.append(bf)
        w_words.append(_quantize_array(w, wf, word_bits))
        b_words.append(_quantize_array(b, bf, word_bits))
    # A word only needs to span the values its consumer distinguishes.  A
    # hidden pre-activation feeds the tanh table, which clamps outside
    # [-TANH_RANGE, TANH_RANGE]; the final layer feeds the output-box
    # mapping, which clips the normalized outputs to [-1, 1].  Word
    # saturation performs either clamp, so every bit beyond the consumer's
    # domain goes to resolution instead of to integer bits for overshoot
    # that would be discarded anyway.  Sizing hidden words by the calibrated
    # pre-activation range instead (|z| up to ~30) would leave Q9/Q10 words,
    # whose steps show up as a staircase in the closed-loop input.
    hidden_frac = word_bits - 1 - int(math.log2(TANH_RANGE))  # [-R, R)
    preact_fracs = (hidden_frac,) * (len(net.weights) - 1) + (word_bits - 1,)

    return QuantizedNetwork(
        weight_words=tuple(w_words),
        bias_words=tuple(b_words),
        weight_fracs=tuple(w_fracs),
        bias_fracs=tuple(b_fracs),
        input_frac=input_frac,
        preact_fracs=preact_fracs,
        tanh_table=_build_tanh_table(),
        word_bits=word_bits,
        input_lo=net.input_lo.copy(),
        input_hi=net.input_hi.copy(),
        output_lo=net.output_lo.copy(),
        output_hi=net.output_hi.copy(),
    )


def _saturate(v: np.ndarray, word_bits: int):
    limit = np.int64(2 ** (word_bits - 1) - 1)
    clipped = np.clip(v, -limit - 1, limit)
    return clipped, int(np.count_nonzero(clipped != v))


def _tanh_lookup(x_words: np.ndarray, frac: int, table: np.ndarray) -> np.ndarray:
    """Integer linear interpolation into the tanh table; clamps outside range."""
    lo = -(np.int64(TANH_RANGE) << frac)
    span = np.int64(2 * TANH_RANGE) << frac
    num = (x_words - lo) * np.int64(TANH_TABLE_SIZE - 1)
    idx = num // span
    below = idx < 0
    above = idx >= TANH_TABLE_SIZE - 1
    idx = np.clip(idx, 0, TANH_TABLE_SIZE - 2)
    rem = num - idx * span
    y0 = table[idx]
    y1 = table[idx + 1]
    y = y0 + ((y1 - y0) * rem) // span
    y = np.where(below, table[0], y)
    y = np.where(above, table[-1], y)
    return y


def _forward_q_core(qnet: QuantizedNetwork, x: np.ndarray):
    """Integer forward pass; returns (clamped outputs, saturation count).

    The count is of output words clipped to the output box.  Hidden
    pre-activation words clamp to the tanh table's domain as part of the
    activation and are not counted.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    xn = 2.0 * (x - qnet.input_lo) / (qnet.input_hi - qnet.input_lo) - 1.0
    limit = np.int64(2 ** (qnet.word_bits - 1) - 1)
    a = np.clip(np.rint(xn * 2**qnet.input_frac), -limit - 1, limit).astype(np.int64)
    a_frac = qnet.input_frac
    for l in range(qnet.n_layers):
        w = qnet.weight_words[l]
        acc_frac = qnet.weight_fracs[l] + a_frac
        acc = a @ w.T  # products accumulated wide (int64)
        bias = qnet.bias_words[l] << max(0, acc_frac - qnet.bias_fracs[l])
        if acc_frac < qnet.bias_fracs[l]:
            bias = _rne_rshift(qnet.bias_words[l], qnet.bias_fracs[l] - acc_frac)
        acc = acc + bias
        z = _rne_rshift(acc, acc_frac - qnet.preact_fracs[l])
        z, saturations = _saturate(z, qnet.word_bits)
        if l < qnet.n_layers - 1:
            a = _tanh_lookup(z, qnet.preact_fracs[l], qnet.tanh_table)
            a_frac = TANH_FRAC
        else:
            a = z
            a_frac = qnet.preact_fracs[l]
    y = a.astype(float) / float(2**a_frac)
    center = 0.5 * (qnet.output_lo + qnet.output_hi)
    half = 0.5 * (qnet.output_hi - qnet.output_lo)
    u = np.clip(center + half * y, qnet.output_lo, qnet.output_hi)
    return u, saturations


def forward_q_batch(qnet: QuantizedNetwork, x: np.ndarray) -> np.ndarray:
    return _forward_q_core(qnet, x)[0]


def forward_q(qnet: QuantizedNetwork, x) -> ControlInput:
    """Integer-arithmetic policy evaluation at one point."""
    u, _ = _forward_q_core(qnet, np.asarray(x, dtype=float).reshape(1, 3))
    return ControlInput(float(u[0, 0]), float(u[0, 1]))


def quantization_report(
    net: PolicyNetwork, qnet: QuantizedNetwork, testset: np.ndarray
) -> dict:
    """Float-vs-integer deviation summary on a test set; JSON-serializable.

    Deviations are relative to the output-box half-width per dimension.
    """
    testset = np.asarray(testset, dtype=float).reshape(-1, 3)
    if testset.size == 0:
        raise ArgumentError("testset must be nonempty")
    u_f = forward_batch(net, testset)
    u_q, saturations = _forward_q_core(qnet, testset)
    half = 0.5 * (qnet.output_hi - qnet.output_lo)
    rel = np.abs(u_q - u_f) / half
    limit = float(2 ** (qnet.word_bits - 1) - 1)
    utilization = [
        float(np.max(np.abs(w)) / limit) if w.size else 0.0 for w in qnet.weight_words
    ]
    return {
        "n_samples": int(testset.shape[0]),
        "max_rel_deviation": rel.max(axis=0).tolist(),
        "mean_rel_deviation": rel.mean(axis=0).tolist(),
        "saturation_events": int(saturations),
        "weight_range_utilization": utilization,
        "word_bits": qnet.word_bits,
    }


def save_quantized(qnet: QuantizedNetwork, path):
    doc = {
        "format_version": QNET_FORMAT_VERSION,
        "word_bits": qnet.word_bits,
        "weight_words": [w.ravel().tolist() for w in qnet.weight_words],
        "weight_shapes": [list(w.shape) for w in qnet.weight_words],
        "bias_words": [b.tolist() for b in qnet.bias_words],
        "weight_fracs": list(qnet.weight_fracs),
        "bias_fracs": list(qnet.bias_fracs),
        "input_frac": qnet.input_frac,
        "preact_fracs": list(qnet.preact_fracs),
        "tanh_table": qnet.tanh_table.tolist(),
        "tanh_range": TANH_RANGE,
        "tanh_frac": TANH_FRAC,
        "input_box": {"lo": qnet.input_lo.tolist(), "hi": qnet.input_hi.tolist()},
        "output_box": {"lo": qnet.output_lo.tolist(), "hi": qnet.output_hi.tolist()},
    }
    Path(path).write_text(json.dumps(doc))


def load_quantized(path) -> QuantizedNetwork:
    """Read a `save_quantized` file; a malformed one raises ArgumentError.

    Checked: the JSON, the format version, every key's type, the tanh
    table's range, format and length against this module's, words and
    binary points inside the word width, word counts against the shapes,
    shapes chaining from 3 inputs to 2 outputs, and bias, format and box
    lengths against the layers.
    """
    def require(ok, what):
        if not ok:
            raise ArgumentError(f"malformed quantized network in {path}: {what}")

    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"{path} is not valid JSON: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if not (is_int(version) and version == QNET_FORMAT_VERSION):
        raise ArgumentError(f"unsupported quantized-network format_version in {path}")

    def words(v, what, bits):
        lim = 1 << (bits - 1)
        require(isinstance(v, list) and all(is_int(x) and -lim <= x < lim for x in v),
                f"{what} is not a list of {bits}-bit words")
        return np.asarray(v, dtype=np.int64)

    def box(key, n):
        b = doc.get(key)
        bounds = [b.get("lo"), b.get("hi")] if isinstance(b, dict) else [None, None]
        for v in bounds:
            require(isinstance(v, list) and len(v) == n
                    and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v),
                    f"{key} does not hold {n} numbers per bound")
        lo, hi = (np.asarray(v, dtype=float) for v in bounds)
        require(np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)),
                f"{key} is not finite with lo < hi")
        return lo, hi

    word_bits = doc.get("word_bits")
    require(is_int(word_bits) and 2 <= word_bits <= 32, "word_bits is not an integer in [2, 32]")
    require(doc.get("tanh_range") == TANH_RANGE and doc.get("tanh_frac") == TANH_FRAC,
            f"tanh table format is not range {TANH_RANGE}, Q{TANH_FRAC}")
    table = words(doc.get("tanh_table"), "tanh_table", TANH_FRAC + 1)
    require(table.size == TANH_TABLE_SIZE, f"tanh_table does not hold {TANH_TABLE_SIZE} entries")
    flat, shapes = doc.get("weight_words"), doc.get("weight_shapes")
    require(isinstance(flat, list) and isinstance(shapes, list) and len(flat) == len(shapes) >= 1,
            "weight_words and weight_shapes do not list the same layers")
    n_layers = len(shapes)
    for shape in shapes:
        require(isinstance(shape, list) and len(shape) == 2
                and all(is_int(n) and n >= 1 for n in shape),
                f"weight shape {shape} is not two positive integers")
    n_out = [shape[0] for shape in shapes]
    n_in = [shape[1] for shape in shapes]
    require(n_in[0] == 3 and n_out[-1] == 2 and n_in[1:] == n_out[:-1],
            f"layer shapes {shapes} do not chain from 3 inputs to 2 outputs")
    weight_words = tuple(words(w, f"weight_words[{l}]", word_bits) for l, w in enumerate(flat))
    for l, (w, shape) in enumerate(zip(weight_words, shapes)):
        require(w.size == shape[0] * shape[1], f"layer {l} holds {w.size} words, shape {shape}")
    bias = doc.get("bias_words")
    require(isinstance(bias, list) and len(bias) == n_layers, "bias_words do not match the layers")
    bias_words = tuple(words(b, f"bias_words[{l}]", word_bits) for l, b in enumerate(bias))
    require([b.size for b in bias_words] == n_out, "bias lengths do not match the layers")
    def is_frac(v):  # a binary point inside the word, as `_frac_bits` places it
        return is_int(v) and abs(v) < word_bits

    for key in ("weight_fracs", "bias_fracs", "preact_fracs"):
        v = doc.get(key)
        require(isinstance(v, list) and len(v) == n_layers and all(is_frac(f) for f in v),
                f"{key} is not one binary point per layer")
    require(is_frac(doc.get("input_frac")), "input_frac is not a binary point")
    input_lo, input_hi = box("input_box", n_in[0])
    output_lo, output_hi = box("output_box", n_out[-1])
    return QuantizedNetwork(
        weight_words=tuple(w.reshape(shape) for w, shape in zip(weight_words, shapes)),
        bias_words=bias_words,
        weight_fracs=tuple(doc["weight_fracs"]),
        bias_fracs=tuple(doc["bias_fracs"]),
        input_frac=doc["input_frac"],
        preact_fracs=tuple(doc["preact_fracs"]),
        tanh_table=table,
        word_bits=word_bits,
        input_lo=input_lo,
        input_hi=input_hi,
        output_lo=output_lo,
        output_hi=output_hi,
    )
