"""Software emulation of the fixed-point inference path.

Weights, biases, per-layer activations and pre-activations are 16-bit
signed words.  Weight, bias and input binary points are chosen from the
tensors and calibration data; pre-activation words span the domain of
their consumer (the tanh table, or the output-box clip).
Inference is integer arithmetic: wide accumulation, round-to-nearest-even
requantization with saturation, and a 1024-entry interpolated tanh table,
so results are bit-exact across platforms.

The words hold the same integers a fixed-point datapath would, carried in
float64 arrays, which hold every integer below 2**53 exactly: products and
sums go through BLAS and stay exact in any order, and a requantization is
an exact power-of-two scale and `np.rint`, which rounds half to even.

Everything inference needs that depends only on the network is worked
out once per `QuantizedNetwork`, when it is created (`plan`): the
transposed weight words and the biases aligned to each accumulator's
binary point, both scaled by the requantization's power of two, and the
interpolated tanh of every hidden word, one table of 2**16 entries
(512 KB) that the word indexes.  The plan also checks that no value can
reach 2**53.  A call then only multiplies, adds, rounds, clips and
indexes, in blocks of `BLOCK_ROWS` rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, QuantizationError
from .plant import ControlInput
from .policy import BLOCK_ROWS, PolicyNetwork, _FileChecks, _input_rows, _is_int, forward_batch

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
WORD_BITS = 16
WORD_LIMIT = 2 ** (WORD_BITS - 1)  # words lie in [-WORD_LIMIT, WORD_LIMIT)
TANH_TABLE_SIZE = 1024
TANH_RANGE = 4.0  # table domain [-4, 4]; a power of two
TANH_FRAC = 15  # Q15 table entries
EXACT_LIMIT = 2.0**53  # float64 holds every integer of smaller magnitude exactly


def _frac_bits(max_abs: float) -> int:
    """Fractional bits: sign + ceil(log2(max_abs)) integer bits out of the word."""
    if max_abs <= 0.0:
        return WORD_BITS - 1
    int_bits = max(0, math.ceil(math.log2(max_abs))) + 1
    frac = (WORD_BITS - 1) - int_bits
    if frac < -(WORD_BITS - 1):
        raise QuantizationError(f"magnitude {max_abs} cannot fit a {WORD_BITS}-bit word")
    return frac


def _quantize_array(a: np.ndarray, frac: int) -> np.ndarray:
    q = np.rint(np.asarray(a, dtype=float) * float(2**frac))  # rint rounds half to even
    if np.any(np.abs(q) >= WORD_LIMIT):
        raise QuantizationError(
            f"value exceeds {WORD_BITS}-bit range at {frac} fractional bits"
        )
    return q.astype(np.int64)


def _rne_shift(v: np.ndarray, shift: int) -> np.ndarray:
    """Round-to-nearest-even arithmetic right shift of integer words, in place.

    `v` is a float64 array of integers (a left shift when shift <= 0).  The
    power-of-two scale is exact and `np.rint` rounds half to even, so this
    is the integer shift exactly while |v| < 2**53.
    """
    v *= 2.0**-shift
    return np.rint(v, out=v)


def _clip(v, lo, hi):
    """np.clip(v, lo, hi) without np.clip's Python wrapper, which costs µs per call."""
    t = np.maximum(v, lo)
    return np.minimum(t, hi, out=t)


def _preact_fracs(n_layers: int) -> tuple:
    """Pre-activation binary points: [-TANH_RANGE, TANH_RANGE) hidden, [-1, 1) output."""
    hidden_frac = WORD_BITS - 1 - int(math.log2(TANH_RANGE))
    return (hidden_frac,) * (n_layers - 1) + (WORD_BITS - 1,)


def _build_tanh_table() -> np.ndarray:
    xs = np.linspace(-TANH_RANGE, TANH_RANGE, TANH_TABLE_SIZE)
    return np.rint(np.tanh(xs) * 2**TANH_FRAC).astype(np.int64)


@dataclass(frozen=True)
class QuantizedNetwork:
    """Integer words plus per-tensor binary points for the policy network."""

    weight_words: tuple  # int64 arrays holding 16-bit values
    bias_words: tuple
    weight_fracs: tuple
    bias_fracs: tuple
    input_frac: int
    preact_fracs: tuple  # requantization format after each layer's accumulate
    tanh_table: np.ndarray  # int64, Q15 values
    input_lo: np.ndarray
    input_hi: np.ndarray
    output_lo: np.ndarray
    output_hi: np.ndarray

    @property
    def n_layers(self) -> int:
        return len(self.weight_words)

    @cached_property
    def plan(self) -> "_Plan":
        """The constants `_forward_q_core` needs, all float64 and worked out once.

        Per layer: the transposed weight words and the bias words aligned
        to the accumulator's binary point, both scaled by the
        requantization's 2**-shift, so `np.rint(a @ weights_t + bias)` is
        the pre-activation word.  A hidden layer's bias also carries
        WORD_LIMIT, so its rounded sum is the word's index into the
        activation table; WORD_LIMIT is even, so adding it commutes with
        rounding half to even.  Per network: the word's range, the
        activation of every hidden word (`_tanh_words`), and the input and
        output scalings.  A layer whose worst-case sum, max_j sum_i |W_ji| *
        max|a_i| + |bias_j|, with the table offset in a hidden layer, can
        reach 2**53 raises QuantizationError naming the layer: float64
        would no longer hold its integers exactly.  `quantize` and
        `load_quantized` build the plan, so such a network fails there.
        """
        layers = []
        a_frac, a_max = self.input_frac, float(WORD_LIMIT)
        for l, (w, b) in enumerate(zip(self.weight_words, self.bias_words)):
            acc_frac = self.weight_fracs[l] + a_frac
            scale = 2.0 ** (self.preact_fracs[l] - acc_frac)  # 2**-shift, exact
            w = w.astype(float)
            bias = _rne_shift(b.astype(float), self.bias_fracs[l] - acc_frac)
            # In float64 this decides `< 2**53` exactly: sums of nonnegative
            # integers below it are exact, and rounding is monotone.
            worst = float(np.max(np.abs(w).sum(axis=1) * a_max + np.abs(bias)))
            hidden = l < self.n_layers - 1
            if hidden:  # the sum with the offset, in units of its grid, min(1, scale)
                worst = (worst + WORD_LIMIT / scale) * max(1.0, scale)
            if worst >= EXACT_LIMIT:
                raise QuantizationError(
                    f"layer {l}: worst-case integer 2**{math.log2(worst):.1f} reaches 2**53, "
                    "which float64 does not hold exactly")
            bias *= scale
            if hidden:
                bias += WORD_LIMIT
            layers.append(_Layer(weights_t=np.ascontiguousarray(w.T) * scale, bias=bias))
            a_frac, a_max = TANH_FRAC, float(np.max(np.abs(self.tanh_table)))
        return _Plan(
            layers=tuple(layers),
            lo=float(-WORD_LIMIT),
            hi=float(WORD_LIMIT - 1),
            activation=_tanh_words(self.tanh_table),
            input_step=0.5 * (self.input_hi - self.input_lo) * 2.0**-self.input_frac,
            input_scale=float(2**self.input_frac),
            output_step=0.5 * (self.output_hi - self.output_lo) * 2.0**-self.preact_fracs[-1],
            output_center=0.5 * (self.output_lo + self.output_hi),
        )


class _Layer(NamedTuple):
    weights_t: np.ndarray  # weight words * 2**-shift, float64, (n_in, n_out)
    # bias words at the accumulator's binary point * 2**-shift, float64,
    # + WORD_LIMIT in hidden layers
    bias: np.ndarray


class _Plan(NamedTuple):
    layers: tuple  # one _Layer per layer
    lo: float  # a word's range; hidden words span the tanh table's domain
    hi: float
    activation: np.ndarray  # Q15 tanh of hidden words lo..hi, as float64
    input_step: np.ndarray  # input units per input word: the box's half-span * 2**-input_frac
    input_scale: float  # 2**input_frac
    output_step: np.ndarray  # output units per output word: the box's half-width * 2**-frac
    output_center: np.ndarray


def quantize(net: PolicyNetwork, calibration: np.ndarray) -> QuantizedNetwork:
    """Fixed-point version of `net`, formats calibrated on `calibration` inputs.

    Weight/bias formats come from each tensor's own range.  Each layer's
    accumulator is requantized to a 16-bit pre-activation whose range
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
    input_frac = _frac_bits(float(np.max(np.abs(xn))))

    w_fracs, b_fracs, w_words, b_words = [], [], [], []
    for w, b in zip(net.weights, net.biases):
        wf = _frac_bits(float(np.max(np.abs(w))))
        bf = _frac_bits(float(np.max(np.abs(b))))
        w_fracs.append(wf)
        b_fracs.append(bf)
        w_words.append(_quantize_array(w, wf))
        b_words.append(_quantize_array(b, bf))
    # A word only needs to span the values its consumer distinguishes.  A
    # hidden pre-activation feeds the tanh table, which clamps outside
    # [-TANH_RANGE, TANH_RANGE]; the final layer feeds the output-box
    # mapping, which clips the normalized outputs to [-1, 1].  Word
    # saturation performs either clamp, so every bit beyond the consumer's
    # domain goes to resolution instead of to integer bits for overshoot
    # that would be discarded anyway.  Sizing hidden words by the calibrated
    # pre-activation range instead (|z| up to ~30) would leave Q9/Q10 words,
    # whose steps show up as a staircase in the closed-loop input.
    preact_fracs = _preact_fracs(len(net.weights))

    qnet = QuantizedNetwork(
        weight_words=tuple(w_words),
        bias_words=tuple(b_words),
        weight_fracs=tuple(w_fracs),
        bias_fracs=tuple(b_fracs),
        input_frac=input_frac,
        preact_fracs=preact_fracs,
        tanh_table=_build_tanh_table(),
        input_lo=net.input_lo.copy(),
        input_hi=net.input_hi.copy(),
        output_lo=net.output_lo.copy(),
        output_hi=net.output_hi.copy(),
    )
    qnet.plan  # noqa: B018 -- raises if float64 cannot hold its integers exactly
    return qnet


def _tanh_words(tanh_table: np.ndarray) -> np.ndarray:
    """Q15 tanh of every hidden pre-activation word, -WORD_LIMIT..WORD_LIMIT - 1,
    by linear interpolation in the table, as float64.

    Hidden words have WORD_BITS - 3 fractional bits (`_preact_fracs`), so
    the table's domain [-4, 4) is their whole range: 2**16 words in 1023
    steps.  t = (z + WORD_LIMIT) * 1023 / 2**16 holds the entry k in its
    integer part and the remainder over 2**16 in its fraction.  Each step
    is exact in float64, as its integers stay below 2**32, so
    floor(fraction * slope) is the integer (remainder * slope) >> 16.
    """
    table = tanh_table.astype(float)
    slope = np.diff(table)
    t = np.arange(2 * WORD_LIMIT, dtype=float)  # z + WORD_LIMIT
    t *= (TANH_TABLE_SIZE - 1) * 2.0**-WORD_BITS
    k = t.astype(np.intp)  # t >= 0, so truncation is the floor
    t -= k
    t *= slope[k]
    np.floor(t, out=t)
    t += table[k]
    return t


def _preact(a: np.ndarray, layer: _Layer) -> np.ndarray:
    """A layer's pre-activation words: BLAS products and the bias, rounded half to even."""
    z = a @ layer.weights_t
    z += layer.bias
    return np.rint(z, out=z)


def _forward_q_core(qnet: QuantizedNetwork, x: np.ndarray):
    """Integer forward pass; returns (clamped outputs, saturation count).

    The count is of output words clipped to the output box.  Hidden
    pre-activation words clamp to the tanh table's domain as part of the
    activation and are not counted.  A NaN input raises ArgumentError; an
    infinite one saturates its word, as an ADC's would.  The rows go
    through in blocks of BLOCK_ROWS.
    """
    plan = qnet.plan
    x = _input_rows(x, "quantized policy")
    u = np.empty((len(x), len(plan.output_center)))
    saturations = 0
    for start in range(0, len(x), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        saturations += _forward_q_block(qnet, plan, x[rows], u[rows])
    return u, saturations


def _forward_q_block(qnet: QuantizedNetwork, plan: _Plan, x: np.ndarray, u: np.ndarray) -> int:
    """One block of `_forward_q_core`: the outputs go into `u`; returns the saturations.

    Each step updates a fresh array in place.  The input word is
    2**input_frac * (2 * (x - lo) / span - 1), computed as
    (x - lo) / input_step - 2**input_frac: the two differ by power-of-two
    scales, which commute with rounding.
    """
    a = x - qnet.input_lo
    a /= plan.input_step
    a -= plan.input_scale
    a = _clip(np.rint(a, out=a), plan.lo, plan.hi)
    for layer in plan.layers[:-1]:  # z is the table index; clipping it saturates the word
        z = _preact(a, layer)
        a = plan.activation.take(z.astype(np.intp), mode="clip")
    z = _preact(a, plan.layers[-1])
    words = _clip(z, plan.lo, plan.hi)
    saturations = int(np.count_nonzero(words != z))
    words *= plan.output_step
    words += plan.output_center
    np.maximum(words, qnet.output_lo, out=words)
    np.minimum(words, qnet.output_hi, out=u)
    return saturations


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
    limit = float(WORD_LIMIT - 1)
    utilization = [
        float(np.max(np.abs(w)) / limit) if w.size else 0.0 for w in qnet.weight_words
    ]
    return {
        "n_samples": int(testset.shape[0]),
        "max_rel_deviation": rel.max(axis=0).tolist(),
        "mean_rel_deviation": rel.mean(axis=0).tolist(),
        "saturation_events": int(saturations),
        "weight_range_utilization": utilization,
    }


def save_quantized(qnet: QuantizedNetwork, path):
    doc = {
        "format_version": QNET_FORMAT_VERSION,
        "word_bits": WORD_BITS,
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

    Checked: the JSON, the format version, every key's type, a word
    width of WORD_BITS, the tanh table's range, format and length against
    this module's, words and binary points inside the word width, word
    counts against the shapes, shapes chaining from 3 inputs to 2 outputs,
    bias, format and box lengths against the layers, and the
    pre-activation binary points against the ones `quantize` fixes.  A well-formed
    network whose integers float64 cannot hold exactly raises
    QuantizationError (see `QuantizedNetwork.plan`).
    """
    chk = _FileChecks(path, "quantized network", QNET_FORMAT_VERSION)
    doc, require = chk.doc, chk.require

    def words(v, what, bits):
        lim = 1 << (bits - 1)
        require(isinstance(v, list) and all(_is_int(x) and -lim <= x < lim for x in v),
                f"{what} is not a list of {bits}-bit words")
        return np.asarray(v, dtype=np.int64)

    require(_is_int(doc.get("word_bits")) and doc["word_bits"] == WORD_BITS,
            f"word_bits is not {WORD_BITS}")
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
                and all(_is_int(n) and n >= 1 for n in shape),
                f"weight shape {shape} is not two positive integers")
    n_out = [shape[0] for shape in shapes]
    n_in = [shape[1] for shape in shapes]
    require(n_in[0] == 3 and n_out[-1] == 2 and n_in[1:] == n_out[:-1],
            f"layer shapes {shapes} do not chain from 3 inputs to 2 outputs")
    weight_words = tuple(words(w, f"weight_words[{l}]", WORD_BITS) for l, w in enumerate(flat))
    for l, (w, shape) in enumerate(zip(weight_words, shapes)):
        require(w.size == shape[0] * shape[1], f"layer {l} holds {w.size} words, shape {shape}")
    bias = doc.get("bias_words")
    require(isinstance(bias, list) and len(bias) == n_layers, "bias_words do not match the layers")
    bias_words = tuple(words(b, f"bias_words[{l}]", WORD_BITS) for l, b in enumerate(bias))
    require([b.size for b in bias_words] == n_out, "bias lengths do not match the layers")
    def is_frac(v):  # a binary point inside the word, as `_frac_bits` places it
        return _is_int(v) and abs(v) < WORD_BITS

    for key in ("weight_fracs", "bias_fracs", "preact_fracs"):
        v = doc.get(key)
        require(isinstance(v, list) and len(v) == n_layers and all(is_frac(f) for f in v),
                f"{key} is not one binary point per layer")
    require(is_frac(doc.get("input_frac")), "input_frac is not a binary point")
    # pre-activation words span their consumer's domain by design, so any
    # other binary point mis-scales the tanh table or the output box
    require(tuple(doc["preact_fracs"]) == _preact_fracs(n_layers),
            f"preact_fracs are not {list(_preact_fracs(n_layers))}")
    input_lo, input_hi = chk.box("input_box", n_in[0])
    output_lo, output_hi = chk.box("output_box", n_out[-1])
    qnet = QuantizedNetwork(
        weight_words=tuple(w.reshape(shape) for w, shape in zip(weight_words, shapes)),
        bias_words=bias_words,
        weight_fracs=tuple(doc["weight_fracs"]),
        bias_fracs=tuple(doc["bias_fracs"]),
        input_frac=doc["input_frac"],
        preact_fracs=tuple(doc["preact_fracs"]),
        tanh_table=table,
        input_lo=input_lo,
        input_hi=input_hi,
        output_lo=output_lo,
        output_hi=output_hi,
    )
    qnet.plan  # noqa: B018 -- raises if float64 cannot hold its integers exactly
    return qnet
