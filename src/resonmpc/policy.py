"""Small dense network that imitates the horizon controller.

Inputs (i_o, v_c, p_des) are normalized to [-1, 1] by the sampling box;
the two raw outputs are mapped affinely onto the input-constraint box
(center + half-width * y) and clamped, so any parameter values yield
admissible control inputs.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ArgumentError, TrainingDivergenceError
from .nmpc import NmpcConfig, RecedingHorizonController, solve
from .plant import ControlInput, ConverterParams, PlantState, perturbed_params, simulate_cycle

__all__ = [
    "PolicyNetwork",
    "Dataset",
    "TrainConfig",
    "init_network",
    "forward",
    "forward_batch",
    "backprop_gradients",
    "train",
    "generate_dataset_random",
    "generate_dataset_trajectories",
    "save_network",
    "load_network",
]

NETWORK_FORMAT_VERSION = 1

DEFAULT_LAYER_SIZES = (3, 10, 10, 10, 10, 10, 2)
DEFAULT_INPUT_LO = (-150.0, -2000.0, 0.0)  # i_o [A], v_c [V], p_des [W]
# the setpoint range deliberately exceeds the converter's maximum steady
# power (~3.7 kW): the correction rule commands above-rated powers to cancel
# steady offsets under parameter error, and the policy must stay competent
# there (the solver saturates such setpoints toward the max-power inputs)
DEFAULT_INPUT_HI = (150.0, 2000.0, 4000.0)

CSV_COLUMNS = ("io_amps", "vc_volts", "pdes_watts", "fsw_hz", "duty", "provenance")
PROVENANCES = ("random-state", "trajectory", "closed-loop")
# Rows per block of `forward_batch` and of `quant.forward_q_batch`: a
# block's (rows, 10) temporaries are 80 KB, under glibc's 128 KB mmap
# threshold, so they are reused from the heap instead of being faulted in
# fresh for every step of a large batch.
BLOCK_ROWS = 1024
# Adam's decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class PolicyNetwork:
    """Feed-forward policy: weights/biases per layer plus the two boxes."""

    weights: tuple  # np.ndarray (n_out, n_in) per layer
    biases: tuple  # np.ndarray (n_out,) per layer
    activation: str  # hidden activation; "tanh" is the only one supported
    input_lo: np.ndarray
    input_hi: np.ndarray
    output_lo: np.ndarray
    output_hi: np.ndarray

    @cached_property
    def layers_f64(self) -> tuple:
        """(weights, biases) per layer as float64, the arithmetic's type, cast once.

        float64 arrays are held as they are, so `train`'s in-place updates
        of its float64 working network show through.
        """
        return tuple((np.asarray(w, dtype=float), np.asarray(b, dtype=float))
                     for w, b in zip(self.weights, self.biases))

    @property
    def layer_sizes(self):
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @cached_property
    def output_center(self) -> np.ndarray:
        return 0.5 * (self.output_lo + self.output_hi)

    @cached_property
    def output_half(self) -> np.ndarray:
        return 0.5 * (self.output_hi - self.output_lo)

    @cached_property
    def input_span(self) -> np.ndarray:
        return self.input_hi - self.input_lo

    def normalize_inputs(self, x: np.ndarray) -> np.ndarray:
        xn = x - self.input_lo  # 2 * (x - lo) / span - 1, in place
        xn *= 2.0
        xn /= self.input_span
        xn -= 1.0
        return xn

    def normalize_targets(self, u: np.ndarray) -> np.ndarray:
        return (u - self.output_center) / self.output_half


@dataclass(frozen=True)
class Dataset:
    """Labeled samples (i_o, v_c, p_des) -> (f_sw, duty)."""

    x: np.ndarray  # (n, 3)
    u: np.ndarray  # (n, 2)
    provenance: tuple  # one of PROVENANCES per sample
    seed: int
    discarded: int = 0

    def __len__(self):
        return self.x.shape[0]

    @classmethod
    def concat(cls, first: "Dataset", *rest: "Dataset") -> "Dataset":
        """Samples of all parts in order; seed from the first, discards summed."""
        parts = (first,) + rest
        return cls(
            x=np.vstack([p.x for p in parts]),
            u=np.vstack([p.u for p in parts]),
            provenance=sum((p.provenance for p in parts), ()),
            seed=first.seed,
            discarded=sum(p.discarded for p in parts),
        )

    def save_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_COLUMNS)
            for xi, ui, tag in zip(self.x, self.u, self.provenance):
                w.writerow([repr(float(xi[0])), repr(float(xi[1])), repr(float(xi[2])),
                            repr(float(ui[0])), repr(float(ui[1])), tag])

    @classmethod
    def load_csv(cls, path) -> "Dataset":
        """Read a `save_csv` file; a malformed one raises ArgumentError.

        Checked: every column is present, and every row has one field per
        column, finite numbers in the numeric columns and a known provenance.
        The file records no seed; the dataset's is 0.
        """
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0] if rows else []
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise ArgumentError(f"{path} lacks the columns {missing}")
        cols = [header.index(c) for c in CSV_COLUMNS]
        values, tags = [], []
        for k, row in enumerate(rows[1:], start=1):
            if not row:
                continue  # a blank line
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields for {len(header)} columns")
                values.append([float(row[i]) for i in cols[:-1]])
                if row[cols[-1]] not in PROVENANCES:
                    raise ValueError(f"unknown provenance {row[cols[-1]]!r}")
            except ValueError as exc:
                raise ArgumentError(f"{path}, data row {k}: {exc}") from None
            tags.append(row[cols[-1]])
        a = np.array(values, dtype=float).reshape(-1, len(cols) - 1)
        bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
        if bad.size:
            raise ArgumentError(f"{path}, data row {bad[0] + 1}: a value is not finite")
        return cls(x=a[:, :3].copy(), u=a[:, 3:].copy(), provenance=tuple(tags), seed=0)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    batch_size: int = 64
    step_size: float = 1e-3
    validation_fraction: float = 0.1
    seed: int = 0
    # 0 trains on squared error; > 0 on the Huber loss with this threshold
    # in normalized output units (see `loss_value`)
    huber_delta: float = 0.0

    def __post_init__(self):
        if not (_is_int(self.epochs) and _is_int(self.batch_size)):
            raise ArgumentError("epochs and batch_size must be integers")
        if min(self.epochs, self.batch_size) < 1 or self.step_size <= 0:
            raise ArgumentError("epochs, batch_size and step_size must be positive")
        if not 0.0 <= self.validation_fraction <= 0.5:
            raise ArgumentError("validation_fraction must lie in [0, 0.5]")
        if self.huber_delta < 0.0:
            raise ArgumentError("huber_delta must be non-negative")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ArgumentError(f"seed must be a non-negative integer, got {self.seed!r}")


def init_network(
    seed: int = 0,
    layer_sizes=DEFAULT_LAYER_SIZES,
    config: Optional[NmpcConfig] = None,
) -> PolicyNetwork:
    """Glorot-uniform initialized network on the default sampling box; the
    output box is the NMPC input bounds."""
    cfg = config or NmpcConfig()
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)).astype(np.float32))
        biases.append(np.zeros(n_out, dtype=np.float32))
    return PolicyNetwork(
        weights=tuple(weights),
        biases=tuple(biases),
        activation="tanh",
        input_lo=np.asarray(DEFAULT_INPUT_LO, dtype=float),
        input_hi=np.asarray(DEFAULT_INPUT_HI, dtype=float),
        output_lo=np.asarray((cfg.f_min, cfg.d_min), dtype=float),
        output_hi=np.asarray((cfg.f_max, cfg.d_max), dtype=float),
    )


def _forward_raw(net: PolicyNetwork, xn: np.ndarray):
    """Hidden activations and raw (pre-clamp) outputs for normalized inputs."""
    acts = [xn]
    a = xn
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(net.layers_f64):
        a = a @ w.T  # a fresh array: bias and activation go in place
        a += b
        if l < last:
            np.tanh(a, out=a)
        acts.append(a)
    return acts


def _input_rows(x, what: str) -> np.ndarray:
    """`x` as float64 rows (i_o, v_c, p_des); a NaN raises ArgumentError naming its row."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ArgumentError(f"{what} inputs of shape {x.shape} are not rows of 3")
    x = x.reshape(-1, 3)
    if np.isnan(x).any():
        row = int(np.flatnonzero(np.isnan(x).any(axis=1))[0])
        raise ArgumentError(f"{what} input row {row} is NaN: {x[row].tolist()}")
    return x


def forward_batch(net: PolicyNetwork, x: np.ndarray) -> np.ndarray:
    """Denormalized, clamped control inputs for a batch of raw inputs (n, 3).

    A NaN input raises ArgumentError.  The rows go through in blocks of
    BLOCK_ROWS, and a one-row tail joins the block before it: numpy
    multiplies a single row by another routine, which rounds differently,
    so a row's output would depend on where the blocks fall.
    """
    x = _input_rows(x, "policy")
    n = len(x)
    u = np.empty((n, len(net.output_lo)))
    start = 0
    for stop in [*range(BLOCK_ROWS, n - 1, BLOCK_ROWS), n]:
        y = _forward_raw(net, net.normalize_inputs(x[start:stop]))[-1]
        y *= net.output_half
        y += net.output_center
        np.maximum(y, net.output_lo, out=y)
        np.minimum(y, net.output_hi, out=u[start:stop])
        start = stop
    return u


def forward(net: PolicyNetwork, x) -> ControlInput:
    """Evaluate the policy at one point (i_o, v_c, p_des).

    This is a one-row `forward_batch`, and numpy multiplies a single row by
    another routine than a many-row BLAS product, which rounds differently.
    So the result can differ from the same row of a larger batch in its
    last bits: on the shipped network by up to 4.4e-11 Hz in f_sw and
    4.4e-16 in duty.  The `dnn` controller decides with this function, so
    it does not match batch evaluation bit for bit.
    """
    u = forward_batch(net, np.asarray(x, dtype=float).reshape(1, 3))[0]
    return ControlInput(float(u[0]), float(u[1]))


def loss_value(
    net: PolicyNetwork, x: np.ndarray, u_target: np.ndarray, huber_delta: float = 0.0
) -> float:
    """Batch-mean imitation loss on normalized targets (summed over outputs).

    Squared error r^2 by default.  With huber_delta > 0, residuals beyond
    the threshold cost 2*delta*|r| - delta^2 instead: the Huber loss, which
    equals r^2 near the target but caps each sample's pull on the fit.  A
    few labels sit where the solver's input jumps with the state (setpoint
    steps, active ZVS constraints); no smooth network fits them, and under
    squared error they dominate the loss at the expense of the bulk of
    states the closed loop settles in.
    """
    xn = net.normalize_inputs(x)
    tn = net.normalize_targets(u_target)
    r = _forward_raw(net, xn)[-1] - tn
    sq = r * r
    if huber_delta > 0.0:
        a = np.abs(r)
        sq = np.where(a <= huber_delta, sq, 2.0 * huber_delta * a - huber_delta**2)
    return float(np.mean(np.sum(sq, axis=1)))


def backprop_gradients(
    net: PolicyNetwork, x: np.ndarray, u_target: np.ndarray, huber_delta: float = 0.0
):
    """Exact gradients of `loss_value` w.r.t. every weight and bias."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ArgumentError("batch must be nonempty")
    xn = net.normalize_inputs(x)
    tn = net.normalize_targets(np.asarray(u_target, dtype=float))
    acts = _forward_raw(net, xn)
    n = xn.shape[0]
    r = acts[-1] - tn
    if huber_delta > 0.0:
        r = np.clip(r, -huber_delta, huber_delta)
    delta = 2.0 * r / n  # d(loss)/d(z_last); output layer is linear
    g_w = [None] * len(net.weights)
    g_b = [None] * len(net.weights)
    for l in range(len(net.weights) - 1, -1, -1):
        g_w[l] = delta.T @ acts[l]
        g_b[l] = np.add.reduce(delta, axis=0)
        if l > 0:
            # tanh'(z) through the activation value
            delta = (delta @ net.layers_f64[l][0]) * (1.0 - acts[l] * acts[l])
    return g_w, g_b


def train(data: Dataset, cfg: TrainConfig, net: Optional[PolicyNetwork] = None):
    """Adam on minibatches; returns (best-validation network, history).

    history["train"] / history["val"] hold per-epoch values of the training
    loss (`loss_value` with cfg.huber_delta); with a zero validation
    fraction the final parameters are returned instead.
    """
    if len(data) == 0:
        raise ArgumentError("dataset must be nonempty")
    if net is None:
        net = init_network(seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(data))
    n_val = int(round(cfg.validation_fraction * len(data)))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    if tr_idx.size == 0:
        raise ArgumentError("validation fraction leaves no training data")
    x_tr, u_tr = data.x[tr_idx], data.u[tr_idx]
    x_val, u_val = data.x[val_idx], data.u[val_idx]

    # train in 64-bit on one flat vector holding each layer's weights and
    # biases in turn; the working network's arrays are views into it, so one
    # Adam step updates every layer; stored networks are 32-bit
    params = [q for layer in zip(net.weights, net.biases) for q in layer]
    splits = np.cumsum([q.size for q in params])[:-1]

    def flatten(wl, bl):
        return np.concatenate([q.ravel() for layer in zip(wl, bl) for q in layer])

    def unflatten(flat, dtype):
        parts = [p.reshape(q.shape).astype(dtype, copy=False)
                 for p, q in zip(np.split(flat, splits), params)]
        return replace(net, weights=tuple(parts[0::2]), biases=tuple(parts[1::2]))

    theta = flatten(net.weights, net.biases).astype(float)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    cur = unflatten(theta, float)
    history = {"train": [], "val": []}
    best = (np.inf, theta.copy())
    t = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(x_tr.shape[0])
        for lo in range(0, order.size, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            g_w, g_b = backprop_gradients(cur, x_tr[idx], u_tr[idx], cfg.huber_delta)
            g = flatten(g_w, g_b)
            t += 1
            bc1 = 1.0 - ADAM_BETA1**t
            bc2 = 1.0 - ADAM_BETA2**t
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            theta -= cfg.step_size * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        tr_loss = loss_value(cur, x_tr, u_tr, cfg.huber_delta)
        if not np.isfinite(tr_loss):
            raise TrainingDivergenceError(epoch)
        history["train"].append(tr_loss)
        if n_val:
            val_loss = loss_value(cur, x_val, u_val, cfg.huber_delta)
            history["val"].append(val_loss)
            if val_loss < best[0]:
                best = (val_loss, theta.copy())
        else:
            best = (tr_loss, theta)
    return unflatten(best[1], np.float32), history


def _label_draws(
    n_draws: int,
    steps: int,
    config: NmpcConfig,
    params: ConverterParams,
    seed: int,
    plant_error: float,
    tag: str,
) -> Dataset:
    """The labelling loop behind the box-drawn dataset kinds.

    Each draw takes a state and setpoint from the sampling box, then R/L
    factors for the simulated plant when plant_error > 0.  Its first cycle
    is labeled by a cold `solve`, the next steps - 1 by a warm-started
    `RecedingHorizonController` on the nominal model, and between cycles
    the plant advances under the label itself.  A draw whose cold solve
    fails is discarded, without solving when its initial current already
    breaks the ZVS sign rule of `NmpcSolution.initial_state_zvs_ok`;
    sampling stops after 10 * n_draws draws.  Degraded warm steps are
    discarded labels.
    """
    if n_draws < 1 or steps < 1:
        raise ArgumentError("the number of draws and steps must be >= 1")
    if not 0.0 <= plant_error < 1.0:
        raise ArgumentError(f"plant_error must lie in [0, 1), got {plant_error}")
    rng = np.random.default_rng(seed)
    xs, us = [], []
    discarded = 0
    kept = 0
    budget = 10 * n_draws
    while kept < n_draws and budget > 0:
        budget -= 1
        draw = rng.uniform(DEFAULT_INPUT_LO, DEFAULT_INPUT_HI)
        state = PlantState(draw[0], draw[1])
        p_des = draw[2]
        plant = perturbed_params(params, rng, plant_error)
        zvs_ok = state.i_o <= config.constraint_tol  # as NmpcSolution.initial_state_zvs_ok
        first = solve(state, p_des, config, params) if zvs_ok else None
        if first is None or first.status != "converged":
            discarded += 1
            continue
        kept += 1
        ctrl = RecedingHorizonController(config, params, fallback=first.first_input)
        ctrl.last_solution = first
        label, status = first.first_input, "converged"
        for k in range(steps):
            if k:
                state = simulate_cycle(state, plant, label).state_end
                label, status = ctrl.step(state, p_des)
            if status != "converged":
                discarded += 1
                continue
            xs.append([state.i_o, state.v_c, p_des])
            us.append([label.f_sw, label.duty])
    return Dataset(
        x=np.array(xs).reshape(-1, 3),
        u=np.array(us).reshape(-1, 2),
        provenance=(tag,) * len(xs),
        seed=seed,
        discarded=discarded,
    )


def generate_dataset_random(
    n: int,
    config: NmpcConfig,
    params: ConverterParams,
    seed: int = 0,
) -> Dataset:
    """States/setpoints drawn uniformly from the sampling box, labeled by
    solving the horizon problem.

    The labelling loop with one cycle per draw: infeasible draws are
    discarded; sampling stops after a 10*n draw budget.
    """
    return _label_draws(n, 1, config, params, seed, 0.0, "random-state")


def generate_dataset_trajectories(
    n_traj: int,
    steps: int,
    config: NmpcConfig,
    params: ConverterParams,
    seed: int = 0,
    plant_error: float = 0.0,
) -> Dataset:
    """Samples along the solver's own closed loops from box-drawn starts.

    Each trajectory draws an initial state and setpoint from the sampling
    box and runs `steps` cycles, the exact controller applying its own
    labels; trajectories whose first solve is infeasible are discarded
    (same budget rule as random sampling, counted in draws of trajectories).
    With plant_error > 0 each runs on a plant whose R and L are scaled by
    independent U[1 - e, 1 + e] factors; the controller keeps the model.
    """
    return _label_draws(n_traj, steps, config, params, seed, plant_error, "trajectory")


def save_network(net: PolicyNetwork, path):
    doc = {
        "format_version": NETWORK_FORMAT_VERSION,
        "layers": list(net.layer_sizes),
        "activation": net.activation,
        "weights": [np.asarray(w, dtype=np.float32).ravel().tolist() for w in net.weights],
        "biases": [np.asarray(b, dtype=np.float32).tolist() for b in net.biases],
        "input_box": {"lo": net.input_lo.tolist(), "hi": net.input_hi.tolist()},
        "output_box": {"lo": net.output_lo.tolist(), "hi": net.output_hi.tolist()},
    }
    Path(path).write_text(json.dumps(doc))


class _FileChecks:
    """A saved JSON document and checks on it that raise ArgumentError naming the file."""

    def __init__(self, path, kind: str, version: int):
        self.path, self.kind = path, kind
        try:
            self.doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ArgumentError(f"{path} is not valid JSON: {exc}") from exc
        v = self.doc.get("format_version") if isinstance(self.doc, dict) else None
        if not (_is_int(v) and v == version):
            raise ArgumentError(f"unsupported {kind} format_version in {path}")

    def require(self, ok, what: str):
        if not ok:
            raise ArgumentError(f"malformed {self.kind} in {self.path}: {what}")

    def numbers(self, v, n: int, what: str) -> np.ndarray:
        """`v` as float64 if it lists n finite numbers."""
        self.require(isinstance(v, list) and len(v) == n
                     and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v),
                     f"{what} does not hold {n} numbers")
        a = np.asarray(v, dtype=float)
        self.require(np.all(np.isfinite(a)), f"{what} is not finite")
        return a

    def box(self, key: str, n: int):
        """(lo, hi) of the box under `key`: n finite numbers each, lo < hi."""
        b = self.doc.get(key)
        bounds = [b.get("lo"), b.get("hi")] if isinstance(b, dict) else [None, None]
        lo, hi = (self.numbers(v, n, f"{key} bound") for v in bounds)
        self.require(np.all(lo < hi), f"{key} does not have lo < hi")
        return lo, hi


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def load_network(path) -> PolicyNetwork:
    """Read a `save_network` file; a malformed one raises ArgumentError.

    Checked: the JSON, the format version, the activation, layer sizes
    chaining from 3 inputs to 2 outputs, weight and bias counts against
    the sizes, finite float32 values, and box lengths.
    """
    chk = _FileChecks(path, "network", NETWORK_FORMAT_VERSION)
    doc = chk.doc
    if doc.get("activation") != "tanh":
        raise ArgumentError(f"unsupported activation {doc.get('activation')!r} in {path}")
    sizes = doc.get("layers")
    chk.require(isinstance(sizes, list) and len(sizes) >= 2
                and all(_is_int(n) and n >= 1 for n in sizes) and sizes[0] == 3 and sizes[-1] == 2,
                f"layers {sizes} are not positive sizes from 3 inputs to 2 outputs")
    n_layers = len(sizes) - 1
    flat, bias = doc.get("weights"), doc.get("biases")
    chk.require(isinstance(flat, list) and len(flat) == n_layers, "weights do not match the layers")
    chk.require(isinstance(bias, list) and len(bias) == n_layers, "biases do not match the layers")
    f32_max = float(np.finfo(np.float32).max)
    weights, biases = [], []
    for l, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = chk.numbers(flat[l], n_in * n_out, f"weights[{l}]")
        b = chk.numbers(bias[l], n_out, f"biases[{l}]")
        chk.require(max(np.abs(w).max(), np.abs(b).max()) <= f32_max,
                    f"layer {l} holds values beyond float32")
        weights.append(w.astype(np.float32).reshape(n_out, n_in))
        biases.append(b.astype(np.float32))
    input_lo, input_hi = chk.box("input_box", 3)
    output_lo, output_hi = chk.box("output_box", 2)
    return PolicyNetwork(
        weights=tuple(weights),
        biases=tuple(biases),
        activation="tanh",
        input_lo=input_lo,
        input_hi=input_hi,
        output_lo=output_lo,
        output_hi=output_hi,
    )
