"""Correctness checks computed apart from the package.

The tank is propagated with scipy's matrix exponential of the 2x2 system
matrix, not with the package's closed form; the network is evaluated from
the weights with plain numpy, not with the package's forward pass.  A check
of one operation returns a list of failure messages (empty on a pass); a
check over a batch of one-call operations returns the failing row indices.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

# A record's power must match the recomputed charge-balance power to this
# many watts.  The two propagators agree to ~1e-10 W; a power off by more
# than 1e-6 W is a wrong output, not rounding.
POWER_TOL_W = 1e-6
# The float forward pass and the benchmark's numpy evaluation use the same
# float32 weights in float64 arithmetic; they may differ in summation order.
FORWARD_TOL = 1e-9  # share of the output half-range
QUANT_TOL = 0.05  # share of the output half-range (the README's fidelity claim)
ORACLE_REL_TOL = 1e-9
GRID_MAX_ERROR_W = 1.0


def tank_matrix(params):
    return np.array([[-params.r_l / params.l_r, -1.0 / params.l_r],
                     [1.0 / params.c_r, 0.0]])


def propagate(params, x, v_applied, dt):
    """Exact states after `dt` at constant drive; x (..., 2), dt (...,)."""
    x = np.asarray(x, dtype=float)
    dt = np.asarray(dt, dtype=float)
    phi = expm(tank_matrix(params) * dt[..., None, None])
    eq = np.array([0.0, v_applied])
    return np.einsum("...ij,...j->...i", phi, x - eq) + eq


def charge_balance_power(params, x0, f_sw, duty):
    """Cycle-average power f * V_s * C_r * (v_c at turn-off - v_c at turn-on)."""
    x0 = np.asarray(x0, dtype=float)
    f_sw = np.asarray(f_sw, dtype=float)
    x_mid = propagate(params, x0, params.v_s, np.asarray(duty) / f_sw)
    return f_sw * params.v_s * params.c_r * (x_mid[..., 1] - x0[..., 1])


def plan_boundary_currents(params, x0, inputs):
    """i_o at boundaries k = 1..2n of a plan of n (f_sw, duty) pairs."""
    x = np.asarray(x0, dtype=float)
    out = []
    for f, d in inputs:
        x = propagate(params, x, params.v_s, d / f)
        out.append(float(x[0]))
        x = propagate(params, x, 0.0, (1.0 - d) / f)
        out.append(float(x[0]))
    return out


def check_in_box(cfg, inputs, what):
    bad = [(f, d) for f, d in inputs
           if not (cfg.f_min <= f <= cfg.f_max and cfg.d_min <= d <= cfg.d_max)]
    return [f"{what}: {len(bad)} input(s) outside the NMPC box, e.g. {bad[0]}"] if bad else []


def check_plan_zvs(params, cfg, x0, inputs, what):
    """ZVS sign with margin at every future boundary, within constraint_tol."""
    currents = plan_boundary_currents(params, x0, inputs)
    worst = 0.0
    for k, i_o in enumerate(currents, start=1):
        need = cfg.zvs_margin - i_o if k % 2 == 1 else i_o + cfg.zvs_margin
        worst = max(worst, need)
    if worst > cfg.constraint_tol:
        return [f"{what}: plan misses the ZVS margin by {worst:.3g} A"]
    return []


def check_oracle(cost, oracle_cost, what):
    if cost > oracle_cost * (1.0 + ORACLE_REL_TOL):
        return [f"{what}: cost {cost:.6g} above the constant-input oracle {oracle_cost:.6g}"]
    return []


def check_record_powers(params, records, what):
    """Every record's p_avg_w against the recomputed charge-balance power."""
    if not records:
        return []
    x0 = np.array([[r.io_start_a, r.vc_start_v] for r in records])
    f = np.array([r.fsw_hz for r in records])
    d = np.array([r.duty for r in records])
    p = np.array([r.p_avg_w for r in records])
    err = np.abs(charge_balance_power(params, x0, f, d) - p)
    bad = np.flatnonzero(err > POWER_TOL_W)
    if bad.size:
        r = records[int(bad[0])]
        return [f"{what}: {bad.size} record(s) with p_avg_w off the charge balance, "
                f"cycle {r.cycle} by {err[bad[0]]:.3g} W"]
    return []


def check_campaign_zvs(summary, what):
    return [f"{what}: {kind} has {c['zvs_violation_pct']:.3f}% ZVS violations"
            for kind, c in summary["controllers"].items() if c["zvs_violation_pct"] != 0.0]


def check_grid(grid):
    out = []
    for c in grid["cells"]:
        err = c["steady_state_error_w"]
        if err is None or not err < GRID_MAX_ERROR_W or c["zvs_violation_pct"] != 0.0:
            out.append(f"grid cell R {c['r_error']:+.0%}, L {c['l_error']:+.0%}, "
                       f"{c['p_des_w']:.0f} W: error {err} W, "
                       f"ZVS violations {c['zvs_violation_pct']:.3f}%")
    return out


class NumpyPolicy:
    """The policy network evaluated from its weights with plain numpy."""

    def __init__(self, weights, biases, input_lo, input_hi, output_lo, output_hi):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.input_lo, self.input_hi = np.asarray(input_lo), np.asarray(input_hi)
        self.output_lo, self.output_hi = np.asarray(output_lo), np.asarray(output_hi)
        self.half = 0.5 * (self.output_hi - self.output_lo)

    @classmethod
    def from_json(cls, doc):
        sizes = doc["layers"]
        weights = [np.asarray(w, dtype=float).reshape(n_out, n_in)
                   for w, n_in, n_out in zip(doc["weights"], sizes[:-1], sizes[1:])]
        return cls(weights, doc["biases"], doc["input_box"]["lo"], doc["input_box"]["hi"],
                   doc["output_box"]["lo"], doc["output_box"]["hi"])

    @classmethod
    def from_network(cls, net):
        return cls(net.weights, net.biases, net.input_lo, net.input_hi,
                   net.output_lo, net.output_hi)

    def __call__(self, x):
        a = 2.0 * (np.asarray(x, dtype=float) - self.input_lo) / (
            self.input_hi - self.input_lo) - 1.0
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w.T + b
            if k < len(self.weights) - 1:
                a = np.tanh(a)
        u = 0.5 * (self.output_lo + self.output_hi) + self.half * a
        return np.clip(u, self.output_lo, self.output_hi)


def bad_forward_rows(reference, x, u):
    """Rows of u (float policy outputs at inputs x) off the numpy evaluation."""
    dev = np.max(np.abs(np.asarray(u) - reference(x)) / reference.half, axis=-1)
    return np.flatnonzero(dev > FORWARD_TOL)


def bad_quantized_rows(half, u_float, u_q):
    """Rows whose integer output is off the float one by more than QUANT_TOL."""
    dev = np.max(np.abs(np.asarray(u_q) - np.asarray(u_float)) / half, axis=-1)
    return np.flatnonzero(dev > QUANT_TOL)


def bad_unequal_rows(a, b):
    """Rows of a and b that are not bit-identical."""
    return np.flatnonzero(np.any(np.asarray(a) != np.asarray(b), axis=-1))


def check_gradients(analytic, numeric, what):
    """Backprop entries against central differences, on the scale of the entries."""
    analytic, numeric = np.asarray(analytic), np.asarray(numeric)
    gap = np.max(np.abs(analytic - numeric))
    if gap > 1e-5 * np.max(np.abs(numeric)) + 1e-9:
        return [f"{what}: backprop differs from central differences by {gap:.3g}"]
    return []


def check_loss_falls(history, what):
    train = history["train"]
    if not train[-1] < train[0]:
        return [f"{what}: training loss rose from {train[0]:.4g} to {train[-1]:.4g}"]
    return []
