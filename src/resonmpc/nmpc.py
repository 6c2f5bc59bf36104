"""Receding-horizon controller for the resonant tank.

The horizon covers N control intervals (N/2 switching intervals).  Because
the segment dynamics are linear and the input pair is constant within a
switching interval, the states are eliminated by exact propagation and the
problem is solved over the N/2 input pairs only.  ZVS sign constraints at
the interval boundaries are handled by an exterior quadratic penalty whose
weight is doubled until feasibility; box bounds are native to the
projected quasi-Newton step.  The gradient is a forward difference in each
scaled input; as an input only moves its own switching interval and the
ones after it, each perturbed rollout resumes from the unperturbed
rollout's state, cost and penalty before that interval, which gives the
same bits as a full rollout per input.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .errors import ArgumentError
from .plant import ControlInput, ConverterParams, PlantState, SegmentPropagator

__all__ = [
    "NmpcConfig",
    "NmpcSolution",
    "CorrectionState",
    "solve",
    "RecedingHorizonController",
    "apply_correction",
    "brute_force_oracle",
    "WARMUP_INPUT",
]

# the input applied before a controller has a solution: the harness's
# open-loop warm-up, and the receding-horizon controller's first fallback
WARMUP_INPUT = ControlInput(100e3, 0.5)

# ON-semicycle power quadrature: Radau collocation nodes on the scaled time axis
COLLOC_DEGREE = 2
COLLOC_ELEMENTS = 400
# The power-tracking cost is degenerate: many (f, d) pairs deliver the
# same power, and which one the optimizer lands on varies discontinuously
# with the state.  Under plant/model parameter mismatch those equal-cost
# pairs deliver very different real power, which makes the closed-loop
# command-to-power map non-monotonic and breaks the setpoint-correction
# integrator.  A small duty-centering term (relative to the squared
# setpoint, like the tracking term) selects the symmetric solution on
# each level set so the delivered power is carried by frequency alone.
DUTY_REG = 1e-2
GRAD_TOL = 1e-6  # projected-gradient tolerance on the scaled problem
MAX_ITERATIONS = 200  # L-BFGS-B iterations per `minimize` call
PENALTY_INIT = 1e6  # exterior penalty weight, doubled until feasible ...
PENALTY_MAX = 1e13  # ... or past this
FD_REL_STEP = 1e-6  # forward-difference step in the scaled inputs


@dataclass(frozen=True)
class NmpcConfig:
    """Horizon, weights and bounds of the tracking problem."""

    horizon_n: int = 10  # control intervals; horizon_n/2 switching intervals
    alpha: float = 5e-8  # frequency weight in the cost
    f_min: float = 30e3
    f_max: float = 100e3
    d_min: float = 0.2
    d_max: float = 0.8
    zvs_margin: float = 10.0  # amps of slack demanded at future boundaries
    constraint_tol: float = 1e-6  # amps

    def __post_init__(self):
        if self.horizon_n < 2 or self.horizon_n % 2 != 0:
            raise ArgumentError(f"horizon_n must be even and >= 2, got {self.horizon_n}")
        if not self.f_min < self.f_max:
            raise ArgumentError("f_min must be < f_max")
        if not self.d_min < self.d_max:
            raise ArgumentError("d_min must be < d_max")

    @property
    def n_pairs(self) -> int:
        return self.horizon_n // 2


@dataclass(frozen=True)
class NmpcSolution:
    """Result of one horizon solve."""

    inputs: tuple  # ControlInput per switching interval
    powers: tuple  # predicted per-switching-interval average power [W]
    boundary_states: tuple  # PlantState at boundaries k = 0..horizon_n
    cost: float
    status: str  # "converged" | "max-iter" | "infeasible"
    iterations: int
    initial_state_zvs_ok: bool

    @property
    def first_input(self) -> ControlInput:
        return self.inputs[0]


@dataclass(frozen=True)
class CorrectionState:
    """Setpoint-offset integrator driving the measured power to the target."""

    p_des_orig: float
    p_des_current: float
    gain_k: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.gain_k <= 1.0:
            raise ArgumentError(f"gain_k must lie in (0, 1], got {self.gain_k}")


def apply_correction(corr: CorrectionState, p_meas: float) -> CorrectionState:
    """One step of the setpoint update: add K * (original - measured)."""
    bumped = corr.p_des_current + corr.gain_k * (corr.p_des_orig - p_meas)
    return replace(corr, p_des_current=bumped)


class _Horizon:
    """Horizon rollout: exact boundary states, collocation power quadrature.

    The predicted average power of each ON semicycle follows the
    collocation rule P = f_sw * sum_i i_o[i] * v_o[i] * (t[i] - t[i-1])
    over the collocation node times; the node states themselves are exact,
    so the (small) quadrature bias of the rule is reproduced without any
    state discretization error.  Rollouts run on plain floats but for one
    numpy complex division; `objective` takes forward differences whose
    perturbed rollouts resume from the unperturbed prefix.
    """

    def __init__(self, params: ConverterParams, config: NmpcConfig):
        from .transform import collocation_grid  # local import, no cycle at runtime

        self.params = params
        self.config = config
        self.prop = SegmentPropagator(params)
        grid = collocation_grid(COLLOC_DEGREE, COLLOC_ELEMENTS)
        taus = grid.global_taus()
        self._node_taus = taus[1:]
        self._node_dtaus = np.diff(taus)
        self._n_elements = grid.n_elements
        h = grid.element_length
        self._elem_nodes = grid.nodes * h  # node offsets within one element
        self._elem_dtaus = np.diff(np.concatenate(([0.0], grid.nodes))) * h
        self._elem_h = h
        # modal decomposition of the current response, i(t) =
        # Re[(A+ i0 + B+ dv) e^(lam+ t) + (A- i0 + B- dv) e^(lam- t)]
        a11, a12, alpha, beta = self.prop._a11, self.prop._a12, self.prop._alpha, self.prop._beta
        self._degenerate = abs(beta) < 1e3  # near-critical damping: sum nodes directly
        if not self._degenerate:
            self._coef_i = (0.5 + (a11 - alpha) / (2.0 * beta),
                            0.5 - (a11 - alpha) / (2.0 * beta))
            self._coef_v = (a12 / (2.0 * beta), -a12 / (2.0 * beta))
            # the t_on-free factors of `_node_sum_scalar` per mode: lam, lam * h
            # and (lam * node offset, node weight) for each node of an element
            elem = list(zip(self._elem_nodes.tolist(), self._elem_dtaus.tolist()))
            self._modes = tuple((lam, lam * h, [(lam * tau, dtau) for tau, dtau in elem])
                                for lam in (alpha + beta, alpha - beta))

    def _node_sum_scalar(self, mode, t_on: float) -> complex:
        """Scalar `_node_sum` of one mode in plain complex arithmetic (hot path)."""
        lam, lam_h, lam_nodes = mode
        pattern = 0j
        for lam_tau, dtau in lam_nodes:
            pattern += dtau * cmath.exp(lam_tau * t_on)
        den = cmath.exp(lam_h * t_on) - 1.0
        if abs(den) < 1e-12:
            return pattern * self._n_elements
        # numpy's complex division; Python's differs from it in the last bit
        return complex(np.complex128(pattern * (cmath.exp(lam * t_on) - 1.0)) / den)

    def _node_sum(self, lam, t_on):
        """sum_j exp(lam * tau_j * t_on) * dtau_j over all collocation nodes.

        The elements are uniform, so the per-element pattern sum times a
        geometric series in g = exp(lam * h * t_on) gives the total.
        """
        g = np.exp(lam * self._elem_h * np.asarray(t_on, dtype=complex))
        pattern = np.zeros_like(g)
        for tau_k, dtau_k in zip(self._elem_nodes / self._elem_h, self._elem_dtaus):
            pattern = pattern + dtau_k * g**tau_k
        num = g**self._n_elements - 1.0
        den = g - 1.0
        ratio = np.where(np.abs(den) < 1e-12, float(self._n_elements), num / den)
        return pattern * ratio

    def _on_power_scalar(self, i0: float, v0: float, f: float, d: float) -> float:
        """`_on_power` of one input pair in plain float arithmetic (hot path)."""
        if self._degenerate:
            return self._on_power(i0, v0, f, d)
        t_on = d / f
        dv = v0 - self.params.v_s
        s_plus = self._node_sum_scalar(self._modes[0], t_on)
        s_minus = self._node_sum_scalar(self._modes[1], t_on)
        charge = t_on * (
            (self._coef_i[0] * i0 + self._coef_v[0] * dv) * s_plus
            + (self._coef_i[1] * i0 + self._coef_v[1] * dv) * s_minus
        ).real
        return f * self.params.v_s * charge

    def _on_power(self, i0, v0, f, d):
        """Collocation-rule average power of one ON semicycle; broadcasts."""
        t_on = np.asarray(d) / np.asarray(f)
        dv = np.asarray(v0) - self.params.v_s
        if self._degenerate:
            dts = t_on[..., None] * self._node_taus if np.ndim(t_on) else t_on * self._node_taus
            i_nodes, _ = self.prop.step_array(
                np.asarray(i0)[..., None] if np.ndim(i0) else i0,
                np.asarray(v0)[..., None] if np.ndim(v0) else v0,
                self.params.v_s, dts,
            )
            charge = (i_nodes @ self._node_dtaus) * t_on
        else:
            s_plus = self._node_sum(self._modes[0][0], t_on)
            s_minus = self._node_sum(self._modes[1][0], t_on)
            charge = t_on * (
                (self._coef_i[0] * np.asarray(i0) + self._coef_v[0] * dv) * s_plus
                + (self._coef_i[1] * np.asarray(i0) + self._coef_v[1] * dv) * s_minus
            ).real
        p = f * self.params.v_s * charge
        return float(p) if np.ndim(p) == 0 else p

    def rollout(self, pairs, p_des: float, start):
        """Records (i_o, v_c, cost, penalty, power, i_mid, v_mid, worst violation)
        after each pair, from `start` = (i_o, v_c, cost, penalty) before the first.

        A record's first four fields start a rollout of the pairs after it.
        Each switching interval spans two control intervals, so its power
        error and frequency terms are counted twice.  Boundaries k >= 1 must
        satisfy i_o >= margin at odd k and i_o <= -margin at even k; the
        penalty sums the squared margined violations in boundary order.
        """
        cfg = self.config
        vs = self.params.v_s
        m = cfg.zvs_margin
        step = self.prop.step
        reg = DUTY_REG * max(1.0, p_des * p_des)
        i, v, cost, pen = start[:4]
        records = []
        for f, d in pairs:
            p = self._on_power_scalar(i, v, f, d)
            i_mid, v_mid = step(i, v, vs, d / f)
            i, v = step(i_mid, v_mid, 0.0, (1.0 - d) / f)
            e = p - p_des
            cost += 2.0 * (e * e + cfg.alpha * f + reg * (d - 0.5) ** 2)
            viol_mid = max(0.0, m - i_mid)
            viol_end = max(0.0, i + m)
            pen += viol_mid * viol_mid
            pen += viol_end * viol_end
            records.append((i, v, cost, pen, p, i_mid, v_mid, max(viol_mid, viol_end)))
        return records

    def objective(self, z: np.ndarray, mu: float, start, p_des: float):
        """Scaled penalized cost at z and its forward-difference gradient.

        z[k] moves only input pair k // 2, so its perturbed rollout resumes
        from the base rollout's record before that pair and sums in a full
        rollout's order.  Own differences: the optimizer's built-in ones
        reject iterates its line search has pushed a rounding error outside the box.
        """
        cfg = self.config
        h = FD_REL_STEP
        cost_scale = max(1.0, p_des * p_des)
        zl = z.tolist()
        pairs = _pairs_from_z(zl, cfg)
        prefix = [start] + self.rollout(pairs, p_des, start)
        f0 = prefix[-1][2] / cost_scale + mu * prefix[-1][3]
        g = np.empty_like(z)
        for k in range(len(zl)):
            j = k // 2
            zj = zl[2 * j : 2 * j + 2]
            zj[k % 2] += h
            end = self.rollout(_pairs_from_z(zj, cfg) + pairs[j + 1 :], p_des, prefix[j])[-1]
            g[k] = (end[2] / cost_scale + mu * end[3] - f0) / h
        return f0, g


@lru_cache(maxsize=16)
def _horizon(params: ConverterParams, config: NmpcConfig) -> _Horizon:
    """The `_Horizon` of a model and a configuration, built once (both are frozen)."""
    return _Horizon(params, config)


def _pairs_from_z(z: list, cfg: NmpcConfig) -> list:
    """Input pairs (f_sw, duty) of the scaled variables, a list of floats."""
    f_span = cfg.f_max - cfg.f_min
    d_span = cfg.d_max - cfg.d_min
    return [(cfg.f_min + zf * f_span, cfg.d_min + zd * d_span)
            for zf, zd in zip(z[0::2], z[1::2])]


def _z_from_inputs(inputs, cfg: NmpcConfig) -> np.ndarray:
    z = [((u.f_sw - cfg.f_min) / (cfg.f_max - cfg.f_min),
          (u.duty - cfg.d_min) / (cfg.d_max - cfg.d_min)) for u in inputs]
    return np.clip(np.ravel(z), 0.0, 1.0)


def _coarse_seed(horizon: _Horizon, x0: PlantState, p_des: float, n: int = 9) -> np.ndarray:
    """Best constant-input pair on a small scan, as a scaled start point."""
    cfg = horizon.config
    costs, viols, F, D = _constant_input_scan(horizon, x0, p_des, n)
    score = costs + 1e6 * viols**2
    j = int(np.argmin(score))
    zf = (F.ravel()[j] - cfg.f_min) / (cfg.f_max - cfg.f_min)
    zd = (D.ravel()[j] - cfg.d_min) / (cfg.d_max - cfg.d_min)
    return np.tile([zf, zd], cfg.n_pairs)


def _constant_input_scan(horizon: _Horizon, x0: PlantState, p_des: float, n: int):
    """Vectorized horizon cost for constant inputs on an n-by-n grid.

    Returns (costs, worst margined violation, F, D) with grid-shaped arrays.
    """
    cfg = horizon.config
    params = horizon.params
    F, D = np.meshgrid(
        np.linspace(cfg.f_min, cfg.f_max, n), np.linspace(cfg.d_min, cfg.d_max, n),
        indexing="ij",
    )
    prop = horizon.prop
    i = np.full(F.shape, x0.i_o)
    v = np.full(F.shape, x0.v_c)
    cost = np.zeros(F.shape)
    viol = np.zeros(F.shape)
    m = cfg.zvs_margin
    reg = DUTY_REG * max(1.0, p_des * p_des)
    for _ in range(cfg.n_pairs):
        p = horizon._on_power(i, v, F, D)
        i1, v1 = prop.step_array(i, v, params.v_s, D / F)
        cost += 2.0 * ((p - p_des) ** 2 + cfg.alpha * F + reg * (D - 0.5) ** 2)
        viol = np.maximum(viol, np.maximum(0.0, m - i1))
        i, v = prop.step_array(i1, v1, 0.0, (1.0 - D) / F)
        viol = np.maximum(viol, np.maximum(0.0, i + m))
    return cost, viol, F, D


def solve(
    x_hat: PlantState,
    p_des: float,
    config: NmpcConfig,
    params: ConverterParams,
    warm: Optional[NmpcSolution] = None,
) -> NmpcSolution:
    """Solve the horizon problem from the measured state.

    Deterministic: multi-start from fixed seeds (input-box corners, center
    and a coarse constant-input scan) unless a warm start is supplied.
    """
    if not (math.isfinite(x_hat.i_o) and math.isfinite(x_hat.v_c)):
        raise ArgumentError("x_hat must be finite")
    if not (p_des >= 0.0 and math.isfinite(p_des)):
        raise ArgumentError(f"p_des must be >= 0 and finite, got {p_des}")

    horizon = _horizon(params, config)
    n_pairs = config.n_pairs
    # plain floats: numpy scalars (labelling draws) give the same bits, slower
    p_des = float(p_des)
    start = (float(x_hat.i_o), float(x_hat.v_c), 0.0, 0)

    if warm is not None:
        starts = [_z_from_inputs(warm.inputs, config)]
    else:
        corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        starts = [np.tile(c, n_pairs) for c in corners]
        starts.append(np.full(2 * n_pairs, 0.5))
        starts.append(_coarse_seed(horizon, x_hat, p_des))

    bounds = [(0.0, 1.0)] * (2 * n_pairs)
    best = None  # (infeasible_flag, cost, pairs, records, hit_maxiter)
    total_iters = 0
    for z0 in starts:
        z = np.clip(z0, 0.0, 1.0)
        mu = PENALTY_INIT
        hit_maxiter = False
        while True:
            res = minimize(horizon.objective, z, args=(mu, start, p_des), method="L-BFGS-B",
                           jac=True, bounds=bounds,
                           options={"maxiter": MAX_ITERATIONS, "gtol": GRAD_TOL})
            z = np.clip(res.x, 0.0, 1.0)
            total_iters += res.nit
            hit_maxiter = hit_maxiter or res.status == 1
            pairs = _pairs_from_z(z.tolist(), config)
            records = horizon.rollout(pairs, p_des, start)
            worst = max(r[7] for r in records)
            if worst < config.constraint_tol or mu >= PENALTY_MAX:
                break
            mu *= 2.0
        cand = (worst >= config.constraint_tol, records[-1][2], pairs, records, hit_maxiter)
        if best is None or cand[:2] < best[:2]:
            best = cand
    infeasible, cost, pairs, records, hit_maxiter = best

    states = [start[:2]] + [s for r in records for s in ((r[5], r[6]), (r[0], r[1]))]
    status = "infeasible" if infeasible else "max-iter" if hit_maxiter else "converged"
    return NmpcSolution(
        inputs=tuple(ControlInput(f, d) for f, d in pairs),
        powers=tuple(r[4] for r in records),
        boundary_states=tuple(PlantState(i, v) for i, v in states),
        cost=cost,
        status=status,
        iterations=total_iters,
        initial_state_zvs_ok=x_hat.i_o <= config.constraint_tol,
    )


class RecedingHorizonController:
    """Applies the first optimized input each cycle, warm-started by shifting.

    A failed warm-started solve is retried from the cold multi-start; if
    that fails too, the previously applied input is kept and the step is
    flagged as degraded.
    """

    def __init__(
        self,
        config: NmpcConfig,
        params: ConverterParams,
        fallback: ControlInput = WARMUP_INPUT,
    ):
        self.config = config
        self.params = params
        self.last_input = fallback
        self.last_solution: Optional[NmpcSolution] = None

    def _shifted_warm(self) -> Optional[NmpcSolution]:
        sol = self.last_solution
        if sol is None:
            return None
        shifted = sol.inputs[1:] + (sol.inputs[-1],)
        return replace(sol, inputs=shifted)

    def step(self, measurement: PlantState, p_des: float):
        """Returns (applied input, status string)."""
        warm = self._shifted_warm()
        sol = solve(measurement, p_des, self.config, self.params, warm=warm)
        if sol.status != "converged" and warm is not None:
            # a failed warm start only says the shifted plan was a poor
            # start point; retry from the cold multi-start before degrading
            sol = solve(measurement, p_des, self.config, self.params)
        if sol.status == "converged":
            self.last_solution = sol
            self.last_input = sol.first_input
            return sol.first_input, "converged"
        return self.last_input, "degraded"


def brute_force_oracle(
    x_hat: PlantState,
    p_des: float,
    config: NmpcConfig,
    params: ConverterParams,
    grid_n: int = 50,
):
    """Exact horizon cost over a grid of constant input pairs.

    Returns (best ControlInput or None, best cost or inf, feasible_found).
    ZVS-infeasible grid points (margined violation beyond tolerance) are
    discarded; feasibility of the fixed initial boundary is reported by the
    caller via the same rule as `solve`.
    """
    horizon = _horizon(params, config)
    costs, viols, F, D = _constant_input_scan(horizon, x_hat, p_des, grid_n)
    feasible = viols < config.constraint_tol
    if not np.any(feasible):
        return None, float("inf"), False
    masked = np.where(feasible, costs, np.inf)
    j = np.unravel_index(int(np.argmin(masked)), masked.shape)
    return ControlInput(float(F[j]), float(D[j])), float(costs[j]), True
