"""Scaled-time model and collocation discretization used by the predictor.

Real time is mapped piecewise-affinely to scaled units in which every
switch event lands on an integer: the ON semicycle of interval i covers
[2i, 2i+1] and the OFF semicycle [2i+1, 2i+2].  Segment dynamics in scaled
time pick up the factor duty/f_sw (ON) or (1-duty)/f_sw (OFF).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import lu_factor, lu_solve

from .errors import ArgumentError, NumericError
from .plant import ControlInput, ConverterParams, PlantState

__all__ = [
    "SwitchingSchedule",
    "CollocationGrid",
    "IntervalPrediction",
    "tau_of_t",
    "t_of_tau",
    "collocation_grid",
    "predict_interval",
    "interval_power",
]


@dataclass(frozen=True)
class SwitchingSchedule:
    """Contiguous sequence of switching intervals.

    t_starts[i] is the start of interval i; each interval spans one period
    of its input, so t_starts[i+1] = t_starts[i] + 1/f_sw[i].
    """

    t_starts: tuple
    inputs: tuple  # ControlInput per interval

    @classmethod
    def from_inputs(cls, t0: float, inputs) -> "SwitchingSchedule":
        starts = [t0]
        for u in inputs:
            starts.append(starts[-1] + u.period)
        return cls(t_starts=tuple(starts[:-1]), inputs=tuple(inputs))

    @property
    def t_end(self) -> float:
        return self.t_starts[-1] + self.inputs[-1].period


def tau_of_t(t: float, schedule: SwitchingSchedule) -> float:
    """Map real time to scaled time; switch events land on integers."""
    if t < schedule.t_starts[0] or t > schedule.t_end:
        raise ArgumentError(f"t={t} outside schedule span")
    idx = int(np.searchsorted(schedule.t_starts, t, side="right")) - 1
    idx = max(idx, 0)
    u = schedule.inputs[idx]
    t_i = schedule.t_starts[idx]
    t_mid = t_i + u.on_time
    if t <= t_mid:
        return 2.0 * idx + (t - t_i) * u.f_sw / u.duty
    return 2.0 * idx + 1.0 + (t - t_mid) * u.f_sw / (1.0 - u.duty)


def t_of_tau(tau: float, schedule: SwitchingSchedule) -> float:
    """Inverse of `tau_of_t`."""
    n = len(schedule.inputs)
    if tau < 0.0 or tau > 2.0 * n:
        raise ArgumentError(f"tau={tau} outside schedule span")
    idx = min(int(tau // 2.0), n - 1)
    u = schedule.inputs[idx]
    t_i = schedule.t_starts[idx]
    frac = tau - 2.0 * idx
    if frac <= 1.0:
        return t_i + frac * u.duty / u.f_sw
    return t_i + u.on_time + (frac - 1.0) * (1.0 - u.duty) / u.f_sw


def _radau_nodes(degree: int) -> np.ndarray:
    """Right-endpoint Radau collocation nodes on (0, 1]."""
    # roots of P_d - P_{d-1} on [-1, 1], mapped to [0, 1]
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    coeffs[degree - 1] = -1.0
    roots = np.sort(legendre.legroots(coeffs))
    nodes = (roots + 1.0) / 2.0
    nodes[-1] = 1.0
    return nodes


@dataclass(frozen=True)
class CollocationGrid:
    """Radau collocation grid on the unit scaled-time interval.

    nodes / weights are on the reference element [0, 1]; the interval is
    split into `n_elements` equal elements.  `diff` is the Lagrange
    differentiation matrix over the points (0, nodes...): diff[k, j] is the
    derivative of basis polynomial j at node k.
    """

    degree: int
    n_elements: int
    nodes: np.ndarray
    weights: np.ndarray
    diff: np.ndarray

    @property
    def element_length(self) -> float:
        return 1.0 / self.n_elements

    def global_taus(self) -> np.ndarray:
        """All collocation times over [0, 1], including the left boundary."""
        h = self.element_length
        starts = np.arange(self.n_elements)[:, None] * h
        return np.concatenate(([0.0], (starts + self.nodes * h).ravel()))


def collocation_grid(degree: int, n_elements: int) -> CollocationGrid:
    """Build a Radau grid with quadrature weights and differentiation matrix."""
    if degree < 1:
        raise ArgumentError(f"degree must be >= 1, got {degree}")
    if n_elements < 1:
        raise ArgumentError(f"n_elements must be >= 1, got {n_elements}")
    nodes = _radau_nodes(degree)

    # quadrature weights from moment conditions (exact through degree-1)
    vand = np.vander(nodes, degree, increasing=True).T
    moments = 1.0 / np.arange(1, degree + 1)
    weights = np.linalg.solve(vand, moments)

    # Lagrange differentiation matrix over points (0, nodes...)
    pts = np.concatenate(([0.0], nodes))
    diff = np.empty((degree, degree + 1))
    for j, _ in enumerate(pts):
        others = np.delete(pts, j)
        poly = np.poly(others) / np.prod(pts[j] - others)
        dpoly = np.polyder(poly)
        diff[:, j] = np.polyval(dpoly, nodes)
    return CollocationGrid(
        degree=degree, n_elements=n_elements, nodes=nodes, weights=weights, diff=diff
    )


@dataclass(frozen=True)
class IntervalPrediction:
    """Collocation states over one control interval (ON or OFF semicycle).

    taus   : scaled times in [0, 1], first entry 0 (the initial condition)
    states : (len(taus), 2) array of (i_o, v_c)
    """

    taus: np.ndarray
    states: np.ndarray
    phase: str  # "on" or "off"
    duration_s: float
    control: ControlInput


def predict_interval(
    x0: PlantState,
    u: ControlInput,
    phase: str,
    params: ConverterParams,
    grid: CollocationGrid,
) -> IntervalPrediction:
    """Solve the collocation equations for one scaled-time control interval.

    The segment dynamics are linear, so each element reduces to one linear
    solve; the system matrix is shared by all elements and factored once.
    """
    if phase not in ("on", "off"):
        raise ArgumentError(f"phase must be 'on' or 'off', got {phase!r}")
    on = phase == "on"
    duration = u.on_time if on else u.off_time
    v_app = params.v_s if on else 0.0

    a = np.array([[-params.r_l / params.l_r, -1.0 / params.l_r],
                  [1.0 / params.c_r, 0.0]])
    b = np.array([v_app / params.l_r, 0.0])

    d = grid.degree
    h = grid.element_length
    # unknowns per element: states at the d nodes, stacked as a 2d-vector
    # equations: sum_j diff[k, j] x_j = h * duration * (A x_k + b)
    m = np.zeros((2 * d, 2 * d))
    for k in range(d):
        for j in range(1, d + 1):
            m[2 * k : 2 * k + 2, 2 * (j - 1) : 2 * j] = grid.diff[k, j] * np.eye(2)
        m[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] -= h * duration * a
    try:
        lu = lu_factor(m)
    except Exception as exc:  # pragma: no cover - cannot occur for valid grids
        raise NumericError("singular collocation system") from exc

    states = np.empty((grid.n_elements * d + 1, 2))
    states[0] = x0.as_array()
    rhs = np.empty(2 * d)
    x_left = states[0]
    row = 1
    for _ in range(grid.n_elements):
        for k in range(d):
            rhs[2 * k : 2 * k + 2] = h * duration * b - grid.diff[k, 0] * x_left
        sol = lu_solve(lu, rhs).reshape(d, 2)
        states[row : row + d] = sol
        x_left = sol[-1]
        row += d
    return IntervalPrediction(
        taus=grid.global_taus(),
        states=states,
        phase=phase,
        duration_s=duration,
        control=u,
    )


def interval_power(
    pred: IntervalPrediction, u: ControlInput, params: ConverterParams
) -> float:
    """Quadrature of the switched output power over one control interval.

    OFF intervals contribute zero; the caller carries the previous ON
    interval's value when reporting per-cycle power.
    """
    if pred.phase == "off":
        return 0.0
    dt_real = np.diff(pred.taus) * pred.duration_s
    currents = pred.states[1:, 0]
    return u.f_sw * params.v_s * float(np.sum(currents * dt_real))
