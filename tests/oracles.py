"""Reference models that the tests check the package against.

The periodic steady state of a constant input, and the paper's scaled-time
transcription: real time mapped piecewise-affinely to scaled units in
which every switch event lands on an integer (the ON semicycle of
interval i covers [2i, 2i+1] and the OFF semicycle [2i+1, 2i+2]), and the
Radau collocation of one semicycle's dynamics on that scale, where they
pick up the factor duty/f_sw (ON) or (1-duty)/f_sw (OFF).  The solver
propagates its states exactly instead; these models stand beside it.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from resonmpc.errors import ArgumentError, NumericError
from resonmpc.plant import ControlInput, ConverterParams, PlantState, SegmentPropagator
from resonmpc.transform import CollocationGrid


def propagator_matrix(prop: SegmentPropagator, dt: float) -> np.ndarray:
    """exp(A dt) as a 2x2 array, its columns `prop.step` of the unit states."""
    return np.array([prop.step(1.0, 0.0, 0.0, dt), prop.step(0.0, 1.0, 0.0, dt)]).T


def steady_state_cycle(params: ConverterParams, u: ControlInput) -> PlantState:
    """Periodic steady-state start-of-cycle state for a constant input.

    The cycle map is affine, x_end = M x0 + d, so the fixed point is the
    solution of (I - M) x = d.
    """
    prop = SegmentPropagator(params)
    phi_on = propagator_matrix(prop, u.on_time)
    phi_off = propagator_matrix(prop, u.off_time)
    e_on = np.array([0.0, params.v_s])
    m = phi_off @ phi_on
    d = phi_off @ (e_on - phi_on @ e_on)
    try:
        x = np.linalg.solve(np.eye(2) - m, d)
    except np.linalg.LinAlgError as exc:  # undamped tank at exact resonance
        raise NumericError("cycle map has no unique fixed point") from exc
    return PlantState(float(x[0]), float(x[1]))


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


def quadrature_weights(grid: CollocationGrid) -> np.ndarray:
    """Interpolatory weights of the grid's nodes on the reference element,
    from the moment conditions (exact through degree - 1)."""
    vand = np.vander(grid.nodes, grid.degree, increasing=True).T
    moments = 1.0 / np.arange(1, grid.degree + 1)
    return np.linalg.solve(vand, moments)


def differentiation_matrix(grid: CollocationGrid) -> np.ndarray:
    """Lagrange differentiation matrix over the points (0, nodes...):
    entry [k, j] is the derivative of basis polynomial j at node k."""
    pts = np.concatenate(([0.0], grid.nodes))
    diff = np.empty((grid.degree, grid.degree + 1))
    for j, _ in enumerate(pts):
        others = np.delete(pts, j)
        poly = np.poly(others) / np.prod(pts[j] - others)
        diff[:, j] = np.polyval(np.polyder(poly), grid.nodes)
    return diff


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
    diff = differentiation_matrix(grid)
    # unknowns per element: states at the d nodes, stacked as a 2d-vector
    # equations: sum_j diff[k, j] x_j = h * duration * (A x_k + b)
    m = np.zeros((2 * d, 2 * d))
    for k in range(d):
        for j in range(1, d + 1):
            m[2 * k : 2 * k + 2, 2 * (j - 1) : 2 * j] = diff[k, j] * np.eye(2)
        m[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] -= h * duration * a
    lu = lu_factor(m)

    states = np.empty((grid.n_elements * d + 1, 2))
    states[0] = (x0.i_o, x0.v_c)
    rhs = np.empty(2 * d)
    x_left = states[0]
    row = 1
    for _ in range(grid.n_elements):
        for k in range(d):
            rhs[2 * k : 2 * k + 2] = h * duration * b - diff[k, 0] * x_left
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
