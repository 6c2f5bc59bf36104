"""Ground-truth model of the half-bridge series resonant tank.

The tank (load resistance, resonant inductor and capacitor driven by the
switched half-bridge voltage) is linear within each switching segment, so
every propagation here is closed form: no step integration is involved.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ArgumentError, NumericError

__all__ = [
    "ConverterParams",
    "PlantState",
    "ControlInput",
    "CycleResult",
    "SegmentPropagator",
    "perturbed_params",
    "simulate_cycle",
]


@dataclass(frozen=True)
class ConverterParams:
    """Electrical parameters of the resonant tank and the DC bus.

    v_s : bus voltage [V]
    l_r : resonant inductance [H]
    r_l : equivalent load resistance [ohm]
    c_r : resonant capacitance [F]
    """

    v_s: float
    l_r: float
    r_l: float
    c_r: float

    def __post_init__(self):
        if not (self.v_s > 0 and math.isfinite(self.v_s)):
            raise ArgumentError(f"v_s must be positive and finite, got {self.v_s}")
        if not (self.l_r > 0 and math.isfinite(self.l_r)):
            raise ArgumentError(f"l_r must be positive and finite, got {self.l_r}")
        if not (self.r_l >= 0 and math.isfinite(self.r_l)):
            raise ArgumentError(f"r_l must be non-negative and finite, got {self.r_l}")
        if not (self.c_r > 0 and math.isfinite(self.c_r)):
            raise ArgumentError(f"c_r must be positive and finite, got {self.c_r}")


@dataclass(frozen=True)
class PlantState:
    """Inductor current [A] and resonant-capacitor voltage [V] at an instant."""

    i_o: float
    v_c: float


@dataclass(frozen=True)
class ControlInput:
    """One switching interval's decision pair: frequency [Hz] and duty ratio."""

    f_sw: float
    duty: float

    def __post_init__(self):
        if not (self.f_sw > 0 and math.isfinite(self.f_sw)):
            raise ArgumentError(f"f_sw must be positive and finite, got {self.f_sw}")
        if not (0.0 < self.duty < 1.0):
            raise ArgumentError(f"duty must lie in (0, 1), got {self.duty}")

    @property
    def period(self) -> float:
        return 1.0 / self.f_sw

    @property
    def on_time(self) -> float:
        return self.duty / self.f_sw

    @property
    def off_time(self) -> float:
        return (1.0 - self.duty) / self.f_sw


@dataclass(frozen=True)
class CycleResult:
    """Outcome of one switching cycle.

    state_mid  : state at the end of the ON semicycle
    state_end  : state at the end of the cycle
    p_avg      : exact cycle-average output power [W]
    zvs_on_ok  : i_o <= 0 at the instant the ON segment begins
    zvs_off_ok : i_o >= 0 at the instant the OFF segment begins
    trace      : (n_trace, 4) array of (t, i_o, v_c, v_o) sampled at
                 n_trace instants spread evenly over the period; sampled
                 when first read, since the closed loop never reads it
    """

    state_mid: PlantState
    state_end: PlantState
    p_avg: float
    zvs_on_ok: bool
    zvs_off_ok: bool
    _sampling: tuple = field(repr=False, compare=False)  # (x0, params, u, n_trace)

    @cached_property
    def trace(self) -> np.ndarray:
        x0, params, u, n_trace = self._sampling
        prop = SegmentPropagator(params)
        ts = np.linspace(0.0, u.period, n_trace)
        on_mask = ts <= u.on_time
        trace = np.empty((n_trace, 4))
        trace[:, 0] = ts
        ion, von = prop.step_array(x0.i_o, x0.v_c, params.v_s, ts[on_mask])
        ioff, voff = prop.step_array(self.state_mid.i_o, self.state_mid.v_c, 0.0,
                                     ts[~on_mask] - u.on_time)
        trace[on_mask, 1], trace[on_mask, 2] = ion, von
        trace[~on_mask, 1], trace[~on_mask, 2] = ioff, voff
        trace[:, 3] = np.where(on_mask, params.v_s, 0.0)
        return trace


def perturbed_params(params: ConverterParams, rng, error: float) -> ConverterParams:
    """Load resistance and inductance scaled by independent U[1-e, 1+e] draws.

    The two factors come from one `rng.uniform` call, R's first; with
    error 0 the parameters are returned as they are and nothing is drawn.
    """
    if error == 0.0:
        return params
    f_r, f_l = rng.uniform(1.0 - error, 1.0 + error, 2).tolist()
    return replace(params, r_l=params.r_l * f_r, l_r=params.l_r * f_l)


class SegmentPropagator:
    """Closed-form propagator for the tank dynamics at constant applied voltage.

    The system matrix A = [[-r/L, -1/L], [1/C, 0]] has the exact exponential
    exp(A t) = e^(a t) (cosh(b t) I + sinh(b t)/b (A - a I)) with a = tr(A)/2
    and b^2 = a^2 - det(A); the formula is valid in the under-, critically-
    and over-damped regimes (b imaginary, zero or real).
    """

    def __init__(self, params: ConverterParams):
        self.params = params
        l, c, r = params.l_r, params.c_r, params.r_l
        self._a11 = -r / l
        self._a12 = -1.0 / l
        self._a21 = 1.0 / c
        self._alpha = -r / (2.0 * l)
        self._beta = cmath.sqrt(complex(self._alpha * self._alpha - 1.0 / (l * c)))

    def _phi(self, dt: float):
        """Entries of exp(A*dt) as four floats."""
        a = self._alpha
        bt = self._beta * dt
        if abs(bt) < 1e-8:
            # series limit of sinh(bt)/b around b*t = 0
            ch = 1.0 + (bt * bt) / 2.0
            s = dt * (1.0 + (bt * bt) / 6.0)
        else:
            ch = cmath.cosh(bt)
            s = cmath.sinh(bt) / self._beta
        e = math.exp(a * dt)
        p11 = e * (ch + s * (self._a11 - a)).real
        p12 = e * (s * self._a12).real
        p21 = e * (s * self._a21).real
        p22 = e * (ch - s * a).real
        return p11, p12, p21, p22

    def step(self, i0: float, v0: float, v_applied: float, dt: float):
        """Exact state after `dt` seconds with constant applied voltage."""
        p11, p12, p21, p22 = self._phi(dt)
        # equilibrium for constant drive is (0, v_applied)
        dv = v0 - v_applied
        return (p11 * i0 + p12 * dv, p21 * i0 + p22 * dv + v_applied)

    def step_array(self, i0, v0, v_applied, dt):
        """Vectorized `step`; all arguments broadcast as numpy arrays."""
        dt = np.asarray(dt, dtype=float)
        a = self._alpha
        bt = self._beta * dt.astype(complex)
        small = np.abs(bt) < 1e-8
        ch = np.cosh(bt)
        with np.errstate(invalid="ignore"):
            s = np.where(small, dt * (1.0 + bt * bt / 6.0), np.sinh(bt) / self._beta)
        e = np.exp(a * dt)
        p11 = e * (ch + s * (self._a11 - a)).real
        p12 = e * (s * self._a12).real
        p21 = e * (s * self._a21).real
        p22 = e * (ch - s * a).real
        dv = v0 - v_applied
        return (p11 * i0 + p12 * dv, p21 * i0 + p22 * dv + v_applied)


def simulate_cycle(
    x0: PlantState, params: ConverterParams, u: ControlInput, n_trace: int = 64
) -> CycleResult:
    """Run one switching cycle: ON for duty/f_sw seconds, then OFF.

    The average power is exact: the ON-segment charge integral equals
    c_r * (v_c change), so p_avg = f_sw * v_s * c_r * delta(v_c over ON).
    The n_trace-point trace is sampled only if `CycleResult.trace` is read.
    """
    if n_trace < 2:
        raise ArgumentError(f"n_trace must be >= 2, got {n_trace}")
    prop = SegmentPropagator(params)
    i_mid, v_mid = prop.step(x0.i_o, x0.v_c, params.v_s, u.on_time)
    i_end, v_end = prop.step(i_mid, v_mid, 0.0, u.off_time)
    p_avg = u.f_sw * params.v_s * params.c_r * (v_mid - x0.v_c)

    for val in (i_end, v_end):
        if not math.isfinite(val):
            raise NumericError("cycle propagation produced a non-finite state")
    return CycleResult(
        state_mid=PlantState(i_mid, v_mid),
        state_end=PlantState(i_end, v_end),
        p_avg=p_avg,
        zvs_on_ok=x0.i_o <= 0.0,
        zvs_off_ok=i_mid >= 0.0,
        _sampling=(x0, params, u, n_trace),
    )
