"""Closed-loop scenario runner, metrics and benchmark campaigns.

Every scenario follows the same per-cycle loop: measure the true plant
state, optionally correct the power setpoint from the previous cycle's
measured power, query the selected controller, then advance the true
plant by exactly one switching cycle.  The plant path is identical for
all controller kinds; only the input selection differs.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .errors import ArgumentError
from .nmpc import WARMUP_INPUT, NmpcConfig, RecedingHorizonController
from .plant import ControlInput, ConverterParams, PlantState, perturbed_params, simulate_cycle
from .policy import DEFAULT_INPUT_HI, DEFAULT_INPUT_LO, Dataset, PolicyNetwork, forward
from .quant import QuantizedNetwork, forward_q

__all__ = [
    "Scenario",
    "RunMetrics",
    "CycleRecord",
    "CONTROLLER_KINDS",
    "run_closed_loop",
    "compute_metrics",
    "run_benchmark",
    "run_param_grid",
    "generate_dataset_closed_loop",
    "generate_dataset_box_draws",
    "write_trace_csv",
    "write_summary_json",
]

CONTROLLER_KINDS = ("exact-nmpc", "dnn", "dnn-quant", "pi-freq", "pi-duty")
DEFAULT_PI_FIXED_FREQ = 31e3

# velocity-form PI gains (kp, ki), found on the nominal plant by scanning 5 kp
# x 4 ki values around 10 Hz/W (freq) or 2e-5/W (duty, at DEFAULT_PI_FIXED_FREQ):
# kp at 0.1, 0.3, 1, 3 and 10 times that, ki at 0.1, 0.3, 1 and 3 times.  Of
# the pairs whose power never passes 102 % in the 40 cycles after a step to
# 2000 W, these settle soonest into +-2 %.
DEFAULT_PI_FREQ_GAINS = (1.0, 3.0)  # Hz per W
DEFAULT_PI_DUTY_GAINS = (2e-6, 6e-6)  # duty per W
# the setpoint-correction rule of `Scenario.correction`
CORRECTION_GAIN = 0.8  # share of the settled power error added to the command
CORRECTION_DELAY = 5  # cycles waited after warm-up or a setpoint step
CORRECTION_INTERVAL = 4  # cycles between setpoint-correction updates
CORRECTION_CMD_MAX = 4000.0  # W, ceiling of the corrected command

@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: setpoint schedule, plant/model params, controller.

    schedule entries are (start_cycle, p_des_watts); the setpoint holds until
    the next entry.  model_params is what the controller believes; it may
    differ from plant_params to emulate parameter error.  The first
    warmup_cycles run open loop at `nmpc.WARMUP_INPUT`.
    """

    schedule: tuple
    total_cycles: int
    plant_params: ConverterParams
    model_params: ConverterParams
    controller: str
    warmup_cycles: int = 5
    correction: bool = False

    def __post_init__(self):
        if self.controller not in CONTROLLER_KINDS:
            raise ArgumentError(
                f"controller must be one of {CONTROLLER_KINDS}, got {self.controller!r}"
            )
        if not self.schedule:
            raise ArgumentError("schedule must be nonempty")
        starts = [c for c, _ in self.schedule]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ArgumentError("schedule cycle indices must be strictly increasing")
        if self.total_cycles < starts[-1]:
            raise ArgumentError(
                f"total_cycles={self.total_cycles} is before the last "
                f"schedule entry at cycle {starts[-1]}"
            )
        if self.warmup_cycles < 0:
            raise ArgumentError("warmup_cycles must be non-negative")
        if any(not p >= 0.0 for _, p in self.schedule):
            raise ArgumentError("schedule setpoints must be non-negative")

    def setpoint_at(self, cycle: int) -> float:
        p = self.schedule[0][1]
        for start, p_des in self.schedule:
            if cycle >= start:
                p = p_des
        return p


@dataclass(frozen=True)
class CycleRecord:
    """Per-cycle log row; its fields are the trace CSV's columns, in order."""

    cycle: int
    t_start_s: float
    fsw_hz: float
    duty: float
    io_start_a: float
    vc_start_v: float
    p_avg_w: float
    p_des_w: float
    p_des_corrected_w: float
    zvs_on_ok: bool
    zvs_off_ok: bool
    solver_status: str


TRACE_COLUMNS = tuple(f.name for f in fields(CycleRecord))


@dataclass(frozen=True)
class RunMetrics:
    """Aggregate closed-loop quality figures for one scenario run.

    steady_state_errors has one entry per setpoint segment; None marks a
    segment too short to measure (fewer than 11 cycles).
    """

    avg_tracking_error_w: float
    zvs_violation_pct: float
    steady_state_errors_w: tuple
    n_cycles: int

    def __post_init__(self):
        if not (0.0 <= self.zvs_violation_pct <= 100.0):
            raise ArgumentError("zvs_violation_pct outside [0, 100]")
        if self.avg_tracking_error_w < 0:
            raise ArgumentError("avg_tracking_error_w must be non-negative")


class _PiController:
    """Velocity-form PI on a single input; the other input stays fixed.

    pi-freq drives the switching frequency at duty 0.5 (power falls with
    frequency above resonance, hence the sign flip); pi-duty drives the
    duty ratio at a fixed frequency.  Clamping the stored input to its box
    doubles as anti-windup.
    """

    def __init__(self, kind: str, config: NmpcConfig):
        self.kind = kind
        self.config = config
        self.e_prev = 0.0
        if kind == "pi-freq":
            self.kp, self.ki = DEFAULT_PI_FREQ_GAINS
            self.u_var = config.f_max
        else:
            self.kp, self.ki = DEFAULT_PI_DUTY_GAINS
            self.u_var = config.d_min

    def step(self, measurement: PlantState, p_des: float, p_meas: float):
        e = p_des - p_meas
        du = self.kp * (e - self.e_prev) + self.ki * e
        self.e_prev = e
        if self.kind == "pi-freq":
            self.u_var = min(max(self.u_var - du, self.config.f_min), self.config.f_max)
            return ControlInput(self.u_var, 0.5), "pi"
        self.u_var = min(max(self.u_var + du, self.config.d_min), self.config.d_max)
        return ControlInput(DEFAULT_PI_FIXED_FREQ, self.u_var), "pi"


def _make_controller(
    sc: Scenario,
    nmpc_config: NmpcConfig,
    net: Optional[PolicyNetwork],
    qnet: Optional[QuantizedNetwork],
):
    """The scenario's controller as decide(state, p_cmd, p_meas) -> (input, status).

    p_cmd is the (corrected) power command, p_meas the power measured over
    the previous cycle; only the PI baselines read it.
    """
    if sc.controller == "exact-nmpc":
        rhc = RecedingHorizonController(nmpc_config, sc.model_params)
        return lambda state, p_cmd, p_meas: rhc.step(state, p_cmd)
    if sc.controller == "dnn":
        if net is None:
            raise ArgumentError("scenario controller 'dnn' needs a trained network")
        return lambda state, p_cmd, p_meas: (
            forward(net, (state.i_o, state.v_c, p_cmd)), "dnn")
    if sc.controller == "dnn-quant":
        if qnet is None:
            raise ArgumentError(
                "scenario controller 'dnn-quant' needs a quantized network"
            )
        return lambda state, p_cmd, p_meas: (
            forward_q(qnet, (state.i_o, state.v_c, p_cmd)), "dnn-quant")
    return _PiController(sc.controller, nmpc_config).step


def run_closed_loop(
    sc: Scenario,
    nmpc_config: Optional[NmpcConfig] = None,
    net: Optional[PolicyNetwork] = None,
    qnet: Optional[QuantizedNetwork] = None,
    x0: PlantState = PlantState(0.0, 0.0),
):
    """Run one scenario against the true plant; returns (records, metrics)."""
    cfg = nmpc_config or NmpcConfig()
    decide = _make_controller(sc, cfg, net, qnet)

    state = x0
    t = 0.0
    last_p_avg: Optional[float] = None
    p_corr: Optional[float] = None  # corrected command, once correction starts
    corr_window: list = []  # measured powers since the last correction update
    seg_start = 0
    last_p_des = None
    records = []
    for cycle in range(sc.total_cycles):
        p_des = sc.setpoint_at(cycle)
        if p_des != last_p_des:
            seg_start = cycle
            last_p_des = p_des
            p_corr = None
        if cycle < sc.warmup_cycles:
            u, status = WARMUP_INPUT, "warmup"
            p_cmd = p_des
        else:
            # correction waits out the step transient, counted from the last
            # setpoint change or the start of closed-loop control (whichever
            # is later), then integrates the setpoint with windup clamping.
            # Updates run every CORRECTION_INTERVAL cycles on the power
            # measured over the settled half of the interval: the plant takes
            # a few cycles to settle after each command change, and feeding
            # mid-transient measurements back every cycle turns the
            # integrator into a delayed loop that rings at loop gains the
            # settled cadence handles comfortably.
            transient_start = max(seg_start, sc.warmup_cycles)
            if sc.correction and cycle - transient_start >= CORRECTION_DELAY:
                if p_corr is None:
                    p_corr, corr_window = p_des, []
                else:
                    corr_window.append(last_p_avg)
                    if len(corr_window) >= CORRECTION_INTERVAL:
                        settled = corr_window[CORRECTION_INTERVAL // 2:]
                        p_corr += CORRECTION_GAIN * (p_des - sum(settled) / len(settled))
                        p_corr = min(max(p_corr, 0.0), CORRECTION_CMD_MAX)
                        corr_window = []
                p_cmd = p_corr
            else:
                p_cmd = p_des
            u, status = decide(state, p_cmd, 0.0 if last_p_avg is None else last_p_avg)

        res = simulate_cycle(state, sc.plant_params, u)
        records.append(
            CycleRecord(
                cycle=cycle,
                t_start_s=t,
                fsw_hz=u.f_sw,
                duty=u.duty,
                io_start_a=state.i_o,
                vc_start_v=state.v_c,
                p_avg_w=res.p_avg,
                p_des_w=p_des,
                p_des_corrected_w=p_cmd,
                zvs_on_ok=res.zvs_on_ok,
                zvs_off_ok=res.zvs_off_ok,
                solver_status=status,
            )
        )
        state = res.state_end
        t += u.period
        last_p_avg = res.p_avg
    metrics = compute_metrics(records, warmup_cycles=sc.warmup_cycles)
    return records, metrics


def compute_metrics(records, warmup_cycles: int = 0) -> RunMetrics:
    """Aggregate per-cycle records into RunMetrics.

    Tracking error averages |p_avg - p_des| over all post-warmup cycles,
    transient included.  Steady-state error per segment is the offset of the
    settled power from the setpoint, |mean(p_avg) - p_des| over the
    segment's last 10 cycles -- the average first, so cycle-to-cycle
    switching ripple (which any multi-cycle power measurement averages out)
    does not register as error; segments of 10 cycles or fewer get None.
    Only per-cycle values enter, so the numbers do not depend on
    intra-cycle trace sampling.
    """
    if not records:
        raise ArgumentError("records must be nonempty")
    active = [r for r in records if r.cycle >= warmup_cycles]
    if not active:
        raise ArgumentError("no post-warmup cycles to evaluate")
    errs = np.array([abs(r.p_avg_w - r.p_des_w) for r in active])
    violations = sum(1 for r in active if not (r.zvs_on_ok and r.zvs_off_ok))

    # split into contiguous constant-setpoint segments
    ss_errors = []
    seg = [active[0]]
    for r in active[1:]:
        if r.p_des_w != seg[-1].p_des_w:
            ss_errors.append(_segment_steady_error(seg))
            seg = []
        seg.append(r)
    ss_errors.append(_segment_steady_error(seg))

    return RunMetrics(
        avg_tracking_error_w=float(errs.mean()),
        zvs_violation_pct=100.0 * violations / len(active),
        steady_state_errors_w=tuple(ss_errors),
        n_cycles=len(active),
    )


def _segment_steady_error(seg):
    # steady state is the last 10 cycles; only defined once the segment has
    # been given at least 10 cycles to settle first
    if len(seg) <= 10:
        return None
    tail = seg[-10:]
    return float(abs(np.mean([r.p_avg_w - r.p_des_w for r in tail])))


def _benchmark_run(args):
    """One paired benchmark run: same schedule and plant for every controller.

    After the warm-up come three 5-cycle segments, each at a setpoint drawn
    uniformly from [500, 3000] W.
    """
    run_idx, controllers, params, nmpc_config, net, qnet, param_error, seed = args
    rng = np.random.default_rng(seed + run_idx)
    setpoints = rng.uniform(500.0, 3000.0, 3)
    plant = perturbed_params(params, rng, param_error)
    warmup = Scenario.warmup_cycles
    schedule = tuple((warmup + 5 * k, float(p)) for k, p in enumerate(setpoints))
    out = {}
    for kind in controllers:
        sc = Scenario(
            schedule=schedule,
            total_cycles=warmup + 5 * len(setpoints),
            plant_params=plant,
            model_params=params,
            controller=kind,
        )
        _, m = run_closed_loop(sc, nmpc_config=nmpc_config, net=net, qnet=qnet)
        out[kind] = m
    return run_idx, out


def run_benchmark(
    n_runs: int,
    controllers,
    params: ConverterParams,
    nmpc_config: Optional[NmpcConfig] = None,
    net: Optional[PolicyNetwork] = None,
    qnet: Optional[QuantizedNetwork] = None,
    param_error: float = 0.0,
    seed: int = 0,
    n_jobs: int = 1,
) -> dict:
    """Random-setpoint campaign; identical scenarios across controllers.

    Each run draws its setpoints (uniform on [500, 3000] W) and, when
    param_error > 0, its own plant perturbation; every controller then faces
    exactly the same run, so comparisons are paired.
    """
    if n_runs < 1:
        raise ArgumentError(f"n_runs must be >= 1, got {n_runs}")
    for kind in controllers:
        if kind not in CONTROLLER_KINDS:
            raise ArgumentError(f"unknown controller kind {kind!r}")
    cfg = nmpc_config or NmpcConfig()
    jobs = [(r, tuple(controllers), params, cfg, net, qnet, param_error, seed)
            for r in range(n_runs)]
    per_run = [None] * n_runs
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            for run_idx, out in pool.map(_benchmark_run, jobs):
                per_run[run_idx] = out
    else:
        for job in jobs:
            run_idx, out = _benchmark_run(job)
            per_run[run_idx] = out

    summary = {"n_runs": n_runs, "param_error": param_error, "seed": seed,
               "controllers": {}}
    for kind in controllers:
        ms = [run[kind] for run in per_run]
        total_cycles = sum(m.n_cycles for m in ms)
        violations = sum(m.zvs_violation_pct / 100.0 * m.n_cycles for m in ms)
        summary["controllers"][kind] = {
            "mean_tracking_error_w": float(np.mean([m.avg_tracking_error_w for m in ms])),
            "zvs_violation_pct": 100.0 * violations / total_cycles,
            "per_run_tracking_error_w": [m.avg_tracking_error_w for m in ms],
        }
    return summary


def run_param_grid(
    params: ConverterParams,
    qnet: QuantizedNetwork,
    nmpc_config: Optional[NmpcConfig] = None,
    setpoints=(1000.0, 2000.0, 3000.0),
    r_errors=(-0.15, 0.0, 0.15),
    l_errors=(-0.15, 0.0, 0.15),
    correction: bool = True,
) -> dict:
    """Steady-state tracking across a parameter-error grid, quantized policy.

    Each cell runs 100 cycles after the warm-up, under the setpoint-correction
    rule when `correction` is set.  Returns {"cells": [...]} with one entry per
    (r_error, l_error, setpoint) combination carrying the steady-state error
    and ZVS violation rate.
    """
    cfg = nmpc_config or NmpcConfig()
    warmup = Scenario.warmup_cycles
    cells = []
    for r_err in r_errors:
        for l_err in l_errors:
            plant = replace(
                params, r_l=params.r_l * (1.0 + r_err), l_r=params.l_r * (1.0 + l_err)
            )
            for p_des in setpoints:
                sc = Scenario(
                    schedule=((warmup, float(p_des)),),
                    total_cycles=warmup + 100,
                    plant_params=plant,
                    model_params=params,
                    controller="dnn-quant",
                    correction=correction,
                )
                _, m = run_closed_loop(sc, nmpc_config=cfg, qnet=qnet)
                cells.append({
                    "r_error": r_err,
                    "l_error": l_err,
                    "p_des_w": float(p_des),
                    "steady_state_error_w": m.steady_state_errors_w[-1],
                    "zvs_violation_pct": m.zvs_violation_pct,
                })
    return {"correction": correction, "correction_gain": CORRECTION_GAIN,
            "cells": cells}


def _labelled_cycles(sc: Scenario, cfg: NmpcConfig, net=None, x0=PlantState(0.0, 0.0)):
    """(state and command, label, status) per post-warmup cycle of one run
    of sc from x0, labeled as `generate_dataset_closed_loop` describes."""
    records, _ = run_closed_loop(sc, nmpc_config=cfg, net=net, x0=x0)
    observer = RecedingHorizonController(cfg, sc.model_params)
    cycles = []
    for r in records[sc.warmup_cycles:]:
        x = [r.io_start_a, r.vc_start_v, r.p_des_corrected_w]
        if sc.controller == "exact-nmpc":
            label, status = [r.fsw_hz, r.duty], r.solver_status
        else:
            u, status = observer.step(PlantState(x[0], x[1]), x[2])
            label = [u.f_sw, u.duty]
        cycles.append((x, label, status))
    return cycles


def _dataset(cycles, discarded_draws: int = 0) -> Dataset:
    """The converged ones of (state and command, label, status, provenance)
    cycles; the others count as discarded, after the discarded draws."""
    rows = [c for c in cycles if c[2] == "converged"]
    return Dataset(
        x=np.array([r[0] for r in rows]).reshape(-1, 3),
        u=np.array([r[1] for r in rows]).reshape(-1, 2),
        provenance=tuple(r[3] for r in rows),
        discarded=discarded_draws + len(cycles) - len(rows),
    )


def generate_dataset_closed_loop(
    scenarios,
    nmpc_config: Optional[NmpcConfig] = None,
    net: Optional[PolicyNetwork] = None,
) -> Dataset:
    """States a controller visits in closed-loop scenarios, labeled by the solver.

    Each scenario runs exactly as in `run_closed_loop`, setpoint steps,
    parameter error and setpoint correction included, and every post-warmup
    (state, commanded power) pair is labeled.  In an `exact-nmpc` scenario
    the label is the input the solver applied ("trajectory"), so nothing is
    solved twice.  Under any other controller a receding-horizon observer
    on the scenario's model parameters solves at each pair in cycle order,
    warm-started along the run as the exact controller would be; its inputs
    are never applied, so the labels say what the solver would do in the
    states the policy steers the plant into ("closed-loop", dataset
    aggregation).  Degraded solves are discarded.
    """
    cfg = nmpc_config or NmpcConfig()
    cycles = []
    for sc in scenarios:
        tag = "trajectory" if sc.controller == "exact-nmpc" else "closed-loop"
        cycles += [(*c, tag) for c in _labelled_cycles(sc, cfg, net)]
    return _dataset(cycles)


def generate_dataset_box_draws(
    n_draws: int,
    steps: int,
    config: NmpcConfig,
    params: ConverterParams,
    seed: int,
    plant_error: float,
    tag: str,
) -> Dataset:
    """The box-drawn dataset kinds, as one-segment `exact-nmpc` scenarios.

    Each draw takes a state and setpoint from the sampling box, then R/L
    factors for the simulated plant when plant_error > 0.  It runs `steps`
    cycles from that state at that setpoint with no warm-up, the solver on
    the nominal model: a cold solve labels the first cycle, warm-started
    steps the later ones.  A draw whose initial current breaks the ZVS sign
    rule of `NmpcSolution.initial_state_zvs_ok` is discarded without
    running, and one whose first cycle does not converge is discarded
    whole; sampling stops after 10 * n_draws draws.  Degraded later cycles
    are discarded labels.
    """
    if n_draws < 1 or steps < 1:
        raise ArgumentError("the number of draws and steps must be >= 1")
    if not 0.0 <= plant_error < 1.0:
        raise ArgumentError(f"plant_error must lie in [0, 1), got {plant_error}")
    rng = np.random.default_rng(seed)
    cycles, discarded, kept = [], 0, 0
    for _ in range(10 * n_draws):
        if kept == n_draws:
            break
        draw = rng.uniform(DEFAULT_INPUT_LO, DEFAULT_INPUT_HI)
        plant = perturbed_params(params, rng, plant_error)
        run = []
        if draw[0] <= config.constraint_tol:  # as NmpcSolution.initial_state_zvs_ok
            sc = Scenario(schedule=((0, float(draw[2])),), total_cycles=steps,
                          plant_params=plant, model_params=params,
                          controller="exact-nmpc", warmup_cycles=0)
            run = _labelled_cycles(sc, config, x0=PlantState(draw[0], draw[1]))
        if not run or run[0][2] != "converged":
            discarded += 1
            continue
        kept += 1
        cycles += [(*c, tag) for c in run]
    return _dataset(cycles, discarded)


def write_trace_csv(records, path):
    """Per-cycle trace, one column per CycleRecord field in declaration
    order: flags as 0/1, floats as repr, the rest as they are."""
    kinds = get_type_hints(CycleRecord)
    fmt = {bool: int, float: lambda v: repr(float(v))}
    columns = [(name, fmt.get(kinds[name], lambda v: v)) for name in TRACE_COLUMNS]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for r in records:
            w.writerow([f(getattr(r, name)) for name, f in columns])


def write_summary_json(summary: dict, path):
    Path(path).write_text(json.dumps(summary, indent=2))
