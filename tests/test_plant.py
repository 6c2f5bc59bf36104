"""Exact-simulation checks: closed-form propagation against independent
oracles (scipy matrix exponential, energy balance, brute-force power grid).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import propagator_matrix, steady_state_cycle
from resonmpc.errors import ArgumentError
from resonmpc.plant import (
    ControlInput,
    ConverterParams,
    PlantState,
    SegmentPropagator,
    simulate_cycle,
)


def system_matrix(p):
    return np.array([[-p.r_l / p.l_r, -1.0 / p.l_r], [1.0 / p.c_r, 0.0]])


def ref_cycle(x0, params, u, n_trace):
    """Reference cycle: end states, power, ZVS flags and the trace, all built eagerly."""
    prop = SegmentPropagator(params)
    t_on = u.on_time
    t_off = u.off_time
    i_mid, v_mid = prop.step(x0.i_o, x0.v_c, params.v_s, t_on)
    i_end, v_end = prop.step(i_mid, v_mid, 0.0, t_off)
    p_avg = u.f_sw * params.v_s * params.c_r * (v_mid - x0.v_c)
    ts = np.linspace(0.0, u.period, n_trace)
    on_mask = ts <= t_on
    trace = np.empty((n_trace, 4))
    trace[:, 0] = ts
    ion, von = prop.step_array(x0.i_o, x0.v_c, params.v_s, ts[on_mask])
    ioff, voff = prop.step_array(i_mid, v_mid, 0.0, ts[~on_mask] - t_on)
    trace[on_mask, 1], trace[on_mask, 2] = ion, von
    trace[~on_mask, 1], trace[~on_mask, 2] = ioff, voff
    trace[:, 3] = np.where(on_mask, params.v_s, 0.0)
    return (i_mid, v_mid, i_end, v_end, p_avg, x0.i_o <= 0.0, i_mid >= 0.0), trace


class TestParams:
    def test_nominal_accepted(self, params):
        assert params.v_s == 230.0

    @pytest.mark.parametrize("bad", [
        dict(v_s=-1.0), dict(v_s=0.0), dict(l_r=0.0), dict(c_r=-2e-9),
        dict(r_l=-0.1), dict(v_s=float("nan")), dict(l_r=float("inf")),
    ])
    def test_invalid_rejected(self, bad):
        base = dict(v_s=230.0, l_r=19e-6, r_l=2.9, c_r=1440e-9)
        base.update(bad)
        with pytest.raises(ArgumentError):
            ConverterParams(**base)

    def test_control_input_bounds(self):
        with pytest.raises(ArgumentError):
            ControlInput(0.0, 0.5)
        with pytest.raises(ArgumentError):
            ControlInput(50e3, 1.0)
        u = ControlInput(40e3, 0.25)
        assert u.on_time + u.off_time == pytest.approx(u.period)


class TestResonance:
    def test_resonant_frequency(self):
        # 1/(2 pi sqrt(19e-6 * 1440e-9)) = 30427.2 Hz, computed independently;
        # without loss the tank is back at its start one period later; 0.1 Hz
        # off, the current misses its start by 1.6e-3 A, beyond the tolerance
        prop = SegmentPropagator(ConverterParams(v_s=230.0, l_r=19e-6, r_l=0.0, c_r=1440e-9))
        i, v = prop.step(10.0, -300.0, 0.0, 1.0 / 30427.2)
        assert i == pytest.approx(10.0, abs=1e-3)
        assert v == pytest.approx(-300.0, abs=1e-3)


class TestPropagation:
    def test_matches_scipy_expm(self, params):
        prop = SegmentPropagator(params)
        a = system_matrix(params)
        for dt in (1e-7, 3e-6, 1.3e-5, 8e-5):
            np.testing.assert_allclose(
                propagator_matrix(prop, dt), expm(a * dt), rtol=1e-12, atol=1e-14
            )

    def test_overdamped_branch_matches_expm(self):
        p = ConverterParams(v_s=230.0, l_r=19e-6, r_l=20.0, c_r=1440e-9)
        prop = SegmentPropagator(p)
        np.testing.assert_allclose(
            propagator_matrix(prop, 5e-6), expm(system_matrix(p) * 5e-6), rtol=1e-12
        )

    def test_small_time_series_branch(self, params):
        prop = SegmentPropagator(params)
        dt = 1e-14  # |beta * dt| below the series switch threshold
        np.testing.assert_allclose(
            propagator_matrix(prop, dt), expm(system_matrix(params) * dt), rtol=1e-10
        )

    def test_equilibrium_fixed_point(self, params):
        i, v = SegmentPropagator(params).step(0.0, 230.0, 230.0, 4e-5)
        assert i == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(230.0, abs=1e-9)

    @given(
        i0=st.floats(-150, 150),
        v0=st.floats(-2000, 2000),
        t1=st.floats(1e-8, 2e-5),
        t2=st.floats(1e-8, 2e-5),
    )
    @settings(max_examples=50, deadline=None)
    def test_semigroup_property(self, i0, v0, t1, t2):
        # propagating t1 then t2 equals propagating t1 + t2 in one shot
        prop = SegmentPropagator(ConverterParams(v_s=230.0, l_r=19e-6, r_l=2.9, c_r=1440e-9))
        a = prop.step(*prop.step(i0, v0, 230.0, t1), 230.0, t2)
        b = prop.step(i0, v0, 230.0, t1 + t2)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_step_array_matches_scalar(self, params):
        prop = SegmentPropagator(params)
        ts = np.linspace(0.0, 3e-5, 17)
        iv, vv = prop.step_array(12.0, -300.0, 230.0, ts)
        for k, t in enumerate(ts):
            i1, v1 = prop.step(12.0, -300.0, 230.0, t)
            assert iv[k] == pytest.approx(i1, rel=1e-12, abs=1e-12)
            assert vv[k] == pytest.approx(v1, rel=1e-12, abs=1e-12)


class TestSimulateCycle:
    def test_power_matches_charge_balance(self, params):
        # independent oracle: p_avg from dense trapezoid integration of i*v_o
        u = ControlInput(40e3, 0.5)
        x0 = steady_state_cycle(params, u)
        res = simulate_cycle(x0, params, u, n_trace=20001)
        t, i, _, vo = res.trace.T
        p_trapz = np.trapezoid(i * vo, t) * u.f_sw
        assert res.p_avg == pytest.approx(p_trapz, rel=2e-4)

    def test_energy_balance_steady_cycle(self, params):
        # over one periodic cycle: source energy = dissipated energy (0.1%)
        u = ControlInput(35e3, 0.4)
        x0 = steady_state_cycle(params, u)
        res = simulate_cycle(x0, params, u, n_trace=200001)
        t, i, _, vo = res.trace.T
        e_in = np.trapezoid(i * vo, t)
        e_diss = np.trapezoid(params.r_l * i**2, t)
        assert e_in == pytest.approx(e_diss, rel=1e-3)

    def test_trace_shape_and_span(self, params):
        u = ControlInput(50e3, 0.3)
        res = simulate_cycle(PlantState(0.0, 0.0), params, u, n_trace=64)
        assert res.trace.shape == (64, 4)
        assert np.all(np.diff(res.trace[:, 0]) > 0)
        assert res.trace[0, 0] == 0.0
        assert res.trace[-1, 0] == pytest.approx(u.period)

    def test_trace_voltage_levels(self, params):
        res = simulate_cycle(PlantState(0.0, 0.0), params, ControlInput(50e3, 0.3))
        vo = res.trace[:, 3]
        assert set(np.unique(vo)) == {0.0, params.v_s}

    def test_zvs_flags_sign_conditions(self, params):
        res = simulate_cycle(PlantState(-5.0, 0.0), params, ControlInput(40e3, 0.5))
        assert res.zvs_on_ok  # i_o <= 0 entering the ON segment
        assert res.zvs_off_ok == (res.state_mid.i_o >= 0.0)
        res2 = simulate_cycle(PlantState(5.0, 0.0), params, ControlInput(40e3, 0.5))
        assert not res2.zvs_on_ok

    def test_n_trace_validation(self, params):
        # raised by the call itself, before the trace is ever read
        for n_trace in (1, 0, -3):
            with pytest.raises(ArgumentError):
                simulate_cycle(PlantState(0.0, 0.0), params, ControlInput(40e3, 0.5),
                               n_trace=n_trace)

    @pytest.mark.parametrize("n_trace", [2, 64, 20001])
    def test_matches_eager_reference(self, params, n_trace):
        # duties at and next to the input box's edges put trace samples on
        # either side of the switching instant
        rng = np.random.default_rng(n_trace)
        duties = [0.2, np.nextafter(0.2, 1.0), 0.5, np.nextafter(0.8, 0.0), 0.8]
        for k, duty in enumerate(duties):
            for f_sw in (30e3, 61e3, 100e3):
                x0 = PlantState(*rng.uniform([-150.0, -2000.0], [150.0, 2000.0]).tolist())
                u = ControlInput(f_sw, float(duty))
                res = simulate_cycle(x0, params, u, n_trace=n_trace)
                fields, trace = ref_cycle(x0, params, u, n_trace)
                assert (res.state_mid.i_o, res.state_mid.v_c, res.state_end.i_o,
                        res.state_end.v_c, res.p_avg, res.zvs_on_ok, res.zvs_off_ok) == fields
                assert res.trace.shape == trace.shape
                assert res.trace.tobytes() == trace.tobytes()
                assert res.trace is res.trace  # sampled once, on the first read

    def test_mid_and_end_states_consistent(self, params):
        u = ControlInput(45e3, 0.6)
        x0 = PlantState(3.0, -100.0)
        res = simulate_cycle(x0, params, u)
        prop = SegmentPropagator(params)
        i_mid, v_mid = prop.step(x0.i_o, x0.v_c, params.v_s, u.on_time)
        _, v_end = prop.step(i_mid, v_mid, 0.0, u.off_time)
        assert res.state_mid.i_o == pytest.approx(i_mid, rel=1e-12)
        assert res.state_end.v_c == pytest.approx(v_end, rel=1e-12)


class TestSteadyState:
    def test_fixed_point_of_cycle_map(self, params):
        u = ControlInput(40e3, 0.5)
        x = steady_state_cycle(params, u)
        res = simulate_cycle(x, params, u)
        assert res.state_end.i_o == pytest.approx(x.i_o, rel=1e-9, abs=1e-9)
        assert res.state_end.v_c == pytest.approx(x.v_c, rel=1e-9, abs=1e-9)

    def test_iteration_converges_to_fixed_point(self, params):
        u = ControlInput(60e3, 0.35)
        state = PlantState(0.0, 0.0)
        for _ in range(400):
            state = simulate_cycle(state, params, u).state_end
        x = steady_state_cycle(params, u)
        assert state.i_o == pytest.approx(x.i_o, abs=1e-6)
        assert state.v_c == pytest.approx(x.v_c, abs=1e-4)

    def test_max_power_at_resonance(self, params):
        # steady power at (f_o, 0.5) dominates a coarse grid of settings;
        # f_o = 1/(2 pi sqrt(19e-6 * 1440e-9)) = 30427.2 Hz
        f_o = 1.0 / (2.0 * math.pi * math.sqrt(params.l_r * params.c_r))
        u_star = ControlInput(f_o, 0.5)
        p_star = simulate_cycle(steady_state_cycle(params, u_star), params, u_star).p_avg
        assert p_star == pytest.approx(3736.0, rel=1e-3)
        best = 0.0
        for f in np.linspace(30e3, 100e3, 15):
            for d in np.linspace(0.2, 0.8, 13):
                u = ControlInput(f, d)
                p = simulate_cycle(steady_state_cycle(params, u), params, u).p_avg
                best = max(best, p)
        assert p_star >= best - 1e-6
