"""Scaled-time mapping and collocation checks against exact propagation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonmpc.errors import ArgumentError
from resonmpc.plant import (
    ControlInput,
    PlantState,
    propagate_segment,
    simulate_cycle,
    steady_state_cycle,
)
from resonmpc.transform import (
    SwitchingSchedule,
    collocation_grid,
    interval_power,
    predict_interval,
    t_of_tau,
    tau_of_t,
)


@pytest.fixture(scope="module")
def grid():
    return collocation_grid(degree=2, n_elements=100)


class TestTimeTransform:
    def test_switch_events_land_on_integers(self):
        inputs = [ControlInput(40e3, 0.3), ControlInput(60e3, 0.7)]
        sched = SwitchingSchedule.from_inputs(0.0, inputs)
        u0, u1 = inputs
        assert tau_of_t(0.0, sched) == 0.0
        assert tau_of_t(u0.on_time, sched) == pytest.approx(1.0)
        assert tau_of_t(u0.period, sched) == pytest.approx(2.0)
        assert tau_of_t(u0.period + u1.on_time, sched) == pytest.approx(3.0)
        assert tau_of_t(sched.t_end, sched) == pytest.approx(4.0)

    @given(tau=st.floats(0.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, tau):
        sched = SwitchingSchedule.from_inputs(
            1e-4, [ControlInput(37e3, 0.23), ControlInput(81e3, 0.66)]
        )
        assert tau_of_t(t_of_tau(tau, sched), sched) == pytest.approx(tau, abs=1e-12)

    def test_outside_span_rejected(self):
        sched = SwitchingSchedule.from_inputs(0.0, [ControlInput(40e3, 0.5)])
        with pytest.raises(ArgumentError):
            tau_of_t(-1e-9, sched)
        with pytest.raises(ArgumentError):
            t_of_tau(2.0001, sched)

    def test_monotone_in_t(self):
        sched = SwitchingSchedule.from_inputs(
            0.0, [ControlInput(45e3, 0.4), ControlInput(55e3, 0.52)]
        )
        ts = np.linspace(0.0, sched.t_end, 301)
        taus = [tau_of_t(t, sched) for t in ts]
        assert np.all(np.diff(taus) > 0)


class TestGrid:
    def test_radau_degree2_nodes_and_weights(self, grid):
        # roots of P2 - P1 mapped to [0,1] are {1/3, 1}, derived by hand;
        # the interpolatory weights on those nodes are {3/4, 1/4}
        np.testing.assert_allclose(grid.nodes, [1.0 / 3.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(grid.weights, [0.75, 0.25], atol=1e-14)

    def test_quadrature_exact_for_quadratics(self, grid):
        # degree-2 Radau integrates polynomials up to degree 2 exactly on [0, 1]
        assert np.dot(grid.weights, np.ones(2)) == pytest.approx(1.0)
        assert np.dot(grid.weights, grid.nodes) == pytest.approx(0.5)
        assert np.dot(grid.weights, grid.nodes**2) == pytest.approx(1.0 / 3.0)

    def test_global_taus_cover_unit_interval(self, grid):
        taus = grid.global_taus()
        assert taus[0] == 0.0
        assert taus[-1] == pytest.approx(1.0)
        assert len(taus) == grid.degree * grid.n_elements + 1
        assert np.all(np.diff(taus) > 0)

    @pytest.mark.parametrize("degree,n_elements", [(2, 100), (3, 7), (1, 1), (4, 250)])
    def test_global_taus_match_element_loop(self, degree, n_elements):
        g = collocation_grid(degree, n_elements)
        h = g.element_length
        taus = [0.0]
        for e in range(g.n_elements):
            taus.extend(e * h + g.nodes * h)
        assert np.array_equal(g.global_taus(), np.array(taus))

    def test_invalid_arguments(self):
        with pytest.raises(ArgumentError):
            collocation_grid(0, 10)
        with pytest.raises(ArgumentError):
            collocation_grid(2, 0)


class TestPrediction:
    def test_end_state_vs_exact(self, params, grid):
        # collocation end state within 0.5% of the matrix-exponential oracle
        u = ControlInput(40e3, 0.5)
        x0 = PlantState(-30.0, -500.0)
        pred = predict_interval(x0, u, "on", params, grid)
        exact = propagate_segment(x0, params, params.v_s, u.on_time)
        ref = np.hypot(exact.i_o, exact.v_c)
        err = np.hypot(pred.states[-1, 0] - exact.i_o, pred.states[-1, 1] - exact.v_c)
        assert err / ref < 0.005

    def test_off_phase_end_state(self, params, grid):
        u = ControlInput(55e3, 0.35)
        x0 = PlantState(20.0, 400.0)
        pred = predict_interval(x0, u, "off", params, grid)
        exact = propagate_segment(x0, params, 0.0, u.off_time)
        assert pred.states[-1, 0] == pytest.approx(exact.i_o, rel=1e-4, abs=1e-6)
        assert pred.states[-1, 1] == pytest.approx(exact.v_c, rel=1e-4, abs=1e-4)

    def test_refinement_self_consistency(self, params):
        # halving the element count moves the end state by < 0.5%
        u = ControlInput(35e3, 0.5)
        x0 = PlantState(-50.0, -800.0)
        fine = predict_interval(x0, u, "on", params, collocation_grid(2, 100))
        coarse = predict_interval(x0, u, "on", params, collocation_grid(2, 50))
        ref = np.linalg.norm(fine.states[-1])
        assert np.linalg.norm(fine.states[-1] - coarse.states[-1]) / ref < 0.005

    def test_all_node_states_match_exact(self, params, grid):
        u = ControlInput(40e3, 0.5)
        x0 = PlantState(-30.0, -500.0)
        pred = predict_interval(x0, u, "on", params, grid)
        for tau, (i_c, v_c) in zip(pred.taus, pred.states):
            exact = propagate_segment(x0, params, params.v_s, tau * u.on_time)
            assert i_c == pytest.approx(exact.i_o, abs=0.2)
            assert v_c == pytest.approx(exact.v_c, abs=2.0)

    def test_bad_phase_rejected(self, params, grid):
        with pytest.raises(ArgumentError):
            predict_interval(PlantState(0, 0), ControlInput(40e3, 0.5), "mid", params, grid)


class TestPower:
    def test_off_interval_zero(self, params, grid):
        u = ControlInput(40e3, 0.5)
        pred = predict_interval(PlantState(10.0, 0.0), u, "off", params, grid)
        assert interval_power(pred, u, params) == 0.0

    def test_on_interval_matches_exact_power(self, params, grid):
        # quadrature power within 1% of the exact charge-balance power
        u = ControlInput(40e3, 0.5)
        x0 = steady_state_cycle(params, u)
        pred = predict_interval(x0, u, "on", params, grid)
        exact = simulate_cycle(x0, params, u).p_avg
        assert interval_power(pred, u, params) == pytest.approx(exact, rel=0.01)

    def test_power_scales_with_elements(self, params):
        # finer grids approach the exact value monotonically in error
        u = ControlInput(45e3, 0.45)
        x0 = steady_state_cycle(params, u)
        exact = simulate_cycle(x0, params, u).p_avg
        errs = []
        for n_el in (25, 100, 400):
            pred = predict_interval(x0, u, "on", params, collocation_grid(2, n_el))
            errs.append(abs(interval_power(pred, u, params) - exact))
        assert errs[0] > errs[1] > errs[2]
