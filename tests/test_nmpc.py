"""Horizon solver checks: oracle dominance, constraint handling,
receding-horizon behavior, and recorded outputs the solver must reproduce
bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import resonmpc.nmpc as nmpc_mod
from resonmpc.errors import ArgumentError
from resonmpc.nmpc import (
    WARMUP_INPUT,
    NmpcConfig,
    RecedingHorizonController,
    _horizon,
    _pairs_from_z,
    brute_force_oracle,
    solve,
)
from resonmpc.plant import ControlInput, PlantState, simulate_cycle


class TestConfig:
    def test_defaults_consistent(self, nmpc_config):
        assert nmpc_config.n_pairs == 5
        assert nmpc_config.f_min < nmpc_config.f_max

    def test_odd_horizon_rejected(self):
        with pytest.raises(ArgumentError):
            NmpcConfig(horizon_n=7)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ArgumentError):
            NmpcConfig(f_min=100e3, f_max=30e3)


class TestSolve:
    def test_from_rest_tracks_setpoint(self, params, nmpc_config):
        sol = solve(PlantState(0.0, 0.0), 2000.0, nmpc_config, params)
        assert sol.status == "converged"
        assert sol.initial_state_zvs_ok
        assert len(sol.inputs) == 5
        # later predicted cycles should sit close to the setpoint
        assert sol.powers[-1] == pytest.approx(2000.0, rel=0.02)

    def test_inputs_within_bounds(self, params, nmpc_config):
        sol = solve(PlantState(-40.0, 600.0), 1200.0, nmpc_config, params)
        for u in sol.inputs:
            assert nmpc_config.f_min <= u.f_sw <= nmpc_config.f_max
            assert nmpc_config.d_min <= u.duty <= nmpc_config.d_max

    def test_determinism(self, params, nmpc_config):
        a = solve(PlantState(-20.0, 300.0), 900.0, nmpc_config, params)
        b = solve(PlantState(-20.0, 300.0), 900.0, nmpc_config, params)
        assert a.cost == b.cost
        assert all(u1 == u2 for u1, u2 in zip(a.inputs, b.inputs))

    def test_initial_state_flag_reports_positive_current(self, params, nmpc_config):
        sol = solve(PlantState(25.0, 0.0), 1000.0, nmpc_config, params)
        assert not sol.initial_state_zvs_ok

    def test_cost_at_most_oracle_random_instances(self, params, nmpc_config):
        # 25 random instances: the optimized cost never exceeds the best
        # constant-input cost from the 50x50 grid oracle
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 25:
            x = PlantState(rng.uniform(-150, 150), rng.uniform(-2000, 2000))
            p_des = rng.uniform(0.0, 3000.0)
            best_u, best_cost, feasible = brute_force_oracle(x, p_des, nmpc_config, params)
            sol = solve(x, p_des, nmpc_config, params)
            if not feasible or sol.status != "converged":
                continue
            assert sol.cost <= best_cost * (1.0 + 1e-9)
            checked += 1

    def test_oracle_refinement_self_check(self, params, nmpc_config):
        # linspace grids with n and 2n-1 points are nested, so refining can
        # only lower the best feasible cost, and near convergence not by much
        x = PlantState(0.0, 0.0)
        _, c200, f200 = brute_force_oracle(x, 1500.0, nmpc_config, params, grid_n=200)
        _, c399, f399 = brute_force_oracle(x, 1500.0, nmpc_config, params, grid_n=399)
        assert f200 and f399
        assert c399 <= c200 * (1.0 + 1e-12)
        assert (c200 - c399) / c200 < 0.05

    def test_warm_start_agrees_with_cold(self, params, nmpc_config):
        cold = solve(PlantState(0.0, 0.0), 1800.0, nmpc_config, params)
        warm = solve(PlantState(0.0, 0.0), 1800.0, nmpc_config, params, warm=cold)
        assert warm.status == "converged"
        assert warm.cost <= cold.cost * (1.0 + 1e-6)


class TestZvsConstraints:
    def test_boundary_signs_over_horizon(self, params, nmpc_config):
        # propagate the plan open loop: every ON start must have i <= 0 and
        # every OFF start i >= 0 (within the solver tolerance)
        sol = solve(PlantState(0.0, 0.0), 2500.0, nmpc_config, params)
        state = PlantState(0.0, 0.0)
        tol = nmpc_config.constraint_tol + 1e-9
        for k, u in enumerate(sol.inputs):
            res = simulate_cycle(state, params, u)
            if k > 0:
                assert state.i_o <= tol
            assert res.state_mid.i_o >= -tol
            state = res.state_end


class TestRecedingHorizon:
    def test_closed_loop_reaches_setpoint(self, params, nmpc_config):
        ctrl = RecedingHorizonController(nmpc_config, params)
        state = PlantState(0.0, 0.0)
        p = None
        for _ in range(6):
            u, status = ctrl.step(state, 2200.0)
            assert status == "converged"
            res = simulate_cycle(state, params, u)
            state, p = res.state_end, res.p_avg
            assert res.zvs_on_ok and res.zvs_off_ok
        assert p == pytest.approx(2200.0, rel=0.02)

    def test_degraded_step_keeps_last_input(self, params, nmpc_config, monkeypatch):
        # an unreachable setpoint from a hostile state, with the solver cut
        # to one iteration, fails; the controller re-applies its previous input
        monkeypatch.setattr(nmpc_mod, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(nmpc_mod, "PENALTY_MAX", 1e6)
        ctrl = RecedingHorizonController(nmpc_config, params)
        ctrl.last_input = ControlInput(50e3, 0.5)
        assert ctrl.step(PlantState(149.0, -1990.0), 3000.0) == (
            ControlInput(50e3, 0.5), "degraded")

    def test_first_solve_failing_applies_warmup_input(self, params, nmpc_config,
                                                       monkeypatch):
        # with no input applied yet, a failed solve falls back to WARMUP_INPUT
        monkeypatch.setattr(nmpc_mod, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(nmpc_mod, "PENALTY_MAX", 1e6)
        ctrl = RecedingHorizonController(nmpc_config, params)
        assert ctrl.step(PlantState(149.0, -1990.0), 3000.0) == (WARMUP_INPUT, "degraded")
        assert ctrl.last_solution is None

    def test_failed_warm_start_retries_cold(self, params, nmpc_config, monkeypatch):
        # once the controller has history, a warm-started solve that fails
        # must be followed by a cold multi-start, not by the stale input
        ctrl = RecedingHorizonController(nmpc_config, params)
        u0, status = ctrl.step(PlantState(0.0, 0.0), 2000.0)
        assert status == "converged"
        calls = []
        real_solve = nmpc_mod.solve

        def warm_fails(x_hat, p_des, config, params, warm=None):
            calls.append(warm is not None)
            sol = real_solve(x_hat, p_des, config, params, warm=warm)
            return sol if warm is None else replace(sol, status="infeasible")

        monkeypatch.setattr(nmpc_mod, "solve", warm_fails)
        x1 = simulate_cycle(PlantState(0.0, 0.0), params, u0).state_end
        u1, status = ctrl.step(x1, 2500.0)
        assert calls == [True, False]
        assert status == "converged"
        cold = real_solve(x1, 2500.0, nmpc_config, params)
        assert u1 == cold.first_input
        assert ctrl.last_solution.first_input == cold.first_input


def _tank_at_beta(params, beta):
    """The tank with R_L set so that its modal beta is beta * 1j (|beta| rad/s)."""
    return replace(params, r_l=2.0 * params.l_r * math.sqrt(1.0 / (params.l_r * params.c_r)
                                                             - beta * beta))


class TestNearCriticalDamping:
    """`_Horizon` sums the collocation nodes directly when |beta| < 1e3 rad/s."""

    @staticmethod
    def points(n=50):
        rng = np.random.default_rng(0)
        return np.column_stack([rng.uniform(-150, 0, n), rng.uniform(-2000, 2000, n),
                                rng.uniform(30e3, 100e3, n), rng.uniform(0.2, 0.8, n)])

    def test_power_continuous_across_threshold(self, params, nmpc_config):
        direct = _horizon(_tank_at_beta(params, 999.0), nmpc_config)
        modal = _horizon(_tank_at_beta(params, 1001.0), nmpc_config)
        assert direct._degenerate and not modal._degenerate
        for point in self.points():
            p_direct = direct._on_power_scalar(*point)
            assert p_direct == pytest.approx(modal._on_power_scalar(*point), rel=1e-6)

    def test_scalar_and_vector_paths_agree(self, params, nmpc_config):
        horizon = _horizon(_tank_at_beta(params, 999.0), nmpc_config)
        pts = self.points()
        vector = horizon._on_power(*pts.T)
        scalar = [horizon._on_power_scalar(*point) for point in pts]
        np.testing.assert_allclose(vector, scalar, rtol=1e-12)

    def test_cold_solve_converges_at_critical_damping(self, params, nmpc_config):
        critical = replace(params, r_l=2.0 * math.sqrt(params.l_r / params.c_r))
        assert _horizon(critical, nmpc_config)._degenerate
        sol = solve(PlantState(0.0, 0.0), 1000.0, nmpc_config, critical)
        assert sol.status == "converged"


# Solver outputs as float.hex, recorded from the solver whose gradient made
# a full rollout per coordinate on numpy scalars: cold solves as (state,
# setpoint, status, iterations, cost, inputs), then a warm run's applied
# inputs with the iterations and cost of each step's solution.
COLD = [
    ((0.0, 0.0), 2000.0, "converged", 142, "0x1.a699661da4b91p+10", [
        ("0x1.ebc381c6b0f33p+15", "0x1.71a254d4a0ab8p-2"),
        ("0x1.438a25ffe50cep+15", "0x1.150c16790efecp-1"),
        ("0x1.55b4a3adb6c7cp+15", "0x1.f5b8c6231aeedp-2"),
        ("0x1.5e3882d549db6p+15", "0x1.ff0556ea368f1p-2"),
        ("0x1.4384becc2a618p+15", "0x1.00c7ccff223bap-1"),
    ]),
    ((-87.5, 1250.0), 600.0, "converged", 162, "0x1.c4df7471b744ep+27", [
        ("0x1.d4c0000000000p+14", "0x1.999999999999ap-1"),
        ("0x1.326ef13697284p+15", "0x1.38ff461c2e5c3p-1"),
        ("0x1.0ff50054659eap+16", "0x1.fc2eefa90e7fbp-2"),
        ("0x1.5b8a6756ad50ap+16", "0x1.0152c9ce1f22ap-1"),
        ("0x1.2529600bbd08bp+16", "0x1.0284fd8f2eea6p-1"),
    ]),
    ((-12.0, -1500.0), 3400.0, "converged", 87, "0x1.2a279537506d0p+25", [
        ("0x1.2a39a6645f1ebp+15", "0x1.999999999999ap-3"),
        ("0x1.03c8d661c890bp+15", "0x1.3bb7a337dd546p-1"),
        ("0x1.0b70776c513c0p+15", "0x1.35a1bedfd0aeap-1"),
        ("0x1.0b5ae883fccebp+15", "0x1.35c851d523411p-1"),
        ("0x1.14fbe4c414b38p+15", "0x1.38b3442b1b428p-1"),
    ]),
]
WARM = [
    ("0x1.63c8a4f97c0dap+16", "0x1.67e9ce890249ap-2", 252, "0x1.0e2183003ae3bp+10"),
    ("0x1.c7a5a622bfcf0p+15", "0x1.f04a691a2f592p-2", 28, "0x1.2e388526d2495p+5"),
    ("0x1.68699f42a8b16p+15", "0x1.01e598bf97822p-1", 8, "0x1.5f3e275f199c5p+3"),
    ("0x1.a7627d4fd58ebp+15", "0x1.e7d8f510cee89p-2", 18, "0x1.0846949515ba0p+5"),
    ("0x1.821c81f4cd1aap+15", "0x1.fd3e952955622p-2", 8, "0x1.82e0139732e23p-1"),
    ("0x1.11630e0e3a50bp+15", "0x1.340712acdc84fp-1", 16, "0x1.3d227e137214ap+12"),
    ("0x1.43faeef5b4907p+15", "0x1.ea22a4786092ep-2", 25, "0x1.1693855f08409p+6"),
    ("0x1.444eba31bcec0p+15", "0x1.ebd7d6660a12fp-2", 21, "0x1.91c6830ead92fp+5"),
    ("0x1.4571904423d62p+15", "0x1.eaa079b0cd7eap-2", 19, "0x1.c8cc13a2d37f4p+5"),
    ("0x1.44da586a2aa4ep+15", "0x1.ebd606fb68a63p-2", 18, "0x1.928ba41086954p+5"),
]


def _reference_objective_and_gradient(horizon, z, mu, x0, p_des):
    """The plain forward difference: a full rollout from the horizon's start
    per coordinate, cost summed per pair and penalty summed by `sum` over
    the boundary violations, as the solver computed them before resuming
    perturbed rollouts from the unchanged prefix."""
    cfg = horizon.config
    cost_scale = max(1.0, p_des * p_des)
    reg = nmpc_mod.DUTY_REG * max(1.0, p_des * p_des)
    m = cfg.zvs_margin

    def scaled_objective(zz):
        pairs = _pairs_from_z(zz.tolist(), cfg)
        records = horizon.rollout(pairs, p_des, (x0.i_o, x0.v_c, 0.0, 0))
        cost = 0.0
        for (f, d), r in zip(pairs, records):
            e = r[4] - p_des
            cost += 2.0 * (e * e + cfg.alpha * f + reg * (d - 0.5) ** 2)
        boundary_i = [i for r in records for i in (r[5], r[0])]
        viols = [max(0.0, m - i) if k % 2 == 0 else max(0.0, i + m)
                 for k, i in enumerate(boundary_i)]
        # left to right from 0, as the solver adds; sum() compensates on 3.12+
        penalty = 0
        for v in viols:
            penalty += v * v
        return cost / cost_scale + mu * penalty

    f0 = scaled_objective(z)
    g = np.empty_like(z)
    for i in range(z.size):
        zp = z.copy()
        zp[i] += nmpc_mod.FD_REL_STEP
        g[i] = (scaled_objective(zp) - f0) / nmpc_mod.FD_REL_STEP
    return f0, g


class TestBitIdentical:
    @pytest.mark.parametrize("case", COLD, ids=["rest", "charged", "negative-vc"])
    def test_cold_solves_reproduce_recorded_outputs(self, params, nmpc_config, case):
        x, p_des, status, iterations, cost, inputs = case
        sol = solve(PlantState(*x), p_des, nmpc_config, params)
        assert (sol.status, sol.iterations) == (status, iterations)
        assert float(sol.cost).hex() == cost
        assert [(float(u.f_sw).hex(), float(u.duty).hex()) for u in sol.inputs] == inputs

    def test_warm_run_reproduces_recorded_outputs(self, params, nmpc_config):
        plant = replace(params, r_l=params.r_l * 1.1, l_r=params.l_r * 0.9)
        ctrl = RecedingHorizonController(nmpc_config, params)
        state = PlantState(0.0, 0.0)
        got = []
        for k in range(10):
            u, status = ctrl.step(state, 1500.0 if k < 5 else 2500.0)
            assert status == "converged"
            sol = ctrl.last_solution
            got.append((float(u.f_sw).hex(), float(u.duty).hex(), sol.iterations,
                        float(sol.cost).hex()))
            state = simulate_cycle(state, plant, u).state_end
        assert got == WARM

    def test_prefix_restarted_gradient_matches_full_rollouts(self, params, nmpc_config):
        horizon = _horizon(params, nmpc_config)
        rng = np.random.default_rng(2024)
        cfg = nmpc_config
        low = np.array([cfg.f_min, cfg.d_min])
        span = np.array([cfg.f_max, cfg.d_max]) - low
        cases = []
        for trial in range(40):
            x0 = PlantState(float(rng.uniform(-150, 30)), float(rng.uniform(-2000, 2000)))
            # interior points, box faces and rounding errors outside the box
            z = rng.uniform(-1e-12, 1.0 + 1e-12, 2 * nmpc_config.n_pairs)
            z[rng.random(z.size) < 0.2] = float(trial % 2)
            cases.append((x0, float(rng.uniform(0.0, 4000.0)), z))
        for x, p_des, _, _, _, inputs in COLD:  # recorded optima: feasible, flat
            u = np.array([[float.fromhex(f), float.fromhex(d)] for f, d in inputs])
            cases.append((PlantState(*x), p_des, ((u - low) / span).ravel()))
        penalized = 0
        for x0, p_des, z in cases:
            mu = float(10.0 ** rng.uniform(6, 13))
            start = (x0.i_o, x0.v_c, 0.0, 0)
            f, g = horizon.objective(z, mu, start, p_des)
            f_ref, g_ref = _reference_objective_and_gradient(horizon, z, mu, x0, p_des)
            assert float(f).hex() == float(f_ref).hex()
            assert [v.hex() for v in g.tolist()] == [v.hex() for v in g_ref.tolist()]
            pairs = _pairs_from_z(z.tolist(), nmpc_config)
            penalized += horizon.rollout(pairs, p_des, start)[-1][3] > 0.0
        assert penalized >= 10  # the penalty's summation order is exercised
