"""End-to-end acceptance checks for the full pipeline.

Each test gates one headline claim (soft switching, tracking parity of the
distilled policy, robustness to parameter error, fixed-point fidelity,
data-generation strategy, numerical properties) and prints a single
PASS/FAIL line with the measured numbers.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from resonmpc.harness import run_benchmark, run_param_grid
from resonmpc.nmpc import COLLOC_DEGREE, COLLOC_ELEMENTS, brute_force_oracle, solve
from resonmpc.plant import (
    ControlInput,
    PlantState,
    SegmentPropagator,
    simulate_cycle,
    steady_state_cycle,
)
from resonmpc.policy import (
    Dataset,
    TrainConfig,
    backprop_gradients,
    init_network,
    loss_value,
    train,
)
from resonmpc.quant import forward_q_batch, quantization_report
from resonmpc.transform import (
    SwitchingSchedule,
    collocation_grid,
    predict_interval,
    t_of_tau,
    tau_of_t,
)

README = Path(__file__).resolve().parent.parent / "README.md"

N_BENCH_RUNS = 100


def report(capsys, ok: bool, line: str):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


@pytest.fixture(scope="module")
def nominal_bench(params, nmpc_config, trained_net):
    return run_benchmark(
        N_BENCH_RUNS, ("exact-nmpc", "dnn"), params,
        nmpc_config=nmpc_config, net=trained_net, param_error=0.0, seed=0,
    )


@pytest.fixture(scope="module")
def robust_bench(params, nmpc_config, trained_net):
    return run_benchmark(
        N_BENCH_RUNS, ("exact-nmpc", "dnn"), params,
        nmpc_config=nmpc_config, net=trained_net, param_error=0.15, seed=0,
    )


class TestClosedLoopCampaigns:
    def test_exact_controller_never_loses_soft_switching(self, nominal_bench, capsys):
        zvs = nominal_bench["controllers"]["exact-nmpc"]["zvs_violation_pct"]
        report(
            capsys, zvs == 0.0,
            f"exact horizon controller, {N_BENCH_RUNS} nominal runs: "
            f"ZVS violations {zvs:.3f}% (required 0%)",
        )

    def test_distilled_policy_tracks_like_the_solver(self, nominal_bench, capsys):
        exact = nominal_bench["controllers"]["exact-nmpc"]["mean_tracking_error_w"]
        dnn = nominal_bench["controllers"]["dnn"]["mean_tracking_error_w"]
        zvs = nominal_bench["controllers"]["dnn"]["zvs_violation_pct"]
        ratio = dnn / exact
        report(
            capsys, ratio <= 1.25 and zvs == 0.0,
            f"distilled policy vs exact solver, {N_BENCH_RUNS} nominal runs: "
            f"tracking {dnn:.1f} vs {exact:.1f} W/cycle (ratio {ratio:.3f}, "
            f"required <= 1.25; transient cycles included), "
            f"ZVS violations {zvs:.3f}% (required 0%)",
        )

    def test_both_controllers_survive_15pct_parameter_error(self, robust_bench, capsys):
        exact = robust_bench["controllers"]["exact-nmpc"]
        dnn = robust_bench["controllers"]["dnn"]
        ratio = dnn["mean_tracking_error_w"] / exact["mean_tracking_error_w"]
        ok = (
            exact["zvs_violation_pct"] < 1.0
            and dnn["zvs_violation_pct"] < 1.0
            and ratio <= 1.4
        )
        report(
            capsys, ok,
            f"±15% R/L parameter error, {N_BENCH_RUNS} runs: ZVS violations "
            f"exact {exact['zvs_violation_pct']:.3f}% / dnn "
            f"{dnn['zvs_violation_pct']:.3f}% (required < 1% each), "
            f"tracking ratio {ratio:.3f} (required <= 1.4)",
        )

    def test_quantized_policy_with_correction_on_parameter_grid(
        self, params, nmpc_config, trained_qnet, capsys
    ):
        out = run_param_grid(params, trained_qnet, nmpc_config=nmpc_config)
        worst_err = max(c["steady_state_error_w"] for c in out["cells"])
        worst_zvs = max(c["zvs_violation_pct"] for c in out["cells"])
        # name the cell at fault: one that loses soft switching, if any,
        # else the one with the largest steady-state error
        worst = max(out["cells"], key=lambda c: (
            c["zvs_violation_pct"] > 0.0, c["steady_state_error_w"]))
        report(
            capsys, worst_err < 1.0 and worst_zvs == 0.0,
            f"16-bit policy + setpoint correction over the 27-cell ±15% R/L x "
            f"{{1000, 2000, 3000}} W grid: worst steady-state error "
            f"{worst_err:.3f} W (required < 1 W), worst ZVS violations "
            f"{worst_zvs:.3f}% (required 0%); worst cell R {worst['r_error']:+.0%}, "
            f"L {worst['l_error']:+.0%}, {worst['p_des_w']:.0f} W: error "
            f"{worst['steady_state_error_w']:.3f} W, ZVS violations "
            f"{worst['zvs_violation_pct']:.3f}%",
        )


class TestFixedPoint:
    def test_16bit_inference_accurate_and_bit_exact(
        self, trained_net, trained_qnet, sampling_box_points, capsys
    ):
        rep = quantization_report(trained_net, trained_qnet, sampling_box_points)
        worst = max(rep["max_rel_deviation"])
        again = forward_q_batch(trained_qnet, sampling_box_points)
        first = forward_q_batch(trained_qnet, sampling_box_points)
        bit_exact = np.array_equal(first, again)
        report(
            capsys, worst < 0.05 and bit_exact,
            f"16-bit inference on {rep['n_samples']} sampled inputs: max "
            f"deviation {100 * worst:.3f}% of the output half-range "
            f"(required < 5%), repeat evaluation bit-exact: {bit_exact}",
        )


class TestDataGeneration:
    def test_closed_loop_data_beats_uniform_sampling(
        self, trajectory_dataset, random_dataset, closed_loop_dataset, capsys
    ):
        # equal-size training sets, identical network and optimizer, each
        # model selected on a validation split of its own training data (as
        # the shipped policy is trained).  The comparison is imitation error
        # on held-out closed-loop states: every state in the closed-loop set
        # was reached by a trained policy driving the plant after the warmup
        # (setpoint steps and setpoint correction included), labeled by the
        # solver, and neither network trains on any of them.
        n = len(random_dataset.x)
        rng = np.random.default_rng(0)
        tr_idx = rng.permutation(len(trajectory_dataset.x))[:n]
        traj_train = Dataset(
            x=trajectory_dataset.x[tr_idx], u=trajectory_dataset.u[tr_idx],
            provenance=tuple(trajectory_dataset.provenance[i] for i in tr_idx),
            seed=trajectory_dataset.seed, discarded=0,
        )
        cfg = TrainConfig(epochs=3000, batch_size=64, seed=0,
                          validation_fraction=0.1)
        net_t, _ = train(traj_train, cfg, net=init_network(seed=0))
        net_r, _ = train(random_dataset, cfg, net=init_network(seed=0))
        mse_t = loss_value(net_t, closed_loop_dataset.x, closed_loop_dataset.u)
        mse_r = loss_value(net_r, closed_loop_dataset.x, closed_loop_dataset.u)
        ratio = mse_r / mse_t
        report(
            capsys, ratio >= 3.0,
            f"training data strategy at equal size ({n} samples): held-out "
            f"imitation MSE on {len(closed_loop_dataset.x)} closed-loop states "
            f"{mse_t:.2e} (closed-loop training states) vs {mse_r:.2e} "
            f"(uniform states), ratio {ratio:.1f}x (required >= 3x)",
        )


class TestNumericalProperties:
    def test_property_suite(self, params, nmpc_config, capsys):
        lines = []

        # time-scaling transform inverts exactly
        sched = SwitchingSchedule.from_inputs(
            0.0, [ControlInput(40e3, 0.5), ControlInput(60e3, 0.3)]
        )
        ts = np.linspace(0.0, sched.t_end, 101)
        tau_err = max(abs(t_of_tau(tau_of_t(t, sched), sched) - t) for t in ts)
        lines.append((tau_err < 1e-12, f"time-scaling roundtrip {tau_err:.1e} s"))

        # collocation end state matches the exact propagator within 0.5%
        u = ControlInput(40e3, 0.5)
        x0 = PlantState(-20.0, 300.0)
        grid = collocation_grid(COLLOC_DEGREE, COLLOC_ELEMENTS)
        pred = predict_interval(x0, u, "on", params, grid)
        prop = SegmentPropagator(params)
        i_ex, v_ex = prop.step(x0.i_o, x0.v_c, params.v_s, u.on_time)
        exact = np.array([i_ex, v_ex])
        col_err = float(
            np.linalg.norm(pred.states[-1] - exact) / np.linalg.norm(exact)
        )
        lines.append((col_err < 0.005, f"collocation end-state error {col_err:.2e}"))

        # optimized cost never above the constant-input grid oracle
        rng = np.random.default_rng(11)
        checked, violations = 0, 0
        while checked < 25:
            x = PlantState(rng.uniform(-150, 150), rng.uniform(-2000, 2000))
            p_des = rng.uniform(0.0, 3000.0)
            _, best_cost, feasible = brute_force_oracle(x, p_des, nmpc_config, params)
            sol = solve(x, p_des, nmpc_config, params)
            if not feasible or sol.status != "converged":
                continue
            if sol.cost > best_cost * (1.0 + 1e-9):
                violations += 1
            checked += 1
        lines.append((violations == 0, f"solver beat the oracle on {checked} instances"))

        # analytic gradients match central differences
        net = init_network(seed=2, layer_sizes=(3, 6, 6, 2))
        net = replace(
            net,
            weights=tuple(np.asarray(w, dtype=float) for w in net.weights),
            biases=tuple(np.asarray(b, dtype=float) for b in net.biases),
        )
        xb = rng.uniform([-150, -2000, 0], [150, 2000, 3000], size=(16, 3))
        tb = rng.uniform([35e3, 0.3], [90e3, 0.7], size=(16, 2))
        gw, _ = backprop_gradients(net, xb, tb)
        h = 1e-6
        worst_g = 0.0
        for (l, i, j) in [(0, 2, 1), (1, 4, 3), (2, 0, 5), (1, 0, 0), (2, 1, 3)]:
            wp = [q.copy() for q in net.weights]
            wm = [q.copy() for q in net.weights]
            wp[l][i, j] += h
            wm[l][i, j] -= h
            fd = (
                loss_value(replace(net, weights=tuple(wp)), xb, tb)
                - loss_value(replace(net, weights=tuple(wm)), xb, tb)
            ) / (2 * h)
            worst_g = max(worst_g, abs(gw[l][i, j] - fd) / max(abs(fd), 1e-12))
        lines.append((worst_g < 1e-4, f"gradient check {worst_g:.1e}"))

        # periodic cycle: source energy equals dissipated energy within 0.1%
        u = ControlInput(35e3, 0.4)
        xs = steady_state_cycle(params, u)
        res = simulate_cycle(xs, params, u, n_trace=200001)
        t, i, _, vo = res.trace.T
        e_in = np.trapezoid(i * vo, t)
        e_diss = np.trapezoid(params.r_l * i**2, t)
        bal_err = abs(e_in - e_diss) / abs(e_diss)
        lines.append((bal_err < 1e-3, f"cycle energy balance {bal_err:.2e}"))

        ok = all(flag for flag, _ in lines)
        report(
            capsys, ok,
            "numerical property suite: "
            + "; ".join(f"{'ok' if flag else 'FAIL'} - {msg}" for flag, msg in lines),
        )


class TestDocumentation:
    def test_hardware_scope_documented(self, capsys):
        text = README.read_text() if README.exists() else ""
        ok = "hardware" in text.lower() and "emulat" in text.lower()
        report(
            capsys, ok,
            "README documents which hardware results are out of scope and the "
            f"bit-exact emulation that substitutes for them: {ok}",
        )
