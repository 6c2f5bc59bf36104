"""Each benchmark check passes on the package's output and fires on a corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from parts import Ledger  # noqa: E402
from resonmpc import config, harness, nmpc, plant, policy, quant  # noqa: E402

PARAMS = config.DEFAULT_CONVERTER
CFG = nmpc.NmpcConfig()
ARTIFACTS = ROOT / "artifacts"


@pytest.fixture(scope="module")
def cold():
    x0 = plant.PlantState(-14.0, -1463.8)
    return x0, 1612.5, nmpc.solve(x0, 1612.5, CFG, PARAMS)


@pytest.fixture(scope="module")
def net():
    return policy.load_network(ARTIFACTS / "policy.json")


@pytest.fixture(scope="module")
def qnet():
    return quant.load_quantized(ARTIFACTS / "policy_q16.json")


@pytest.fixture(scope="module")
def states():
    rng = np.random.default_rng(3)
    return rng.uniform(policy.DEFAULT_INPUT_LO, policy.DEFAULT_INPUT_HI, size=(64, 3))


def _pairs(sol):
    return [(u.f_sw, u.duty) for u in sol.inputs]


def test_box(cold):
    _, _, sol = cold
    assert checks.check_in_box(CFG, _pairs(sol), "plan") == []
    assert checks.check_in_box(CFG, [(CFG.f_max + 1.0, 0.5)], "plan")
    assert checks.check_in_box(CFG, [(50e3, CFG.d_min - 1e-9)], "plan")


def test_plan_zvs(cold):
    x0, _, sol = cold
    assert sol.status == "converged"
    start = (x0.i_o, x0.v_c)
    assert checks.check_plan_zvs(PARAMS, CFG, start, _pairs(sol), "plan") == []
    # the same plan judged against a margin it was not solved for
    strict = replace(CFG, zvs_margin=CFG.zvs_margin + 1e3)
    assert checks.check_plan_zvs(PARAMS, strict, start, _pairs(sol), "plan")
    # the same plan from a start state it was not solved for
    assert checks.check_plan_zvs(PARAMS, CFG, (x0.i_o + 200.0, x0.v_c), _pairs(sol), "plan")


def test_oracle(cold):
    x0, p_des, sol = cold
    _, oracle_cost, feasible = nmpc.brute_force_oracle(x0, p_des, CFG, PARAMS)
    assert feasible
    assert checks.check_oracle(sol.cost, oracle_cost, "solve") == []
    assert checks.check_oracle(oracle_cost * 1.001, oracle_cost, "solve")


def test_charge_balance_matches_plant():
    x0 = plant.PlantState(-20.0, 300.0)
    u = plant.ControlInput(40e3, 0.45)
    exact = plant.simulate_cycle(x0, PARAMS, u, n_trace=2).p_avg
    p = checks.charge_balance_power(PARAMS, (x0.i_o, x0.v_c), u.f_sw, u.duty)
    assert abs(float(p) - exact) < checks.POWER_TOL_W


def test_record_powers(net):
    sc = harness.Scenario(schedule=((5, 1500.0),), total_cycles=25, plant_params=PARAMS,
                          model_params=PARAMS, controller="dnn")
    records, _ = harness.run_closed_loop(sc, nmpc_config=CFG, net=net)
    assert checks.check_record_powers(PARAMS, records, "run") == []
    bad = list(records)
    bad[12] = replace(bad[12], p_avg_w=bad[12].p_avg_w + 1e-3)
    assert checks.check_record_powers(PARAMS, bad, "run")
    # the same records on a plant they were not simulated on
    other = replace(PARAMS, l_r=PARAMS.l_r * 1.15)
    assert checks.check_record_powers(other, records, "run")


def test_campaign_and_grid_gates():
    ok = {"controllers": {"dnn": {"zvs_violation_pct": 0.0}}}
    assert checks.check_campaign_zvs(ok, "campaign") == []
    bad = {"controllers": {"dnn": {"zvs_violation_pct": 0.5}}}
    assert checks.check_campaign_zvs(bad, "campaign")
    cell = {"r_error": 0.15, "l_error": 0.0, "p_des_w": 3000.0,
            "steady_state_error_w": 0.5, "zvs_violation_pct": 0.0}
    assert checks.check_grid({"cells": [cell]}) == []
    assert checks.check_grid({"cells": [dict(cell, steady_state_error_w=1.2)]})
    assert checks.check_grid({"cells": [dict(cell, steady_state_error_w=None)]})
    assert checks.check_grid({"cells": [dict(cell, zvs_violation_pct=0.1)]})


def test_forward_against_numpy(net, states):
    reference = checks.NumpyPolicy.from_json(json.loads((ARTIFACTS / "policy.json").read_text()))
    u = np.array([(v.f_sw, v.duty) for v in (policy.forward(net, x) for x in states)])
    assert checks.bad_forward_rows(reference, states, u).size == 0
    u[7, 1] += 1e-6 * reference.half[1]
    assert list(checks.bad_forward_rows(reference, states, u)) == [7]
    batch = policy.forward_batch(net, states)
    assert checks.bad_forward_rows(checks.NumpyPolicy.from_network(net), states, batch).size == 0


def test_quantized_against_float(net, qnet, states):
    u_f = policy.forward_batch(net, states)
    u_q = np.array([(v.f_sw, v.duty) for v in (quant.forward_q(qnet, x) for x in states)])
    half = 0.5 * (net.output_hi - net.output_lo)
    assert checks.bad_quantized_rows(half, u_f, u_q).size == 0
    u_q[3, 0] = u_f[3, 0] + 0.06 * half[0]
    assert list(checks.bad_quantized_rows(half, u_f, u_q)) == [3]


def test_bit_exact_rows(qnet, states):
    a = quant.forward_q_batch(qnet, states)
    b = np.array([(v.f_sw, v.duty) for v in (quant.forward_q(qnet, x) for x in states)])
    assert checks.bad_unequal_rows(a, b).size == 0
    b[5, 1] = np.nextafter(b[5, 1], 1.0)
    assert list(checks.bad_unequal_rows(a, b)) == [5]


def test_gradients_and_loss():
    from parts import Distill

    data = policy.Dataset.load_csv(ARTIFACTS / "train_trajectory.csv")
    data = policy.Dataset(x=data.x[:200], u=data.u[:200], provenance=data.provenance[:200], seed=0)
    net, history = policy.train(data, policy.TrainConfig(epochs=3, seed=1), policy.init_network(1))
    assert Distill._gradient_problems(policy, net, data, seed=4) == []
    assert checks.check_loss_falls(history, "train") == []
    assert checks.check_loss_falls({"train": [0.1, 0.2]}, "train")
    g = np.array([1e-2, -3e-3, 4e-4])
    assert checks.check_gradients(g, g * (1 + 1e-9), "grad") == []
    assert checks.check_gradients(g * 1.001, g, "grad")


def test_ledger_counts_rows_once():
    ledger = Ledger()
    ledger.check([])
    ledger.check(["wrong"])
    ledger.check_rows(10, [np.array([2, 3]), np.array([3])], "rows")
    out, _ = ledger.call("raise", lambda: 1 / 0)
    assert out is None
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (13, 4, 3)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "label", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
