"""Rebuild the trained-policy artifacts used by the test suite and CLI demos.

Produces, under artifacts/:
  train_trajectory.csv   closed-loop labeled samples (the main training set)
  train_random.csv       uniformly sampled labeled states (for comparison)
  train_rollout.csv      aggregation samples from the stage-1 and stage-2
                         networks' own closed loops, labeled by the solver
                         (`generate_dataset_trajectories` with `net`)
  train_closed_loop.csv  aggregation samples from the stage-3 network run
                         through setpoint-step and setpoint-correction
                         scenarios, and from the stage-4 network in
                         correction runs that reach the command ceiling,
                         labeled by the solver
  policy.json            network trained on all of the above but the
                         random set
  policy_q16.json        16-bit fixed-point version of the same network

Everything is seeded, so reruns reproduce the same files.  Files that
already exist are kept (delete them to force a rebuild), unless a file they
are derived from was rebuilt in the same run: a new trajectory set rebuilds
the policy chain (rollout and closed-loop sets, policy), and a new policy
is quantized again.  Runtime is dominated by labeling states with horizon
solves.  The trajectory, random and rollout sets all come from the one
labelling loop of `resonmpc.policy`; the closed-loop sets from
`resonmpc.harness.generate_dataset_closed_loop`.
"""

import os
import sys
import time
from dataclasses import replace
from pathlib import Path

# one BLAS thread, set before numpy loads its BLAS: the networks' products
# are tiny, and a thread pool only makes the solver's L-BFGS-B steps wait
# when another process keeps a CPU busy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from resonmpc.config import DEFAULT_CONVERTER
from resonmpc.harness import Scenario, generate_dataset_closed_loop
from resonmpc.nmpc import NmpcConfig
from resonmpc.plant import perturbed_params
from resonmpc.policy import (
    DEFAULT_INPUT_HI,
    DEFAULT_INPUT_LO,
    Dataset,
    TrainConfig,
    generate_dataset_random,
    generate_dataset_trajectories,
    init_network,
    load_network,
    save_network,
    train,
)
from resonmpc.quant import quantization_report, quantize, save_quantized

ARTIFACTS = ROOT / "artifacts"

N_TRAJ = 200
N_TRAJ_HIGH = 80  # extra trajectories at high setpoints, where the
                  # command-to-input map is steepest and correction-driven
                  # commands concentrate
TRAJ_STEPS = 25
N_ROLL = 100  # aggregation rollouts under the stage-1 network
N_ROLL_HIGH = 60
N_ROLL2 = 80  # second round, focused on near-max-power setpoints where the
              # command-to-input map is steepest and residual imitation error
              # costs the most delivered power
N_STEP_RUNS = 120  # third round: setpoint-step scenarios
N_CORR_RUNS = 60  # third round: setpoint-correction scenarios
N_CEILING_RUNS = 60  # fourth round: correction runs that reach the command ceiling
N_RANDOM = 600
EPOCHS = 6000
HUBER_EPOCHS = 1500
HUBER_DELTA = 0.01  # normalized output units: 350 Hz, 0.003 duty
PLANT_ERROR = 0.15
HIGH_LO = (DEFAULT_INPUT_LO[0], DEFAULT_INPUT_LO[1], 2800.0)


def _report(name: str, data: Dataset, t0: float):
    print(f"{name}: {len(data)} samples, {data.discarded} discarded labels "
          f"({time.time() - t0:.0f}s)")


def _step_scenarios(n, params, seed):
    """Four 5-cycle setpoints per run after the warmup, on a perturbed plant.

    Every setpoint step starts from a state settled (or settling) at the
    previous setpoint, which trajectories that hold one setpoint from a
    random initial state never produce.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        setpoints = rng.uniform(DEFAULT_INPUT_LO[2], DEFAULT_INPUT_HI[2], 4)
        out.append(Scenario(
            schedule=tuple((5 + 5 * k, float(p)) for k, p in enumerate(setpoints)),
            total_cycles=25, plant_params=perturbed_params(params, rng, PLANT_ERROR),
            model_params=params, controller="dnn",
        ))
    return out


def _correction_scenarios(n, params, seed):
    """One setpoint per run with setpoint correction on a perturbed plant.

    The correction integrator drives the command away from the setpoint,
    up to its ceiling where the plant is weak, so these runs label the
    commands the corrected closed loop actually issues.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p_des = float(rng.uniform(500.0, 3500.0))
        out.append(Scenario(
            schedule=((5, p_des),), total_cycles=65,
            plant_params=perturbed_params(params, rng, PLANT_ERROR), model_params=params,
            controller="dnn", correction=True,
        ))
    return out


def _ceiling_scenarios(n, params, seed):
    """Setpoint correction at 2500-3500 W on plants with R and L up to 15 % high.

    Such plants deliver less power than the model predicts, so the
    correction integrator climbs to its command ceiling.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p_des = float(rng.uniform(2500.0, 3500.0))
        fr, fl = rng.uniform(1.0, 1.0 + PLANT_ERROR, 2)
        out.append(Scenario(
            schedule=((5, p_des),), total_cycles=65,
            plant_params=replace(params, r_l=params.r_l * fr, l_r=params.l_r * fl),
            model_params=params, controller="dnn", correction=True,
        ))
    return out


def build_trajectory_set(params, nmpc_cfg) -> Dataset:
    # trajectories run on randomly perturbed plants (controller keeps the
    # nominal model) so the policy also sees the states a mismatched plant
    # steers it through
    return Dataset.concat(
        generate_dataset_trajectories(
            N_TRAJ, TRAJ_STEPS, nmpc_cfg, params, seed=7, plant_error=PLANT_ERROR
        ),
        generate_dataset_trajectories(
            N_TRAJ_HIGH, TRAJ_STEPS, nmpc_cfg, params, seed=13,
            plant_error=PLANT_ERROR, input_lo=HIGH_LO, input_hi=DEFAULT_INPUT_HI,
        ),
    )


def build_policy(data: Dataset, params, nmpc_cfg):
    """Trajectory training plus four aggregation rounds.

    Returns (network, rollout set, closed-loop set).  Each round labels the
    states the current network visits in closed loop, which solver-driven
    trajectories never reach, and retrains on everything gathered so far.
    """
    t0 = time.time()
    net, hist = train(data, TrainConfig(epochs=EPOCHS, batch_size=64, seed=1),
                      net=init_network(seed=1, config=nmpc_cfg))
    print(f"stage 1: final train loss {hist['train'][-1]:.3e}, "
          f"best val loss {min(hist['val']):.3e} ({time.time() - t0:.0f}s)")

    # round 1: the stage-1 network settles into its own closed-loop states;
    # labeling them removes spurious fixed points of its own
    t0 = time.time()
    roll = Dataset.concat(
        generate_dataset_trajectories(
            N_ROLL, TRAJ_STEPS, nmpc_cfg, params, seed=17,
            plant_error=PLANT_ERROR, net=net,
        ),
        generate_dataset_trajectories(
            N_ROLL_HIGH, TRAJ_STEPS, nmpc_cfg, params, seed=19,
            plant_error=PLANT_ERROR, input_lo=HIGH_LO, input_hi=DEFAULT_INPUT_HI, net=net,
        ),
    )
    _report("rollout round 1", roll, t0)
    t0 = time.time()
    combined = Dataset.concat(data, roll)
    net, hist = train(combined, TrainConfig(epochs=EPOCHS, batch_size=64, seed=2,
                                            step_size=5e-4), net=net)
    print(f"stage 2: final train loss {hist['train'][-1]:.3e}, "
          f"best val loss {min(hist['val']):.3e} ({time.time() - t0:.0f}s)")

    # round 2: near-max-power setpoints
    t0 = time.time()
    roll2 = generate_dataset_trajectories(
        N_ROLL2, TRAJ_STEPS, nmpc_cfg, params, seed=23,
        plant_error=PLANT_ERROR,
        input_lo=(DEFAULT_INPUT_LO[0], DEFAULT_INPUT_LO[1], 3400.0),
        input_hi=DEFAULT_INPUT_HI, net=net,
    )
    _report("rollout round 2", roll2, t0)
    roll = Dataset.concat(roll, roll2)
    t0 = time.time()
    combined = Dataset.concat(combined, roll2)
    net, hist = train(combined, TrainConfig(epochs=EPOCHS, batch_size=64, seed=3,
                                            step_size=3e-4), net=net)
    print(f"stage 3: final train loss {hist['train'][-1]:.3e}, "
          f"best val loss {min(hist['val']):.3e} ({time.time() - t0:.0f}s)")

    # round 3: the closed loops the policy is evaluated in, with setpoint
    # steps and setpoint correction.  Step-cycle labels add a heavy tail of
    # residuals that no smooth network fits, so this stage fine-tunes on
    # the Huber loss, which keeps that tail from trading away precision in
    # the settled states
    t0 = time.time()
    closed = Dataset.concat(
        generate_dataset_closed_loop(
            _step_scenarios(N_STEP_RUNS, params, seed=29), nmpc_cfg, net=net, seed=29
        ),
        generate_dataset_closed_loop(
            _correction_scenarios(N_CORR_RUNS, params, seed=31), nmpc_cfg, net=net
        ),
    )
    _report("closed-loop round 3", closed, t0)
    t0 = time.time()
    combined = Dataset.concat(combined, closed)
    net, hist = train(combined, TrainConfig(epochs=HUBER_EPOCHS, batch_size=64, seed=4,
                                            step_size=3e-4, huber_delta=HUBER_DELTA),
                      net=net)
    print(f"stage 4: final train loss {hist['train'][-1]:.3e}, "
          f"best val loss {min(hist['val']):.3e} ({time.time() - t0:.0f}s)")

    # round 4: setpoint correction at high setpoints on plants weaker than
    # the model, where the correction integrator drives the command to its
    # ceiling and the command-to-input map is steepest
    t0 = time.time()
    ceiling = generate_dataset_closed_loop(
        _ceiling_scenarios(N_CEILING_RUNS, params, seed=37), nmpc_cfg, net=net, seed=37
    )
    _report("closed-loop round 4", ceiling, t0)
    closed = Dataset.concat(closed, ceiling)
    t0 = time.time()
    combined = Dataset.concat(combined, ceiling)
    net, hist = train(combined, TrainConfig(epochs=HUBER_EPOCHS, batch_size=64, seed=5,
                                            step_size=3e-4, huber_delta=HUBER_DELTA),
                      net=net)
    print(f"stage 5: final train loss {hist['train'][-1]:.3e}, "
          f"best val loss {min(hist['val']):.3e} ({time.time() - t0:.0f}s)")
    return net, roll, closed


def main():
    ARTIFACTS.mkdir(exist_ok=True)
    params = DEFAULT_CONVERTER
    nmpc_cfg = NmpcConfig()

    t0 = time.time()
    traj_path = ARTIFACTS / "train_trajectory.csv"
    rebuilt = not traj_path.exists()
    if rebuilt:
        data = build_trajectory_set(params, nmpc_cfg)
        data.save_csv(traj_path)
        _report("trajectory set", data, t0)
    else:
        data = Dataset.load_csv(traj_path)
        print(f"trajectory set: kept existing {len(data)} samples")

    t0 = time.time()
    rand_path = ARTIFACTS / "train_random.csv"
    if rand_path.exists():
        print("random set: kept existing file")
    else:
        rdata = generate_dataset_random(N_RANDOM, nmpc_cfg, params, seed=11)
        rdata.save_csv(rand_path)
        _report("random set", rdata, t0)

    roll_path = ARTIFACTS / "train_rollout.csv"
    closed_path = ARTIFACTS / "train_closed_loop.csv"
    net_path = ARTIFACTS / "policy.json"
    if rebuilt or not all(p.exists() for p in (roll_path, closed_path, net_path)):
        rebuilt = True
        net, roll, closed = build_policy(data, params, nmpc_cfg)
        roll.save_csv(roll_path)
        closed.save_csv(closed_path)
        save_network(net, net_path)
    else:
        net = load_network(net_path)
        print("policy chain: kept existing files")

    q_path = ARTIFACTS / "policy_q16.json"
    if rebuilt or not q_path.exists():
        # calibration spans the sampling box plus setpoint headroom, since
        # the correction rule can command powers above the nominal 3000 W
        # ceiling
        rng = np.random.default_rng(3)
        calib = np.column_stack([
            rng.uniform(-150.0, 150.0, 4000),
            rng.uniform(-2000.0, 2000.0, 4000),
            rng.uniform(0.0, 4000.0, 4000),
        ])
        qnet = quantize(net, calib)
        save_quantized(qnet, q_path)
        report = quantization_report(net, qnet, calib)
        print("quantized: max rel deviation", report["max_rel_deviation"],
              "saturations", report["saturation_events"])
    else:
        print("quantized policy: kept existing file")


if __name__ == "__main__":
    main()
