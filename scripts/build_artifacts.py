"""Rebuild the trained-policy artifacts used by the test suite and CLI demos.

Run as `python scripts/build_artifacts.py`; it takes no arguments.  It
writes, under artifacts/:
  train_random.csv       states drawn uniformly from the sampling box, each
                         labeled by a cold solve (the data-strategy baseline)
  train_trajectory.csv   round 0: the solver's own closed loops over the
                         scenario distribution, each applied input a label
  train_closed_loop.csv  rounds 1 to ROUNDS - 1: the closed loops of the
                         network trained after the round before, labeled by
                         a warm solver that observes without acting
  policy.json            the network trained after the last round
  policy_q16.json        its 16-bit fixed-point version

The policy comes from dataset aggregation (DAgger; Ross, Gordon & Bagnell,
AISTATS 2011): every round runs one draw of the scenario distribution the
acceptance gates judge (setpoint steps, +-15 % R/L plants, setpoint
correction), labels the states visited with
`resonmpc.harness.generate_dataset_closed_loop`, appends them to the data
and retrains from the previous network.  Round 0's controller is the solver
itself; each later round's is the network trained so far.

Everything is seeded, so reruns reproduce the same bytes; each written
file's sha256 is printed with the wall time of the stage that made it.
Files that exist are kept (delete them to force a rebuild): the random set
on its own, the two aggregation sets and the policy together.  A new policy
is quantized again.
"""

import hashlib
import os
import sys
import time
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
    Dataset,
    TrainConfig,
    generate_dataset_random,
    init_network,
    load_network,
    sampling_box,
    save_network,
    train,
)
from resonmpc.quant import quantization_report, quantize, save_quantized

ARTIFACTS = ROOT / "artifacts"

ROUNDS = 4
N_RUNS = 100  # scenario runs per round
N_RANDOM = 600
PLANT_ERROR = 0.15
STEP_CYCLES = 5  # each of the three setpoint steps, as in the campaigns
CORRECTED_CYCLES = 60
# Round 0 fits the solver's own closed loops under squared error.  The
# later rounds fine-tune on the Huber loss (threshold in normalized output
# units: 350 Hz, 0.003 duty): labels at setpoint steps and active ZVS
# constraints form a heavy tail of residuals that no smooth network fits,
# and under squared error that tail trades away precision in the settled
# states the gates measure.
FIRST_TRAIN = TrainConfig(epochs=6000, batch_size=64, seed=1)
LATER_TRAIN = TrainConfig(epochs=1500, batch_size=64, seed=2, step_size=3e-4,
                          huber_delta=0.01)


def _scenarios(n, controller, params, seed):
    """n runs of the distribution the acceptance gates evaluate.

    Each run is one plant with R and L scaled by independent U[0.85, 1.15]
    factors.  After the warm-up come three 5-cycle setpoint steps drawn
    from [500, 3000] W, the campaigns' schedule, then one 60-cycle setpoint
    under setpoint correction, as in the grid, drawn from [500, 4000] W, the
    network's setpoint range.  Where that setpoint lies beyond the plant's
    power the correction integrator climbs to its 4000 W ceiling, as it
    does in the grid's cell of +15 % R and L at 3000 W, so the runs label
    the commands the corrected loop issues up to that ceiling.
    """
    rng = np.random.default_rng(seed)
    warmup = Scenario.warmup_cycles
    out = []
    for _ in range(n):
        setpoints = [*rng.uniform(500.0, 3000.0, 3), rng.uniform(500.0, 4000.0)]
        out.append(Scenario(
            schedule=tuple((warmup + STEP_CYCLES * k, float(p)) for k, p in enumerate(setpoints)),
            total_cycles=warmup + 3 * STEP_CYCLES + CORRECTED_CYCLES,
            plant_params=perturbed_params(params, rng, PLANT_ERROR),
            model_params=params, controller=controller, correction=True,
        ))
    return out


def _written(path: Path, t0: float):
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    print(f"  wrote {path.name}  sha256 {digest}  ({time.time() - t0:.0f}s)")


def aggregate(params, nmpc_cfg):
    """ROUNDS rounds of labelling and retraining; returns (round 0, later rounds, network)."""
    rounds, net = [], init_network(seed=1, config=nmpc_cfg)
    for r in range(ROUNDS):
        t0 = time.time()
        kind = "exact-nmpc" if r == 0 else "dnn"
        data = generate_dataset_closed_loop(_scenarios(N_RUNS, kind, params, seed=r),
                                            nmpc_cfg, net=net)
        rounds.append(data)
        t1 = time.time()
        net, hist = train(Dataset.concat(*rounds), FIRST_TRAIN if r == 0 else LATER_TRAIN,
                          net=net)
        print(f"round {r} ({kind}): {len(data)} labels, {data.discarded} discarded "
              f"({t1 - t0:.0f}s); trained on {sum(map(len, rounds))}: final loss "
              f"{hist['train'][-1]:.3e}, best val loss {min(hist['val']):.3e} "
              f"({time.time() - t1:.0f}s)")
    return rounds[0], Dataset.concat(*rounds[1:]), net


def main():
    ARTIFACTS.mkdir(exist_ok=True)
    params = DEFAULT_CONVERTER
    nmpc_cfg = NmpcConfig()

    t0 = time.time()
    rand_path = ARTIFACTS / "train_random.csv"
    if rand_path.exists():
        print("random set: kept existing file")
    else:
        rdata = generate_dataset_random(N_RANDOM, nmpc_cfg, params, seed=11)
        rdata.save_csv(rand_path)
        print(f"random set: {len(rdata)} labels, {rdata.discarded} discarded draws")
        _written(rand_path, t0)

    t0 = time.time()
    chain = [ARTIFACTS / n for n in ("train_trajectory.csv", "train_closed_loop.csv",
                                     "policy.json")]
    rebuilt = not all(p.exists() for p in chain)
    if rebuilt:
        first, later, net = aggregate(params, nmpc_cfg)
        first.save_csv(chain[0])
        later.save_csv(chain[1])
        save_network(net, chain[2])
        for path in chain:
            _written(path, t0)
    else:
        net = load_network(chain[2])
        print("aggregation sets and policy: kept existing files")

    t0 = time.time()
    q_path = ARTIFACTS / "policy_q16.json"
    if rebuilt or not q_path.exists():
        # calibration spans the sampling box plus setpoint headroom, since
        # the correction rule can command powers above the nominal 3000 W
        # ceiling
        calib = sampling_box(4000, seed=3)
        qnet = quantize(net, calib)
        save_quantized(qnet, q_path)
        report = quantization_report(net, qnet, calib)
        print("quantized: max rel deviation", report["max_rel_deviation"],
              "saturations", report["saturation_events"])
        _written(q_path, t0)
    else:
        print("quantized policy: kept existing file")


if __name__ == "__main__":
    main()
