"""Shared fixtures: nominal converter, solver config, trained artifacts.

The datasets, the trained policy network and its quantized form live in
artifacts/ and are produced by scripts/build_artifacts.py.  Tests load
them; if any of them is missing, the fixtures run that full script first,
which rebuilds the missing files and everything derived from them (slow:
dataset generation labels thousands of states by solving the horizon
problem).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from resonmpc.nmpc import NmpcConfig
from resonmpc.plant import ConverterParams
from resonmpc.policy import Dataset, load_network, sampling_box
from resonmpc.quant import load_quantized

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = REPO_ROOT / "artifacts"


@pytest.fixture(scope="session")
def params():
    return ConverterParams(v_s=230.0, l_r=19e-6, r_l=2.9, c_r=1440e-9)


@pytest.fixture(scope="session")
def nmpc_config():
    return NmpcConfig()


@pytest.fixture(scope="session")
def artifact_paths():
    needed = [
        ARTIFACTS / "train_trajectory.csv",
        ARTIFACTS / "train_random.csv",
        ARTIFACTS / "train_closed_loop.csv",
        ARTIFACTS / "policy.json",
        ARTIFACTS / "policy_q16.json",
    ]
    if not all(p.exists() for p in needed):
        subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "build_artifacts.py")],
            check=True,
        )
    return {p.stem: p for p in needed}


@pytest.fixture(scope="session")
def trajectory_dataset(artifact_paths):
    return Dataset.load_csv(artifact_paths["train_trajectory"])


@pytest.fixture(scope="session")
def random_dataset(artifact_paths):
    return Dataset.load_csv(artifact_paths["train_random"])


@pytest.fixture(scope="session")
def closed_loop_dataset(artifact_paths):
    return Dataset.load_csv(artifact_paths["train_closed_loop"])


@pytest.fixture(scope="session")
def trained_net(artifact_paths):
    return load_network(artifact_paths["policy"])


@pytest.fixture(scope="session")
def trained_qnet(artifact_paths):
    return load_quantized(artifact_paths["policy_q16"])


@pytest.fixture(scope="session")
def sampling_box_points():
    """10,000 inputs drawn from the policy sampling box, fixed seed."""
    return sampling_box(10000, seed=424242)
