"""Network forward/backward checks against finite differences, training
behavior, dataset generation and file round trips.
"""

import hashlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonmpc import policy
from resonmpc.errors import ArgumentError
from resonmpc.harness import generate_dataset_closed_loop
from resonmpc.nmpc import NmpcConfig
from resonmpc.plant import ControlInput
from resonmpc.policy import (
    BLOCK_ROWS,
    DEFAULT_INPUT_HI,
    DEFAULT_INPUT_LO,
    Dataset,
    PolicyNetwork,
    TrainConfig,
    backprop_gradients,
    forward,
    forward_batch,
    generate_dataset_random,
    generate_dataset_trajectories,
    init_network,
    load_network,
    loss_value,
    save_network,
    train,
)


REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "build_artifacts", REPO_ROOT / "scripts" / "build_artifacts.py")
build_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(build_artifacts)


def zero_like(net):
    return PolicyNetwork(
        weights=tuple(np.zeros_like(w) for w in net.weights),
        biases=tuple(np.zeros_like(b) for b in net.biases),
        activation=net.activation,
        input_lo=net.input_lo,
        input_hi=net.input_hi,
        output_lo=net.output_lo,
        output_hi=net.output_hi,
    )


class TestForward:
    def test_zero_network_gives_box_center(self):
        net = zero_like(init_network(seed=0))
        u = forward(net, (10.0, -500.0, 1200.0))
        assert u == ControlInput(65e3, 0.5)

    def test_deterministic(self):
        net = init_network(seed=3)
        x = (42.0, 900.0, 2100.0)
        assert forward(net, x) == forward(net, x)

    def test_output_box_safety_far_outside_sampling_box(self):
        # 1e5 inputs, many far outside the training ranges
        net = init_network(seed=5)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1e6, 1e6, size=(100000, 3))
        u = forward_batch(net, x)
        assert np.all(u[:, 0] >= 30e3) and np.all(u[:, 0] <= 100e3)
        assert np.all(u[:, 1] >= 0.2) and np.all(u[:, 1] <= 0.8)

    def test_layer_sizes(self):
        net = init_network(seed=0)
        assert net.layer_sizes == (3, 10, 10, 10, 10, 10, 2)

    @pytest.mark.parametrize("n", [0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1, 10_001])
    def test_row_blocks_match_one_call(self, trained_net, n):
        x = _wide_box_points(n, seed=n)
        u = forward_batch(trained_net, x)
        assert u.shape == (n, 2)
        assert u.tobytes() == _reference_forward_batch(trained_net, x).tobytes()

    def test_short_blocks_match_one_call(self, trained_net, monkeypatch):
        # with 7-row blocks every tail length occurs, one row included
        monkeypatch.setattr(policy, "BLOCK_ROWS", 7)
        x = _wide_box_points(199, seed=7)
        for n in range(1, 200):
            u = forward_batch(trained_net, x[:n])
            assert u.tobytes() == _reference_forward_batch(trained_net, x[:n]).tobytes()

    def test_nan_input_rejected_naming_the_row(self, trained_net):
        with pytest.raises(ArgumentError, match="row 0"):
            forward(trained_net, [np.nan, 0.0, 1000.0])
        x = _wide_box_points(BLOCK_ROWS + 10, seed=1)
        x[BLOCK_ROWS + 3, 1] = np.nan
        x[BLOCK_ROWS + 7, 0] = np.nan
        with pytest.raises(ArgumentError, match=f"row {BLOCK_ROWS + 3}"):
            forward_batch(trained_net, x)

    def test_rows_of_three_required(self, trained_net):
        with pytest.raises(ArgumentError, match="rows of 3"):
            forward_batch(trained_net, np.zeros((3, 4)))


def _wide_box_points(n, seed, widen=3.0):
    """Inputs from the sampling box widened `widen` times about its centre."""
    lo, hi = np.array(DEFAULT_INPUT_LO), np.array(DEFAULT_INPUT_HI)
    c, h = 0.5 * (lo + hi), 0.5 * widen * (hi - lo)
    return np.random.default_rng(seed).uniform(c - h, c + h, size=(n, 3))


def _worst_gradient_error(huber_delta):
    """Largest relative gap between backprop and central differences."""
    # promote stored 32-bit weights to 64-bit so the finite-difference
    # perturbation is not corrupted by storage rounding
    net = init_network(seed=2, layer_sizes=(3, 6, 6, 2))
    net = replace(
        net,
        weights=tuple(np.asarray(w, dtype=float) for w in net.weights),
        biases=tuple(np.asarray(b, dtype=float) for b in net.biases),
    )
    rng = np.random.default_rng(7)
    x = rng.uniform([-150, -2000, 0], [150, 2000, 3000], size=(16, 3))
    t = rng.uniform([35e3, 0.3], [90e3, 0.7], size=(16, 2))
    gw, gb = backprop_gradients(net, x, t, huber_delta)
    h = 1e-6
    worst = 0.0
    # weight shapes: (6, 3), (6, 6), (2, 6)
    for (l, i, j) in [(0, 2, 1), (1, 4, 3), (2, 0, 5), (2, 1, 2), (0, 5, 0),
                      (1, 0, 0), (2, 1, 3), (0, 3, 2), (1, 2, 5), (0, 0, 2)]:
        w_p = [q.copy() for q in net.weights]
        w_m = [q.copy() for q in net.weights]
        w_p[l][i, j] += h
        w_m[l][i, j] -= h
        lp = loss_value(replace(net, weights=tuple(w_p)), x, t, huber_delta)
        lm = loss_value(replace(net, weights=tuple(w_m)), x, t, huber_delta)
        fd = (lp - lm) / (2 * h)
        rel = abs(gw[l][i, j] - fd) / max(abs(fd), 1e-12)
        worst = max(worst, rel)
    return worst


class TestGradients:
    def test_matches_central_differences(self):
        assert _worst_gradient_error(0.0) < 1e-4

    def test_huber_matches_central_differences(self):
        # residuals of the untrained network straddle the threshold, so both
        # the quadratic and the linear branch are exercised
        assert _worst_gradient_error(0.3) < 1e-4

    def test_zero_residual_gives_zero_gradients(self):
        net = init_network(seed=4)
        rng = np.random.default_rng(1)
        x = rng.uniform([-150, -2000, 0], [150, 2000, 3000], size=(8, 3))
        u = forward_batch(net, x)  # targets equal to the outputs
        gw, gb = backprop_gradients(net, x, u)
        for g in gw + gb:
            assert np.max(np.abs(g)) < 1e-12

    def test_duplicating_samples_leaves_gradients_unchanged(self):
        net = init_network(seed=6)
        rng = np.random.default_rng(2)
        x = rng.uniform([-150, -2000, 0], [150, 2000, 3000], size=(5, 3))
        t = rng.uniform([35e3, 0.3], [90e3, 0.7], size=(5, 2))
        gw1, gb1 = backprop_gradients(net, x, t)
        gw2, gb2 = backprop_gradients(net, np.vstack([x, x]), np.vstack([t, t]))
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


class TestTrain:
    def test_memorizes_single_sample(self):
        data = Dataset(
            x=np.array([[10.0, -300.0, 1500.0]]),
            u=np.array([[55e3, 0.45]]),
            provenance=("random-state",),
            seed=0,
            discarded=0,
        )
        cfg = TrainConfig(epochs=2000, batch_size=1, validation_fraction=0.0, seed=0)
        net, hist = train(data, cfg)
        assert hist["train"][-1] < 1e-8

    def test_same_seed_identical_history(self, trajectory_dataset):
        cfg = TrainConfig(epochs=5, seed=9)
        _, h1 = train(trajectory_dataset, cfg)
        _, h2 = train(trajectory_dataset, cfg)
        assert h1["train"] == h2["train"]
        assert h1["val"] == h2["val"]

    def test_loss_decreases_by_epoch_50(self, trajectory_dataset):
        cfg = TrainConfig(epochs=50, seed=1)
        _, hist = train(trajectory_dataset, cfg)
        assert hist["train"][49] < hist["train"][0]

    def test_invalid_config_rejected(self):
        with pytest.raises(ArgumentError):
            TrainConfig(epochs=0)
        with pytest.raises(ArgumentError):
            TrainConfig(validation_fraction=0.6)
        for seed in (-1, 1.0, True, "0"):
            with pytest.raises(ArgumentError):
                TrainConfig(seed=seed)

    @pytest.mark.parametrize("bad", [{"epochs": 2.5}, {"epochs": 3.0}, {"epochs": True},
                                     {"batch_size": 64.0}, {"batch_size": False},
                                     {"epochs": "5"}])
    def test_non_integer_counts_rejected(self, bad):
        with pytest.raises(ArgumentError):
            TrainConfig(**bad)

    def test_numpy_integer_counts_accepted(self):
        assert TrainConfig(epochs=np.int64(3), batch_size=np.int32(8)).epochs == 3


# The per-layer training loop that one flat parameter vector replaced, kept as
# the reference: a fresh temporary for every bias add and activation, and one
# Adam update per weight and bias array.  Elementwise float arithmetic does
# not depend on array layout, so `train` must match it bit for bit.

def _reference_forward_raw(net, xn):
    acts = [xn]
    a = xn
    n_layers = len(net.weights)
    for l, (w, b) in enumerate(net.layers_f64):
        z = a @ w.T + b
        a = z if l == n_layers - 1 else np.tanh(z)
        acts.append(a)
    return acts


def _reference_forward_batch(net, x):
    """The whole batch in one call, every constant worked out per call."""
    x = np.asarray(x, dtype=float)
    xn = 2.0 * (x - net.input_lo) / (net.input_hi - net.input_lo) - 1.0
    y = _reference_forward_raw(net, xn)[-1]
    center = 0.5 * (net.output_lo + net.output_hi)
    half = 0.5 * (net.output_hi - net.output_lo)
    return np.clip(center + half * y, net.output_lo, net.output_hi)


def _reference_loss(net, x, u_target, huber_delta):
    r = _reference_forward_raw(net, net.normalize_inputs(x))[-1] - net.normalize_targets(u_target)
    sq = r * r
    if huber_delta > 0.0:
        a = np.abs(r)
        sq = np.where(a <= huber_delta, sq, 2.0 * huber_delta * a - huber_delta**2)
    return float(np.mean(np.sum(sq, axis=1)))


def _reference_gradients(net, x, u_target, huber_delta):
    xn = net.normalize_inputs(x)
    acts = _reference_forward_raw(net, xn)
    r = acts[-1] - net.normalize_targets(u_target)
    if huber_delta > 0.0:
        r = np.clip(r, -huber_delta, huber_delta)
    delta = 2.0 * r / xn.shape[0]
    g_w, g_b = [None] * len(net.weights), [None] * len(net.weights)
    for l in range(len(net.weights) - 1, -1, -1):
        g_w[l] = delta.T @ acts[l]
        g_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ net.layers_f64[l][0]) * (1.0 - acts[l] * acts[l])
    return g_w, g_b


def _reference_train(data, cfg, net):
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(data))
    n_val = int(round(cfg.validation_fraction * len(data)))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    x_tr, u_tr = data.x[tr_idx], data.u[tr_idx]
    x_val, u_val = data.x[val_idx], data.u[val_idx]
    w = [np.asarray(wl, dtype=float).copy() for wl in net.weights]
    b = [np.asarray(bl, dtype=float).copy() for bl in net.biases]
    m_w, v_w = [np.zeros_like(q) for q in w], [np.zeros_like(q) for q in w]
    m_b, v_b = [np.zeros_like(q) for q in b], [np.zeros_like(q) for q in b]
    history = {"train": [], "val": []}
    best = (np.inf, [q.copy() for q in w], [q.copy() for q in b])
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Adam's published defaults
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(x_tr.shape[0])
        cur = replace(net, weights=tuple(w), biases=tuple(b))
        for lo in range(0, order.size, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            g_w, g_b = _reference_gradients(cur, x_tr[idx], u_tr[idx], cfg.huber_delta)
            t += 1
            bc1 = 1.0 - beta1**t
            bc2 = 1.0 - beta2**t
            for l in range(len(w)):
                for p, g, m, v in ((w[l], g_w[l], m_w[l], v_w[l]),
                                   (b[l], g_b[l], m_b[l], v_b[l])):
                    m *= beta1
                    m += (1.0 - beta1) * g
                    v *= beta2
                    v += (1.0 - beta2) * g * g
                    p -= cfg.step_size * (m / bc1) / (np.sqrt(v / bc2) + eps)
        cur = replace(net, weights=tuple(w), biases=tuple(b))
        tr_loss = _reference_loss(cur, x_tr, u_tr, cfg.huber_delta)
        history["train"].append(tr_loss)
        if n_val:
            val_loss = _reference_loss(cur, x_val, u_val, cfg.huber_delta)
            history["val"].append(val_loss)
            if val_loss < best[0]:
                best = (val_loss, [q.copy() for q in w], [q.copy() for q in b])
        else:
            best = (tr_loss, w, b)
    return replace(net, weights=tuple(np.asarray(q, dtype=np.float32) for q in best[1]),
                   biases=tuple(np.asarray(q, dtype=np.float32) for q in best[2])), history


def _weight_bytes(net):
    return b"".join(q.tobytes() for q in net.weights + net.biases)


def _head(data, n):
    return Dataset(x=data.x[:n], u=data.u[:n], provenance=data.provenance[:n], seed=0)


class TestTrainBitIdentity:
    # 150 rows: 150 or 135 training rows, neither a multiple of the batch of
    # 32; the step is large enough that seed 1's best validation epoch under
    # either loss is not its last, so keeping a copy of the best is checked.
    # The random set is not rebuilt with the policy, so that stays true
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("validation_fraction", [0.0, 0.1])
    @pytest.mark.parametrize("huber_delta", [0.0, 0.01])
    def test_matches_per_layer_reference(self, random_dataset, seed,
                                         validation_fraction, huber_delta):
        data = _head(random_dataset, 150)
        cfg = TrainConfig(epochs=4, batch_size=32, seed=seed, step_size=2e-2,
                          validation_fraction=validation_fraction, huber_delta=huber_delta)
        net, hist = train(data, cfg, init_network(seed=seed))
        ref, ref_hist = _reference_train(data, cfg, init_network(seed=seed))
        for q, r in zip(net.weights + net.biases, ref.weights + ref.biases):
            assert q.dtype == r.dtype == np.float32 and q.shape == r.shape
        assert _weight_bytes(net) == _weight_bytes(ref)
        assert hist == ref_hist

    def test_forward_batch_matches_reference(self, trained_net, sampling_box_points):
        u = forward_batch(trained_net, sampling_box_points)
        assert u.tobytes() == _reference_forward_batch(trained_net, sampling_box_points).tobytes()

    def test_pinned_short_run(self, random_dataset):
        # sha256 of the weight and bias bytes of this run, recorded with the
        # per-layer loop above; it pins numpy's (and its BLAS's) rounding too
        net, _ = train(_head(random_dataset, 200),
                       TrainConfig(epochs=5, batch_size=48, seed=3, huber_delta=0.01),
                       init_network(seed=3))
        assert hashlib.sha256(_weight_bytes(net)).hexdigest() == (
            "f9eae3af4dd4d135b41e9ab3d42eb6f09305a1d28de6a69fb0d86cb6630b60b1")


class TestDatasets:
    def test_random_generation_small(self, params, nmpc_config):
        data = generate_dataset_random(3, nmpc_config, params, seed=21)
        assert len(data.x) == 3
        assert np.all(data.x[:, 0] >= -150) and np.all(data.x[:, 0] <= 150)
        assert np.all(data.x[:, 1] >= -2000) and np.all(data.x[:, 1] <= 2000)
        assert np.all(data.x[:, 2] >= 0) and np.all(data.x[:, 2] <= 4000)
        assert np.all(data.u[:, 0] >= 30e3) and np.all(data.u[:, 0] <= 100e3)
        assert np.all(data.u[:, 1] >= 0.2) and np.all(data.u[:, 1] <= 0.8)
        assert data.provenance == ("random-state",) * 3

    def test_random_generation_seed_determinism(self, params, nmpc_config):
        a = generate_dataset_random(2, nmpc_config, params, seed=33)
        b = generate_dataset_random(2, nmpc_config, params, seed=33)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.u, b.u)

    def test_trajectory_plant_error_validated_and_deterministic(self, params, nmpc_config):
        with pytest.raises(ArgumentError):
            generate_dataset_trajectories(1, 1, nmpc_config, params, plant_error=1.0)
        a = generate_dataset_trajectories(1, 3, nmpc_config, params, seed=4,
                                          plant_error=0.15)
        b = generate_dataset_trajectories(1, 3, nmpc_config, params, seed=4,
                                          plant_error=0.15)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.u, b.u)

    def test_draws_breaking_zvs_sign_are_not_solved(self, params, nmpc_config, monkeypatch):
        solved = []
        inner = policy.solve

        def recording(state, *args, **kwargs):
            solved.append(state)
            return inner(state, *args, **kwargs)

        monkeypatch.setattr(policy, "solve", recording)
        data = generate_dataset_random(3, nmpc_config, params, seed=21)
        assert (len(data), data.discarded) == (3, 6)
        assert len(solved) == 3
        assert all(s.i_o <= nmpc_config.constraint_tol for s in solved)

    def test_reproduces_shipped_trajectory_rows(self, params, trajectory_dataset):
        # the first scenario of the shipped set's round 0 (build_artifacts.py)
        scenarios = build_artifacts._scenarios(1, "exact-nmpc", params, seed=0)
        data = generate_dataset_closed_loop(scenarios, NmpcConfig())
        n = len(data)
        assert n == 75  # three 5-cycle setpoints and 60 corrected cycles, none discarded
        np.testing.assert_array_equal(data.x, trajectory_dataset.x[:n])
        np.testing.assert_array_equal(data.u, trajectory_dataset.u[:n])
        assert data.provenance == trajectory_dataset.provenance[:n]

    def test_reproduces_shipped_random_rows(self, params, random_dataset):
        data = generate_dataset_random(2, NmpcConfig(), params, seed=11)
        np.testing.assert_array_equal(data.x, random_dataset.x[:2])
        np.testing.assert_array_equal(data.u, random_dataset.u[:2])
        assert data.provenance == random_dataset.provenance[:2]

    def test_trajectory_states_less_dispersed(self, trajectory_dataset, random_dataset):
        # closed-loop data concentrates near reachable operating states
        n = min(len(trajectory_dataset.x), len(random_dataset.x))
        scale = np.array([150.0, 2000.0])
        cov_t = np.cov((trajectory_dataset.x[:n, :2] / scale).T)
        cov_r = np.cov((random_dataset.x[:n, :2] / scale).T)
        assert np.trace(cov_t) < np.trace(cov_r)

    def test_concat_keeps_order_and_sums_discards(self, trajectory_dataset):
        a = replace(trajectory_dataset, discarded=2)
        b = Dataset(x=np.ones((1, 3)), u=np.ones((1, 2)), provenance=("closed-loop",),
                    seed=99, discarded=3)
        c = Dataset.concat(a, b)
        np.testing.assert_array_equal(c.x, np.vstack([a.x, b.x]))
        np.testing.assert_array_equal(c.u, np.vstack([a.u, b.u]))
        assert c.provenance == a.provenance + ("closed-loop",)
        assert (c.seed, c.discarded) == (a.seed, 5)

    def test_csv_roundtrip(self, tmp_path, trajectory_dataset):
        path = tmp_path / "data.csv"
        trajectory_dataset.save_csv(path)
        back = Dataset.load_csv(path)
        np.testing.assert_array_equal(back.x, trajectory_dataset.x)
        np.testing.assert_array_equal(back.u, trajectory_dataset.u)
        assert back.provenance == trajectory_dataset.provenance


SHIPPED_CSV = Path(__file__).resolve().parent.parent / "artifacts" / "train_random.csv"


def _set_field(line_no, field, value):
    """A mutation that replaces one field of one line."""
    def mutate(lines):
        row = lines[line_no].split(",")
        row[field] = value
        lines[line_no] = ",".join(row)
    return mutate


def _drop_column(lines):
    lines[:] = [",".join(f for k, f in enumerate(line.split(",")) if k != 4) for line in lines]


# each entry breaks exactly one rule of the file format
MALFORMED_CSVS = {
    "empty_file": lambda lines: lines.clear(),
    "missing_column": _drop_column,
    "renamed_column": _set_field(0, 1, "vc"),
    "short_row": lambda lines: lines.__setitem__(slice(1, None), [lines[1].rsplit(",", 1)[0]]),
    "long_row": _set_field(3, 5, "trajectory,extra"),
    "non_numeric": _set_field(5, 2, "12O0.5"),
    "empty_field": _set_field(7, 0, ""),
    "nan": _set_field(9, 1, "nan"),
    "infinity": _set_field(2, 3, "-inf"),
    "overflow": _set_field(4, 4, "1e999"),
    "unknown_provenance": _set_field(6, 5, "random-sta"),
}


class TestCsvLoader:
    def test_shipped_file_loads(self, random_dataset):
        assert random_dataset.x.shape == (600, 3) and random_dataset.u.shape == (600, 2)

    @pytest.mark.parametrize("name", sorted(MALFORMED_CSVS))
    def test_rejected(self, tmp_path, artifact_paths, name):
        lines = artifact_paths["train_random"].read_text().splitlines()
        MALFORMED_CSVS[name](lines)
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArgumentError):
            Dataset.load_csv(path)

    def test_header_only_file_is_an_empty_dataset(self, tmp_path, random_dataset):
        path = tmp_path / "data.csv"
        path.write_text(SHIPPED_CSV.read_text().splitlines()[0] + "\n")
        empty = Dataset.load_csv(path)
        assert (empty.x.shape, empty.u.shape, empty.provenance) == ((0, 3), (0, 2), ())
        joined = Dataset.concat(empty, random_dataset)
        np.testing.assert_array_equal(joined.x, random_dataset.x)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_or_mutated_rows(self, tmp_path_factory, random_dataset, data):
        # a truncated file either raises ArgumentError or, cut at a row's
        # end, loads the rows before the cut; a field that is dropped,
        # doubled, not a number or not finite always raises ArgumentError
        text = SHIPPED_CSV.read_text()
        kind = data.draw(st.sampled_from(["truncate", "drop", "double", "garble", "not_finite"]))
        if kind == "truncate":
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        else:
            lines = text.splitlines()
            for _ in range(data.draw(st.integers(1, 3))):
                k = data.draw(st.integers(1, len(lines) - 1))
                row = lines[k].split(",")
                i = data.draw(st.integers(0, len(row) - 1))
                if kind == "drop":
                    row.pop(i)
                elif kind == "double":
                    row.insert(i, row[i])
                elif kind == "garble":
                    row[i] = row[i][: data.draw(st.integers(0, 3))] + data.draw(
                        st.sampled_from(["x", " ,", "-+", "e", "..", "'"]))
                else:
                    row[min(i, 4)] = data.draw(
                        st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e400", "-2e308"]))
                lines[k] = ",".join(row)
            text = "\r\n".join(lines) + "\r\n"
        path = tmp_path_factory.mktemp("d") / "data.csv"
        path.write_text(text, newline="")
        if kind != "truncate":
            with pytest.raises(ArgumentError):
                Dataset.load_csv(path)
            return
        try:
            back = Dataset.load_csv(path)
        except ArgumentError:
            return
        n = len(back)
        np.testing.assert_array_equal(back.x, random_dataset.x[:n])
        np.testing.assert_array_equal(back.u, random_dataset.u[:n])
        assert back.provenance == random_dataset.provenance[:n]


class TestNetworkFile:
    def test_roundtrip_preserves_outputs(self, tmp_path, trained_net):
        path = tmp_path / "net.json"
        save_network(trained_net, path)
        back = load_network(path)
        rng = np.random.default_rng(8)
        x = rng.uniform([-150, -2000, 0], [150, 2000, 3000], size=(50, 3))
        np.testing.assert_array_equal(forward_batch(back, x), forward_batch(trained_net, x))

    def test_second_save_is_identical(self, tmp_path, trained_net):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_network(trained_net, p1)
        save_network(load_network(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_format_version_checked(self, tmp_path, trained_net):
        path = tmp_path / "net.json"
        save_network(trained_net, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ArgumentError):
            load_network(path)

    @pytest.mark.parametrize("activation", ["relu", "tnah"])
    def test_activation_checked(self, tmp_path, trained_net, activation):
        path = tmp_path / "net.json"
        save_network(trained_net, path)
        doc = json.loads(path.read_text())
        doc["activation"] = activation
        path.write_text(json.dumps(doc))
        with pytest.raises(ArgumentError):
            load_network(path)


SHIPPED_NET = Path(__file__).resolve().parent.parent / "artifacts" / "policy.json"


def _unchained_layers(doc):
    # layer 2 becomes 9 wide with consistent counts; layer 3 still takes 10
    doc["layers"][2] = 9
    doc["weights"][1] = doc["weights"][1][:90]
    doc["biases"][1] = doc["biases"][1][:9]


def _resized(layer, n_in, n_out):
    """A mutation that gives `layer` n_in inputs and n_out outputs with consistent counts."""
    def mutate(doc):
        doc["layers"][layer], doc["layers"][layer + 1] = n_in, n_out
        doc["weights"][layer] = [0.5] * (n_in * n_out)
        doc["biases"][layer] = [0.5] * n_out
    return mutate


# each entry breaks exactly one rule of the file format
MALFORMED_NETS = {
    "not_json": None,
    "bool_version": lambda d: d.update(format_version=True),
    "missing_layers": lambda d: d.pop("layers"),
    "layers_not_list": lambda d: d.update(layers=7),
    "first_layer_inputs": _resized(0, 4, 10),
    "last_layer_outputs": _resized(5, 10, 3),
    "zero_width_layer": lambda d: [_resized(0, 3, 0)(d), _resized(1, 0, 10)(d)],
    "layers_do_not_chain": _unchained_layers,
    "fewer_weight_lists": lambda d: d["weights"].pop(),
    "fewer_bias_lists": lambda d: d["biases"].pop(),
    "weight_count": lambda d: d["weights"][2].pop(),
    "bias_count": lambda d: d["biases"][0].append(0.0),
    "string_weight": lambda d: d["weights"][0].__setitem__(3, "0.1"),
    "bool_bias": lambda d: d["biases"][1].__setitem__(0, True),
    "weight_beyond_float32": lambda d: d["weights"][0].__setitem__(0, 1e39),
    "missing_input_box": lambda d: d.pop("input_box"),
    "input_box_length": lambda d: d["input_box"]["lo"].pop(),
    "output_box_length": lambda d: d["output_box"]["hi"].append(1.0),
    "box_not_increasing": lambda d: d["output_box"]["lo"].__setitem__(0, 1e6),
}


class TestLoaderRejectsMalformedFiles:
    def test_shipped_file_loads(self):
        net = load_network(SHIPPED_NET)
        assert net.layer_sizes == tuple(json.loads(SHIPPED_NET.read_text())["layers"])

    @pytest.mark.parametrize("name", sorted(MALFORMED_NETS))
    def test_rejected(self, tmp_path, name):
        path = tmp_path / "net.json"
        if MALFORMED_NETS[name] is None:
            path.write_text(SHIPPED_NET.read_text()[:-1])
        else:
            doc = json.loads(SHIPPED_NET.read_text())
            MALFORMED_NETS[name](doc)
            path.write_text(json.dumps(doc))
        with pytest.raises(ArgumentError):
            load_network(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, tmp_path, value):
        doc = json.loads(SHIPPED_NET.read_text())
        doc["biases"][2][4] = value
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))  # written as NaN / Infinity, which json reads back
        with pytest.raises(ArgumentError):
            load_network(path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_or_truncated_shipped_file_rejected(self, tmp_path_factory, data):
        # truncated text, a deleted key, a list entry of the wrong kind or
        # not finite, or one entry too few or too many: every one must
        # raise ArgumentError, nothing else
        text = SHIPPED_NET.read_text()
        doc = json.loads(text)
        lists = [(doc, k) for k in ("layers", "weights", "biases")]
        lists += [(doc[k], i) for k in ("weights", "biases") for i in range(len(doc[k]))]
        lists += [(doc[b], k) for b in ("input_box", "output_box") for k in ("lo", "hi")]
        kind = data.draw(st.sampled_from(
            ["truncate", "delete", "wrong_type", "not_finite", "shorter", "longer"]))
        if kind == "truncate":
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        else:
            if kind == "delete":
                del doc[data.draw(st.sampled_from(sorted(doc)))]
            else:
                owner, key = data.draw(st.sampled_from(lists))
                seq = owner[key]
                i = data.draw(st.integers(0, len(seq) - 1))
                if kind == "shorter":
                    seq.pop(i)
                elif kind == "longer":
                    seq.insert(i, seq[i])
                elif kind == "not_finite" and owner is not doc:
                    seq[i] = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
                else:
                    seq[i] = data.draw(st.sampled_from(["7", None, True, [], {"a": 1}]))
            text = json.dumps(doc)
        path = tmp_path_factory.mktemp("n") / "net.json"
        path.write_text(text)
        with pytest.raises(ArgumentError):
            load_network(path)
