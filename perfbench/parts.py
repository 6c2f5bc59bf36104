"""The three parts of the pipeline the benchmark drives, one round at a time.

Every part draws a round's inputs from the seed (`inputs`), then
runs the round (`run`): it calls the package through its public functions,
times the calls, and checks every output with `checks`.  All package calls
go through module attributes (`nmpc.solve`, not a local name), so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import traceback
from dataclasses import replace
from time import perf_counter

import numpy as np

import checks

PLANT_ERROR = 0.15  # R and L factors drawn from U[0.85, 1.15]
LABEL_SEED = 0  # program seed of the labelling calls
LABEL_TRAJ_STEPS = 10  # cycles of the labelling trajectory
LABEL_ROUNDS = {0: "random", 3: "trajectories"}  # round that makes each labelling call
COLD_STATES = 8  # cold solves per run, one per round from round 0
LATENCY_STEPS = 10  # warm controller steps per trajectory segment
SETPOINTS = (500.0, 3000.0)  # W; segment setpoints, the range run_benchmark draws from
GRID = [(r_err, l_err, p_des) for r_err in (-0.15, 0.0, 0.15) for l_err in (-0.15, 0.0, 0.15)
        for p_des in (1000.0, 2000.0, 3000.0)]  # run_param_grid's 27 cells
REPLAY = 50  # visited states replayed one call at a time, per round
REPEAT = 10  # of those, re-evaluated by forward_q to test bit-exactness
SUBSAMPLE = 2000  # training rows drawn from train_trajectory.csv
EPOCHS = 20
BATCH = 10_000  # inputs of one forward_batch / forward_q_batch call
BATCH_REPS = 2
ROW_CHECK = 32  # forward_q_batch rows compared with per-sample forward_q
GRAD_ROWS = 16  # minibatch of the gradient check
GRAD_H = 1e-6


def _kronecker(d):
    """Additive-recurrence steps 1/g^k, g the positive root of x^(d+1) = x + 1."""
    g = 2.0
    for _ in range(100):
        g = (1.0 + g) ** (1.0 / (d + 1))
    return (1.0 / g) ** np.arange(1, d + 1)


KRONECKER_3 = _kronecker(3)


class Ledger:
    """Operations attempted and failed, and why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed because a check rejected the output
        self.messages = []

    def call(self, what, fn, *args, **kwargs):
        """(result, seconds) of one package call; (None, seconds) if it raised."""
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # the operation failed; keep measuring the rest
            dt = perf_counter() - t0
            self.attempted += 1
            self.failed += 1
            self.messages.append(f"{what} raised:\n{traceback.format_exc()}")
            return None, dt
        return out, perf_counter() - t0

    def check(self, problems):
        """One operation, judged by the messages of its checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += 1
            self.messages.extend(problems)

    def check_rows(self, n, bad_sets, what):
        """n one-call operations; bad_sets hold the indices each check rejected."""
        bad = set()
        for rows in bad_sets:
            bad.update(int(i) for i in rows)
        self.attempted += n
        if bad:
            self.failed += len(bad)
            self.wrong += len(bad)
            self.messages.append(f"{what}: {len(bad)} of {n} outputs rejected, e.g. row {min(bad)}")


class Samples:
    """Raw measurements of one pass; each part turns its own into metrics."""

    def __init__(self):
        self.labels = 0
        self.label_s = 0.0
        self.cold_ms, self.warm_ms = [], []
        self.power_gap_w = 0.0  # solver-predicted vs charge-balance power
        self.dnn_us, self.dnnq_us = [], []
        self.loop_cycles = 0
        self.loop_s = 0.0
        self.sample_epochs = 0
        self.train_s = 0.0
        self.batch_s, self.qbatch_s = [], []


def _median(xs):
    return float(np.median(xs))


class Context:
    """Package modules, the nominal converter and the shipped artifacts."""

    def __init__(self, rm, artifacts):
        self.rm = rm
        self.params = rm.config.DEFAULT_CONVERTER
        self.cfg = rm.nmpc.NmpcConfig()
        self.lo = np.asarray(rm.policy.DEFAULT_INPUT_LO)
        self.hi = np.asarray(rm.policy.DEFAULT_INPUT_HI)
        self.artifacts = artifacts
        self.load()

    def load(self):
        rm, a = self.rm, self.artifacts
        self.net = rm.policy.load_network(a / "policy.json")
        self.qnet = rm.quant.load_quantized(a / "policy_q16.json")
        self.trajectories = rm.policy.Dataset.load_csv(a / "train_trajectory.csv")
        self.reference = checks.NumpyPolicy.from_json(
            json.loads((a / "policy.json").read_text()))


class Label:
    """Solver labelling calls, cold solves, and one warm controller trajectory.

    Each of the first COLD_STATES rounds makes a cold solve from one state
    and setpoint of a fixed design over the sampling box.  Every round then
    runs a segment of warm controller steps with a drawn setpoint on a plant
    with drawn R and L.  The controller and the plant state carry over from
    one segment to the next, as in a deployed converter whose setpoint
    steps; the first segment starts from the first converged cold solve.
    Rounds 0 and 3 also make one labelling call each.
    """

    name = "label"
    min_rounds = max(COLD_STATES, max(LABEL_ROUNDS) + 1)

    def __init__(self):
        self.ctrl = None  # the trajectory's controller, once started
        self.state = None

    def inputs(self, ctx, key, r):
        # Points of a 3-dimensional Kronecker sequence: every coordinate is
        # uniform, and any number of consecutive points covers the cube
        # evenly.  The cold design is its first COLD_STATES points, the same
        # in every run: a cold solve takes 0.5-5 s depending on the state,
        # with no smooth pattern, and with ~15 seeded draws per run the
        # median spread 0.21 over ten seeds.  The segments use
        # the sequence shifted by three seeded uniforms.
        shift = np.random.default_rng(key).random(3)
        u = (shift + (r + 1) * KRONECKER_3) % 1.0
        cold = ctx.lo + ((r + 1) * KRONECKER_3 % 1.0) * (ctx.hi - ctx.lo)
        return {"cold": cold if r < COLD_STATES else None,
                "p_des": SETPOINTS[0] + u[0] * (SETPOINTS[1] - SETPOINTS[0]),
                "factors": 1.0 - PLANT_ERROR + 2.0 * PLANT_ERROR * u[1:],
                "labelling": LABEL_ROUNDS.get(r)}

    @staticmethod
    def metrics(samples):
        return {
            "work_per_s": (samples.labels / samples.label_s, "1/s"),  # labels kept
            "call_ms": (_median(samples.warm_ms), "ms"),  # warm controller step
            "alt_call_ms": (_median(samples.cold_ms), "ms"),  # cold solve
        }

    @staticmethod
    def _label(ctx, kind, ledger, samples):
        """One labelling call as the artifact rebuild makes them (fixed program seed)."""
        policy, cfg, p = ctx.rm.policy, ctx.cfg, ctx.params
        if kind == "random":
            what = "generate_dataset_random"
            ds, dt = ledger.call(what, policy.generate_dataset_random, 1, cfg, p,
                                 seed=LABEL_SEED)
        else:
            what = "generate_dataset_trajectories"
            ds, dt = ledger.call(what, policy.generate_dataset_trajectories, 1,
                                 LABEL_TRAJ_STEPS, cfg, p, seed=LABEL_SEED,
                                 plant_error=PLANT_ERROR)
        if ds is not None:
            samples.labels += len(ds)
            samples.label_s += dt
            ledger.check(checks.check_in_box(cfg, ds.u, what))

    def run(self, ctx, inp, ledger, samples, tracer):
        rm, cfg, p = ctx.rm, ctx.cfg, ctx.params
        if inp["labelling"]:
            self._label(ctx, inp["labelling"], ledger, samples)
        if inp["cold"] is not None:
            self._cold(ctx, inp["cold"], ledger, samples, tracer)
        if self.ctrl is None:
            return  # the trajectory starts from the first converged cold solve

        p_des = float(inp["p_des"])
        fr, fl = inp["factors"]
        plant = replace(p, r_l=p.r_l * fr, l_r=p.l_r * fl)
        for _ in range(LATENCY_STEPS):
            u = self.ctrl.last_input
            self.state = rm.plant.simulate_cycle(self.state, plant, u, n_trace=2).state_end
            out, dt = ledger.call("controller step", self.ctrl.step, self.state, p_des)
            if out is None:
                return
            samples.warm_ms.append(1e3 * dt)
            u, status = out
            problems = checks.check_in_box(cfg, [(u.f_sw, u.duty)], "controller step")
            if status == "converged":
                plan = [(v.f_sw, v.duty) for v in self.ctrl.last_solution.inputs]
                problems += checks.check_plan_zvs(
                    p, cfg, (self.state.i_o, self.state.v_c), plan, "controller step")
            ledger.check(problems)

    def _cold(self, ctx, draw, ledger, samples, tracer):
        rm, cfg, p = ctx.rm, ctx.cfg, ctx.params
        x0, p_des = rm.plant.PlantState(float(draw[0]), float(draw[1])), float(draw[2])
        sol, dt = ledger.call("cold solve", rm.nmpc.solve, x0, p_des, cfg, p)
        if sol is None:
            return
        samples.cold_ms.append(1e3 * dt)
        ledger.check(self._cold_problems(ctx, samples, tracer, x0, p_des, sol))
        if self.ctrl is None and sol.status == "converged":
            self.ctrl = rm.nmpc.RecedingHorizonController(cfg, p)
            self.ctrl.last_solution = sol
            self.ctrl.last_input = sol.first_input
            self.state = x0

    @staticmethod
    def _cold_problems(ctx, samples, tracer, x0, p_des, sol):
        """Box, plan ZVS and oracle dominance of a cold solve; records the power gap."""
        rm, cfg, p = ctx.rm, ctx.cfg, ctx.params
        pairs = [(u.f_sw, u.duty) for u in sol.inputs]
        problems = checks.check_in_box(cfg, pairs, "cold solve")
        if sol.status != "converged":
            return problems
        problems += checks.check_plan_zvs(p, cfg, (x0.i_o, x0.v_c), pairs, "cold solve")
        _, oracle_cost, feasible = rm.nmpc.brute_force_oracle(x0, p_des, cfg, p)
        if feasible:
            problems += checks.check_oracle(sol.cost, oracle_cost, "cold solve")
        with paused(tracer):
            exact = [checks.charge_balance_power(p, (s.i_o, s.v_c), f, d)
                     for s, (f, d) in zip(sol.boundary_states[0::2], pairs)]
        gap = float(np.max(np.abs(np.asarray(exact) - np.asarray(sol.powers))))
        samples.power_gap_w = max(samples.power_gap_w, gap)
        return problems


@contextlib.contextmanager
def paused(tracer):
    """Keeps the calls a check makes out of the trace."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


@contextlib.contextmanager
def captured_runs(harness):
    """Collects (scenario, records) of every run_closed_loop call, for the checks."""
    runs = []
    inner = harness.run_closed_loop

    def capture(sc, *args, **kwargs):
        out = inner(sc, *args, **kwargs)
        runs.append((sc, out[0]))
        return out

    harness.run_closed_loop = capture
    try:
        yield runs
    finally:
        harness.run_closed_loop = inner


class Control:
    """The learned controller in closed loop, then per-sample replay.

    A round runs one nominal and one ±15 % random-setpoint campaign run for
    both network kinds, one cell of the 27-cell grid (cells in turn), then
    replays states the round visited through forward and forward_q.
    """

    name = "control"
    min_rounds = 1
    kinds = ("dnn", "dnn-quant")

    def inputs(self, ctx, key, r):
        rng = np.random.default_rng([*key, r])
        return {"campaign_seed": int(rng.integers(1 << 30)), "cell": GRID[r % len(GRID)],
                "replay_seed": int(rng.integers(1 << 62))}

    @staticmethod
    def metrics(samples):
        # means, not medians: a call takes about as long as the machine's
        # speed of the moment, and the median snaps to whichever of its two
        # speeds held for more than half of the run
        return {
            "work_per_s": (samples.loop_cycles / samples.loop_s, "1/s"),  # switching cycles
            "call_ms": (1e-3 * statistics.fmean(samples.dnn_us), "ms"),  # policy.forward
            "alt_call_ms": (1e-3 * statistics.fmean(samples.dnnq_us), "ms"),  # quant.forward_q
        }

    def run(self, ctx, inp, ledger, samples, tracer):
        rm, cfg, p = ctx.rm, ctx.cfg, ctx.params
        harness = rm.harness
        seed = inp["campaign_seed"]
        r_err, l_err, p_des = inp["cell"]
        with captured_runs(harness) as runs:
            nominal, t_nom = ledger.call(
                "nominal campaign", harness.run_benchmark, 1, self.kinds, p,
                nmpc_config=cfg, net=ctx.net, qnet=ctx.qnet, param_error=0.0, seed=seed)
            _, t_err = ledger.call(
                "±15 % campaign", harness.run_benchmark, 1, self.kinds, p,
                nmpc_config=cfg, net=ctx.net, qnet=ctx.qnet, param_error=PLANT_ERROR,
                seed=seed + 1)
            grid, t_grid = ledger.call(
                "grid cell", harness.run_param_grid, p, ctx.qnet, nmpc_config=cfg,
                setpoints=(p_des,), r_errors=(r_err,), l_errors=(l_err,))
        samples.loop_s += t_nom + t_err + t_grid
        samples.loop_cycles += sum(len(records) for _, records in runs)
        with paused(tracer):
            for sc, records in runs:
                ledger.check(checks.check_record_powers(
                    sc.plant_params, records, f"{sc.controller} run"))
            if nominal is not None:
                ledger.check(checks.check_campaign_zvs(nominal, "nominal campaign"))
            if grid is not None:
                ledger.check(checks.check_grid(grid))
        if not runs:
            return

        visited = np.array([(r.io_start_a, r.vc_start_v, r.p_des_corrected_w)
                            for _, records in runs for r in records])
        rng = np.random.default_rng(inp["replay_seed"])
        x = visited[rng.choice(len(visited), min(REPLAY, len(visited)), replace=False)]
        u_f = np.empty((len(x), 2))
        u_q = np.empty((len(x), 2))
        forward, forward_q = rm.policy.forward, rm.quant.forward_q
        for k, xk in enumerate(x):  # the two kinds alternate, so they see the same machine
            t0 = perf_counter()
            u = forward(ctx.net, xk)
            t1 = perf_counter()
            v = forward_q(ctx.qnet, xk)
            t2 = perf_counter()
            samples.dnn_us.append(1e6 * (t1 - t0))
            samples.dnnq_us.append(1e6 * (t2 - t1))
            u_f[k] = u.f_sw, u.duty
            u_q[k] = v.f_sw, v.duty
        with paused(tracer):
            ledger.check_rows(len(x), [checks.bad_forward_rows(ctx.reference, x, u_f)],
                              "forward")
            rows = rng.choice(len(x), min(REPEAT, len(x)), replace=False)
            again = np.array([(v.f_sw, v.duty) for v in (forward_q(ctx.qnet, xk) for xk in x[rows])])
            ledger.check_rows(len(x), [
                checks.bad_quantized_rows(ctx.reference.half, u_f, u_q),
                rows[checks.bad_unequal_rows(u_q[rows], again)],
            ], "forward_q")
            if tracer is not None:
                report = rm.quant.quantization_report(ctx.net, ctx.qnet, x)
                tracer.count("quant.saturations", report["saturation_events"])


class Distill:
    """Training from a seeded subsample, quantization and batch inference."""

    name = "distill"
    min_rounds = 1

    @staticmethod
    def metrics(samples):
        # means over the run, not medians: the machine alternates between
        # two speeds, and the median of per-call times jumps between them
        return {
            "work_per_s": (samples.sample_epochs / samples.train_s, "1/s"),  # training rows x epochs
            "call_ms": (1e3 * statistics.fmean(samples.batch_s), "ms"),  # forward_batch, 10k inputs
            "alt_call_ms": (1e3 * statistics.fmean(samples.qbatch_s), "ms"),  # forward_q_batch
        }

    def inputs(self, ctx, key, r):
        rng = np.random.default_rng([*key, r])
        rows = rng.choice(len(ctx.trajectories), SUBSAMPLE, replace=False)
        return {"rows": rows, "net_seed": int(rng.integers(1 << 30)),
                "batch": rng.uniform(ctx.lo, ctx.hi, size=(BATCH, 3)),
                "check_rows": rng.choice(BATCH, ROW_CHECK, replace=False),
                "grad_seed": int(rng.integers(1 << 30))}

    def run(self, ctx, inp, ledger, samples, tracer):
        policy, quant = ctx.rm.policy, ctx.rm.quant
        ds, rows = ctx.trajectories, inp["rows"]
        data = policy.Dataset(x=ds.x[rows], u=ds.u[rows],
                              provenance=tuple(ds.provenance[i] for i in rows), seed=0)
        tcfg = policy.TrainConfig(epochs=EPOCHS, seed=inp["net_seed"])
        net0 = policy.init_network(seed=inp["net_seed"])
        out, dt = ledger.call("train", policy.train, data, tcfg, net0)
        if out is None:
            return
        net, history = out
        n_train = len(data) - int(round(tcfg.validation_fraction * len(data)))
        samples.sample_epochs += n_train * EPOCHS
        samples.train_s += dt
        with paused(tracer):
            ledger.check(checks.check_loss_falls(history, "train"))
            ledger.check(self._gradient_problems(policy, net, data, inp["grad_seed"]))

        qnet, _ = ledger.call("quantize", quant.quantize, net, data.x)
        x = inp["batch"]
        reference = checks.NumpyPolicy.from_network(net)
        first = None
        for _ in range(BATCH_REPS):
            u, dt = ledger.call("forward_batch", policy.forward_batch, net, x)
            if u is None:
                continue
            samples.batch_s.append(dt)
            if first is None:
                first = u
                bad = checks.bad_forward_rows(reference, x, u)
            else:
                bad = checks.bad_unequal_rows(u, first)
            ledger.check([f"forward_batch: {len(bad)} rows rejected"] if len(bad) else [])
        if qnet is None:
            return
        first = None
        for _ in range(BATCH_REPS):
            u, dt = ledger.call("forward_q_batch", quant.forward_q_batch, qnet, x)
            if u is None:
                continue
            samples.qbatch_s.append(dt)
            if first is None:
                first = u
                r = inp["check_rows"]
                with paused(tracer):
                    single = np.array([(v.f_sw, v.duty)
                                       for v in (quant.forward_q(qnet, xk) for xk in x[r])])
                bad = checks.bad_unequal_rows(u[r], single)
            else:
                bad = checks.bad_unequal_rows(u, first)
            ledger.check([f"forward_q_batch: {len(bad)} rows rejected"] if len(bad) else [])
        if tracer is not None:
            with paused(tracer):
                tracer.count("quant.saturations",
                             quant.quantization_report(net, qnet, x)["saturation_events"])

    @staticmethod
    def _gradient_problems(policy, net, data, seed):
        """Backprop on a minibatch against central differences of loss_value."""
        rng = np.random.default_rng(seed)
        net = replace(net, weights=tuple(np.asarray(w, dtype=float) for w in net.weights),
                      biases=tuple(np.asarray(b, dtype=float) for b in net.biases))
        rows = rng.choice(len(data), GRAD_ROWS, replace=False)
        xb, tb = data.x[rows], data.u[rows]
        g_w, g_b = policy.backprop_gradients(net, xb, tb)
        analytic, numeric = [], []
        for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
            for kind, arr, grad in (("weights", w, g_w[layer]), ("biases", b, g_b[layer])):
                flat = int(rng.integers(arr.size))
                loss = []
                for step in (GRAD_H, -GRAD_H):
                    params = [q.copy() for q in (net.weights if kind == "weights" else net.biases)]
                    params[layer].flat[flat] += step
                    loss.append(policy.loss_value(replace(net, **{kind: tuple(params)}), xb, tb))
                analytic.append(grad.flat[flat])
                numeric.append((loss[0] - loss[1]) / (2 * GRAD_H))
        return checks.check_gradients(analytic, numeric, "backprop_gradients")


PARTS = {part.name: part for part in (Label, Control, Distill)}
