"""Command-line front end for the converter control pipeline.

Subcommands cover the whole workflow: simulate a closed-loop scenario,
solve a single horizon problem, generate training data, train and
quantize the policy network, and run the random-setpoint campaign and
the parameter-error grid.  Exit codes: 0 success, 1 argument or config
error, 2 numeric failure, 3 a gated benchmark threshold was missed (for
CI use).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import harness, policy, quant
from .config import AppConfig, load_config, parse_config
from .errors import ArgumentError, NumericError, ResonMpcError
from .nmpc import solve as nmpc_solve
from .plant import PlantState

EXIT_OK = 0
EXIT_ARGUMENT = 1
EXIT_NUMERIC = 2
EXIT_THRESHOLD = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors raise instead of exiting with 2."""

    def error(self, message):
        raise ArgumentError(message)


def _seed(text: str) -> int:
    """A --seed value; numpy's generators take non-negative integers only."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _load_app_config(args) -> AppConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return parse_config({})


def _cmd_simulate(args) -> int:
    cfg = _load_app_config(args)
    sc = cfg.scenario
    if sc is None:
        raise ArgumentError("config has no scenario section")
    net = policy.load_network(args.net) if args.net else None
    qnet = quant.load_quantized(args.qnet) if args.qnet else None
    records, metrics = harness.run_closed_loop(
        sc, nmpc_config=cfg.nmpc, net=net, qnet=qnet
    )
    if args.trace_out:
        harness.write_trace_csv(records, args.trace_out)
    summary = {"controller": sc.controller, **asdict(metrics)}
    if args.summary_out:
        harness.write_summary_json(summary, args.summary_out)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = _load_app_config(args)
    sol = nmpc_solve(PlantState(args.io, args.vc), args.pdes, cfg.nmpc, cfg.converter)
    out = {
        "status": sol.status,
        "cost": sol.cost,
        "initial_state_zvs_ok": sol.initial_state_zvs_ok,
        "inputs": [{"fsw_hz": u.f_sw, "duty": u.duty} for u in sol.inputs],
        "predicted_powers_w": list(sol.powers),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    cfg = _load_app_config(args)
    if args.kind == "random":
        data = policy.generate_dataset_random(
            args.n, cfg.nmpc, cfg.converter, seed=args.seed
        )
    else:
        data = policy.generate_dataset_trajectories(
            args.n_traj, args.steps, cfg.nmpc, cfg.converter, seed=args.seed,
            plant_error=args.plant_error,
        )
    data.save_csv(args.out)
    print(f"wrote {len(data.x)} samples to {args.out} ({data.discarded} discarded)")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_app_config(args)
    data = policy.Dataset.load_csv(args.data)
    net = policy.init_network(seed=cfg.train.seed, config=cfg.nmpc)
    trained, history = policy.train(data, cfg.train, net=net)
    policy.save_network(trained, args.out)
    best_val = f"{min(history['val']):.3e}" if history["val"] else "n/a"
    print(
        f"trained on {len(data.x)} samples; "
        f"final train loss {history['train'][-1]:.3e}, best val loss {best_val}"
    )
    if args.history_out:
        harness.write_summary_json(history, args.history_out)
    return EXIT_OK


def _cmd_quantize(args) -> int:
    net = policy.load_network(args.net)
    if args.calib:
        calib = policy.Dataset.load_csv(args.calib).x
    else:
        calib = policy.sampling_box(10000, args.seed)
    qnet = quant.quantize(net, calib)
    quant.save_quantized(qnet, args.out)
    report = quant.quantization_report(net, qnet, policy.sampling_box(10000, args.seed + 1))
    if args.report_out:
        harness.write_summary_json(report, args.report_out)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _load_app_config(args)
    controllers = args.controllers.split(",")
    net = policy.load_network(args.net) if args.net else None
    qnet = quant.load_quantized(args.qnet) if args.qnet else None
    summary = harness.run_benchmark(
        args.n_runs,
        controllers,
        cfg.converter,
        nmpc_config=cfg.nmpc,
        net=net,
        qnet=qnet,
        param_error=args.param_error,
        seed=args.seed,
        n_jobs=args.jobs,
    )
    if args.out:
        harness.write_summary_json(summary, args.out)
    printable = {
        k: {
            "mean_tracking_error_w": v["mean_tracking_error_w"],
            "zvs_violation_pct": v["zvs_violation_pct"],
        }
        for k, v in summary["controllers"].items()
    }
    print(json.dumps(printable, indent=2))
    if args.gate_zvs_pct is not None:
        worst = max(v["zvs_violation_pct"] for v in summary["controllers"].values())
        if worst > args.gate_zvs_pct:
            print(f"gate failed: ZVS violation {worst:.4f}% > {args.gate_zvs_pct}%")
            return EXIT_THRESHOLD
    if args.gate_ratio is not None:
        if "exact-nmpc" not in controllers or len(controllers) < 2:
            raise ArgumentError("--gate-ratio needs exact-nmpc plus another controller")
        ref = summary["controllers"]["exact-nmpc"]["mean_tracking_error_w"]
        for kind in controllers:
            if kind == "exact-nmpc":
                continue
            ratio = summary["controllers"][kind]["mean_tracking_error_w"] / ref
            if ratio > args.gate_ratio:
                print(f"gate failed: {kind} error ratio {ratio:.3f} > {args.gate_ratio}")
                return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_grid(args) -> int:
    cfg = _load_app_config(args)
    qnet = quant.load_quantized(args.qnet)
    result = harness.run_param_grid(
        cfg.converter,
        qnet,
        nmpc_config=cfg.nmpc,
        correction=not args.no_correction,
    )
    if args.out:
        harness.write_summary_json(result, args.out)
    cells = result["cells"]
    worst = max(c["steady_state_error_w"] for c in cells)
    zvs = max(c["zvs_violation_pct"] for c in cells)
    # the cell at fault: one that loses soft switching, if any, else the
    # one with the largest steady-state error
    cell = max(cells, key=lambda c: (c["zvs_violation_pct"] > 0.0, c["steady_state_error_w"]))
    print(f"worst steady-state error {worst:.4f} W, worst ZVS violation {zvs:.4f}%; "
          f"worst cell R {cell['r_error']:+.0%}, L {cell['l_error']:+.0%}, "
          f"{cell['p_des_w']:.0f} W: error {cell['steady_state_error_w']:.4f} W, "
          f"ZVS violations {cell['zvs_violation_pct']:.4f}%")
    if args.gate_error_w is not None and (worst >= args.gate_error_w or zvs > 0.0):
        print(f"gate failed against {args.gate_error_w} W / 0% ZVS")
        return EXIT_THRESHOLD
    return EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="resonmpc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_config(sp):
        sp.add_argument("--config", help="JSON config file")

    sp = sub.add_parser("simulate", help="run one closed-loop scenario")
    add_config(sp)
    sp.add_argument("--net", help="policy network JSON (for controller dnn)")
    sp.add_argument("--qnet", help="quantized network JSON (for controller dnn-quant)")
    sp.add_argument("--trace-out", help="per-cycle trace CSV path")
    sp.add_argument("--summary-out", help="metrics JSON path")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("solve", help="solve one horizon problem and print it")
    add_config(sp)
    sp.add_argument("--io", type=float, required=True, help="initial current [A]")
    sp.add_argument("--vc", type=float, required=True, help="initial capacitor voltage [V]")
    sp.add_argument("--pdes", type=float, required=True, help="power setpoint [W]")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("gen-data", help="generate a labeled training dataset")
    add_config(sp)
    sp.add_argument("kind", choices=["random", "trajectory"])
    sp.add_argument("--n", type=int, default=1000, help="samples (random kind)")
    sp.add_argument("--n-traj", type=int, default=50, help="trajectories (trajectory kind)")
    sp.add_argument("--steps", type=int, default=20, help="cycles per trajectory")
    sp.add_argument(
        "--plant-error", type=float, default=0.0,
        help="per-trajectory uniform R/L perturbation (trajectory kind)",
    )
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True, help="dataset CSV path")
    sp.set_defaults(func=_cmd_gen_data)

    sp = sub.add_parser("train", help="train the policy network on a dataset")
    add_config(sp)
    sp.add_argument("--data", required=True, help="dataset CSV")
    sp.add_argument("--out", required=True, help="network JSON path")
    sp.add_argument("--history-out", help="loss history JSON path")
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("quantize", help="fixed-point quantize a trained network")
    sp.add_argument("--net", required=True, help="network JSON")
    sp.add_argument("--out", required=True, help="quantized network JSON path")
    sp.add_argument("--calib", help="calibration dataset CSV (default: sampled box)")
    sp.add_argument("--report-out", help="accuracy report JSON path")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.set_defaults(func=_cmd_quantize)

    sp = sub.add_parser("bench", help="random-setpoint benchmark campaign")
    add_config(sp)
    sp.add_argument("--controllers", default="exact-nmpc,dnn",
                    help="comma-separated controller kinds")
    sp.add_argument("--net", help="policy network JSON")
    sp.add_argument("--qnet", help="quantized network JSON")
    sp.add_argument("--n-runs", type=int, default=100)
    sp.add_argument("--param-error", type=float, default=0.0,
                    help="uniform relative error applied to plant R and L")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", help="summary JSON path")
    sp.add_argument("--gate-ratio", type=float,
                    help="fail (exit 3) if any controller/exact error ratio exceeds this")
    sp.add_argument("--gate-zvs-pct", type=float,
                    help="fail (exit 3) if any controller violates ZVS more than this %%")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("grid", help="parameter-error grid with the quantized policy")
    add_config(sp)
    sp.add_argument("--qnet", required=True, help="quantized network JSON")
    sp.add_argument("--no-correction", action="store_true")
    sp.add_argument("--out", help="summary JSON path")
    sp.add_argument("--gate-error-w", type=float,
                    help="fail (exit 3) if worst steady-state error reaches this [W]")
    sp.set_defaults(func=_cmd_grid)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ResonMpcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT


if __name__ == "__main__":
    sys.exit(main())
