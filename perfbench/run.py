"""resonmpc benchmark: solver labelling, learned controller and distillation.

    python3 perfbench/run.py --workload label|control|distill --seed N \
        --seconds S --trace 0|1

Run from a checkout of the repository: the package is imported from
./src and the shipped files are read from ./artifacts (never rebuilt).
One process, one caller: every call waits for the previous one.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same rounds
twice, untraced and then traced, prints the per-layer metrics with the
tracing overhead, and writes the spans to perfbench/out/.  The last line
of standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ARTIFACTS = ROOT / "artifacts"
OUT = HERE / "out"
NEEDED = (SRC / "resonmpc" / "__init__.py", ARTIFACTS / "policy.json",
          ARTIFACTS / "policy_q16.json", ARTIFACTS / "train_trajectory.csv")
WORKLOADS = ("label", "control", "distill")

# One caller and matrices of at most 10k x 10: a second BLAS thread would
# only add scheduling noise on the 2-CPU machine the bounds were set on.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
IMPORT_CODE = "import resonmpc.cli, resonmpc.config, resonmpc.harness"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


class Plan:
    """The workload's part and the inputs of its rounds, drawn on first use."""

    def __init__(self, ctx, parts, workload, seed):
        self.ctx = ctx
        self.part = parts.PARTS[workload]()
        self.key = (seed % 2**64, list(parts.PARTS).index(workload))  # numpy seeds are >= 0
        self._inputs = []
        self.inputs(0)

    def inputs(self, r):
        while len(self._inputs) <= r:
            self._inputs.append(self.part.inputs(self.ctx, self.key, len(self._inputs)))
        return self._inputs[r]


def setup(rm, parts, env, workload, seed):
    """Fresh-interpreter imports, artifact loads and input generation."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, check=True, timeout=120)
    ctx = parts.Context(rm, ARTIFACTS)
    plan = Plan(ctx, parts, workload, seed)
    return perf_counter() - t0, ctx, plan


def run_pass(parts, ctx, plan, budget_s=None, n_rounds=None, tracer=None):
    """Rounds of the workload's part, until `n_rounds`, or while the next
    round is expected to end within `budget_s` of the pass's start."""
    ledger, samples = parts.Ledger(), parts.Samples()
    part = type(plan.part)()  # a fresh part: rounds may carry state to the next
    t0 = perf_counter()
    rounds = 0
    while True:
        part.run(ctx, plan.inputs(rounds), ledger, samples, tracer)
        rounds += 1
        elapsed = perf_counter() - t0
        if n_rounds is not None:
            if rounds >= n_rounds:
                break
        elif rounds >= plan.part.min_rounds and elapsed * (1.0 + 0.5 / rounds) >= budget_s:
            break
    return ledger, samples, rounds, perf_counter() - t0


def metric_dict(values):
    out = {}
    for name, (value, unit) in values.items():
        if not math.isfinite(value):
            raise SystemExit(f"perfbench: metric {name} is not finite ({value})")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in NEEDED if not p.exists()]
    if missing:
        print(f"perfbench: not a checkout of the repository, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    import resonmpc.cli
    import resonmpc.config
    import resonmpc.harness
    import resonmpc.transform

    import parts
    import tracing

    rm = resonmpc
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blas_threads": BLAS_THREADS, "cpus": os.cpu_count()}
    if args.trace == 0:
        setup_s = []
        for _ in range(SETUP_REPS):
            dt, ctx, plan = setup(rm, parts, env, args.workload, args.seed)
            setup_s.append(dt)
        ledger, samples, rounds, wall = run_pass(parts, ctx, plan, budget_s=args.seconds)
        values = {"setup_s": (statistics.median(setup_s), "s"), **plan.part.metrics(samples)}
        info.update(rounds=rounds, wall_s=wall, setup_runs_s=setup_s,
                    max_power_gap_w=samples.power_gap_w,
                    samples={k: [len(v), statistics.fmean(v)] for k, v in vars(samples).items()
                             if isinstance(v, list) and v})
        ledgers = [ledger]
    else:
        _, ctx, plan = setup(rm, parts, env, args.workload, args.seed)
        plain, _, rounds, wall_plain = run_pass(parts, ctx, plan, budget_s=args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(rm)
        try:
            ctx.load()
            traced, _, _, wall_traced = run_pass(parts, ctx, plan, n_rounds=rounds, tracer=tracer)
        finally:
            tracer.remove()
        overhead = 100.0 * (wall_traced / wall_plain - 1.0)
        values = tracing.per_layer(tracer.spans, tracer.counts, wall_traced, overhead)
        info.update(rounds=rounds, wall_untraced_s=wall_plain, wall_traced_s=wall_traced)
        ledgers = [plain, traced]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"info": info, "metrics": values})

    attempted = sum(lg.attempted for lg in ledgers)
    failed = sum(lg.failed for lg in ledgers)
    wrong = sum(lg.wrong for lg in ledgers)
    for lg in ledgers:
        for msg in lg.messages[:20]:
            print(f"perfbench: {msg}", file=sys.stderr)
    info.update(attempted=attempted, failed=failed)
    print("# " + json.dumps(info))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metric_dict(values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
