"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces each traced function by a wrapper in every module
namespace that calls it (the package imports most functions by name), and
`Tracer.remove` puts the originals back.  Spans are kept in memory as
[name, start, end, parent index, attrs] lists and written out at the end.
`per_layer` turns the spans of one traced pass into the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter


def _solve_attrs(args, kwargs, sol):
    warm = kwargs.get("warm", args[4] if len(args) > 4 else None)
    return {"cold": warm is None, "status": sol.status, "iterations": sol.iterations}


def _minimize_attrs(args, kwargs, res):
    return {"nfev": int(res.nfev), "njev": int(getattr(res, "njev", 0))}


def _closed_loop_attrs(args, kwargs, result):
    return {"cycles": len(result[0])}


def _dataset_attrs(args, kwargs, ds):
    return {"kept": len(ds)}


def _targets(rm):
    """(span name, owners whose attribute is replaced, attribute, attrs hook)."""
    nmpc, plant, policy, quant, harness, transform = (
        rm.nmpc, rm.plant, rm.policy, rm.quant, rm.harness, rm.transform)
    return [
        ("nmpc.solve", (nmpc, policy), "solve", _solve_attrs),
        ("nmpc.minimize", (nmpc,), "minimize", _minimize_attrs),
        ("nmpc.step", (nmpc.RecedingHorizonController,), "step", None),
        ("nmpc.brute_force_oracle", (nmpc,), "brute_force_oracle", None),
        ("transform.collocation_grid", (transform,), "collocation_grid", None),
        ("plant.simulate_cycle", (plant, policy, harness), "simulate_cycle", None),
        ("policy.forward", (policy, harness), "forward", None),
        ("policy.forward_batch", (policy,), "forward_batch", None),
        ("policy.backprop_gradients", (policy,), "backprop_gradients", None),
        ("policy.loss_value", (policy,), "loss_value", None),
        ("policy.train", (policy,), "train", None),
        ("policy.generate_dataset_random", (policy,), "generate_dataset_random", _dataset_attrs),
        ("policy.generate_dataset_trajectories", (policy,), "generate_dataset_trajectories",
         _dataset_attrs),
        ("policy.load_network", (policy,), "load_network", None),
        ("policy.Dataset.load_csv", (policy.Dataset,), "load_csv", None),
        ("quant.forward_q", (quant, harness), "forward_q", None),
        ("quant.forward_q_batch", (quant,), "forward_q_batch", None),
        ("quant.quantize", (quant,), "quantize", None),
        ("quant.load_quantized", (quant,), "load_quantized", None),
        ("harness.run_closed_loop", (harness,), "run_closed_loop", _closed_loop_attrs),
    ]


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # counters the benchmark adds itself (saturations)
        self.paused = False
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, attrs_hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if attrs_hook is not None:
                span[4] = {}  # stays empty if the call raises
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if attrs_hook is not None:
                span[4] = attrs_hook(args, kwargs, result)
            return result

        return traced

    def install(self, rm):
        for name, owners, attr, hook in _targets(rm):
            for owner in owners:
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, hook))
                else:
                    new = self.wrap(name, raw, hook)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)

    def remove(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def write(self, path, extra):
        doc = dict(extra)
        doc["spans"] = [
            {"name": s[0], "start_us": round(1e6 * s[1], 3), "dur_us": round(1e6 * (s[2] - s[1]), 3),
             "parent": s[3], **({"attrs": s[4]} if s[4] else {})}
            for s in self.spans
        ]
        path.write_text(json.dumps(doc))


def per_layer(spans, counts, wall_s, overhead_pct):
    """Per-layer metrics of one traced pass; `wall_s` is the pass's wall time.

    Every workload reports every metric.  A layer that did not run reads 0
    calls and a 0 share; the only times in milliseconds are the artifact
    loads, which every workload makes.  A share is time in the layer's
    spans over `wall_s`; a self share leaves out the child spans.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def share(ids, self_time=False):
        return sum(dur[i] - (child[i] if self_time else 0.0) for i in ids) / wall_s

    def load_ms(name):
        return 1e3 * statistics.median([dur[i] for i in idx(name)])

    def has_ancestor(i, j):
        p = spans[i][3]
        while p >= 0:
            if p == j:
                return True
            p = spans[p][3]
        return False

    solves = idx("nmpc.solve")
    n_solve = max(1, len(solves))
    cold = [i for i in solves if spans[i][4].get("cold", True)]
    warm = [i for i in solves if not spans[i][4].get("cold", True)]
    minimizes = idx("nmpc.minimize")

    def discarded(name):
        """Solves made inside the labelling call that did not become labels."""
        return sum(sum(1 for i in solves if has_ancestor(i, j)) - spans[j][4].get("kept", 0)
                   for j in idx(name))

    closed = idx("harness.run_closed_loop")
    forward_set = set(idx("policy.forward"))
    batch = [i for i in idx("policy.forward_batch") if spans[i][3] not in forward_set]
    m = {
        "nmpc.solve.calls_cold": (len(cold), "count"),
        "nmpc.solve.calls_warm": (len(warm), "count"),
        "nmpc.solve.cold_share": (share(cold), "ratio"),
        "nmpc.solve.warm_share": (share(warm), "ratio"),
        "nmpc.solve.self_share": (share(solves, self_time=True), "ratio"),
        "nmpc.solve.iterations_mean": (
            sum(spans[i][4].get("iterations", 0) for i in solves) / n_solve, "count"),
        "nmpc.minimize.share": (share(minimizes), "ratio"),
        "nmpc.minimize.calls_per_solve": (len(minimizes) / n_solve, "count"),
        "nmpc.minimize.nfev_per_solve": (sum(spans[i][4].get("nfev", 0) for i in minimizes) / n_solve,
                                         "count"),
        "nmpc.minimize.njev_per_solve": (sum(spans[i][4].get("njev", 0) for i in minimizes) / n_solve,
                                         "count"),
        "nmpc.step.retries": (
            sum(1 for j in idx("nmpc.step")
                if sum(1 for i in solves if spans[i][3] == j) > 1), "count"),
        "nmpc.solve.infeasible": (
            sum(1 for i in solves if spans[i][4].get("status") == "infeasible"), "count"),
        "nmpc.solve.max_iter": (
            sum(1 for i in solves if spans[i][4].get("status") == "max-iter"), "count"),
        "nmpc.brute_force_oracle.share": (share(idx("nmpc.brute_force_oracle")), "ratio"),
        "transform.collocation_grid.calls": (len(idx("transform.collocation_grid")), "count"),
        "transform.collocation_grid.share": (share(idx("transform.collocation_grid")), "ratio"),
        "plant.simulate_cycle.calls": (len(idx("plant.simulate_cycle")), "count"),
        "plant.simulate_cycle.share": (share(idx("plant.simulate_cycle")), "ratio"),
        "policy.forward.calls": (len(forward_set), "count"),
        "policy.forward.share": (share(forward_set), "ratio"),
        "policy.forward_batch.calls": (len(batch), "count"),
        "policy.forward_batch.share": (share(batch), "ratio"),
        "policy.backprop_gradients.calls": (len(idx("policy.backprop_gradients")), "count"),
        "policy.backprop_gradients.share": (share(idx("policy.backprop_gradients")), "ratio"),
        "policy.loss_value.share": (share(idx("policy.loss_value")), "ratio"),
        "policy.train.self_share": (share(idx("policy.train"), self_time=True), "ratio"),
        "policy.generate_dataset_random.discarded": (
            discarded("policy.generate_dataset_random"), "count"),
        "policy.generate_dataset_trajectories.discarded": (
            discarded("policy.generate_dataset_trajectories"), "count"),
        "policy.Dataset.load_csv.ms": (load_ms("policy.Dataset.load_csv"), "ms"),
        "policy.load_network.ms": (load_ms("policy.load_network"), "ms"),
        "quant.forward_q.calls": (len(idx("quant.forward_q")), "count"),
        "quant.forward_q.share": (share(idx("quant.forward_q")), "ratio"),
        "quant.forward_q_batch.calls": (len(idx("quant.forward_q_batch")), "count"),
        "quant.forward_q_batch.share": (share(idx("quant.forward_q_batch")), "ratio"),
        "quant.quantize.share": (share(idx("quant.quantize")), "ratio"),
        "quant.load_quantized.ms": (load_ms("quant.load_quantized"), "ms"),
        "quant.saturations": (counts.get("quant.saturations", 0), "count"),
        "harness.run_closed_loop.calls": (len(closed), "count"),
        "harness.run_closed_loop.cycles": (
            sum(spans[i][4].get("cycles", 0) for i in closed), "count"),
        "harness.run_closed_loop.self_share": (share(closed, self_time=True), "ratio"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return m
