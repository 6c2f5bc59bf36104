"""The tracer records nested spans, restores what it replaced, and derives self times;
every workload reports every metric BENCHMARK.json lists."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import parts  # noqa: E402
import tracing  # noqa: E402
import resonmpc.config  # noqa: E402
import resonmpc.harness  # noqa: E402
import resonmpc.transform  # noqa: E402
from resonmpc import plant, policy  # noqa: E402


def test_install_wraps_every_caller_and_remove_restores():
    originals = (plant.simulate_cycle, resonmpc.harness.simulate_cycle,
                 policy.Dataset.load_csv, resonmpc.nmpc.RecedingHorizonController.step)
    tracer = tracing.Tracer()
    tracer.install(resonmpc)
    try:
        state = plant.PlantState(0.0, 0.0)
        u = plant.ControlInput(50e3, 0.5)
        resonmpc.harness.simulate_cycle(state, resonmpc.config.DEFAULT_CONVERTER, u, n_trace=2)
        tracer.paused = True
        plant.simulate_cycle(state, resonmpc.config.DEFAULT_CONVERTER, u, n_trace=2)
        tracer.paused = False
    finally:
        tracer.remove()
    assert [s[0] for s in tracer.spans] == ["plant.simulate_cycle"]
    assert (plant.simulate_cycle, resonmpc.harness.simulate_cycle, policy.Dataset.load_csv,
            resonmpc.nmpc.RecedingHorizonController.step) == originals


LOADS = [[name, 0.0, 0.002, -1, None]
         for name in ("policy.Dataset.load_csv", "policy.load_network", "quant.load_quantized")]


def test_self_time_excludes_children():
    spans = LOADS + [
        ["harness.run_closed_loop", 0.0, 10.0, -1, {"cycles": 2}],
        ["plant.simulate_cycle", 1.0, 3.0, 3, None],
        ["policy.forward", 4.0, 5.0, 3, None],
        ["policy.forward_batch", 4.2, 4.8, 5, None],
    ]
    m = tracing.per_layer(spans, {}, wall_s=20.0, overhead_pct=1.0)
    assert m["harness.run_closed_loop.self_share"][0] == (10.0 - 3.0) / 20.0
    assert m["harness.run_closed_loop.cycles"][0] == 2
    assert m["plant.simulate_cycle.share"][0] == 2.0 / 20.0
    assert m["policy.forward_batch.calls"][0] == 0  # only calls made outside forward
    assert m["nmpc.solve.calls_cold"][0] == 0  # the solver did not run
    assert m["policy.load_network.ms"][0] == 2.0
    assert m["trace.overhead_pct"][0] == 1.0


def test_every_manifest_metric_is_reported():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    m = tracing.per_layer(LOADS, {}, wall_s=1.0, overhead_pct=0.0)
    assert {name: unit for name, (_, unit) in m.items()} == {
        d["name"]: d["unit"] for d in manifest["per_layer"]}
    for part in parts.PARTS.values():
        s = parts.Samples()
        s.labels, s.label_s, s.loop_cycles, s.loop_s, s.sample_epochs, s.train_s = 1, 1.0, 1, 1.0, 1, 1.0
        s.cold_ms = s.warm_ms = s.dnn_us = s.dnnq_us = s.batch_s = s.qbatch_s = [1.0]
        units = {"setup_s": "s", **{name: unit for name, (_, unit) in part.metrics(s).items()}}
        assert units == {d["name"]: d["unit"] for d in manifest["end_to_end"]}, part.name
