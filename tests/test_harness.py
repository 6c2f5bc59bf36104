"""Closed-loop runner: scenario validation, metric aggregation oracles,
controller dispatch, setpoint correction and trace output.
"""

import csv
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from resonmpc import nmpc
from resonmpc.errors import ArgumentError
from resonmpc.harness import (
    CONTROLLER_KINDS,
    TRACE_COLUMNS,
    CycleRecord,
    RunMetrics,
    Scenario,
    compute_metrics,
    generate_dataset_closed_loop,
    run_benchmark,
    run_closed_loop,
    run_param_grid,
    write_summary_json,
    write_trace_csv,
)
from resonmpc.nmpc import RecedingHorizonController, solve
from resonmpc.plant import ConverterParams, PlantState


def make_scenario(params, controller="dnn", **kw):
    defaults = dict(
        schedule=((5, 2000.0),),
        total_cycles=20,
        plant_params=params,
        model_params=params,
        controller=controller,
        warmup_cycles=5,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def make_record(cycle, p_avg, p_des, zvs=True):
    return CycleRecord(
        cycle=cycle,
        t_start_s=cycle * 1e-5,
        fsw_hz=50e3,
        duty=0.5,
        io_start_a=0.0,
        vc_start_v=0.0,
        p_avg_w=p_avg,
        p_des_w=p_des,
        p_des_corrected_w=p_des,
        zvs_on_ok=zvs,
        zvs_off_ok=True,
        solver_status="test",
    )


class TestScenarioValidation:
    def test_unknown_controller_rejected(self, params):
        with pytest.raises(ArgumentError):
            make_scenario(params, controller="lqr")

    def test_empty_schedule_rejected(self, params):
        with pytest.raises(ArgumentError):
            make_scenario(params, schedule=())

    def test_non_increasing_schedule_rejected(self, params):
        with pytest.raises(ArgumentError):
            make_scenario(params, schedule=((5, 1000.0), (5, 2000.0)))

    def test_total_cycles_before_last_entry_rejected(self, params):
        with pytest.raises(ArgumentError):
            make_scenario(params, schedule=((5, 1000.0), (30, 2000.0)), total_cycles=20)

    def test_setpoint_lookup(self, params):
        sc = make_scenario(params, schedule=((0, 500.0), (10, 1500.0)), total_cycles=20)
        assert sc.setpoint_at(0) == 500.0
        assert sc.setpoint_at(9) == 500.0
        assert sc.setpoint_at(10) == 1500.0
        assert sc.setpoint_at(19) == 1500.0


class TestMetrics:
    def test_hand_computed_aggregation(self):
        # 2 warmup cycles then 12 active: first segment 6 cycles at 1000 W
        # with +10 W error, second 6 cycles at 2000 W with -20 W error, one
        # ZVS violation
        records = [make_record(c, 0.0, 1000.0) for c in range(2)]
        records += [make_record(2 + k, 1010.0, 1000.0) for k in range(6)]
        records += [
            make_record(8 + k, 1980.0, 2000.0, zvs=(k != 3)) for k in range(6)
        ]
        m = compute_metrics(records, warmup_cycles=2)
        assert m.n_cycles == 12
        assert m.avg_tracking_error_w == pytest.approx((6 * 10 + 6 * 20) / 12)
        assert m.zvs_violation_pct == pytest.approx(100.0 / 12)
        # both segments are shorter than 11 cycles: no steady-state figure
        assert m.steady_state_errors_w == (None, None)

    def test_steady_state_uses_last_ten_cycles(self):
        records = [make_record(k, 1000.0 + (50.0 if k < 10 else 5.0), 1000.0)
                   for k in range(20)]
        m = compute_metrics(records, warmup_cycles=0)
        assert m.steady_state_errors_w == (pytest.approx(5.0),)

    def test_empty_records_rejected(self):
        with pytest.raises(ArgumentError):
            compute_metrics([])

    def test_invalid_metrics_rejected(self):
        with pytest.raises(ArgumentError):
            RunMetrics(-1.0, 0.0, (), 1)
        with pytest.raises(ArgumentError):
            RunMetrics(1.0, 120.0, (), 1)


class TestRunClosedLoop:
    def test_warmup_cycles_use_warmup_input(self, params, trained_net):
        sc = make_scenario(params)
        records, _ = run_closed_loop(sc, net=trained_net)
        assert len(records) == 20
        for r in records[:5]:
            assert (r.fsw_hz, r.duty, r.solver_status) == (100e3, 0.5, "warmup")

    def test_dnn_reaches_setpoint(self, params, trained_net):
        sc = make_scenario(params, schedule=((5, 2000.0),), total_cycles=25)
        records, m = run_closed_loop(sc, net=trained_net)
        tail = records[-5:]
        assert all(abs(r.p_avg_w - 2000.0) < 0.03 * 2000.0 for r in tail)
        assert m.zvs_violation_pct == 0.0

    def test_quantized_close_to_float(self, params, trained_net, trained_qnet):
        sc_f = make_scenario(params, total_cycles=25)
        sc_q = make_scenario(params, controller="dnn-quant", total_cycles=25)
        rec_f, _ = run_closed_loop(sc_f, net=trained_net)
        rec_q, _ = run_closed_loop(sc_q, qnet=trained_qnet)
        # same per-cycle power within a small fraction of the setpoint
        for a, b in zip(rec_f[5:], rec_q[5:]):
            assert abs(a.p_avg_w - b.p_avg_w) < 0.05 * 2000.0

    def test_missing_network_rejected(self, params):
        with pytest.raises(ArgumentError):
            run_closed_loop(make_scenario(params, controller="dnn"))
        with pytest.raises(ArgumentError):
            run_closed_loop(make_scenario(params, controller="dnn-quant"))

    def test_pi_freq_converges_without_violations(self, params):
        sc = make_scenario(params, controller="pi-freq", total_cycles=45)
        records, m = run_closed_loop(sc)
        assert abs(records[-1].p_avg_w - 2000.0) < 0.02 * 2000.0
        assert m.zvs_violation_pct == 0.0

    def test_pi_duty_violates_soft_switching(self, params):
        # fixed-frequency duty control loses ZVS over most of the transient
        sc = make_scenario(params, controller="pi-duty", total_cycles=45)
        _, m = run_closed_loop(sc)
        assert m.zvs_violation_pct > 50.0

    def test_correction_removes_steady_offset(self, params, trained_net):
        plant = ConverterParams(
            v_s=params.v_s, l_r=params.l_r, r_l=params.r_l * 1.15, c_r=params.c_r
        )
        base = make_scenario(params, schedule=((5, 2500.0),), total_cycles=40,
                             plant_params=plant)
        rec_off, m_off = run_closed_loop(base, net=trained_net)
        sc_on = make_scenario(params, schedule=((5, 2500.0),), total_cycles=40,
                              plant_params=plant, correction=True)
        rec_on, m_on = run_closed_loop(sc_on, net=trained_net)
        assert m_off.steady_state_errors_w[-1] > 5.0
        assert m_on.steady_state_errors_w[-1] < 1.0
        # the corrected command moves away from the raw setpoint
        assert rec_on[-1].p_des_corrected_w != rec_on[-1].p_des_w

    def test_correction_command_clamped(self, params, trained_net):
        sc = make_scenario(params, schedule=((5, 3000.0),), total_cycles=60,
                           correction=True, correction_cmd_max=3100.0)
        records, _ = run_closed_loop(sc, net=trained_net)
        assert all(r.p_des_corrected_w <= 3100.0 for r in records)

    def test_correction_waits_out_transient(self, params, trained_net):
        sc = make_scenario(params, schedule=((5, 2000.0),), total_cycles=25,
                           correction=True, correction_delay=8)
        records, _ = run_closed_loop(sc, net=trained_net)
        # delay counts from the end of warmup (cycle 5): the first cycle the
        # integrator can move the command is 5 + 8 + 1
        for r in records[5:14]:
            assert r.p_des_corrected_w == r.p_des_w
        assert any(r.p_des_corrected_w != r.p_des_w for r in records[14:])


class TestBenchmark:
    def test_paired_runs_share_plant_and_schedule(self, params, trained_net, trained_qnet):
        out = run_benchmark(
            3, ("dnn", "dnn-quant"), params, net=trained_net, qnet=trained_qnet,
            param_error=0.1, seed=5,
        )
        assert out["n_runs"] == 3
        a = out["controllers"]["dnn"]["per_run_tracking_error_w"]
        b = out["controllers"]["dnn-quant"]["per_run_tracking_error_w"]
        assert len(a) == len(b) == 3
        # paired scenarios: quantized controller tracks its float original
        for x, y in zip(a, b):
            assert abs(x - y) < 0.2 * max(x, y)

    def test_seed_determinism(self, params, trained_net):
        out1 = run_benchmark(2, ("dnn",), params, net=trained_net, seed=9)
        out2 = run_benchmark(2, ("dnn",), params, net=trained_net, seed=9)
        assert out1 == out2

    def test_unknown_controller_rejected(self, params):
        with pytest.raises(ArgumentError):
            run_benchmark(1, ("bang-bang",), params)

    def test_process_pool_matches_serial(self, params, trained_net, trained_qnet):
        runs = [run_benchmark(2, ("dnn", "dnn-quant"), params, net=trained_net,
                              qnet=trained_qnet, param_error=0.15, seed=21, n_jobs=jobs)
                for jobs in (1, 2)]
        assert runs[0] == runs[1]


class TestParamGrid:
    def test_single_cell_shape(self, params, trained_qnet):
        out = run_param_grid(
            params, trained_qnet, setpoints=(2000.0,), r_errors=(0.15,),
            l_errors=(-0.15,),
        )
        assert out["correction"] is True and out["correction_gain"] == 0.8
        assert len(out["cells"]) == 1
        cell = out["cells"][0]
        assert cell["r_error"] == 0.15 and cell["l_error"] == -0.15
        assert cell["steady_state_error_w"] < 1.0
        assert cell["zvs_violation_pct"] == 0.0


class TestClosedLoopDataset:
    def test_labels_states_the_policy_visits(self, params, nmpc_config, trained_net):
        # two setpoints, so one label sits on a setpoint step
        sc = make_scenario(params, schedule=((5, 1500.0), (7, 2500.0)),
                           total_cycles=9)
        data = generate_dataset_closed_loop([sc], nmpc_config, net=trained_net)
        records, _ = run_closed_loop(sc, nmpc_config, net=trained_net)
        visited = [[r.io_start_a, r.vc_start_v, r.p_des_corrected_w]
                   for r in records[5:]]
        assert len(data) + data.discarded == 4
        assert data.provenance == ("closed-loop",) * len(data)
        for x in data.x:
            assert list(x) in visited
        # the first label is a cold solve at the first post-warmup state
        first = solve(PlantState(*data.x[0, :2]), data.x[0, 2], nmpc_config, params)
        assert tuple(data.u[0]) == (first.first_input.f_sw, first.first_input.duty)

    def test_solver_runs_label_with_their_applied_inputs(self, params, nmpc_config,
                                                         monkeypatch):
        sc = make_scenario(params, controller="exact-nmpc",
                           schedule=((5, 1500.0), (7, 2500.0)), total_cycles=9,
                           plant_params=replace(params, r_l=params.r_l * 1.1))
        solved = []
        inner = nmpc.solve

        def counting(*args, **kwargs):
            solved.append(args[0])
            return inner(*args, **kwargs)

        monkeypatch.setattr(nmpc, "solve", counting)
        data = generate_dataset_closed_loop([sc], nmpc_config)
        assert (len(data), data.discarded) == (4, 0)
        assert data.provenance == ("trajectory",) * 4
        # one solve per post-warmup cycle, at the labelled state
        assert [(s.i_o, s.v_c) for s in solved] == [tuple(x[:2]) for x in data.x]
        observer = RecedingHorizonController(nmpc_config, params)
        for x, u in zip(data.x, data.u):
            label, status = observer.step(PlantState(x[0], x[1]), x[2])
            assert status == "converged"
            assert (label.f_sw, label.duty) == tuple(u)


# sha256 of write_trace_csv's bytes for one run of each controller kind,
# recorded with the hand-written column list the derived one replaced; the
# network kinds' entries change whenever the shipped networks are rebuilt
_TRACE_SHA256 = {
    "exact-nmpc": "b8e190b392202ec9f70b64347293fc61e45c66d66a13e71b6a2949987c6afaee",
    "dnn": "e565b5132849462d0d0b5ee7ef837064906b095ebfa674aa81a8c4de1930ccf5",
    "dnn-quant": "7023e0290a5d9149f88d48a618c52457a35289b2fb735fd77795f01361e54fb0",
    "pi-freq": "9742dc1c18937c8a400a38734f56889432a0ee9a2d6885f4d9cfc854c93160c7",
    "pi-duty": "4bd186757534166c6565a63a291e954dec454cbbdbd11d7aeef38afac8194662",
}


class TestOutputFiles:
    def test_trace_columns(self):
        assert TRACE_COLUMNS == (
            "cycle", "t_start_s", "fsw_hz", "duty", "io_start_a", "vc_start_v", "p_avg_w",
            "p_des_w", "p_des_corrected_w", "zvs_on_ok", "zvs_off_ok", "solver_status")

    @pytest.mark.parametrize("kind", CONTROLLER_KINDS)
    def test_trace_bytes_pinned(self, tmp_path, params, trained_net, trained_qnet, kind):
        # a setpoint step with correction on a +10 % R plant
        n = 20 if kind == "exact-nmpc" else 60
        sc = make_scenario(params, controller=kind, schedule=((5, 1500.0), (n // 2, 2500.0)),
                           total_cycles=n, plant_params=replace(params, r_l=params.r_l * 1.1),
                           correction=True, correction_delay=3)
        records, _ = run_closed_loop(sc, net=trained_net, qnet=trained_qnet)
        path = tmp_path / "trace.csv"
        write_trace_csv(records, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _TRACE_SHA256[kind]

    def test_trace_csv_columns_and_roundtrip(self, tmp_path):
        records = [make_record(k, 1000.0 + k, 1000.0, zvs=(k != 2)) for k in range(4)]
        path = tmp_path / "trace.csv"
        write_trace_csv(records, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRACE_COLUMNS
        assert len(rows) == 5
        assert rows[3][0] == "2" and rows[3][9] == "0"  # zvs_on flag as 0/1
        assert float(rows[1][6]) == 1000.0

    def test_summary_json(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary_json({"a": 1, "b": [1.5]}, path)
        assert json.loads(path.read_text()) == {"a": 1, "b": [1.5]}
