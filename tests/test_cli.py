"""Command-line interface: subcommand wiring, config handling, output
files and exit codes, exercised through main() in-process.
"""

import csv
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonmpc.cli import main
from resonmpc.config import AppConfig, parse_config
from resonmpc.errors import ArgumentError
from resonmpc.harness import TRACE_COLUMNS
from resonmpc.policy import Dataset, load_network


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def scenario_config(tmp_path, controller="dnn", **scenario_extra):
    scenario = {
        "schedule": [[5, 2000.0]],
        "total_cycles": 20,
        "controller": controller,
    }
    scenario.update(scenario_extra)
    return write_config(tmp_path, {"scenario": scenario})


class TestArgumentHandling:
    def test_no_subcommand_is_argument_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["solve", "--io", "0"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"nmpc": {"horizon": 10}})
        assert main(["solve", "--config", cfg, "--io", "0", "--vc", "0",
                     "--pdes", "1000"]) == 1
        assert "unknown" in capsys.readouterr().err


# every section, with its known keys and one unknown one
_SECTION_KEYS = {
    "converter": ["v_s", "l_r", "r_l", "c_r"],
    "nmpc": ["n", "alpha", "f_min_hz", "f_max_hz", "d_min", "d_max", "max_iterations"],
    "train": ["epochs", "batch_size", "step_size", "validation_fraction", "seed",
              "huber_delta"],
    "scenario": ["schedule", "total_cycles", "controller", "correction"],
}
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.sampled_from([2, 10, 1e-6, 0.1, 64, 2.5, 230.0, 3e4, 1e5, 0.5]))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                            max_leaves=6)


@st.composite
def _config_docs(draw):
    doc = {}
    for name in draw(st.lists(st.sampled_from(sorted(_SECTION_KEYS) + ["extra"]),
                              unique=True)):
        keys = _SECTION_KEYS.get(name, []) + ["bogus"]
        doc[name] = draw(_JSON_VALUES | st.dictionaries(st.sampled_from(keys), _JSON_VALUES,
                                                        max_size=len(keys)))
    return doc


class TestConfigParsing:
    @pytest.mark.parametrize("doc", [
        [1, 2], {"nmpc": 5}, {"train": [1, 2]}, {"scenario": "run"}, {"converter": True},
        {"converter": {"v_s": 230}},
        {"train": {"epochs": 2.5}}, {"train": {"batch_size": True}},
        {"nmpc": {"alpha": "5e-8"}}, {"nmpc": {"n": 10.0}},
        {"converter": {"v_s": float("nan"), "l_r": 19e-6, "r_l": 2.9, "c_r": 1.44e-6}},
        {"converter": {"v_s": 10**400, "l_r": 19e-6, "r_l": 2.9, "c_r": 1.44e-6}},
        {"train": {"huber_delta": float("inf")}},
    ])
    def test_rejected(self, doc):
        with pytest.raises(ArgumentError):
            parse_config(doc)

    def test_full_converter_section_accepted(self):
        doc = {"converter": {"v_s": 200, "l_r": 19e-6, "r_l": 2.9, "c_r": 1.44e-6},
               "train": {"epochs": 3, "huber_delta": 0}}
        cfg = parse_config(doc)
        assert (cfg.converter.v_s, cfg.train.epochs) == (200, 3)

    @settings(max_examples=300, deadline=None)
    @given(doc=_config_docs())
    def test_random_documents(self, doc):
        # a config document either parses or raises ArgumentError, nothing else
        try:
            assert isinstance(parse_config(doc), AppConfig)
        except ArgumentError:
            pass


class TestSolve:
    def test_prints_solution_json(self, capsys):
        assert main(["solve", "--io", "0", "--vc", "0", "--pdes", "2000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] in ("converged", "max-iterations")
        assert len(out["inputs"]) == 5
        assert len(out["predicted_powers_w"]) == 5
        for u in out["inputs"]:
            assert 30e3 <= u["fsw_hz"] <= 100e3
            assert 0.2 <= u["duty"] <= 0.8

    def test_frequency_bound_override(self, capsys):
        assert main(["solve", "--io", "0", "--vc", "0", "--pdes", "1000",
                     "--f-min-khz", "60"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all(u["fsw_hz"] >= 60e3 for u in out["inputs"])


class TestSimulate:
    def test_dnn_run_with_trace_and_summary(self, tmp_path, capsys, artifact_paths):
        cfg = scenario_config(tmp_path)
        trace = tmp_path / "trace.csv"
        summary = tmp_path / "summary.json"
        rc = main(["simulate", "--config", cfg,
                   "--net", str(artifact_paths["policy"]),
                   "--trace-out", str(trace), "--summary-out", str(summary)])
        assert rc == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRACE_COLUMNS
        assert len(rows) == 21
        doc = json.loads(summary.read_text())
        assert doc["controller"] == "dnn"
        assert doc["n_cycles"] == 15
        assert doc["zvs_violation_pct"] == 0.0
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_dnn_without_network_fails(self, tmp_path, capsys):
        cfg = scenario_config(tmp_path)
        assert main(["simulate", "--config", cfg]) == 1

    def test_pi_freq_needs_no_network(self, tmp_path, capsys):
        cfg = scenario_config(tmp_path, controller="pi-freq")
        assert main(["simulate", "--config", cfg]) == 0


class TestDataTrainQuantize:
    def test_gen_data_random_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        rc = main(["gen-data", "random", "--n", "3", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        data = Dataset.load_csv(out)
        assert len(data.x) == 3

    def test_train_then_quantize(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert main(["gen-data", "random", "--n", "8", "--seed", "2",
                     "--out", str(data)]) == 0
        cfg = write_config(tmp_path, {"train": {"epochs": 20, "seed": 0,
                                                "validation_fraction": 0.0}})
        net_path = tmp_path / "net.json"
        hist_path = tmp_path / "hist.json"
        assert main(["train", "--config", cfg, "--data", str(data),
                     "--out", str(net_path), "--history-out", str(hist_path)]) == 0
        net = load_network(net_path)
        assert net.layer_sizes == (3, 10, 10, 10, 10, 10, 2)
        hist = json.loads(hist_path.read_text())
        assert len(hist["train"]) == 20

        q_path = tmp_path / "q.json"
        report_path = tmp_path / "report.json"
        assert main(["quantize", "--net", str(net_path), "--out", str(q_path),
                     "--report-out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["word_bits"] == 16
        assert report["n_samples"] == 10000

    def test_train_missing_data_file(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "net.json")]) == 1


class TestBenchAndGrid:
    def test_bench_small_campaign(self, tmp_path, capsys, artifact_paths):
        out = tmp_path / "bench.json"
        rc = main(["bench", "--controllers", "dnn", "--net",
                   str(artifact_paths["policy"]), "--n-runs", "2",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["n_runs"] == 2
        assert "dnn" in doc["controllers"]

    def test_bench_zvs_gate_trips(self, capsys):
        # duty control at fixed frequency violates soft switching constantly
        rc = main(["bench", "--controllers", "pi-duty", "--n-runs", "1",
                   "--gate-zvs-pct", "1.0"])
        assert rc == 3
        assert "gate failed" in capsys.readouterr().out

    def test_bench_gate_ratio_requires_reference(self, capsys, artifact_paths):
        rc = main(["bench", "--controllers", "dnn", "--net",
                   str(artifact_paths["policy"]), "--n-runs", "1",
                   "--gate-ratio", "1.25"])
        assert rc == 1

    def test_grid_names_its_worst_cell(self, tmp_path, capsys, artifact_paths):
        out = tmp_path / "grid.json"
        assert main(["grid", "--qnet", str(artifact_paths["policy_q16"]),
                     "--out", str(out)]) == 0
        cells = json.loads(out.read_text())["cells"]
        worst = max(cells, key=lambda c: (c["zvs_violation_pct"] > 0.0,
                                          c["steady_state_error_w"]))
        line = capsys.readouterr().out.strip()
        m = re.fullmatch(r"worst steady-state error (\S+) W, worst ZVS violation (\S+)%; "
                         r"worst cell R (\S+)%, L (\S+)%, (\d+) W: error (\S+) W, "
                         r"ZVS violations (\S+)%", line)
        assert m, line
        assert [float(g) for g in m.groups()] == pytest.approx([
            max(c["steady_state_error_w"] for c in cells),
            max(c["zvs_violation_pct"] for c in cells),
            100 * worst["r_error"], 100 * worst["l_error"], worst["p_des_w"],
            worst["steady_state_error_w"], worst["zvs_violation_pct"]], abs=5e-4)

    def test_pi_tune_impossible_setpoint_is_numeric_failure(self, capsys):
        # no gain reaches a power beyond the converter's capability
        rc = main(["pi-tune", "pi-freq", "--pdes", "5000"])
        assert rc == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_pi_tune_prints_gains(self, capsys):
        assert main(["pi-tune", "pi-freq"]) == 0
        best = json.loads(capsys.readouterr().out)
        assert best["kp"] > 0 and best["ki"] > 0
