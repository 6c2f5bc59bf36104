"""Command-line interface: subcommand wiring, config handling, output
files and exit codes, exercised through main() in-process.
"""

import argparse
import csv
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonmpc import config
from resonmpc.cli import _build_parser, main
from resonmpc.config import DEFAULT_CONVERTER, AppConfig, parse_config
from resonmpc.errors import ArgumentError
from resonmpc.harness import TRACE_COLUMNS, Scenario
from resonmpc.plant import ConverterParams
from resonmpc.policy import Dataset, TrainConfig, load_network

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"


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

    @pytest.mark.parametrize("argv", [
        ["quantize", "--net", "policy.json", "--out", "q.json"],
        ["bench", "--controllers", "pi-freq"],
        ["gen-data", "random", "--out", "data.csv"],
    ], ids=["quantize", "bench", "gen-data"])
    def test_negative_seed_is_argument_error(self, capsys, argv):
        # numpy's generators reject a negative seed with a ValueError of their own
        assert main(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            "error: argument --seed: must be a non-negative integer, got '-1'\n")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"nmpc": {"horizon": 10}})
        assert main(["solve", "--config", cfg, "--io", "0", "--vc", "0",
                     "--pdes", "1000"]) == 1
        assert "unknown" in capsys.readouterr().err


# every section, with its known keys and one unknown one
_SECTION_KEYS = {
    "converter": ["v_s", "l_r", "r_l", "c_r"],
    "nmpc": ["n", "alpha", "f_min_hz", "f_max_hz", "d_min", "d_max", "zvs_margin_a",
             "constraint_tol_a"],
    "train": ["epochs", "batch_size", "step_size", "validation_fraction", "seed",
              "huber_delta"],
    "scenario": ["schedule", "total_cycles", "controller", "warmup_cycles", "correction",
                 "correction_gain", "correction_delay", "correction_cmd_max", "r_error",
                 "l_error"],
}
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.sampled_from([2, 10, 1e-6, 0.1, 64, 2.5, 230.0, 3e4, 1e5, 0.5, -1.0,
                                    "dnn", "pi-freq", [[2, 2.5]], [[0, 1e3], [5, 2e3]]]))
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


def _scenario(**changes):
    doc = {"schedule": [[5, 2000.0]], "total_cycles": 20, "controller": "dnn"}
    doc.update(changes)
    return doc


# each was a traceback or a silent coercion before the section was checked
_MALFORMED_SCENARIO_VALUES = [
    {"schedule": 5}, {"schedule": [[1, "x"]]}, {"total_cycles": 40.5},
    {"correction": "false"}, {"schedule": [[5.7, 2000]]}, {"correction_gain": True},
    {"schedule": [[5, 2000.0, 1]]}, {"schedule": [5, 2000.0]}, {"controller": 3},
    {"schedule": [[5, float("nan")]]}, {"correction_delay": 2.5},
    {"l_error": -1.0}, {"r_error": -1.5}, {"schedule": []},
    {"correction_gain": 1.5}, {"correction_gain": 0.0}, {"correction_delay": -3},
    {"correction_cmd_max": -10}, {"schedule": [[5, -100.0]]},
]


class TestConfigParsing:
    @pytest.mark.parametrize("doc", [
        [1, 2], {"nmpc": 5}, {"train": [1, 2]}, {"scenario": "run"}, {"converter": True},
        {"converter": {"v_s": 230}},
        {"train": {"epochs": 2.5}}, {"train": {"batch_size": True}},
        {"nmpc": {"alpha": "5e-8"}}, {"nmpc": {"n": 10.0}},
        {"converter": {"v_s": float("nan"), "l_r": 19e-6, "r_l": 2.9, "c_r": 1.44e-6}},
        {"converter": {"v_s": 10**400, "l_r": 19e-6, "r_l": 2.9, "c_r": 1.44e-6}},
        {"train": {"huber_delta": float("inf")}},
        {"train": {"seed": -1}}, {"train": {"seed": 1.5}},
        {"scenario": {"total_cycles": 20, "controller": "dnn"}},
    ] + [{"scenario": _scenario(**bad)} for bad in _MALFORMED_SCENARIO_VALUES])
    def test_rejected(self, doc):
        with pytest.raises(ArgumentError):
            parse_config(doc)

    def test_readme_scenario(self):
        sc = parse_config({"scenario": {"schedule": [[5, 2500.0]], "total_cycles": 40,
                                        "controller": "dnn-quant", "correction": True,
                                        "r_error": 0.15}}).scenario
        model = ConverterParams(v_s=230.0, l_r=19e-6, r_l=2.9, c_r=1440e-9)
        assert sc == Scenario(
            schedule=((5, 2500.0),), total_cycles=40,
            plant_params=ConverterParams(v_s=230.0, l_r=19e-6, r_l=2.9 * (1.0 + 0.15),
                                         c_r=1440e-9),
            model_params=model, controller="dnn-quant", warmup_cycles=5,
            correction=True, correction_gain=0.8, correction_delay=5, correction_cmd_max=4000.0)

    def test_every_scenario_key_read(self):
        doc = {"converter": {"v_s": 200, "l_r": 2e-5, "r_l": 3, "c_r": 1.5e-6},
               "scenario": {"schedule": [[3, 1000], [20, 3000.0]], "total_cycles": 50,
                            "controller": "pi-freq", "warmup_cycles": 3, "correction": False,
                            "correction_gain": 0.5, "correction_delay": 4, "correction_cmd_max": 3500, "r_error": -0.1, "l_error": 0.2}}
        cfg = parse_config(doc)
        assert cfg.scenario == Scenario(
            schedule=((3, 1000.0), (20, 3000.0)), total_cycles=50,
            plant_params=ConverterParams(v_s=200.0, l_r=2e-5 * (1.0 + 0.2), r_l=3.0 * (1.0 - 0.1),
                                         c_r=1.5e-6),
            model_params=cfg.converter, controller="pi-freq", warmup_cycles=3,
            correction=False, correction_gain=0.5, correction_delay=4, correction_cmd_max=3500.0)
        assert all(type(p) is float for _, p in cfg.scenario.schedule)

    @pytest.mark.parametrize("doc", [{}, {"scenario": None}, {"scenario": {}}])
    def test_no_scenario(self, doc):
        cfg = parse_config(doc)
        assert cfg.scenario is None and cfg.converter == DEFAULT_CONVERTER

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

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(_SECTION_KEYS["scenario"] + ["bogus"]), value=_JSON_VALUES,
           drop=st.booleans())
    def test_one_scenario_key_changed(self, key, value, drop):
        # a valid section with one key dropped or set to any JSON value
        section = _scenario(controller="pi-freq", correction=True)
        if drop:
            section.pop(key, None)
        else:
            section[key] = value
        try:
            assert isinstance(parse_config({"scenario": section}).scenario, Scenario)
        except ArgumentError:
            pass


def _readme_config_keys() -> dict:
    """The keys in the first column of each of README's config tables, by section."""
    text = README.read_text().split("## Config file", 1)[1].split("\n## ", 1)[0]
    keys, section = {}, None
    for line in text.splitlines():
        m = re.match(r"`(\w+)` \(", line)
        if m:
            section = keys.setdefault(m.group(1), set())
        elif line.startswith("| `") and section is not None:
            section.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    return keys


def test_readme_config_tables_name_every_accepted_key():
    accepted = {
        "converter": {f.name for f in fields(ConverterParams)},
        "nmpc": set(config._NMPC_KEYS),
        "train": {f.name for f in fields(TrainConfig)},
        "scenario": {f.name for f in fields(Scenario) if f.name not in config._SCENARIO_DERIVED}
        | set(config._SCENARIO_EXTRA),
    }
    assert _readme_config_keys() == accepted
    for section, keys in accepted.items():
        for key in keys:  # known to parse_config: rejected for its value, not as unknown
            with pytest.raises(ArgumentError) as exc:
                parse_config({section: {key: None}})
            assert "unknown" not in str(exc.value)
        with pytest.raises(ArgumentError, match="unknown"):
            parse_config({section: {"bogus": None}})


def test_readme_quick_start_names_every_subcommand():
    text = README.read_text().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"^resonmpc ([\w-]+)", text, flags=re.MULTILINE))
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert named == set(sub.choices)


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

    def test_frequency_bound_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"nmpc": {"f_min_hz": 60e3}})
        assert main(["solve", "--config", cfg, "--io", "0", "--vc", "0", "--pdes", "1000"]) == 0
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

    def test_config_without_scenario(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"train": {"epochs": 3}})
        assert main(["simulate", "--config", cfg]) == 1
        assert "no scenario section" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", _MALFORMED_SCENARIO_VALUES)
    def test_malformed_scenario_is_argument_error(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, {"scenario": {**_scenario(controller="pi-freq"), **bad}})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


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
        assert report["n_samples"] == 10000

    def test_diverging_train_is_numeric_failure(self, tmp_path, capsys):
        rows = (REPO_ROOT / "artifacts" / "train_random.csv").read_text().splitlines()[:41]
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, {"train": {"epochs": 3, "step_size": 1e200}})
        rc = main(["train", "--config", cfg, "--data", str(data),
                   "--out", str(tmp_path / "net.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "numeric failure: training loss became non-finite at epoch 0")

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

    @pytest.mark.parametrize("n_runs", ["0", "-1"])
    def test_bench_without_runs_is_argument_error(self, capsys, n_runs):
        rc = main(["bench", "--controllers", "pi-freq", "--n-runs", n_runs])
        assert rc == 1
        assert "n_runs must be >= 1" in capsys.readouterr().err

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
