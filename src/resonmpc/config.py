"""JSON configuration file handling shared by the CLI subcommands.

A config file holds up to four sections: converter (electrical
parameters), nmpc (horizon, bounds, solver settings, frequencies in Hz),
train (optimizer settings) and scenario (closed-loop run description).
Missing sections fall back to the built-in defaults; unknown keys are
rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional, get_type_hints

from .errors import ArgumentError
from .harness import Scenario
from .nmpc import NmpcConfig
from .plant import ControlInput, ConverterParams
from .policy import TrainConfig

__all__ = [
    "AppConfig",
    "DEFAULT_CONVERTER",
    "load_config",
    "parse_config",
    "build_scenario",
]

DEFAULT_CONVERTER = ConverterParams(v_s=230.0, l_r=19e-6, r_l=2.9, c_r=1440e-9)

_NMPC_KEYS = {
    "n": "horizon_n",
    "alpha": "alpha",
    "f_min_hz": "f_min",
    "f_max_hz": "f_max",
    "d_min": "d_min",
    "d_max": "d_max",
    "colloc_degree": "colloc_degree",
    "colloc_elements": "colloc_elements",
    "zvs_margin_a": "zvs_margin",
    "constraint_tol_a": "constraint_tol",
    "grad_tol": "grad_tol",
    "max_iterations": "max_iterations",
}

_SCENARIO_KEYS = {
    "schedule", "total_cycles", "controller", "warmup_cycles",
    "warmup_fsw_hz", "warmup_duty", "correction", "correction_gain",
    "correction_start", "correction_delay", "correction_cmd_max",
    "r_error", "l_error",
}


@dataclass(frozen=True)
class AppConfig:
    converter: ConverterParams
    nmpc: NmpcConfig
    train: TrainConfig
    scenario: Optional[dict]  # raw section; turned into a Scenario on demand


def _section(doc: dict, name: str) -> dict:
    sec = doc.get(name)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise ArgumentError(f"config section {name} must be a JSON object")
    return sec


def _build_section(section: dict, key_map: dict, cls, what: str):
    """`cls` from a section: known keys only, each an integer for an int
    field and a finite number within float range otherwise, and every field
    without a default given."""
    unknown = set(section) - set(key_map)
    if unknown:
        raise ArgumentError(f"unknown {what} config keys: {sorted(unknown)}")
    types = get_type_hints(cls)
    for key, value in section.items():
        kind = types[key_map[key]]
        ok = isinstance(value, int) if kind is int else (
            isinstance(value, (int, float)) and abs(value) <= sys.float_info.max)  # NaN fails
        if isinstance(value, bool) or not ok:
            raise ArgumentError(f"{what} config key {key} must be a finite {kind.__name__}, "
                                f"got {value!r}")
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    missing = sorted(k for k, f in key_map.items() if f in required and k not in section)
    if missing:
        raise ArgumentError(f"{what} config section lacks the keys {missing}")
    return cls(**{key_map[k]: v for k, v in section.items()})


def parse_config(doc: dict) -> AppConfig:
    """Validate a parsed JSON document and fill defaults."""
    if not isinstance(doc, dict):
        raise ArgumentError("config file must hold a JSON object")
    known = {"converter", "nmpc", "train", "scenario"}
    unknown = set(doc) - known
    if unknown:
        raise ArgumentError(f"unknown config sections: {sorted(unknown)}")

    conv_sec = _section(doc, "converter")
    conv_map = {f.name: f.name for f in fields(ConverterParams)}
    converter = _build_section(conv_sec, conv_map, ConverterParams, "converter") \
        if conv_sec else DEFAULT_CONVERTER

    nmpc = _build_section(_section(doc, "nmpc"), _NMPC_KEYS, NmpcConfig, "nmpc")

    train_map = {f.name: f.name for f in fields(TrainConfig)}
    train = _build_section(_section(doc, "train"), train_map, TrainConfig, "train")

    scenario = doc.get("scenario")
    unknown = set(_section(doc, "scenario")) - _SCENARIO_KEYS
    if unknown:
        raise ArgumentError(f"unknown scenario config keys: {sorted(unknown)}")
    return AppConfig(converter=converter, nmpc=nmpc, train=train, scenario=scenario)


def load_config(path) -> AppConfig:
    p = Path(path)
    if not p.exists():
        raise ArgumentError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(doc)


def build_scenario(cfg: AppConfig) -> Scenario:
    """Turn the raw scenario section into a validated Scenario.

    r_error / l_error perturb the true plant relative to the (nominal)
    model parameters the controller uses.
    """
    sec = cfg.scenario
    if sec is None:
        raise ArgumentError("config has no scenario section")
    if "schedule" not in sec or "total_cycles" not in sec or "controller" not in sec:
        raise ArgumentError("scenario needs schedule, total_cycles and controller")
    schedule = tuple((int(c), float(p)) for c, p in sec["schedule"])
    model = cfg.converter
    plant = ConverterParams(
        v_s=model.v_s,
        l_r=model.l_r * (1.0 + float(sec.get("l_error", 0.0))),
        r_l=model.r_l * (1.0 + float(sec.get("r_error", 0.0))),
        c_r=model.c_r,
    )
    warmup_input = ControlInput(
        float(sec.get("warmup_fsw_hz", 100e3)), float(sec.get("warmup_duty", 0.5))
    )
    return Scenario(
        schedule=schedule,
        total_cycles=int(sec["total_cycles"]),
        plant_params=plant,
        model_params=model,
        controller=sec["controller"],
        warmup_cycles=int(sec.get("warmup_cycles", 5)),
        warmup_input=warmup_input,
        correction=bool(sec.get("correction", False)),
        correction_gain=float(sec.get("correction_gain", 0.8)),
        correction_start=int(sec.get("correction_start", 0)),
        correction_delay=int(sec.get("correction_delay", 5)),
        correction_cmd_max=float(sec.get("correction_cmd_max", 4000.0)),
    )
