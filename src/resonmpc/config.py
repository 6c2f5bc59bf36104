"""JSON configuration file handling shared by the CLI subcommands.

A config file holds up to four sections: converter (electrical
parameters), nmpc (horizon, weights and bounds, frequencies in Hz),
train (optimizer settings) and scenario (closed-loop run description).
Each section's keys and types are those of its dataclass, so missing keys
take the dataclass defaults; unknown keys and values of the wrong type are
rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

from .errors import ArgumentError
from .harness import Scenario
from .nmpc import NmpcConfig
from .plant import ConverterParams
from .policy import TrainConfig

__all__ = [
    "AppConfig",
    "DEFAULT_CONVERTER",
    "load_config",
    "parse_config",
]

DEFAULT_CONVERTER = ConverterParams(v_s=230.0, l_r=19e-6, r_l=2.9, c_r=1440e-9)

_NMPC_KEYS = {
    "n": "horizon_n",
    "alpha": "alpha",
    "f_min_hz": "f_min",
    "f_max_hz": "f_max",
    "d_min": "d_min",
    "d_max": "d_max",
    "zvs_margin_a": "zvs_margin",
    "constraint_tol_a": "constraint_tol",
}

# scenario keys that are not Scenario fields: the true plant's relative R
# and L error against the model (the converter section)
_SCENARIO_EXTRA = {"r_error": float, "l_error": float}
_SCENARIO_DERIVED = {"plant_params", "model_params"}


@dataclass(frozen=True)
class AppConfig:
    converter: ConverterParams
    nmpc: NmpcConfig
    train: TrainConfig
    scenario: Optional[Scenario]


def _section(doc: dict, name: str) -> dict:
    sec = doc.get(name)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise ArgumentError(f"config section {name} must be a JSON object")
    return sec


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", tuple: "a list of [start cycle, watts] pairs"}


def _value(kind, value, what: str):
    """`value` as a config value of a `kind` field (tuple is the schedule),
    or ArgumentError naming `what`."""
    if kind is tuple:
        if isinstance(value, (list, tuple)) and all(
                isinstance(e, (list, tuple)) and len(e) == 2 for e in value):
            return tuple((_value(int, c, f"{what} start cycle"), _value(float, p, f"{what} watts"))
                         for c, p in value)
    elif kind is float:
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max):  # NaN fails
            return float(value)
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ArgumentError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")


def _build_section(section: dict, cls, what: str, key_map=None, extra=None) -> dict:
    """Keyword values for `cls` from a section keyed by field name (or by
    `key_map`'s keys): known keys only, each value of its field's type, and
    every field without a default given.  `extra` maps keys that are not
    fields to their type; their values are kept under the key."""
    key_map = key_map or {f.name: f.name for f in fields(cls)}
    types = get_type_hints(cls)
    kinds = {key: types[name] for key, name in key_map.items()} | (extra or {})
    unknown = set(section) - set(kinds)
    if unknown:
        raise ArgumentError(f"unknown {what} config keys: {sorted(unknown)}")
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    missing = sorted(k for k, f in key_map.items() if f in required and k not in section)
    if missing:
        raise ArgumentError(f"{what} config section lacks the keys {missing}")
    return {key_map.get(key, key): _value(kinds[key], value, f"{what} config key {key}")
            for key, value in section.items()}


def _build_scenario(section: dict, model: ConverterParams) -> Scenario:
    """The scenario section as a Scenario on a plant with the section's R/L
    error against the model."""
    keys = {f.name: f.name for f in fields(Scenario) if f.name not in _SCENARIO_DERIVED}
    values = _build_section(section, Scenario, "scenario", keys, _SCENARIO_EXTRA)
    r_error, l_error = values.pop("r_error", 0.0), values.pop("l_error", 0.0)
    plant = replace(model, l_r=model.l_r * (1.0 + l_error), r_l=model.r_l * (1.0 + r_error))
    return Scenario(plant_params=plant, model_params=model, **values)


def parse_config(doc: dict) -> AppConfig:
    """Validate a parsed JSON document and fill defaults; an absent or empty
    scenario section gives no Scenario."""
    if not isinstance(doc, dict):
        raise ArgumentError("config file must hold a JSON object")
    known = {"converter", "nmpc", "train", "scenario"}
    unknown = set(doc) - known
    if unknown:
        raise ArgumentError(f"unknown config sections: {sorted(unknown)}")

    conv_sec = _section(doc, "converter")
    converter = ConverterParams(**_build_section(conv_sec, ConverterParams, "converter")) \
        if conv_sec else DEFAULT_CONVERTER
    nmpc = NmpcConfig(**_build_section(_section(doc, "nmpc"), NmpcConfig, "nmpc", _NMPC_KEYS))
    train = TrainConfig(**_build_section(_section(doc, "train"), TrainConfig, "train"))
    scen_sec = _section(doc, "scenario")
    scenario = _build_scenario(scen_sec, converter) if scen_sec else None
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
