"""Scenario configuration: line-oriented key = value files with [sections].

The keys of a section are the fields of its dataclass, each read as the
finite float or complex number its field declares.  Numbers accept
scientific notation, comments run from '#' to end of line, unknown
sections or keys are rejected with the offending line number.
Presets are constant sets shipped in code so the headline scenarios
reproduce without external files.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field, fields, make_dataclass, replace

import numpy as np

from .spacetime import CentralBody, PhysicalConstants
from .switch_model import AMPLITUDES, AmplitudeModel
from .trigger import TriggerParams


class ConfigError(ValueError):
    """Malformed configuration text; message carries the line number."""


@dataclass
class BodyConfig:
    mass: float | None = None
    radius: float | None = None


@dataclass
class ProtocolConfig:
    h: float | None = None
    d: float | None = None
    dt_v: float = 0.0
    dt_s: float | None = None   # explicit value bypasses the matching solver
    dt_c: float | None = None   # defaults to d/c
    dtau_1: float | None = None
    eps: float | None = None


#: [switch]: the target amplitudes alpha, then the amplitude model's fields
SwitchConfig = make_dataclass("SwitchConfig", [
    ("alpha", "tuple", field(default=(1.0, 0.0, 0.0, 0.0, 0.0))),
    *((f.name, f.type, field(default=f.default)) for f in fields(AmplitudeModel)),
], namespace={"__module__": __name__})

#: [trigger]: the clock's fields, each None until set (hbar then defaults to
#: the active constants)
TriggerConfig = make_dataclass("TriggerConfig", [
    (f.name, f.type, field(default=None)) for f in fields(TriggerParams)
], namespace={"__module__": __name__})


#: largest number of points a sweep grid may have
MAX_SWEEP_POINTS = 1_000_000

#: parameters a sweep may vary; SECTION_OF names each one's section
SWEEPABLE = ("h", "d", "dt_v", "dt_c", "dtau_1", "eps", "mass", "radius",
             *(amplitude for amplitude, _ in AMPLITUDES))


def _not_sweepable(parameter):
    return (f"parameter {parameter!r} is not sweepable; "
            f"choose from {', '.join(sorted(SWEEPABLE))}")


@dataclass
class SweepRange:
    parameter: str
    lo: float
    hi: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        fault = _range_fault(self.parameter, self.lo, self.hi, self.count, self.scale)
        if fault is not None:
            raise ConfigError(fault[1])

    def values(self):
        if self.count == 1:
            return [self.lo]
        if self.scale == "log":
            ratio = math.log(self.hi / self.lo) / (self.count - 1)
            return [self.lo * math.exp(ratio * i) for i in range(self.count)]
        step = (self.hi - self.lo) / (self.count - 1)
        return [self.lo + step * i for i in range(self.count)]


def _range_fault(parameter, lo, hi, count, scale):
    """(sweep key, message) of the first thing wrong with a range, or None."""
    if parameter not in SWEEPABLE:
        return "parameter", _not_sweepable(parameter)
    if scale not in ("linear", "log"):
        return "scale", f"unknown sweep scale {scale!r}"
    if count < 1:
        return "count", f"sweep count must be >= 1, got {count}"
    if scale == "log":
        for key, bound in (("min", lo), ("max", hi)):
            if bound <= 0:
                return key, "log sweeps need positive bounds"
        if not 0 < hi / lo < math.inf:
            return "max", f"log sweep max/min = {hi / lo:g} leaves the float range"
    return None


@dataclass
class SweepConfig:
    target: str = "timing"
    ranges: list = field(default_factory=list)


@dataclass
class ScenarioConfig:
    scenario: str = "run"
    body: BodyConfig = field(default_factory=BodyConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    switch: SwitchConfig = field(default_factory=SwitchConfig)
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def central_body(self, constants):
        if self.body.mass is None or self.body.radius is None:
            raise ConfigError("body mass and radius are required (or use a preset)")
        return CentralBody(self.body.mass, self.body.radius, constants)


#: scenario presets; trigger defaults are derived from the active constants
#: at resolve time so the parameter hierarchy stays exact under overrides.
#: name -> (body values, protocol values)
_PRESETS = {
    "earth": (dict(mass=5.9722e24, radius=6.371e6),
              dict(h=1.0, d=0.3e-6, dt_v=0.0, dtau_1=1e-17, eps=1e-19)),
    "small-mass": (dict(mass=1e-10, radius=1e-15),
                   dict(h=1e-7, d=1e-15, dt_v=0.0, dtau_1=3e-26, eps=3e-28)),
}
PRESET_NAMES = tuple(_PRESETS)

TRIGGER_PRESET_M = 1e-25       # kg
TRIGGER_PRESET_OMEGA = 1e3     # rad/s


def default_trigger_config(constants):
    """Trigger parameters with hierarchy factors (20, 20, ~2500)."""
    hbar = constants.hbar
    sigma = math.sqrt(hbar / (TRIGGER_PRESET_M * TRIGGER_PRESET_OMEGA))
    return TriggerConfig(
        m=TRIGGER_PRESET_M,
        omega=TRIGGER_PRESET_OMEGA,
        delta=20.0 * sigma,
        v0=10.0 * math.pi * hbar * TRIGGER_PRESET_OMEGA,
        hbar=hbar,
    )


def apply_preset(config, name, constants):
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    body, protocol = _PRESETS[name]
    config.body = BodyConfig(**body)
    config.protocol = ProtocolConfig(**protocol)
    config.trigger = default_trigger_config(constants)
    if config.scenario == "run":
        config.scenario = name
    return config


def _parse_complex(text, where):
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{where}: cannot parse complex value {text!r}") from None
    if not cmath.isfinite(value):
        raise ConfigError(f"{where}: value must be finite, got {text!r}")
    return value


def _parse_float(text, where):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse number {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: value must be finite, got {text!r}")
    return value


def _parse_int(text, where):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse integer {text!r}") from None


def _parse_alpha(text, where):
    parts = [p for p in text.split(",")]
    if len(parts) != 5:
        raise ConfigError(f"{where}: alpha needs 5 comma-separated values")
    return tuple(_parse_complex(p, where) for p in parts)


#: the sections whose keys are their dataclass's fields
_SECTIONS = {"body": BodyConfig, "protocol": ProtocolConfig,
             "switch": SwitchConfig, "trigger": TriggerConfig}

#: reader of a field, by its declared type (a string under the
#: annotations import)
_READERS = {"float": _parse_float, "float | None": _parse_float,
            "complex": _parse_complex, "tuple": _parse_alpha}

#: section -> {key: reader} of every key a section's dataclass declares
_KEYS = {name: {f.name: _READERS[f.type] for f in fields(cls)} for name, cls in _SECTIONS.items()}

#: the section that declares each key; no key is declared by two sections
SECTION_OF = {key: name for name, keys in _KEYS.items() for key in keys}

_RANGE_KEYS = ("parameter", "min", "max", "count", "scale")


def _lines(text, sections, fold_case):
    """(where, section, key, value) of each `key = value` line of `text`.

    '#' starts a comment; section is the lower-cased name of the last
    `[section]` header, which must be one of `sections`, or None before the
    first header; keys are lower-cased when fold_case is true.  A key given
    twice in one section is rejected at its second line.
    """
    section, seen = None, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{where}: malformed section header {line!r}")
            section = line[1:-1].strip().lower()
            if section not in sections:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if fold_case:
            key = key.lower()
        if not value:
            raise ConfigError(f"{where}: empty value for key {key!r}")
        first = seen.setdefault((section, key), where)
        if first != where:
            raise ConfigError(f"{where}: key {key!r} repeats {first}")
        yield where, section, key, value


def parse_config(text, constants, config=None):
    """Parse scenario text onto `config` (a fresh ScenarioConfig by default).

    A `preset` key inside [body] is applied immediately, so later keys in
    the file override preset values.
    """
    config = config if config is not None else ScenarioConfig()
    sweep_parts = {}
    for where, section, key, value in _lines(text, (*_SECTIONS, "sweep"), fold_case=True):
        if section is None:
            if key != "scenario":
                raise ConfigError(f"{where}: key {key!r} outside any section")
            if any(sep and sep in value for sep in ("/", os.sep, os.altsep)):
                raise ConfigError(f"{where}: scenario name {value!r} holds a path separator")
            config.scenario = value
        elif section == "body" and key == "preset":
            try:
                apply_preset(config, value, constants)
            except ConfigError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        elif key in _KEYS.get(section, ()):
            setattr(getattr(config, section), key, _KEYS[section][key](value, where))
        elif section == "sweep" and key == "target":
            if value not in ("timing", "switch"):
                raise ConfigError(f"{where}: sweep target must be 'timing' or 'switch'")
            config.sweep.target = value
        elif section == "sweep" and key.removesuffix("2") in _RANGE_KEYS:
            sweep_parts[key] = (value, where)
        else:
            raise ConfigError(f"{where}: unknown [{section}] key {key!r}")

    for suffix in ("", "2"):
        parts = {key: sweep_parts.get(key + suffix) for key in _RANGE_KEYS}
        if parts["parameter"] is None:
            for key, (_, where) in sweep_parts.items():
                if key.removesuffix("2") + suffix == key:
                    raise ConfigError(f"{where}: sweep {key} needs parameter{suffix}")
            continue
        for key in ("min", "max", "count"):
            if parts[key] is None:
                raise ConfigError(f"{parts['parameter'][1]}: sweep {key}{suffix} is required")
        bounds = (parts["parameter"][0], _parse_float(*parts["min"]),
                  _parse_float(*parts["max"]), _parse_int(*parts["count"]),
                  parts["scale"][0] if parts["scale"] else "linear")
        fault = _range_fault(*bounds)
        if fault is not None:
            key, message = fault
            raise ConfigError(f"{parts[key][1]}: {message}")
        config.sweep.ranges.append(SweepRange(*bounds))
        total = math.prod(rng.count for rng in config.sweep.ranges)
        if total > MAX_SWEEP_POINTS:
            raise ConfigError(f"{parts['count'][1]}: sweep grid of {total} points "
                              f"exceeds {MAX_SWEEP_POINTS}")
    return config


def parse_constants(text):
    """Constants override file: bare 'c = .', 'G = .', 'hbar = .' lines."""
    values = {}
    for where, _, key, value in _lines(text, (), fold_case=False):
        if key not in ("c", "G", "hbar"):
            raise ConfigError(f"{where}: unknown constant {key!r}")
        values[key] = _parse_float(value, where)
    return PhysicalConstants(**values)


def with_sweep_value(config, parameter, value):
    """Copy of `config` with one swept parameter replaced by a value, or by a
    numpy column of one value per point."""
    if parameter not in SWEEPABLE:
        raise ConfigError(_not_sweepable(parameter))
    section = SECTION_OF[parameter]
    if _KEYS[section][parameter] is _parse_complex:
        value = value.astype(complex) if isinstance(value, np.ndarray) else complex(value)
    return replace(config, **{section: replace(getattr(config, section), **{parameter: value})})
