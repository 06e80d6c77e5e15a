"""Scenario configuration: line-oriented key = value files with [sections].

Numbers accept scientific notation, comments run from '#' to end of line,
unknown sections or keys are rejected with the offending line number.
Presets are constant sets shipped in code so the headline scenarios
reproduce without external files.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

from .spacetime import CentralBody, PhysicalConstants


class ConfigError(ValueError):
    """Malformed configuration text; message carries the line number."""


@dataclass
class BodyConfig:
    preset: str | None = None
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


@dataclass
class SwitchConfig:
    alpha: tuple = (1.0, 0.0, 0.0, 0.0, 0.0)
    c1a: complex = 1.0
    c4a: complex = 1.0
    c1b: complex = 1.0
    c2b: complex = 1.0
    f_ba: complex = 1.0
    f_ab: complex = 1.0
    delta_1a: float = 0.0
    delta_4a: float = 0.0
    delta_1b: float = 0.0
    delta_2b: float = 0.0
    gamma_ba: float = 0.0
    gamma_ab: float = 0.0


@dataclass
class TriggerConfig:
    m: float | None = None
    omega: float | None = None
    delta: float | None = None
    v0: float | None = None
    hbar: float | None = None        # defaults to the active constants
    amplitude: float | None = None


@dataclass
class SweepRange:
    parameter: str
    lo: float
    hi: float
    count: int
    scale: str = "linear"

    def values(self):
        if self.count < 1:
            raise ConfigError(f"sweep count must be >= 1, got {self.count}")
        if self.count == 1:
            return [self.lo]
        if self.scale == "linear":
            step = (self.hi - self.lo) / (self.count - 1)
            return [self.lo + step * i for i in range(self.count)]
        if self.scale == "log":
            if self.lo <= 0 or self.hi <= 0:
                raise ConfigError("log sweeps need positive bounds")
            ratio = math.log(self.hi / self.lo) / (self.count - 1)
            return [self.lo * math.exp(ratio * i) for i in range(self.count)]
        raise ConfigError(f"unknown sweep scale {self.scale!r}")


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
PRESET_NAMES = ("earth", "small-mass")

_PRESET_BODY = {
    "earth": dict(mass=5.9722e24, radius=6.371e6),
    "small-mass": dict(mass=1e-10, radius=1e-15),
}

_PRESET_PROTOCOL = {
    "earth": dict(h=1.0, d=0.3e-6, dt_v=0.0, dtau_1=1e-17, eps=1e-19),
    "small-mass": dict(h=1e-7, d=1e-15, dt_v=0.0, dtau_1=3e-26, eps=3e-28),
}

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
    config.body = BodyConfig(preset=name, **_PRESET_BODY[name])
    config.protocol = ProtocolConfig(**_PRESET_PROTOCOL[name])
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


_FLOAT_FIELDS = {
    "protocol": {"h", "d", "dt_v", "dt_s", "dt_c", "dtau_1", "eps"},
    "trigger": {"m", "omega", "delta", "v0", "hbar", "amplitude"},
}
_COMPLEX_FIELDS = {"switch": {"c1a", "c4a", "c1b", "c2b", "f_ba", "f_ab"}}
_PHASE_FIELDS = {
    "switch": {"delta_1a", "delta_4a", "delta_1b", "delta_2b", "gamma_ba", "gamma_ab"}
}


def parse_config(text, constants, config=None):
    """Parse scenario text onto `config` (a fresh ScenarioConfig by default).

    A `preset` key inside [body] is applied immediately, so later keys in
    the file override preset values.
    """
    config = config if config is not None else ScenarioConfig()
    section = None
    sweep_parts = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{where}: malformed section header {line!r}")
            section = line[1:-1].strip().lower()
            if section not in ("body", "protocol", "switch", "trigger", "sweep"):
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ConfigError(f"{where}: empty value for key {key!r}")

        if section is None:
            if key == "scenario":
                config.scenario = value
                continue
            raise ConfigError(f"{where}: key {key!r} outside any section")
        if section == "body":
            if key == "preset":
                apply_preset(config, value, constants)
            elif key in ("mass", "radius"):
                setattr(config.body, key, _parse_float(value, where))
            else:
                raise ConfigError(f"{where}: unknown [body] key {key!r}")
        elif section == "protocol":
            if key not in _FLOAT_FIELDS["protocol"]:
                raise ConfigError(f"{where}: unknown [protocol] key {key!r}")
            setattr(config.protocol, key, _parse_float(value, where))
        elif section == "switch":
            if key == "alpha":
                config.switch.alpha = _parse_alpha(value, where)
            elif key in _COMPLEX_FIELDS["switch"]:
                setattr(config.switch, key, _parse_complex(value, where))
            elif key in _PHASE_FIELDS["switch"]:
                setattr(config.switch, key, _parse_float(value, where))
            else:
                raise ConfigError(f"{where}: unknown [switch] key {key!r}")
        elif section == "trigger":
            if key not in _FLOAT_FIELDS["trigger"]:
                raise ConfigError(f"{where}: unknown [trigger] key {key!r}")
            setattr(config.trigger, key, _parse_float(value, where))
        elif section == "sweep":
            if key == "target":
                if value not in ("timing", "switch"):
                    raise ConfigError(
                        f"{where}: sweep target must be 'timing' or 'switch'"
                    )
                config.sweep.target = value
            elif key in ("parameter", "min", "max", "count", "scale",
                         "parameter2", "min2", "max2", "count2", "scale2"):
                sweep_parts[key] = (value, where)
            else:
                raise ConfigError(f"{where}: unknown [sweep] key {key!r}")

    for suffix in ("", "2"):
        name = sweep_parts.get("parameter" + suffix)
        if name is None:
            continue
        def part(base, default=None):
            item = sweep_parts.get(base + suffix)
            return item if item is not None else (default, name[1])
        lo = part("min")
        hi = part("max")
        count = part("count")
        scale = part("scale", "linear")
        for label, item in (("min", lo), ("max", hi), ("count", count)):
            if item[0] is None:
                raise ConfigError(f"{name[1]}: sweep {label}{suffix} is required")
        config.sweep.ranges.append(
            SweepRange(
                parameter=name[0],
                lo=_parse_float(lo[0], lo[1]),
                hi=_parse_float(hi[0], hi[1]),
                count=_parse_int(count[0], count[1]),
                scale=scale[0],
            )
        )
    return config


def parse_constants(text):
    """Constants override file: bare 'c = .', 'G = .', 'hbar = .' lines."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("c", "G", "hbar"):
            raise ConfigError(f"line {lineno}: unknown constant {key!r}")
        values[key] = _parse_float(value.strip(), f"line {lineno}")
    return PhysicalConstants(**values)


#: parameters a sweep may vary, mapped to their config section
SWEEPABLE = {
    "h": "protocol",
    "d": "protocol",
    "dt_v": "protocol",
    "dt_c": "protocol",
    "dtau_1": "protocol",
    "eps": "protocol",
    "mass": "body",
    "radius": "body",
    "c1a": "switch",
    "c4a": "switch",
    "c1b": "switch",
    "c2b": "switch",
    "f_ba": "switch",
    "f_ab": "switch",
}


def with_sweep_value(config, parameter, value):
    """Copy of `config` with one swept parameter replaced."""
    if parameter not in SWEEPABLE:
        raise ConfigError(
            f"parameter {parameter!r} is not sweepable; "
            f"choose from {', '.join(sorted(SWEEPABLE))}"
        )
    section = SWEEPABLE[parameter]
    new = replace(config)
    if section == "protocol":
        new.protocol = replace(config.protocol, **{parameter: value})
    elif section == "body":
        new.body = replace(config.body, **{parameter: value})
    else:
        new.switch = replace(config.switch, **{parameter: complex(value)})
    return new
