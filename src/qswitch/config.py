"""Scenario configuration: line-oriented key = value files with [sections].

The keys of a section are the fields of its dataclass, each read as the
finite float or complex number its field declares, by one ASCII number
grammar (`_GRAMMAR`): signed decimals, signed integers, and complex values
of a real, an imaginary or both, in the parentheses repr writes or none; a
non-zero literal must not underflow to 0.  Comments run from '#' to end of
line; unknown sections or keys and malformed numbers are rejected with the
offending line number.
Presets are constant sets shipped in code so the headline scenarios
reproduce without external files.
"""

from __future__ import annotations

import cmath
import math
import os
import re
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
        return _points(self.lo, self.hi, self.count, self.scale, range(self.count))


def _points(lo, hi, count, scale, indices):
    """The points of a range at `indices`."""
    if count == 1:
        return [lo for _ in indices]
    if scale == "log":
        ratio = math.log(hi / lo) / (count - 1)
        return [lo * math.exp(ratio * i) for i in indices]
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in indices]


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
    elif not math.isfinite(hi - lo):
        return "max", f"linear sweep max - min = {hi - lo:g} leaves the float range"
    if count > MAX_SWEEP_POINTS:
        return "count", f"sweep grid of {count} points exceeds {MAX_SWEEP_POINTS}"
    try:
        (last,) = _points(lo, hi, count, scale, [count - 1])
    except OverflowError:  # math.exp past the float range
        last = math.inf
    if not math.isfinite(last):
        return "max", f"{scale} sweep last point = {last:g} leaves the float range"
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


#: one unsigned ASCII decimal: digits with an optional point and exponent, or
#: inf, infinity or nan, which the finite check then names
_DECIMAL = r"(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf(?:inity)?|nan)"

#: kind -> (full match of a number of that kind, Python's reader of its text
#: with spaces removed).  A complex value is a real, an imaginary, or a real and
#: an unsigned imaginary joined by a sign with spaces only around it, in the one
#: pair of parentheses repr writes or none; (?=[^)]) asks for at least one part.
#: The groups `real` and `imag` are the literals of the value's parts.
_GRAMMAR = {kind: (re.compile(pattern, re.ASCII | re.IGNORECASE), read) for kind, pattern, read in (
    ("number", rf"(?P<real>[+-]?{_DECIMAL})", float),
    ("integer", r"[+-]?[0-9]+", int),
    ("complex value", rf"(\()?(?=[^)])(?P<real>[+-]?{_DECIMAL})?"
                      rf"(?:(?(real) *[+-] *|[+-]?)(?P<imag>{_DECIMAL})j)?(?(1)\))", complex),
)}

#: matches a literal with a non-zero digit before its exponent
_NON_ZERO = re.compile(r"[^e]*[1-9]", re.IGNORECASE)


def _read(kind, text, where):
    """The value of `text` as a number of `kind`.  Each literal part must be
    finite and, if a digit before its exponent is non-zero, non-zero:
    1e-400 underflows to 0, 5e-324 and 0e5 do not."""
    text = text.strip()
    pattern, read = _GRAMMAR[kind]
    match = pattern.fullmatch(text)
    try:
        value = match and read(text.replace(" ", ""))
    except ValueError:  # an integer past Python's digit limit
        match = None
    if match is None:
        raise ConfigError(f"{where}: cannot parse {kind} {text!r}")
    # an integer has no parts (cmath.isfinite(10**400) would raise OverflowError)
    parts = pattern.groupindex
    if parts and not cmath.isfinite(value):
        raise ConfigError(f"{where}: value must be finite, got {text!r}")
    for part in parts:
        if getattr(value, part) == 0 and _NON_ZERO.match(match[part] or ""):
            raise ConfigError(f"{where}: non-zero value {text!r} underflows to 0")
    return value


def _parse_complex(text, where):
    return _read("complex value", text, where)


def _parse_float(text, where):
    return _read("number", text, where)


def _parse_int(text, where):
    return _read("integer", text, where)


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

#: [sweep] range key -> its reader, None for text; a second range's keys end in "2"
_RANGE_KEYS = dict(parameter=None, min=_parse_float, max=_parse_float, count=_parse_int, scale=None)


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
            read = _RANGE_KEYS[key.removesuffix("2")]
            sweep_parts[key] = (read(value, where) if read else value, where)
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
        bounds = (parts["parameter"][0], parts["min"][0], parts["max"][0], parts["count"][0],
                  parts["scale"][0] if parts["scale"] else "linear")
        fault = _range_fault(*bounds)
        if fault is not None:
            raise ConfigError(f"{parts[fault[0]][1]}: {fault[1]}")
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
