"""Scenario documents: a flat key/value block plus a table of barriers.

Grammar (one statement per line, ``#`` starts a comment anywhere):

    mode = scattering             # or: production
    analyses = bounds, sweep      # subset of bounds/sweep/verify/resonance
    k = 0.4:2.0:200               # sweep start:stop:steps (inclusive), or
    k = 0.5 1.0 1.5               # an explicit list
    seed = 7                      # optional (>= 0), verify/sweep reproducibility
    samples = 20000               # optional (>= 1), random-sweep sample count

    barrier rect  position=-2.0 height=2.0 width=1.0
    barrier delta position=3.0  strength=1.5
    barrier slab  position=6.0  segments=2.0x0.5,1.0x0.5

Production mode replaces barriers with excitation episodes, which carry a
particle number and no spatial data (``k`` is then optional):

    mode = production
    episode n=1.0
    episode n=1.0

Two tables hold the grammar.  _KINDS names each barrier kind's spec class;
the kind's parameters are that class's fields, every one required and none
other allowed, each a number except a slab's segments.  _KEYS names each key's
Scenario field and reader; a key left out takes Scenario's default.  Barriers
are sorted by position on load; overlapping (closed) supports are rejected.
All physical checks run at parse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .barriers import (BarrierSpec, Delta, PiecewiseConstant, Rectangular, check_layout,
                       check_wavenumbers, support)
from .errors import DomainError, ParseError

__all__ = ["Scenario", "parse_scenario", "load_scenario", "ANALYSES", "MODES"]

ANALYSES = ("bounds", "sweep", "verify", "resonance")
MODES = ("scattering", "production")


@dataclass(frozen=True)
class Scenario:
    """Validated input record: barriers (or episodes), sweep and analyses."""

    barriers: tuple[BarrierSpec, ...] = ()
    episodes: tuple[float, ...] = ()
    k_values: tuple[float, ...] = ()
    mode: str = "scattering"
    analyses: tuple[str, ...] = ("bounds",)
    seed: int | None = None
    samples: int | None = None
    source: str = "<string>"

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        for a in self.analyses:
            if a not in ANALYSES:
                raise DomainError(f"unknown analysis {a!r}, expected one of {ANALYSES}")
        check_wavenumbers(self.k_values)
        if self.mode == "scattering":
            if not self.barriers:
                raise DomainError("scattering scenario needs at least one barrier")
            if self.episodes:
                raise DomainError("episode lines are only valid in production mode")
            if not self.k_values:
                raise DomainError("scattering scenario needs a wavenumber sweep (k = ...)")
            check_layout(self.barriers)
        else:
            if not self.episodes:
                raise DomainError("production scenario needs at least one episode")
            if self.barriers:
                raise DomainError("barrier lines are only valid in scattering mode")
            if "sweep" in self.analyses:
                raise DomainError("sweep analysis needs a spatial model (scattering mode)")
            for n in self.episodes:
                if not (math.isfinite(n) and n >= 0.0):
                    raise DomainError(f"episode particle numbers must be >= 0, got {n!r}")


def _parse_float(text: str, line_no: int, fieldname: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"expected a number, got {text!r}", line_no, fieldname) from None
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {text!r}", line_no, fieldname)
    return value


def _parse_int(text: str, line_no: int, fieldname: str, minimum: int | None = None) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", line_no, fieldname) from None
    if minimum is not None and value < minimum:
        raise ParseError(f"{fieldname} must be >= {minimum}, got {value}", line_no, fieldname)
    return value


def _parse_kv_tokens(tokens: list[str], line_no: int) -> dict[str, str]:
    pairs = {}
    for tok in tokens:
        name, eq, value = tok.partition("=")
        if not eq or not name or not value:
            raise ParseError(f"expected key=value, got {tok!r}", line_no)
        if name in pairs:
            raise ParseError(f"duplicate parameter {name!r}", line_no, name)
        pairs[name] = value
    return pairs


def _parse_segments(text: str, line_no: int, fieldname: str) -> tuple[tuple[float, float], ...]:
    segments = []
    for part in text.split(","):
        h, sep, w = part.partition("x")
        if not sep:
            raise ParseError(f"segments are height x width pairs like 2.0x0.5, got {part!r}",
                             line_no, fieldname)
        segments.append((_parse_float(h, line_no, fieldname), _parse_float(w, line_no, fieldname)))
    return tuple(segments)


# barrier kind -> spec class; a kind's parameters are the class's fields, all
# required, read in field order (taken once here: fields() per line costs as
# much as reading a number)
_KINDS = {"rect": Rectangular, "delta": Delta, "slab": PiecewiseConstant}
_PARAMS = {kind: tuple(field.name for field in fields(spec_class))
           for kind, spec_class in _KINDS.items()}


def _parse_barrier(tokens: list[str], line_no: int) -> BarrierSpec:
    if len(tokens) < 2:
        raise ParseError("barrier line needs a kind (rect, delta or slab)", line_no)
    kind = tokens[1]
    pairs = _parse_kv_tokens(tokens[2:], line_no)
    if kind not in _KINDS:
        raise ParseError(f"unknown barrier kind {kind!r}", line_no)
    values = []
    for name in _PARAMS[kind]:
        if name not in pairs:
            raise ParseError(f"{kind} barrier needs {name}=...", line_no, name)
        parse = _parse_segments if name == "segments" else _parse_float
        values.append(parse(pairs.pop(name), line_no, name))
    try:
        spec = _KINDS[kind](*values)
    except DomainError as exc:
        raise ParseError(str(exc), line_no) from None
    if pairs:
        raise ParseError(f"unexpected parameters {sorted(pairs)} for {kind}", line_no)
    return spec


def _parse_sweep(value: str, line_no: int) -> tuple[float, ...]:
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ParseError("sweep must be start:stop:steps", line_no, "k")
        start = _parse_float(parts[0], line_no, "k")
        stop = _parse_float(parts[1], line_no, "k")
        steps = _parse_int(parts[2], line_no, "k")
        if steps < 1:
            raise ParseError(f"sweep needs steps >= 1, got {steps}", line_no, "k")
        if steps == 1:
            return (start,)
        h = (stop - start) / (steps - 1)
        # start + i * h, the same two IEEE operations per k as a Python loop;
        # an overflow to inf or nan is left for Scenario to refuse
        with np.errstate(over="ignore", invalid="ignore"):
            return tuple((start + np.arange(steps) * h).tolist())
    items = value.replace(",", " ").split()
    if not items:
        raise ParseError("k needs at least one value", line_no, "k")
    return tuple(_parse_float(item, line_no, "k") for item in items)


def _parse_analyses(value: str, line_no: int) -> tuple[str, ...]:
    analyses = tuple(dict.fromkeys(value.replace(",", " ").split()))
    if not analyses:
        raise ParseError("analyses needs at least one name", line_no, "analyses")
    return analyses


# scalar key -> (Scenario field, reader of the value's text and line), read in
# this order whatever the keys' lines; a key left out takes Scenario's default
_KEYS = {
    "mode": ("mode", lambda value, line_no: value),
    "analyses": ("analyses", _parse_analyses),
    "k": ("k_values", _parse_sweep),
    "seed": ("seed", partial(_parse_int, fieldname="seed", minimum=0)),
    "samples": ("samples", partial(_parse_int, fieldname="samples", minimum=1)),
}


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse and fully validate a scenario document."""
    scalars: dict[str, tuple[str, int]] = {}
    barriers: list[BarrierSpec] = []
    episodes: list[float] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "barrier":
            barriers.append(_parse_barrier(tokens, line_no))
        elif tokens[0] == "episode":
            pairs = _parse_kv_tokens(tokens[1:], line_no)
            if set(pairs) != {"n"}:
                raise ParseError("episode lines are 'episode n=<number>'", line_no)
            episodes.append(_parse_float(pairs["n"], line_no, "n"))
        else:
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or not key or not value:
                raise ParseError(f"expected 'key = value', got {line!r}", line_no)
            if key in scalars:
                raise ParseError(f"duplicate key {key!r} (first on line {scalars[key][1]})",
                                 line_no, key)
            scalars[key] = (value, line_no)

    for key, (_, line_no) in scalars.items():
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", line_no, key)
    settings = {fieldname: parse(*scalars[key])
                for key, (fieldname, parse) in _KEYS.items() if key in scalars}
    return Scenario(barriers=tuple(sorted(barriers, key=lambda b: support(b)[0])),
                    episodes=tuple(episodes), source=source, **settings)


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file."""
    p = Path(path)
    return parse_scenario(p.read_text(encoding="utf-8"), source=str(p))
