"""Scenario documents: a flat key/value block plus a table of barriers.

Grammar (one statement per line, ``#`` starts a comment anywhere):

    mode = scattering             # or: production
    analyses = bounds, sweep      # subset of bounds/sweep/verify/resonance
    k = 0.4:2.0:200               # sweep start:stop:steps (inclusive), or
    k = 0.5 1.0 1.5               # an explicit list
    seed = 7                      # optional (>= 0), verify/sweep reproducibility
    samples = 20000               # optional, random-sweep sample count

    barrier rect  position=-2.0 height=2.0 width=1.0
    barrier delta position=3.0  strength=1.5
    barrier slab  position=6.0  segments=2.0x0.5,1.0x0.5

Production mode replaces barriers with excitation episodes, which carry a
particle number and no spatial data (``k`` is then optional):

    mode = production
    episode n=1.0
    episode n=1.0

Barriers are sorted by position on load; overlapping (closed) supports are
rejected.  All physical checks run at parse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _parse_int(text: str, line_no: int, fieldname: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", line_no, fieldname) from None


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


def _take(pairs: dict[str, str], name: str, line_no: int, kind: str) -> str:
    if name not in pairs:
        raise ParseError(f"{kind} barrier needs {name}=...", line_no, name)
    return pairs.pop(name)


def _parse_barrier(tokens: list[str], line_no: int) -> BarrierSpec:
    if len(tokens) < 2:
        raise ParseError("barrier line needs a kind (rect, delta or slab)", line_no)
    kind = tokens[1]
    pairs = _parse_kv_tokens(tokens[2:], line_no)
    try:
        if kind == "rect":
            spec = Rectangular(
                height=_parse_float(_take(pairs, "height", line_no, kind), line_no, "height"),
                width=_parse_float(_take(pairs, "width", line_no, kind), line_no, "width"),
                position=_parse_float(_take(pairs, "position", line_no, kind), line_no, "position"),
            )
        elif kind == "delta":
            spec = Delta(
                strength=_parse_float(_take(pairs, "strength", line_no, kind), line_no, "strength"),
                position=_parse_float(_take(pairs, "position", line_no, kind), line_no, "position"),
            )
        elif kind == "slab":
            raw = _take(pairs, "segments", line_no, kind)
            segments = []
            for part in raw.split(","):
                h, sep, w = part.partition("x")
                if not sep:
                    raise ParseError(
                        f"segments are height x width pairs like 2.0x0.5, got {part!r}",
                        line_no, "segments")
                segments.append((_parse_float(h, line_no, "segments"),
                                 _parse_float(w, line_no, "segments")))
            spec = PiecewiseConstant(
                segments=tuple(segments),
                position=_parse_float(_take(pairs, "position", line_no, kind), line_no, "position"),
            )
        else:
            raise ParseError(f"unknown barrier kind {kind!r}", line_no)
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

    known = {"mode", "analyses", "k", "seed", "samples"}
    for key, (_, line_no) in scalars.items():
        if key not in known:
            raise ParseError(f"unknown key {key!r}", line_no, key)

    def scalar(key: str) -> tuple[str, int] | tuple[None, None]:
        return scalars.get(key, (None, None))

    mode_raw, _ = scalar("mode")
    mode = mode_raw if mode_raw is not None else "scattering"

    analyses_raw, analyses_line = scalar("analyses")
    if analyses_raw is None:
        analyses: tuple[str, ...] = ("bounds",)
    else:
        analyses = tuple(dict.fromkeys(analyses_raw.replace(",", " ").split()))
        if not analyses:
            raise ParseError("analyses needs at least one name", analyses_line, "analyses")

    k_raw, k_line = scalar("k")
    k_values = _parse_sweep(k_raw, k_line) if k_raw is not None else ()

    seed_raw, seed_line = scalar("seed")
    seed = _parse_int(seed_raw, seed_line, "seed") if seed_raw is not None else None
    if seed is not None and seed < 0:
        raise ParseError(f"seed must be >= 0, got {seed}", seed_line, "seed")

    samples_raw, samples_line = scalar("samples")
    samples = _parse_int(samples_raw, samples_line, "samples") if samples_raw is not None else None
    if samples is not None and samples < 1:
        raise ParseError(f"samples must be >= 1, got {samples}", samples_line, "samples")

    return Scenario(
        barriers=tuple(sorted(barriers, key=lambda b: support(b)[0])),
        episodes=tuple(episodes),
        k_values=k_values,
        mode=mode,
        analyses=analyses,
        seed=seed,
        samples=samples,
        source=source,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file."""
    p = Path(path)
    return parse_scenario(p.read_text(encoding="utf-8"), source=str(p))
