"""Seed-driven workload generator.

Each workload is a fixed list of CLI invocations over scenario files that
this module writes from the workload seed.  Sizes (barrier counts, barrier
kinds, k counts, sample counts) never depend on the seed, so work counts
repeat exactly across seeds; only heights, widths, strengths, positions
and the ends of the k ranges are drawn.  The same seed gives byte-identical
files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# Sizes, pinned here and recorded in NOTES.md.
CHAIN_BARRIERS = 20
CHAIN_K = 2000
OPAQUE_K = 40
PHASE_CHAIN_BARRIERS = 16
PHASE_K = 12
PHASE_SAMPLES = 100_000
PHASE_EPISODES = 8
VERIFY_K = 1000
VERIFY_SAMPLES = 2000

# Kinds of each chain size; shuffled per seed, counts fixed.
_CHAIN_KINDS = {
    20: ("rect",) * 7 + ("well",) * 3 + ("delta",) * 4 + ("dwell",) * 2 + ("slab",) * 4,
    16: ("rect",) * 5 + ("well",) * 3 + ("delta",) * 3 + ("dwell",) * 2 + ("slab",) * 3,
}


WHY = {
    "chain-scan": "20-barrier chain at 2000 k through bounds, sweep and resonance, plus an opaque "
                  "rect at theta 13-17: transfer_of, validation and audit dominate, no phase sweep",
    "phase-sweep": "verify on a 16-barrier chain at 12 k and 8 production episodes, 1e5 samples "
                   "each: the random-phase kernel dominates, few transfer_of calls",
    "chain-verify": "verify on the 20-barrier chain at 1000 k with 2000 samples: a thousand "
                    "small kernel calls, per-call overhead and the audit matter",
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``scenario`` names a generated file."""

    scenario: str
    analysis: str
    samples: int | None = None

    def argv(self, workdir: Path, seed: int, out: Path) -> list[str]:
        args = ["--scenario", str(workdir / self.scenario), "--analysis", self.analysis,
                "--seed", str(seed), "--out", str(out)]
        if self.samples is not None:
            args += ["--samples", str(self.samples)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    files: dict[str, str]
    sizes: dict[str, int]


def _f(x: float) -> str:
    return f"{x:.6f}"


def _chain(rng: random.Random, n: int) -> list[str]:
    """Mixed chain of ``n`` barriers laid out left to right with gaps."""
    kinds = list(_CHAIN_KINDS[n])
    rng.shuffle(kinds)
    lines, left = [], 0.0
    for kind in kinds:
        left += rng.uniform(0.3, 1.5)
        if kind in ("rect", "well"):
            height = rng.uniform(0.5, 2.5) if kind == "rect" else -rng.uniform(0.3, 1.5)
            width = rng.uniform(0.2, 0.8)
            lines.append(f"barrier rect position={_f(left + width / 2)} "
                         f"height={_f(height)} width={_f(width)}")
            left += width
        elif kind in ("delta", "dwell"):
            strength = rng.uniform(0.3, 2.0) * (1 if kind == "delta" else -1)
            lines.append(f"barrier delta position={_f(left)} strength={_f(strength)}")
        else:
            segs = [(rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.5)) for _ in range(2)]
            width = sum(w for _, w in segs)
            body = ",".join(f"{_f(h)}x{_f(w)}" for h, w in segs)
            lines.append(f"barrier slab position={_f(left + width / 2)} segments={body}")
            left += width
    return lines


def _scattering(lines: list[str], k: str, comment: str) -> str:
    return "\n".join([f"# {comment}", "mode = scattering",
                      "analyses = bounds, sweep, verify, resonance", f"k = {k}", "",
                      *lines]) + "\n"


def _sweep(rng: random.Random, lo: tuple[float, float], hi: tuple[float, float],
           steps: int) -> str:
    return f"{_f(rng.uniform(*lo))}:{_f(rng.uniform(*hi))}:{steps}"


def build(name: str, seed: int, sizes: dict[str, int] | None = None) -> Workload:
    """Workload ``name`` for ``seed``; ``sizes`` overrides the pinned sizes
    (the self-test uses tiny ones)."""
    s = {"chain_k": CHAIN_K, "opaque_k": OPAQUE_K, "phase_k": PHASE_K,
         "phase_samples": PHASE_SAMPLES, "verify_k": VERIFY_K,
         "verify_samples": VERIFY_SAMPLES, **(sizes or {})}
    # one stream per workload, so adding a workload never shifts another
    rng = random.Random(f"{name}:{seed}")
    if name in ("chain-scan", "chain-verify"):
        chain = _chain(rng, CHAIN_BARRIERS)
        k_count = s["chain_k"] if name == "chain-scan" else s["verify_k"]
        files = {"chain.scn": _scattering(
            chain, _sweep(rng, (0.30, 0.35), (2.95, 3.0), k_count),
            f"{CHAIN_BARRIERS}-barrier mixed chain, seed {seed}")}
        if name == "chain-verify":
            calls = (Call("chain.scn", "verify", s["verify_samples"]),)
            return Workload(name, calls, files,
                            {"barriers": CHAIN_BARRIERS, "k": k_count,
                             "samples": s["verify_samples"]})
        # One opaque rect: theta ~ 13-17, so N ~ 1e11-1e14 sits exactly on
        # both envelope edges (a single barrier attains its own bounds).
        files["opaque.scn"] = _scattering(
            ["barrier rect position=0.0 height=2.0 width=12.0"],
            _sweep(rng, (0.30, 0.32), (0.88, 0.90), s["opaque_k"]),
            f"single opaque rect, seed {seed}")
        calls = (Call("chain.scn", "bounds"), Call("chain.scn", "sweep"),
                 Call("chain.scn", "resonance"), Call("opaque.scn", "sweep"))
        return Workload(name, calls, files,
                        {"barriers": CHAIN_BARRIERS, "k": k_count, "opaque_k": s["opaque_k"]})
    if name == "phase-sweep":
        chain = _chain(rng, PHASE_CHAIN_BARRIERS)
        k = _sweep(rng, (0.8, 1.0), (2.6, 2.8), s["phase_k"])
        # N from 0.5 up to ~1e8 (theta up to ~10), log-uniform in between
        top = rng.uniform(0.5e8, 1e8)
        ns = [0.5, top] + [math.exp(rng.uniform(math.log(0.5), math.log(top)))
                           for _ in range(PHASE_EPISODES - 2)]
        rng.shuffle(ns)
        episodes = "\n".join(f"episode n={n:.6g}" for n in ns)
        files = {
            "chain16.scn": _scattering(chain, k, f"{PHASE_CHAIN_BARRIERS}-barrier chain, seed {seed}"),
            "episodes.scn": (f"# {PHASE_EPISODES} production episodes, seed {seed}\n"
                             "mode = production\nanalyses = verify\n\n" + episodes + "\n"),
        }
        calls = (Call("chain16.scn", "verify", s["phase_samples"]),
                 Call("episodes.scn", "verify", s["phase_samples"]))
        return Workload(name, calls, files,
                        {"barriers": PHASE_CHAIN_BARRIERS, "k": s["phase_k"],
                         "episodes": PHASE_EPISODES, "samples": s["phase_samples"]})
    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WHY)}")


def write(workload: Workload, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, text in workload.files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
