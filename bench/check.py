"""Output checker: every CSV the CLI wrote, checked without the program.

The checker reads the generated scenario files with its own small parser,
recomputes each barrier's Bogoliubov pair (alpha, beta) with numpy over the
whole k array, and checks each table row against that oracle and against
the identities every row must satisfy.  A row fails if any check fails, or
if the program's own verdict column (contained, sweep_ok, exact_contained,
resonance_possible) disagrees with the independent verdict.  Missing rows
count as failed.

Rapidity comparisons use a tolerance scaled to double rounding: composing
n barriers leaves an absolute error of about n * eps * cosh(S_n) in
|alpha|, which is d(theta) = d|alpha| / sinh(theta) in rapidity (capped by
the square-root form near theta = 0).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EPS = 2.0 ** -52
# Relative tolerance on probabilities recomputed from the same rapidities.
PROB_RTOL = 1e-11
# Absolute tolerance on T + R = 1 (the program's own amplitude contract).
UNITARITY_ATOL = 1e-9


def rapidity_tol(theta: float, s_n: float, n: int) -> float:
    d_alpha = 8.0 * n * EPS * math.cosh(min(s_n, 700.0))
    cancel = min(d_alpha / max(math.sinh(theta), 1e-300), math.sqrt(2.0 * d_alpha))
    return 8.0 * EPS * max(1.0, theta) + cancel


# ---------------------------------------------------------------------------
# scenario files (only the subset of the grammar the generator writes)
# ---------------------------------------------------------------------------

@dataclass
class ScenarioData:
    barriers: list[tuple[str, dict]] = field(default_factory=list)
    episodes: list[float] = field(default_factory=list)
    k: np.ndarray = field(default_factory=lambda: np.zeros(0))


def read_scenario(path: Path) -> ScenarioData:
    data = ScenarioData()
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "barrier":
            data.barriers.append((tokens[1], dict(t.split("=", 1) for t in tokens[2:])))
        elif tokens[0] == "episode":
            data.episodes.append(float(tokens[1].split("=", 1)[1]))
        elif line.startswith("k"):
            start, stop, steps = line.split("=", 1)[1].strip().split(":")
            n = int(steps)
            h = (float(stop) - float(start)) / (n - 1) if n > 1 else 0.0
            data.k = np.array([float(start) + i * h for i in range(n)])
    return data


# ---------------------------------------------------------------------------
# oracle: exact (alpha, beta) per barrier, vectorized over k
# ---------------------------------------------------------------------------

def _rect(height: float, width: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered slab: alpha = e^{-ikL}[C + i(2E - V0)/(2k) S], beta = -i V0/(2k) S."""
    e = k * k
    u = height - e
    w = np.sqrt(np.abs(u))
    wl = w * width
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(u > 0, np.cosh(wl), np.cos(wl))
        s = np.where(u > 0, np.sinh(wl), np.sin(wl)) / w
    tiny = np.abs(u) * width * width < 1e-12
    c = np.where(tiny, 1.0 + 0.5 * u * width * width, c)
    s = np.where(tiny, width * (1.0 + u * width * width / 6.0), s)
    alpha = np.exp(-1j * k * width) * (c + 1j * (2.0 * e - height) / (2.0 * k) * s)
    beta = -1j * height / (2.0 * k) * s
    return alpha, beta


def _compose(m1, m2):
    a1, b1 = m1
    a2, b2 = m2
    return a1 * a2 + b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _shift(m, k: np.ndarray, a: float):
    return m[0], m[1] * np.exp(2j * k * a)


def barrier_matrix(kind: str, p: dict, k: np.ndarray):
    pos = float(p["position"])
    if kind == "rect":
        m = _rect(float(p["height"]), float(p["width"]), k)
    elif kind == "delta":
        g = 0.5 * float(p["strength"]) / k
        m = (1.0 - 1j * g, -1j * g + 0.0 * k)
    elif kind == "slab":
        segs = [tuple(map(float, part.split("x"))) for part in p["segments"].split(",")]
        left = -0.5 * sum(w for _, w in segs)
        m = None
        for h, w in segs:
            part = _shift(_rect(h, w, k), k, left + 0.5 * w)
            m = part if m is None else _compose(m, part)
            left += w
    else:
        raise ValueError(f"unknown barrier kind {kind!r}")
    return _shift(m, k, pos)


@dataclass
class Oracle:
    """Per-k oracle values: thetas (n_k, n), B, S, compound theta."""

    k: np.ndarray
    thetas: np.ndarray
    b: np.ndarray
    s: np.ndarray
    theta_exact: np.ndarray | None

    @property
    def n(self) -> int:
        return self.thetas.shape[1]


def _edges(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = np.array([math.fsum(row) for row in thetas])
    return np.maximum(2.0 * thetas.max(axis=1) - s, 0.0), s


def oracle_for(data: ScenarioData) -> Oracle:
    if data.episodes:
        thetas = np.arcsinh(np.sqrt(np.array([data.episodes])))
        b, s = _edges(thetas)
        return Oracle(np.zeros(1), thetas, b, s, None)
    mats = [barrier_matrix(kind, p, data.k) for kind, p in data.barriers]
    # theta_i = asinh|beta_i| is well conditioned at every opacity
    thetas = np.stack([np.arcsinh(np.abs(beta)) for _, beta in mats], axis=1)
    total = mats[0]
    for m in mats[1:]:
        total = _compose(total, m)
    b, s = _edges(thetas)
    return Oracle(data.k, thetas, b, s, np.arcsinh(np.abs(total[1])))


# ---------------------------------------------------------------------------
# row checks
# ---------------------------------------------------------------------------

def theta_of_n(n: float) -> float:
    return math.asinh(math.sqrt(n)) if n >= 0.0 else math.nan


def theta_of_t(t: float) -> float:
    return math.asinh(math.sqrt((1.0 - t) / t)) if 0.0 < t <= 1.0 else math.nan


def _close(a: float, b: float, rtol: float = PROB_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def _bool(text: str) -> bool | None:
    return {"true": True, "false": False}.get(text)


class RowChecker:
    """Checks for one table; ``errors`` collects the failed checks of a row."""

    def __init__(self, oracle: Oracle, i: int):
        self.o, self.i = oracle, i
        self.errors: list[str] = []
        self.b, self.s = float(oracle.b[i]), float(oracle.s[i])

    def tol(self, theta: float) -> float:
        return rapidity_tol(theta, self.s, self.o.n)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def theta_near(self, got: float, want: float, what: str) -> None:
        # both sides carry rounding, hence twice the tolerance
        self.expect(abs(got - want) <= 2.0 * self.tol(want), f"{what}: {got!r} vs {want!r}")

    def k(self, text: str) -> None:
        self.expect(_close(float(text), float(self.o.k[self.i]), 1e-12), "k")

    def envelopes(self, row: dict) -> tuple[float, float]:
        """The six envelope columns agree with the oracle interval; returns
        the row's own [B_n, S_n] read back from N_low / N_high."""
        n_low, n_high = float(row["N_low"]), float(row["N_high"])
        b_row, s_row = theta_of_n(n_low), theta_of_n(n_high)
        self.theta_near(b_row, self.b, "B_n")
        self.theta_near(s_row, self.s, "S_n")
        self.expect(_close(float(row["T_min"]), 1.0 / (1.0 + n_high)), "T_min")
        self.expect(_close(float(row["T_upper"]), 1.0 / (1.0 + n_low)), "T_upper")
        self.expect(_close(float(row["R_low"]), n_low / (1.0 + n_low)), "R_low")
        self.expect(_close(float(row["R_high"]), n_high / (1.0 + n_high)), "R_high")
        return b_row, s_row

    def inside(self, theta: float, b: float, s: float) -> bool:
        return b - self.tol(b) <= theta <= s + self.tol(s)

    def verdict(self, text: str, independent: bool, what: str) -> None:
        self.expect(_bool(text) is independent, f"{what} verdict {text} vs {independent}")

    def resonance(self, text: str) -> None:
        gap = 2.0 * float(self.o.thetas[self.i].max()) - self.s
        if abs(gap) > self.tol(self.s):  # exactly on B_n = 0 either verdict holds
            self.verdict(text, gap < 0.0, "resonance_possible")


def check_bounds(row: dict, c: RowChecker) -> None:
    c.k(row["k"])
    ts = [float(row[f"T_{j + 1}"]) for j in range(c.o.n)]
    for j, t in enumerate(ts):
        c.theta_near(theta_of_t(t), float(c.o.thetas[c.i, j]), f"T_{j + 1}")
    c.envelopes(row)
    c.expect(_close(float(row["T_classical"]), math.prod(ts), 1e-12 * c.o.n), "T_classical")
    c.resonance(row["resonance_possible"])


def check_sweep(row: dict, c: RowChecker) -> None:
    c.k(row["k"])
    t, r, n = float(row["T_exact"]), float(row["R_exact"]), float(row["N_exact"])
    c.expect(abs(t + r - 1.0) <= UNITARITY_ATOL, f"T + R - 1 = {t + r - 1.0!r}")
    theta = theta_of_n(n)
    c.theta_near(theta, float(c.o.theta_exact[c.i]), "theta_exact")
    c.theta_near(theta_of_t(t), theta, "T_exact vs N_exact")
    b_row, s_row = c.envelopes(row)
    contained = c.inside(theta, b_row, s_row)
    c.expect(contained, f"theta_exact {theta!r} outside [{b_row!r}, {s_row!r}]")
    c.verdict(row["contained"], contained, "contained")


def check_resonance(row: dict, c: RowChecker) -> None:
    c.k(row["k"])
    t_peak, t_min = float(row["T_peak"]), float(row["T_min"])
    c.theta_near(theta_of_t(t_peak), float(c.o.thetas[c.i].max()), "T_peak")
    c.theta_near(theta_of_t(t_min), c.s, "T_min")
    root = math.sqrt(t_min)
    c.expect(_close(float(row["threshold"]), 2.0 * root / (1.0 + root)), "threshold")
    c.expect(abs(float(row["margin"]) - (t_peak - float(row["threshold"]))) <= 1e-15, "margin")
    c.resonance(row["resonance_possible"])


def check_verify(row: dict, c: RowChecker) -> None:
    if c.o.theta_exact is not None:
        c.k(row["k"])
    b_row, s_row = float(row["B_n"]), float(row["S_n"])
    c.theta_near(b_row, c.b, "B_n")
    c.theta_near(s_row, c.s, "S_n")
    lo, hi = float(row["theta_min_observed"]), float(row["theta_max_observed"])
    swept = lo <= hi and c.inside(lo, b_row, s_row) and c.inside(hi, b_row, s_row)
    c.expect(swept, f"sweep extremes [{lo!r}, {hi!r}] outside [{b_row!r}, {s_row!r}]")
    c.verdict(row["sweep_ok"], swept, "sweep_ok")
    if c.o.theta_exact is not None:
        theta = float(c.o.theta_exact[c.i])
        c.verdict(row["exact_contained"], c.inside(theta, c.b, c.s), "exact_contained")


_CHECKS = {"bounds": check_bounds, "sweep": check_sweep,
           "resonance": check_resonance, "verify": check_verify}
_VERDICTS = ("contained", "sweep_ok", "exact_contained")


def read_table(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


@dataclass
class TableResult:
    attempted: int
    failed: int
    reasons: list[str]
    status_ok: bool


def check_table(scenario: Path, analysis: str, table: Path, exit_code: int,
                unstable_rows: set[int] = frozenset()) -> TableResult:
    """Check one CLI output.  ``unstable_rows`` are rows that differed
    between passes of the same seed; they fail too."""
    oracle = oracle_for(read_scenario(scenario))
    expected = len(oracle.k)
    rows = read_table(table) if exit_code in (0, 2) and table.exists() else []
    failed, reasons = 0, []
    for i in range(expected):
        if i >= len(rows):
            failed += 1
            continue
        c = RowChecker(oracle, i)
        try:
            _CHECKS[analysis](rows[i], c)
        except (KeyError, TypeError, ValueError) as exc:
            c.errors.append(f"unreadable row: {exc!r}")
        if i in unstable_rows:
            c.errors.append("differs from the first pass")
        if c.errors:
            failed += 1
            if len(reasons) < 3:
                reasons.append(f"{table.name} row {i}: " + "; ".join(c.errors))
    if len(rows) != expected:
        reasons.append(f"{table.name}: {len(rows)} rows for {expected} k values")
    # exit status 2 exactly when the program's own verdicts flag a row; a
    # crash (any other status) already failed every row
    flagged = any(_bool(row.get(v, "")) is False for row in rows for v in _VERDICTS)
    status_ok = exit_code == (2 if flagged else 0) or exit_code not in (0, 2)
    return TableResult(expected, failed, reasons, status_ok)
