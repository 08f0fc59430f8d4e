import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


def boost(theta: float):
    """Real positive boost: the phase-free matrix of rapidity theta."""
    from compound_barriers import HyperbolicParams
    from oracles import from_polar

    return from_polar(HyperbolicParams(theta, 0.0, 0.0))


# The two-barrier intervals: bounds_report on a two-element sequence, the n = 2
# row of [B_n, S_n], from the barriers' T, R or N.
def two_barrier_T(t1: float, t2: float) -> tuple[float, float]:
    from compound_barriers import RapiditySequence, bounds_report

    return bounds_report(RapiditySequence.from_transmissions((t1, t2))).t_interval


def two_barrier_R(r1: float, r2: float) -> tuple[float, float]:
    from compound_barriers import RapiditySequence, bounds_report, theta_from_R

    return bounds_report(RapiditySequence((theta_from_R(r1), theta_from_R(r2)))).r_interval


def two_barrier_N(n1: float, n2: float) -> tuple[float, float]:
    from compound_barriers import RapiditySequence, bounds_report

    return bounds_report(RapiditySequence.from_particle_numbers((n1, n2))).n_interval
