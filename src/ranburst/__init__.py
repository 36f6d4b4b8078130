"""Transient Markov loss-model toolkit for a shared 5G PRB block pool.

Three admission policies over one capacity pool (no priority, preemptive
priority, priority with adaptive downgrade), an event-driven Monte-Carlo
simulator with burst injection, and analytic oracles (occupancy recursion,
generator steady state, uniformization transients).
"""

__version__ = "0.1.0"

from .analytic import (
    OccupancyDistribution,
    StateSpace,
    build_generator,
    enumerate_states,
    kaufman_roberts,
    reachable_states,
    steady_state,
    transient,
)
from .errors import NumericalError, ScenarioError, StateSpaceLimitError
from .metrics import ReplicationSummary, aggregate, summarize
from .numerology import (
    Numerology,
    RadioConfig,
    SelectionContext,
    guard_band_khz,
    lookup_numerology,
    select_numerology,
    usable_capacity,
)
from .simulator import (
    InjectionSchedule,
    Scenario,
    TrajectoryRecord,
    mix_seed,
    run_experiment,
    run_replication,
)
from .traffic import (
    Dimension,
    TrafficClass,
    Transition,
    admissible,
    arrival_outcome,
    build_dimensions,
    occupied,
    transitions,
)

__all__ = [
    "__version__",
    "Dimension",
    "InjectionSchedule",
    "Numerology",
    "NumericalError",
    "OccupancyDistribution",
    "RadioConfig",
    "ReplicationSummary",
    "Scenario",
    "ScenarioError",
    "SelectionContext",
    "StateSpace",
    "StateSpaceLimitError",
    "TrafficClass",
    "TrajectoryRecord",
    "Transition",
    "admissible",
    "aggregate",
    "arrival_outcome",
    "build_dimensions",
    "build_generator",
    "enumerate_states",
    "guard_band_khz",
    "kaufman_roberts",
    "lookup_numerology",
    "mix_seed",
    "occupied",
    "reachable_states",
    "run_experiment",
    "run_replication",
    "select_numerology",
    "steady_state",
    "summarize",
    "transient",
    "transitions",
    "usable_capacity",
]
