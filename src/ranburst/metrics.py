"""Metric extraction from trajectories and cross-replication aggregation.

All integrals are computed exactly from the piecewise-constant sample paths;
the reporting grid only affects the exported curves, never the averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .simulator import TrajectoryRecord
from .traffic import (
    ARRIVAL_ACCEPTED,
    ARRIVAL_DOWNGRADED,
    ARRIVAL_REJECTED,
    DOWNGRADE_CASCADE,
    EVENT_KINDS,
    PREEMPT_DISCARD,
)

_ARRIVAL_KINDS = (
    ARRIVAL_ACCEPTED,
    ARRIVAL_REJECTED,
    ARRIVAL_DOWNGRADED,
    PREEMPT_DISCARD,
    DOWNGRADE_CASCADE,
)
# Indexed by a record's kind code: whether the event is an arrival.
_IS_ARRIVAL = np.array([kind in _ARRIVAL_KINDS for kind in EVENT_KINDS])
_REJECTED = EVENT_KINDS.index(ARRIVAL_REJECTED)

GOOSE_DIM = 0
VIDEO_DIM = 1

# Path segments summed at once by ``_time_average``: 384 KB of float64 terms
# for three dimensions.
_SUM_ROWS = 16_384


def make_grid(horizon_ms: float, grid_ms: float) -> np.ndarray:
    n = int(round(horizon_ms / grid_ms))
    return np.arange(n + 1) * grid_ms


@lru_cache(maxsize=1)
def _shared_grid(horizon_ms: float, grid_ms: float) -> np.ndarray:
    """:func:`make_grid`, made once per (horizon, step) and read-only, so
    that the summaries of a run share one grid. Only the last grid is kept,
    since only one run's summaries share a grid and a kept grid may hold up
    to ``MAX_GRID_POINTS`` floats (80 MB)."""
    grid = make_grid(horizon_ms, grid_ms)
    grid.flags.writeable = False
    return grid


def _path(traj: TrajectoryRecord) -> tuple[np.ndarray, np.ndarray]:
    """Event times and the ``(n+1) x n_dims`` counts after each of them, in
    the record's integer dtype; row 0 holds the initial counts."""
    states = np.empty((traj.n_events + 1, traj.n_dims), dtype=traj.states.dtype)
    states[0] = traj.initial_counts
    states[1:] = traj.states[traj.state]
    return traj.t_ms, states


def _curves(times: np.ndarray, states: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Right-continuous counts on ``grid``: the state after the last event at
    or before each grid point."""
    return states[np.searchsorted(times, grid, side="right")].T


def _time_average(times: np.ndarray, states: np.ndarray, end: float) -> np.ndarray:
    """Exact time average of the path over [0, end]; every event lies at or
    before ``end``.

    The ``counts * dt`` terms of the segments are added in path order, one
    after another, so the result does not depend on how numpy would pair
    them up. A zero-length segment adds an exact 0.0, which leaves the sum
    as it is, so the segments are not filtered first. The terms are summed
    ``_SUM_ROWS`` segments at a time, without a float64 array of them all:
    the first term of each chunk takes the running total (0.0 before the
    first, which leaves a term as it is), and the chunk's ``cumsum`` goes on
    from there. Those are the additions one ``cumsum`` over the path makes,
    in the same order.
    """
    dt = np.diff(np.concatenate(([0.0], times, [end])))
    acc = np.zeros(states.shape[1])
    for lo in range(0, len(states), _SUM_ROWS):
        terms = states[lo:lo + _SUM_ROWS] * dt[lo:lo + _SUM_ROWS, None]
        terms[0] += acc
        acc = np.cumsum(terms, axis=0)[-1]
    return acc / end if end > 0 else acc


def session_curves(traj: TrajectoryRecord, grid: np.ndarray) -> np.ndarray:
    """Per-dimension session counts sampled on a time grid (right-continuous)."""
    return _curves(*_path(traj), grid)


def time_average_counts(traj: TrajectoryRecord) -> np.ndarray:
    """Exact time average of each dimension's count over the observed window."""
    return _time_average(*_path(traj), traj.end_ms)


@dataclass
class ReplicationSummary:
    """Scalar metrics plus gridded curves for one replication, over its
    observed window ``[0, end_ms]``.

    - ``rho_avg`` is the exact time average of the utilization, occupied
      blocks over capacity, integrated over the piecewise-constant path;
      ``rho_t`` samples it on ``grid``.
    - ``burst_duration_ms`` runs from the first time a priority session is
      present to the last; ``burst_period_ms`` from the injection instant to
      that same last time. When sessions are still present at the
      observation end, the last time is censored there. Both are None when
      no priority session is ever present, and the period also when there is
      no injection.
    - ``n_ga`` counts the video arrivals over the window, and ``r_rj``,
      ``r_dw`` and ``r_dc`` divide the video rejections, downgrades and
      discards by it; ``r_dw`` counts both cascade downgrades of ongoing
      sessions and downgraded admissions. All are None when ``n_ga`` is 0.
    - ``r_v`` is the rejection ratio of the priority-free part of the run:
      video rejections with no priority session present just before them,
      over video arrivals in that same condition; None when there are none.
      The whole-window rejection ratio is ``r_rj``.
    - ``counts`` holds the integer tallies behind the ratios.

    ``m_t`` holds session counts, so it keeps the record's integer dtype
    (``TrajectoryRecord.states.dtype``, int16 on the bundled scenarios);
    ``rho_t`` is float64.
    """

    replication: int
    seed: int
    rho_avg: float
    burst_period_ms: float | None
    burst_duration_ms: float | None
    r_rj: float | None
    r_dw: float | None
    r_dc: float | None
    r_v: float | None
    n_ga: int
    counts: dict[str, int]
    grid: np.ndarray
    rho_t: np.ndarray
    m_t: np.ndarray  # n_dims x len(grid)
    mean_counts: np.ndarray  # exact time average of each dimension's count


def _burst_period(traj: TrajectoryRecord, goose: np.ndarray):
    """``(burst_period_ms, burst_duration_ms)`` of the priority count
    ``goose`` before the first event and after each one."""
    present = goose > 0  # present[i]: a priority session is present after the first i events
    if not present.any():
        return None, None
    i = int(np.argmax(present))
    first = float(traj.t_ms[i - 1]) if i else 0.0
    if present[-1]:
        last = traj.end_ms
    else:
        left = np.flatnonzero(present[:-1] & ~present[1:])  # events after which none is
        last = float(traj.t_ms[left[-1]])
    if traj.t_inject_ms is None:
        return None, last - first
    return last - traj.t_inject_ms, last - first


def _ratios(traj: TrajectoryRecord, goose_count: np.ndarray) -> dict:
    """``n_ga``, the ``r_*`` ratios and ``counts`` of the path whose priority
    count before the first event and after each one is ``goose_count``."""
    arrival = _IS_ARRIVAL[traj.kind]
    rejected = traj.kind == _REJECTED
    video = arrival & (traj.dim == VIDEO_DIM)
    goose = arrival & (traj.dim == GOOSE_DIM)
    goose_free = goose_count[:-1] == 0  # no priority session just before each event
    video_arrivals = int(np.count_nonzero(video))
    video_rejected = int(np.count_nonzero(video & rejected))
    pre = 0
    if traj.t_inject_ms is not None:
        pre = int(np.count_nonzero(video & (traj.t_ms < traj.t_inject_ms)))
    gf_arrivals = int(np.count_nonzero(video & goose_free))
    gf_rejected = int(np.count_nonzero(video & goose_free & rejected))
    goose_arrivals = int(np.count_nonzero(goose))
    goose_rejected = int(np.count_nonzero(goose & rejected))
    downgraded = int(traj.downgraded.sum())
    discarded = int(traj.discarded.sum())

    n_ga = video_arrivals
    counts = {
        "video_arrivals": video_arrivals,
        "video_rejected": video_rejected,
        "video_downgraded": downgraded,
        "video_discarded": discarded,
        "goose_arrivals": goose_arrivals,
        "goose_rejected": goose_rejected,
        "n_ga_pre_inject": pre,
        "n_ga_post_inject": video_arrivals - pre,
        "goose_free_arrivals": gf_arrivals,
        "goose_free_rejected": gf_rejected,
    }
    if n_ga == 0:
        return {"n_ga": 0, "r_rj": None, "r_dw": None, "r_dc": None,
                "r_v": None, "counts": counts}
    return {
        "n_ga": n_ga,
        "r_rj": video_rejected / n_ga,
        "r_dw": downgraded / n_ga,
        "r_dc": discarded / n_ga,
        "r_v": gf_rejected / gf_arrivals if gf_arrivals else None,
        "counts": counts,
    }


def empirical_blocking(traj: TrajectoryRecord) -> dict[int, tuple[int, int]]:
    """Per-dimension (arrivals, outright rejections) over the window."""
    arrival = _IS_ARRIVAL[traj.kind]
    dim = traj.dim[arrival]
    rejected = traj.kind[arrival] == _REJECTED
    dims, first = np.unique(dim, return_index=True)
    return {
        int(d): (int(np.count_nonzero(dim == d)), int(np.count_nonzero(rejected[dim == d])))
        for d in dims[np.argsort(first)]
    }


def summarize(traj: TrajectoryRecord, grid_ms: float = 10.0) -> ReplicationSummary:
    """One replication's metrics (see :class:`ReplicationSummary`). The
    path's states and its priority-count column are taken once and shared by
    every metric, and the grid is made once per (horizon, step) and shared,
    read-only, by every summary on it."""
    grid = _shared_grid(traj.horizon_ms, grid_ms)
    times, states = _path(traj)
    mean_counts = _time_average(times, states, traj.end_ms)
    curves = _curves(times, states, grid)
    demands = np.asarray(traj.demands, dtype=float)
    goose = states[:, GOOSE_DIM]
    period, duration = _burst_period(traj, goose)
    r = _ratios(traj, goose)
    return ReplicationSummary(
        replication=traj.replication,
        seed=traj.seed,
        rho_avg=float(mean_counts @ demands) / traj.capacity,
        burst_period_ms=period,
        burst_duration_ms=duration,
        r_rj=r["r_rj"],
        r_dw=r["r_dw"],
        r_dc=r["r_dc"],
        r_v=r["r_v"],
        n_ga=r["n_ga"],
        counts=r["counts"],
        grid=grid,
        rho_t=(demands @ curves) / traj.capacity,
        m_t=curves,
        mean_counts=mean_counts,
    )


SCALAR_METRICS = (
    "rho_avg",
    "burst_period_ms",
    "burst_duration_ms",
    "r_rj",
    "r_dw",
    "r_dc",
    "r_v",
    "n_ga",
)


@dataclass
class ExperimentSummary:
    """Unbiased sample mean/variance per metric and per grid point."""

    n_replications: int
    mean: dict[str, float | None]
    variance: dict[str, float | None]
    grid: np.ndarray
    mean_m_t: np.ndarray
    var_m_t: np.ndarray
    mean_rho_t: np.ndarray


def _mean_var(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    var = float(arr.var(ddof=1)) if len(arr) > 1 else float("nan")
    return mean, var


def aggregate(summaries: list[ReplicationSummary]) -> ExperimentSummary:
    """Cross-replication mean and (n-1)-normalized variance.

    Metrics that are absent in a replication (no burst observed, no
    arrivals) are aggregated over the replications where they exist.
    """
    if not summaries:
        raise ValueError("need at least one replication summary")
    grid = summaries[0].grid
    for s in summaries[1:]:
        if s.grid is not grid and not np.array_equal(s.grid, grid):
            raise ValueError("replication summaries use different grids")

    mean: dict[str, float | None] = {}
    variance: dict[str, float | None] = {}
    for name in SCALAR_METRICS:
        values = [float(getattr(s, name)) for s in summaries
                  if getattr(s, name) is not None]
        mean[name], variance[name] = _mean_var(values)

    # Per grid point, the floats of np.stack(...).mean(axis=0) and
    # .var(axis=0, ddof=1). numpy reduces such a stack over its first axis one
    # replication after another, so two passes over the summaries, in their
    # order, with float64 accumulators give them without the stack. A
    # one-point grid is the exception: numpy sums a single column pairwise,
    # so that column is stacked, at n floats a dimension.
    n = len(summaries)
    if len(grid) > 1:
        sum_m = np.zeros(summaries[0].m_t.shape)
        sum_rho = np.zeros(len(grid))
        for s in summaries:
            sum_m += s.m_t
            sum_rho += s.rho_t
        mean_m_t, mean_rho_t = sum_m / n, sum_rho / n
        sum_sq = np.zeros_like(mean_m_t)
        for s in summaries:
            dev = s.m_t - mean_m_t
            sum_sq += dev * dev
        var_m_t = sum_sq / (n - 1) if n > 1 else np.full_like(mean_m_t, np.nan)
    else:
        m_stack = np.stack([s.m_t for s in summaries])  # reps x dims x 1
        mean_m_t = m_stack.mean(axis=0)
        var_m_t = m_stack.var(axis=0, ddof=1) if n > 1 else np.full_like(mean_m_t, np.nan)
        mean_rho_t = np.stack([s.rho_t for s in summaries]).mean(axis=0)
    return ExperimentSummary(
        n_replications=n,
        mean=mean,
        variance=variance,
        grid=grid,
        mean_m_t=mean_m_t,
        var_m_t=var_m_t,
        mean_rho_t=mean_rho_t,
    )
