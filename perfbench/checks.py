"""Output checks. Each returns a list of problems; an empty list means correct.

A benchmark operation (a scenario run, a solve, a ``transient`` call, a
sampled replay) fails when it raises or when its check returns a problem;
:class:`Tally` counts both, and ``failed_frac`` is ``failed / attempted``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

ROW_SUM_TOL = 1e-9  # relative to the largest exit rate of the generator
RESIDUAL_TOL = 1e-10  # max |pi Q|
TRANSIENT_EPS = 1e-9  # neglected Poisson mass asked of transient()
CONVERGED_L1_TOL = 1e-6  # last transient instant against pi
KR_TOL = 1e-9  # NC1 generator blocking against Kaufman-Roberts
Z_MAX = 4.0  # pre-injection mean against Kaufman-Roberts, in standard errors


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def error_text(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Exact chain
# ---------------------------------------------------------------------------


def burst_chain(rb, scenario):
    """(policy, dims, capacity) of the scenario's chain with the burst inside.

    The bundled scenarios give the priority class no arrival stream of its
    own; it enters only through the injection. Giving it the rate at which
    the burst offers sessions makes the burst states reachable. Rates are
    scaled by ``time_scale`` as the CLI's analytic report does.
    """
    classes = list(scenario.classes)
    inj = scenario.injection
    if inj is not None and inj.has_stream:
        classes[0] = replace(classes[0], arrival_rate=inj.poisson_rate)
    capacity = scenario.radio.capacity_blocks
    dims = rb.traffic.build_dimensions(scenario.policy, classes, capacity)
    k = scenario.time_scale
    dims = [replace(d, arrival_rate=d.arrival_rate * k, service_rate=d.service_rate * k)
            for d in dims]
    return scenario.policy, dims, capacity


def generator_problems(q, pi) -> list[str]:
    """Zero row sums, balance residual, and a proper distribution."""
    import numpy as np

    problems = []
    scale = float(np.abs(q.diagonal()).max()) or 1.0
    row_sum = float(np.abs(np.asarray(q.sum(axis=1))).max())
    if not row_sum <= ROW_SUM_TOL * scale:
        problems.append(f"generator row sums reach {row_sum:.3e}")
    residual = float(np.abs(pi @ q).max())
    if not residual <= RESIDUAL_TOL:
        problems.append(f"max|pi Q| = {residual:.3e} > {RESIDUAL_TOL:g}")
    if not (pi.min() >= 0.0 and abs(pi.sum() - 1.0) <= 1e-12):
        problems.append("steady state is not a distribution")
    return problems


def transient_problems(dist, eps: float = TRANSIENT_EPS) -> list[str]:
    problems = []
    if not dist.min() >= 0.0:
        problems.append(f"negative mass {dist.min():.3e}")
    total = float(dist.sum())
    if not abs(total - 1.0) <= eps:
        problems.append(f"mass {total!r} is not 1 within {eps:g}")
    return problems


def converged_problems(dist, pi) -> list[str]:
    gap = float(abs(dist - pi).sum())
    if not gap <= CONVERGED_L1_TOL:
        return [f"l1 distance to pi is {gap:.3e} > {CONVERGED_L1_TOL:g}"]
    return []


def kaufman_roberts_problems(rb, scenario) -> list[str]:
    """NC1 generator blocking against the occupancy recursion."""
    an = rb.analytic
    policy, dims, capacity = burst_chain(rb, scenario)
    space, q = an.build_generator(policy, dims, capacity)
    pi = an.steady_state(q)
    blocking = an.blocking_from_generator(policy, space, pi)
    classes = [replace(c, arrival_rate=d.arrival_rate, service_rate=d.service_rate)
               for c, d in zip(scenario.classes, dims)]
    kr = an.kaufman_roberts(classes, capacity).blocking
    problems = []
    for d, c in zip(dims, classes):
        gap = abs(blocking[d.index] - kr[c.id])
        if not gap <= KR_TOL:
            problems.append(f"{d.label} blocking differs from Kaufman-Roberts by {gap:.3e}")
    return problems


# ---------------------------------------------------------------------------
# Simulated runs
# ---------------------------------------------------------------------------


def _csv_problems(path: Path, rows: int, shash: str) -> list[str]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"cannot read {path.name}: {exc}"]
    problems = []
    if len(lines) != rows + 1:
        problems.append(f"{path.name} has {len(lines) - 1} rows, expected {rows}")
    if any(line.rsplit(",", 1)[-1] != shash for line in lines[1:]):
        problems.append(f"{path.name} has rows without scenario hash {shash}")
    return problems


def output_problems(rb, scenario, bundle, trajectories: bool) -> list[str]:
    """Row counts and scenario hash of every CSV one ``cli.run`` wrote."""
    shash = rb.cli.scenario_hash(scenario)
    reps = scenario.replications
    records = bundle.records or []
    if len(records) != reps:
        return [f"{len(records)} records for {reps} replications"]
    grid_rows = len(rb.metrics.make_grid(scenario.horizon_ms, scenario.grid_ms))
    out = Path(bundle.out_dir)
    problems = _csv_problems(out / "summary.csv", reps + 2, shash)
    problems += _csv_problems(out / "curves.csv", grid_rows, shash)
    if trajectories:
        files = sorted((out / "trajectories").glob("rep_*.csv"))
        if len(files) != reps:
            problems.append(f"{len(files)} trajectory files for {reps} replications")
        for r in records:
            path = out / "trajectories" / f"rep_{r.replication:03d}.csv"
            problems += _csv_problems(path, len(r.events) + 1, shash)
    return problems


def _mean_count_before(record, dims: list[int], t_end: float) -> float:
    """Exact time average of the summed counts of ``dims`` on [0, t_end)."""
    area = 0.0
    t_prev = 0.0
    n = sum(record.initial_counts[i] for i in dims)
    for e in record.events:
        if e.t_ms >= t_end:
            break
        area += n * (e.t_ms - t_prev)
        t_prev = e.t_ms
        n = sum(e.counts[i] for i in dims)
    area += n * (t_end - t_prev)
    return area / t_end


def preinjection_problems(rb, scenario, records) -> list[str]:
    """Video sessions before the burst against the video-only recursion.

    The run starts from the stationary video-only distribution and no
    priority session exists before the injection, so the expected time
    average of the video count on [0, t_inject) is the Kaufman-Roberts mean.
    """
    video = scenario.classes[1]
    solo = rb.traffic.TrafficClass(
        id=video.id, arrival_rate=video.arrival_rate, service_rate=video.service_rate,
        demand_blocks=video.demand_blocks, max_sessions=video.max_sessions,
    )
    q = rb.analytic.kaufman_roberts([solo], scenario.radio.capacity_blocks).q
    expected = sum(p * (c // video.demand_blocks) for c, p in enumerate(q))
    dims = [d.index for d in scenario.dimensions() if d.source_class == video.id]
    t_end = scenario.injection.t_inject_ms
    samples = [_mean_count_before(r, dims, t_end) for r in records]
    se = statistics.stdev(samples) / math.sqrt(len(samples))
    z = (statistics.fmean(samples) - expected) / se
    if not abs(z) <= Z_MAX:
        return [f"pre-injection video mean is {z:+.2f} standard errors from {expected:.4f}"]
    return []


def replay_problems(rb, scenario, record) -> list[str]:
    """A pooled record against a serial re-run of the same replication."""
    seed = rb.simulator.mix_seed(scenario.base_seed, record.replication)
    replay = rb.simulator.run_replication(scenario, seed)
    same = (
        record.seed == seed
        and replay.initial_counts == record.initial_counts
        and replay.events == record.events
        and replay.end_ms == record.end_ms
        and replay.stopped_early == record.stopped_early
    )
    return [] if same else [f"replication {record.replication} differs from its serial replay"]
