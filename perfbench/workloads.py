"""The benchmark's three workloads: set-up, timed passes, checks and metrics.

Every workload reaches ranburst only through its public modules. The
workload seed becomes each scenario's ``base_seed`` and nothing else.

* ``grid_serial``: the nine bundled ``table2_*`` scenarios through
  ``cli.run(mode="simulate")`` with one worker. The paper's experiment grid;
  time goes to simulator, traffic and metrics.
* ``nc3_pool_traj``: ``table2_nc3_lam20`` with many replications, a
  two-process pool and one trajectory CSV per replication. Same simulator,
  but records are pickled back to the parent, metrics run serially there,
  and CSV writing is large.
* ``nc3_exact``: the full NC3 chain of ``table2_nc3_lam20`` with the burst
  made reachable, solved for its steady state and its transient from an
  empty pool. Time goes to analytic and ``traffic.transitions``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import random
import resource
import shutil
import statistics
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter

from . import checks
from .checks import Tally, error_text
from .tracer import Tracer

# numpy and scipy are imported inside functions throughout the benchmark, so
# that their import is timed as part of ranburst's set-up.

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("grid_serial", "nc3_pool_traj", "nc3_exact")
GRID_SCENARIOS = tuple(
    f"table2_{p}_lam{lam}" for p in ("nc1", "nc2", "nc3") for lam in (10, 20, 40)
)
POOL_SCENARIO = "table2_nc3_lam20"
POOL_WORKERS = 2
EXACT_NC1_SCENARIO = "table2_nc1_lam20"

# Claims of a gain must be re-checked on this seed, which is kept out of
# tuning and development runs.
HELD_OUT_SEED = 90_210

# On a shared host the same pass runs up to 2x slower from one minute to the
# next. Python interpretation slows with a fixed pure-Python loop timed
# between the scenario runs of a pass, so set-up times and the times of the
# workloads in HOST_SCALED are scaled to one host speed: the speed at which
# reference_kernel() takes REFERENCE_S seconds (its median on the 2-core host
# the baseline was taken on). nc3_exact spends its time in SuperLU, which the
# loop does not track (scaling widened its run-to-run spread), so its pass
# times are reported as measured. Raw times and scales are in the record.
REFERENCE_S = 0.015
REFERENCE_SAMPLES = 10  # kernel runs per pass or per set-up
HOST_SCALED = ("grid_serial", "nc3_pool_traj")


def reference_kernel() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return perf_counter() - t0


def host_speed(samples: int) -> list[float]:
    return [reference_kernel() for _ in range(samples)]


END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.load_s": "s",
    "cli.scenarios_loaded": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "cli.self_s": "s",
    "simulator.run_experiment_s": "s",
    "simulator.replications": "count",
    "simulator.events": "count",
    "simulator.us_per_event": "us",
    "simulator.stopped_early": "count",
    "simulator.record_bytes": "bytes",
    "simulator.self_s": "s",
    "traffic.arrival_outcome_calls": "count",
    "traffic.arrival_outcome_s": "s",
    "traffic.feasible_calls": "count",
    "traffic.feasible_s": "s",
    "traffic.transitions_calls": "count",
    "traffic.transitions_s": "s",
    "traffic.self_s": "s",
    "metrics.summarize_s": "s",
    "metrics.aggregate_s": "s",
    "metrics.time_average_counts_s": "s",
    "metrics.empirical_blocking_s": "s",
    "metrics.session_curves_calls": "count",
    "metrics.self_s": "s",
    "analytic.states": "count",
    "analytic.nnz": "count",
    "analytic.reachable_states_s": "s",
    "analytic.build_generator_s": "s",
    "analytic.blocking_s": "s",
    "analytic.steady_state_s": "s",
    "analytic.residual": "1",
    "analytic.transient_s": "s",
    "analytic.transient_calls": "count",
    "analytic.uniformization_steps": "count",
    "analytic.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer metric -> recorded span or leaf whose inclusive time it reports.
_SECONDS_OF = {
    "simulator.run_experiment_s": "simulator.run_experiment",
    "traffic.arrival_outcome_s": "traffic.arrival_outcome",
    "traffic.feasible_s": "traffic.feasible",
    "traffic.transitions_s": "traffic.transitions",
    "metrics.summarize_s": "metrics.summarize",
    "metrics.aggregate_s": "metrics.aggregate",
    "metrics.time_average_counts_s": "metrics.time_average_counts",
    "metrics.empirical_blocking_s": "metrics.empirical_blocking",
    "analytic.reachable_states_s": "analytic.reachable_states",
    "analytic.build_generator_s": "analytic.build_generator",
    "analytic.blocking_s": "analytic.blocking_from_generator",
    "analytic.steady_state_s": "analytic.steady_state",
    "analytic.transient_s": "analytic.transient",
}
_CALLS_OF = {
    "traffic.arrival_outcome_calls": "traffic.arrival_outcome",
    "traffic.feasible_calls": "traffic.feasible",
    "traffic.transitions_calls": "traffic.transitions",
    "metrics.session_curves_calls": "metrics.session_curves",
    "analytic.transient_calls": "analytic.transient",
}
_WRITES = ("cli.write_summary_csv", "cli.write_curves_csv", "cli.write_trajectory_csv")


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does. The defaults define the benchmark."""

    grid_replications: int = 50
    pool_replications: int = 600
    replays: int = 3
    exact_scenario: str = "table2_nc3_lam20"
    transient_times_s: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no ranburst source)."""


def source_package() -> Path:
    """``__init__.py`` of the ranburst sources the benchmark must measure."""
    pkg = ROOT / "src" / "ranburst" / "__init__.py"
    if not pkg.is_file():
        raise BenchError(f"no ranburst source tree under {ROOT / 'src'}")
    return pkg


def import_ranburst():
    """Import ranburst from ``src/`` of this checkout and nowhere else."""
    pkg = source_package()
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import ranburst
    import ranburst.cli  # noqa: F401  (imports every layer)

    if Path(ranburst.__file__).resolve() != pkg.resolve():
        raise BenchError(f"ranburst was imported from {ranburst.__file__}, not {pkg}")
    return ranburst


@dataclass
class Setup:
    rb: object
    scenarios: list
    import_s: float
    load_s: float
    reference_s: float  # median reference_kernel() time just before set-up

    @property
    def scale(self) -> float:
        return REFERENCE_S / self.reference_s

    def sample(self) -> dict:
        """Set-up times, raw and at the reference speed."""
        return {
            "setup_s": (self.import_s + self.load_s) * self.scale,
            "load_s": self.load_s * self.scale,
            "raw_setup_s": self.import_s + self.load_s,
            "reference_s": self.reference_s,
        }


def scenario_plan(workload: str, sizes: Sizes) -> list[tuple[str, dict]]:
    """(bundled scenario name, field overrides) for every scenario a workload uses."""
    if workload == "grid_serial":
        return [(n, {"replications": sizes.grid_replications}) for n in GRID_SCENARIOS]
    if workload == "nc3_pool_traj":
        return [(POOL_SCENARIO, {"replications": sizes.pool_replications})]
    if workload == "nc3_exact":
        return [(sizes.exact_scenario, {}), (EXACT_NC1_SCENARIO, {})]
    raise BenchError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int, sizes: Sizes = Sizes()) -> Setup:
    """Import ranburst, then load and validate every scenario of a workload."""
    plan = scenario_plan(workload, sizes)
    reference_s = statistics.median(host_speed(REFERENCE_SAMPLES))
    t0 = perf_counter()
    rb = import_ranburst()
    t1 = perf_counter()
    scenarios = []
    for name, overrides in plan:
        scenario = replace(rb.cli.load_bundled_scenario(name), base_seed=seed, **overrides)
        scenario.validate()
        scenarios.append(scenario)
    t2 = perf_counter()
    return Setup(rb=rb, scenarios=scenarios, import_s=t1 - t0, load_s=t2 - t1,
                 reference_s=reference_s)


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    run_s: float
    events: int  # simulated events, or uniformization steps on nc3_exact
    events_s: float  # seconds the events took: run_s, or the transient calls
    tally: Tally
    reference: list[float]  # reference_kernel() times around the timed calls
    counts: dict[str, float] = field(default_factory=dict)  # per-layer values


def _tracing(tracer: Tracer | None, rb):
    return tracer.installed(rb) if tracer is not None else contextlib.nullcontext()


def _simulate_pass(st: Setup, out: Path, tracer: Tracer | None, workers: int,
                   trajectories: bool, replays: int) -> PassResult:
    """Run every scenario; check each one's outputs right after its run.

    The checks run outside the timer and without wrappers, and each bundle is
    dropped before the next scenario, so the process holds one scenario's
    records at a time, as ``cli.run`` itself does.
    """
    cli = st.rb.cli
    per_gap = -(-REFERENCE_SAMPLES // (len(st.scenarios) + 1))
    reference = host_speed(per_gap)
    run_s = 0.0
    tally = Tally()
    counts = dict.fromkeys(("simulator.replications", "simulator.events",
                            "simulator.stopped_early", "simulator.record_bytes"), 0)
    for s in st.scenarios:
        with _tracing(tracer, st.rb):
            t0 = perf_counter()
            try:
                bundle = cli.run(s, mode="simulate", out_dir=out / s.label,
                                 workers=workers, emit_trajectories=trajectories)
            except Exception as exc:  # a failed operation is counted, not fatal
                bundle = exc
            run_s += perf_counter() - t0
        reference += host_speed(per_gap)
        if isinstance(bundle, Exception):
            tally.record(s.label, [error_text(bundle)])
            continue
        _check_simulated(st.rb, s, bundle, trajectories, replays, tally)
        records = bundle.records or []
        counts["simulator.replications"] += len(records)
        counts["simulator.events"] += sum(len(r.events) for r in records)
        counts["simulator.stopped_early"] += sum(r.stopped_early for r in records)
        if tracer is not None:
            # Bytes each record takes on its way back from a pool worker.
            counts["simulator.record_bytes"] += sum(len(pickle.dumps(r)) for r in records)
        del bundle, records

    files = [p for p in out.rglob("*") if p.is_file()]
    counts["cli.files_written"] = len(files)
    counts["cli.bytes_written"] = sum(p.stat().st_size for p in files)
    return PassResult(run_s, counts["simulator.events"], run_s, tally, reference, counts)


def _check_simulated(rb, s, bundle, trajectories: bool, replays: int, tally: Tally) -> None:
    try:
        problems = checks.output_problems(rb, s, bundle, trajectories)
        problems += checks.preinjection_problems(rb, s, bundle.records)
    except Exception as exc:
        problems = [error_text(exc)]
    tally.record(s.label, problems)
    if not replays:
        return
    picks = random.Random(s.base_seed).sample(bundle.records, min(replays, len(bundle.records)))
    for r in picks:
        try:
            problems = checks.replay_problems(rb, s, r)
        except Exception as exc:
            problems = [error_text(exc)]
        tally.record(f"{s.label} replay {r.replication}", problems)


def _uniformization_steps(q, t: float, eps: float) -> int:
    """Vector-matrix products ``analytic.transient`` makes for one call."""
    from scipy.stats import poisson

    rate = float(-q.diagonal().min())
    if t == 0 or rate == 0:
        return 0
    return int(poisson.isf(eps, rate * 1.02 * t)) + 1


def _exact_pass(st: Setup, tracer: Tracer | None, sizes: Sizes) -> PassResult:
    import numpy as np

    an = st.rb.analytic
    nc3, nc1 = st.scenarios
    policy, dims, capacity = checks.burst_chain(st.rb, nc3)
    times = sizes.transient_times_s
    eps = checks.TRANSIENT_EPS
    solved = None
    dists = []
    transient_s = 0.0
    reference = host_speed(REFERENCE_SAMPLES // 2)
    with _tracing(tracer, st.rb):
        t0 = perf_counter()
        try:
            space = an.reachable_states(policy, dims, capacity)
            space, q = an.build_generator(policy, dims, capacity, space=space)
            pi = an.steady_state(q)
            an.blocking_from_generator(policy, space, pi)
            solved = (space, q, pi)
        except Exception as exc:
            solve_error = exc
        if solved is not None:
            pi0 = np.zeros(len(space))
            pi0[space.index[tuple(0 for _ in dims)]] = 1.0
            for t in times:
                t1 = perf_counter()
                try:
                    dists.append(an.transient(q, pi0, t, eps=eps))
                except Exception as exc:
                    dists.append(exc)
                transient_s += perf_counter() - t1
        run_s = perf_counter() - t0
    reference += host_speed(REFERENCE_SAMPLES // 2)

    tally = Tally()
    counts = {}
    steps = 0
    if solved is None:
        tally.record("solve", [error_text(solve_error)])
        for t in times:
            tally.record(f"transient({t:g} s)", ["not run: the solve failed"])
    else:
        tally.record("solve", checks.generator_problems(q, pi))
        for t, dist in zip(times, dists):
            if isinstance(dist, Exception):
                problems = [error_text(dist)]
            else:
                problems = checks.transient_problems(dist, eps)
                if t == times[-1]:
                    problems += checks.converged_problems(dist, pi)
            tally.record(f"transient({t:g} s)", problems)
        steps = sum(_uniformization_steps(q, t, eps) for t in times)
        counts = {
            "analytic.states": len(space),
            "analytic.nnz": q.nnz,
            "analytic.residual": float(np.abs(pi @ q).max()),
            "analytic.uniformization_steps": steps,
        }
    try:
        tally.record(nc1.label, checks.kaufman_roberts_problems(st.rb, nc1))
    except Exception as exc:
        tally.record(nc1.label, [error_text(exc)])
    return PassResult(run_s, steps, transient_s, tally, reference, counts)


def run_pass(workload: str, st: Setup, out: Path, tracer: Tracer | None,
             sizes: Sizes) -> PassResult:
    if workload == "grid_serial":
        return _simulate_pass(st, out, tracer, workers=1, trajectories=False, replays=0)
    if workload == "nc3_pool_traj":
        return _simulate_pass(st, out, tracer, workers=POOL_WORKERS, trajectories=True,
                              replays=sizes.replays)
    return _exact_pass(st, tracer, sizes)


# ---------------------------------------------------------------------------
# A measured run
# ---------------------------------------------------------------------------


def _traced_metrics(res: PassResult, tracer: Tracer, scale: float) -> dict[str, float]:
    m = {name: 0.0 for name in PER_LAYER}
    m.update(res.counts)
    for metric, name in _SECONDS_OF.items():
        m[metric] = tracer.totals(name)[1]
    for metric, name in _CALLS_OF.items():
        m[metric] = tracer.totals(name)[0]
    m["cli.write_s"] = sum(tracer.totals(name)[1] for name in _WRITES)
    for layer, seconds in tracer.self_seconds().items():
        m[f"{layer}.self_s"] = seconds
    events = res.counts.get("simulator.events", 0)
    if events:
        m["simulator.us_per_event"] = m["simulator.run_experiment_s"] / events * 1e6
    m["trace.run_s"] = res.run_s
    for name, unit in PER_LAYER.items():
        if unit == "s":
            m[name] *= scale
    m["simulator.us_per_event"] *= scale
    return m


@dataclass
class Measurement:
    workload: str
    seed: int
    traced: bool
    metrics: dict[str, tuple[float, str]]
    tally: Tally
    record: dict
    trace: dict | None


def measure(workload: str, seed: int, seconds: float, traced: bool,
            sizes: Sizes = Sizes(), setup_samples: list[dict] = (),
            out_root: Path = ROOT / ".perfbench-out",
            started: float | None = None) -> Measurement:
    """Set up once, then run passes of the workload for about ``seconds``.

    Untraced: every pass is timed for the end-to-end metrics. Traced:
    passes alternate untraced and traced (at least one of each), so the
    tracing overhead is the difference of their median ``run_s``.
    Another pass starts only while the median pass so far still fits in
    ``seconds`` counted from ``started`` (a ``perf_counter()`` reading taken
    before any set-up probes; by default, now). A run of at least one pass,
    or two when traced, can therefore overrun ``seconds``.
    Reference-kernel samples taken between the timed calls of a pass give
    its scale to the reference speed (1 outside HOST_SCALED).
    """
    if started is None:
        started = perf_counter()
    st = setup(workload, seed, sizes)
    setups = list(setup_samples) + [st.sample()]
    out = out_root / f"{workload}-seed{seed}-trace{int(traced)}"

    tally = Tally()
    plain: list[tuple[PassResult, float]] = []  # (pass, scale)
    traced_metrics: list[dict[str, float]] = []
    walls: list[float] = []
    last_tracer = None
    while True:
        tracer = Tracer() if traced and len(walls) % 2 == 1 else None
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()
        t0 = perf_counter()
        res = run_pass(workload, st, out, tracer, sizes)
        scale = REFERENCE_S / statistics.median(res.reference)
        if workload not in HOST_SCALED:
            scale = 1.0
        tally.merge(res.tally)
        if tracer is None:
            plain.append((res, scale))
        else:
            traced_metrics.append(_traced_metrics(res, tracer, scale))
            last_tracer = tracer
        walls.append(perf_counter() - t0)
        shutil.rmtree(out, ignore_errors=True)
        elapsed = perf_counter() - started
        done = not traced or traced_metrics
        if done and elapsed + statistics.median(walls) > seconds:
            break

    run_s = statistics.median(r.run_s * k for r, k in plain)
    if traced:
        metrics = {
            name: statistics.median(m[name] for m in traced_metrics) for name in PER_LAYER
        }
        metrics["cli.load_s"] = statistics.median(s["load_s"] for s in setups)
        metrics["cli.scenarios_loaded"] = len(st.scenarios)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_s
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "run_s": run_s,
            "events_per_s": statistics.median(r.events / (r.events_s * k) for r, k in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    record = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "traced": traced,
        "seconds": seconds,
        "reference_nominal_s": REFERENCE_S,
        "plain_passes": len(plain),
        "traced_passes": len(traced_metrics),
        "raw_run_s": statistics.median(r.run_s for r, _ in plain),
        "plain_raw_run_s": [r.run_s for r, _ in plain],
        "plain_reference_s": [statistics.median(r.reference) for r, _ in plain],
        "plain_scale": [k for _, k in plain],
        "host_scaled": workload in HOST_SCALED,
        "setup_samples": setups,
        "scenarios": {s.label: s.replications for s in st.scenarios},
        "workers": POOL_WORKERS if workload == "nc3_pool_traj" else 1,
        "sizes": asdict(sizes),
        "failed_frac": tally.failed_frac,
        "problems": tally.problems[:50],
        **environment(),
    }
    return Measurement(
        workload=workload,
        seed=seed,
        traced=traced,
        metrics={name: (float(metrics[name]), units[name]) for name in units},
        tally=tally,
        record=record,
        trace=last_tracer.dump() if last_tracer is not None else None,
    )


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _commit() -> str | None:
    """HEAD of the checkout, when it is a git repository."""
    import subprocess

    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest() -> str:
    """Digest of the ranburst sources, which identifies them without git."""
    import hashlib

    h = hashlib.sha256()
    src = ROOT / "src" / "ranburst"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".yaml")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()
