import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranburst import (
    InjectionSchedule,
    Scenario,
    aggregate,
    run_experiment,
    run_replication,
    summarize,
)
from ranburst import metrics
from ranburst.cli import load_bundled_scenario
from ranburst.metrics import (
    ReplicationSummary,
    _shared_grid,
    empirical_blocking,
    make_grid,
    session_curves,
    time_average_counts,
)
from ranburst.simulator import Event, TrajectoryRecord
from ranburst.traffic import (
    ARRIVAL_ACCEPTED,
    ARRIVAL_DOWNGRADED,
    ARRIVAL_REJECTED,
    DEPARTURE,
    DOWNGRADE_CASCADE,
    PREEMPT_DISCARD,
)

from conftest import RADIO62, table2_classes


def synthetic(events, initial=(0, 0, 0), end=1000.0, horizon=1000.0,
              t_inject=None, demands=(1, 2, 1), capacity=62):
    return TrajectoryRecord.from_events(
        events,
        policy="NC3",
        capacity=capacity,
        dim_labels=tuple(f"d{i}" for i in range(len(initial))),
        demands=demands,
        initial_counts=initial,
        end_ms=end,
        horizon_ms=horizon,
        t_inject_ms=t_inject,
        seed=0,
    )


def burst_scenario(policy="NC3", lam2=1 / 20, seed=20260810, reps=1):
    return Scenario(
        policy=policy,
        radio=RADIO62,
        classes=tuple(table2_classes(policy, lam2)),
        injection=InjectionSchedule("poisson", 2000.0, batch_size=52, poisson_rate=4.0),
        horizon_ms=6000.0,
        warmup="stationary_video_start",
        replications=reps,
        time_scale=200.0,
        base_seed=seed,
    )


# ---------------------------------------------------------------------------
# Utilization
# ---------------------------------------------------------------------------


def test_constant_path_utilization():
    s = summarize(synthetic([], initial=(10, 5, 3)), grid_ms=100.0)
    assert s.rho_avg == pytest.approx(23 / 62)
    assert np.allclose(s.rho_t, 23 / 62)


def test_empty_trajectory_utilization_is_zero():
    s = summarize(synthetic([], initial=(0, 0, 0)))
    assert s.rho_avg == 0.0
    assert np.allclose(s.rho_t, 0.0)


def test_rho_avg_matches_independent_event_integral():
    sc = burst_scenario()
    rec = run_replication(sc, 909)
    rho_avg = summarize(rec).rho_avg
    # independent route: integrate occupied blocks step by step
    occ = sum(c * d for c, d in zip(rec.initial_counts, rec.demands))
    t_prev, acc = 0.0, 0.0
    for e in rec.events:
        acc += occ * (e.t_ms - t_prev)
        t_prev = e.t_ms
        occ = sum(c * d for c, d in zip(e.counts, rec.demands))
    acc += occ * (rec.end_ms - t_prev)
    direct = acc / (rec.end_ms * rec.capacity)
    assert rho_avg == pytest.approx(direct, abs=1e-12)


def test_session_curves_are_right_continuous():
    events = [
        Event(100.0, ARRIVAL_ACCEPTED, 0, 0, 0, (1, 0, 0)),
        Event(300.0, DEPARTURE, 0, 0, 0, (0, 0, 0)),
    ]
    traj = synthetic(events)
    grid = np.array([0.0, 100.0, 200.0, 300.0, 400.0])
    curves = session_curves(traj, grid)
    assert curves[0].tolist() == [0, 1, 1, 0, 0]


# ---------------------------------------------------------------------------
# Burst period and duration
# ---------------------------------------------------------------------------


def test_burst_period_simple_example():
    events = [
        Event(2000.0, ARRIVAL_ACCEPTED, 0, 0, 0, (1, 0, 0)),
        Event(2500.0, DEPARTURE, 0, 0, 0, (0, 0, 0)),
    ]
    s = summarize(synthetic(events, t_inject=2000.0, end=6000.0, horizon=6000.0))
    period, duration = s.burst_period_ms, s.burst_duration_ms
    assert period == pytest.approx(500.0)
    assert duration == pytest.approx(500.0)


def test_burst_period_absent_without_admissions():
    s = summarize(synthetic([], t_inject=2000.0))
    assert (s.burst_period_ms, s.burst_duration_ms) == (None, None)


def test_burst_period_censored_at_horizon():
    events = [Event(2100.0, ARRIVAL_ACCEPTED, 0, 0, 0, (1, 0, 0))]
    s = summarize(synthetic(events, t_inject=2000.0, end=6000.0, horizon=6000.0))
    period, duration = s.burst_period_ms, s.burst_duration_ms
    assert period == pytest.approx(4000.0)
    assert duration == pytest.approx(3900.0)


# ---------------------------------------------------------------------------
# Ratios
# ---------------------------------------------------------------------------


def test_ratio_arithmetic_simple():
    events = []
    t = 1.0
    for _ in range(45):
        events.append(Event(t, ARRIVAL_ACCEPTED, 1, 0, 0, (0, 1, 0)))
        t += 1.0
    for _ in range(5):
        events.append(Event(t, ARRIVAL_REJECTED, 1, 0, 0, (0, 1, 0)))
        t += 1.0
    s = summarize(synthetic(events, end=100.0, horizon=100.0))
    assert s.n_ga == 50
    assert s.r_rj == pytest.approx(0.1)
    assert s.r_dw == 0.0
    assert s.r_dc == 0.0


def test_ratios_absent_without_arrivals():
    s = summarize(synthetic([]))
    assert s.n_ga == 0
    assert s.r_rj is None and s.r_v is None


def test_r_v_counts_only_priority_free_window():
    events = [
        Event(10.0, ARRIVAL_REJECTED, 1, 0, 0, (0, 0, 0)),   # priority-free
        Event(20.0, ARRIVAL_ACCEPTED, 0, 0, 0, (1, 0, 0)),   # priority enters
        Event(30.0, ARRIVAL_REJECTED, 1, 0, 0, (1, 0, 0)),   # not counted
        Event(40.0, ARRIVAL_ACCEPTED, 1, 0, 0, (1, 1, 0)),
        Event(50.0, DEPARTURE, 0, 0, 0, (0, 1, 0)),
        Event(60.0, ARRIVAL_ACCEPTED, 1, 0, 0, (0, 2, 0)),   # priority-free
    ]
    s = summarize(synthetic(events, end=100.0, horizon=100.0))
    assert s.counts["goose_free_arrivals"] == 2
    assert s.counts["goose_free_rejected"] == 1
    assert s.r_v == pytest.approx(0.5)
    assert s.r_rj == pytest.approx(2 / 4)


def test_downgrade_bookkeeping_feeds_r_dw_and_r_dc():
    events = [
        Event(10.0, ARRIVAL_ACCEPTED, 1, 0, 0, (0, 1, 0)),
        Event(20.0, ARRIVAL_DOWNGRADED, 1, 1, 0, (0, 1, 1)),
        Event(30.0, DOWNGRADE_CASCADE, 0, 1, 1, (1, 0, 1)),
    ]
    s = summarize(synthetic(events, end=100.0, horizon=100.0))
    assert s.n_ga == 2
    assert s.r_dw == pytest.approx(2 / 2)  # one admit, one cascade conversion
    assert s.r_dc == pytest.approx(1 / 2)


@pytest.mark.parametrize("policy", ["NC1", "NC2"])
def test_non_adaptive_policies_never_downgrade(policy):
    sc = burst_scenario(policy=policy, reps=5)
    for rec in run_experiment(sc):
        assert summarize(rec).r_dw == 0.0


def test_count_conservation_on_real_run():
    sc = burst_scenario(reps=5)
    for rec in run_experiment(sc):
        c = summarize(rec).counts
        accepted = sum(
            1 for e in rec.events if e.dim == 1 and e.kind == ARRIVAL_ACCEPTED
        )
        downgraded_admits = sum(
            1 for e in rec.events if e.kind == ARRIVAL_DOWNGRADED
        )
        assert c["video_arrivals"] == accepted + downgraded_admits + c["video_rejected"]
        # at every instant: live downgraded sessions plus cumulative discards
        # never exceed the video sessions admitted so far
        admitted_so_far = rec.initial_counts[1]
        discards = 0
        for e in rec.events:
            if e.dim == 1 and e.kind in (ARRIVAL_ACCEPTED, ARRIVAL_DOWNGRADED):
                admitted_so_far += 1
            discards += e.discarded
            assert e.counts[2] + discards <= admitted_so_far


def test_nc3_discards_fewer_video_sessions_than_nc2():
    # NC3 downgrades running video sessions before it discards one; NC2
    # discards at once. 200 independent replications per policy, from
    # distinct base seeds: the mean r_dc of NC2 sits about 19 standard
    # errors above that of NC3.
    samples = []
    for policy, seed in (("NC2", 1), ("NC3", 2)):
        records = run_experiment(burst_scenario(policy, seed=seed, reps=200), workers=2)
        samples.append(np.array([summarize(rec).r_dc for rec in records]))
    nc2, nc3 = samples
    se = np.sqrt((nc2.var(ddof=1) + nc3.var(ddof=1)) / 200)
    assert nc2.mean() - nc3.mean() > 4 * se, (nc2.mean(), nc3.mean(), se)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_aggregate_identical_summaries_has_zero_variance():
    sc = burst_scenario()
    rec = run_replication(sc, 42)
    s = summarize(rec)
    agg = aggregate([s, s])
    assert agg.variance["rho_avg"] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(agg.var_m_t, 0.0)


def test_aggregate_two_point_example():
    sc = burst_scenario()
    a = summarize(run_replication(sc, 1))
    b = summarize(run_replication(sc, 2))
    a.rho_avg, b.rho_avg = 0.4, 0.6
    agg = aggregate([a, b])
    assert agg.mean["rho_avg"] == pytest.approx(0.5)
    assert agg.variance["rho_avg"] == pytest.approx(0.02)


def test_aggregate_rejects_mismatched_grids():
    sc = burst_scenario()
    rec = run_replication(sc, 3)
    a = summarize(rec, grid_ms=10.0)
    b = summarize(rec, grid_ms=20.0)
    with pytest.raises(ValueError, match="grid"):
        aggregate([a, b])


def curve_summary(grid, m_t, rho_t):
    return ReplicationSummary(
        replication=0, seed=0, rho_avg=0.0, burst_period_ms=None, burst_duration_ms=None,
        r_rj=None, r_dw=None, r_dc=None, r_v=None, n_ga=0, counts={}, grid=grid,
        rho_t=rho_t, m_t=m_t, mean_counts=np.zeros(len(m_t)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 40), dims=st.integers(1, 3), points=st.integers(1, 50),
       dtype=st.sampled_from([np.int16, np.int32]), top=st.sampled_from([0, 1, 62, 32767]),
       zero_frac=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_streamed_aggregate_equals_the_stacked_formulas(n, dims, points, dtype, top,
                                                        zero_frac, seed):
    rng = np.random.default_rng(seed)
    grid = np.arange(points) * 10.0
    m_ts = [rng.integers(0, top, (dims, points), endpoint=True).astype(dtype) for _ in range(n)]
    for m_t in m_ts:
        if rng.random() < zero_frac:
            m_t[:] = 0
    rho_ts = [rng.random(points) * rng.choice([1.0, 1e-9, 1e9]) for _ in range(n)]
    agg = aggregate([curve_summary(grid, m, r) for m, r in zip(m_ts, rho_ts)])
    m_stack = np.stack(m_ts)
    var = m_stack.var(axis=0, ddof=1) if n > 1 else np.full((dims, points), np.nan)
    assert np.array_equal(agg.mean_m_t, m_stack.mean(axis=0))
    assert np.array_equal(agg.var_m_t, var, equal_nan=True)
    assert np.array_equal(agg.mean_rho_t, np.stack(rho_ts).mean(axis=0))
    assert np.isnan(agg.var_m_t).all() == (n == 1)


@pytest.fixture(scope="module")
def pooled_summaries():
    """600 ``table2_nc3_lam20`` summaries, the size of a pooled benchmark run."""
    scenario = replace(load_bundled_scenario("table2_nc3_lam20"), replications=600)
    return [summarize(r, grid_ms=scenario.grid_ms)
            for r in run_experiment(scenario, workers=2)]


def test_aggregate_holds_no_stack_of_the_curves(pooled_summaries):
    # A stack of 600 float64 curves on the 601-point grid alone takes 11.5 MB.
    tracemalloc.start()
    try:
        aggregate(pooled_summaries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_summary_holds_its_counts_as_integers(pooled_summaries):
    s = pooled_summaries[0]
    assert s.m_t.shape == (3, 601) and s.m_t.dtype == np.int16
    assert s.m_t.nbytes + s.rho_t.nbytes <= 8_500


def test_a_second_grid_evicts_the_first():
    first = _shared_grid(1000.0, 10.0)
    assert _shared_grid(1000.0, 10.0) is first
    freed = weakref.ref(first)
    del first
    _shared_grid(2000.0, 10.0)
    gc.collect()
    assert freed() is None
    assert _shared_grid.cache_info().currsize == 1


def test_summary_ratio_times_nga_recovers_counts():
    sc = burst_scenario(reps=3)
    for rec in run_experiment(sc):
        s = summarize(rec)
        assert s.r_rj * s.n_ga == pytest.approx(s.counts["video_rejected"])
        assert s.r_dc * s.n_ga == pytest.approx(s.counts["video_discarded"])
        assert s.r_dw * s.n_ga == pytest.approx(s.counts["video_downgraded"])


# ---------------------------------------------------------------------------
# The array forms of the path metrics against the event loops they replace
# ---------------------------------------------------------------------------


def loop_session_curves(traj, grid):
    out = np.empty((traj.n_dims, len(grid)), dtype=float)
    counts = traj.initial_counts
    ev = 0
    events = traj.events
    for g, t in enumerate(grid):
        while ev < len(events) and events[ev].t_ms <= t:
            counts = events[ev].counts
            ev += 1
        out[:, g] = counts
    return out


def loop_time_average_counts(traj):
    end = traj.end_ms
    acc = np.zeros(traj.n_dims)
    counts = np.asarray(traj.initial_counts, dtype=float)
    t_prev = 0.0
    for e in traj.events:
        t = min(e.t_ms, end)
        if t > t_prev:
            acc += counts * (t - t_prev)
            t_prev = t
        counts = np.asarray(e.counts, dtype=float)
        if e.t_ms >= end:
            break
    if end > t_prev:
        acc += counts * (end - t_prev)
    return acc / end if end > 0 else acc


def random_path(rng, n, end=1000.0, horizon=1000.0, ties=0.0):
    times = np.sort(rng.uniform(0.0, end, n))
    if ties:  # snap a share of the times onto a few instants in the window
        snap = rng.random(n) < ties
        times[snap] = np.minimum(np.round(times[snap] / 250.0) * 250.0, end)
        times.sort()
    events = [
        Event(float(t), ARRIVAL_ACCEPTED, 0, 0, 0, tuple(int(c) for c in rng.integers(0, 40, 3)))
        for t in times
    ]
    return synthetic(events, initial=tuple(int(c) for c in rng.integers(0, 40, 3)),
                     end=end, horizon=horizon)


def batch_path(t_inject=2000.0, n=30):
    events = [Event(500.0, ARRIVAL_ACCEPTED, 1, 0, 0, (0, 1, 0))]
    events += [Event(t_inject, ARRIVAL_ACCEPTED, 0, 0, 0, (k + 1, 1, 0)) for k in range(n)]
    events += [Event(t_inject + 7.5, DEPARTURE, 0, 0, 0, (n - 1, 1, 0))]
    return synthetic(events, end=6000.0, horizon=6000.0, t_inject=t_inject)


def stopped_path():
    # stopped early at 2000 ms, inside a batch: its last events lie at the end
    events = [
        Event(100.0, ARRIVAL_ACCEPTED, 0, 0, 0, (1, 0, 0)),
        Event(2000.0, ARRIVAL_ACCEPTED, 0, 0, 0, (2, 0, 0)),
        Event(2000.0, ARRIVAL_ACCEPTED, 0, 0, 0, (3, 0, 0)),
    ]
    return synthetic(events, end=2000.0, horizon=6000.0)


PATHS = {
    "empty": lambda: synthetic([], initial=(3, 1, 4)),
    "empty_zero_window": lambda: synthetic([], initial=(3, 1, 4), end=0.0),
    "first_event_late": lambda: synthetic(
        [Event(950.0, ARRIVAL_ACCEPTED, 0, 0, 0, (1, 0, 0))]),
    "event_at_zero": lambda: synthetic(
        [Event(0.0, ARRIVAL_ACCEPTED, 0, 0, 0, (1, 0, 0)),
         Event(0.0, ARRIVAL_ACCEPTED, 0, 0, 0, (2, 0, 0))]),
    "batch_at_t_inject": batch_path,
    "stopped_early": stopped_path,
    "event_at_end": lambda: synthetic(
        [Event(1000.0, ARRIVAL_ACCEPTED, 0, 0, 0, (1, 0, 0))]),
    **{
        f"random_{seed}": (lambda seed=seed: random_path(
            np.random.default_rng(seed), n=[1, 7, 300, 2000][seed % 4],
            end=[1000.0, 1000.0, 613.25, 1200.0][seed % 4], ties=0.3 * (seed % 2)))
        for seed in range(12)
    },
}


@pytest.mark.parametrize("name", sorted(PATHS))
def test_path_metrics_equal_the_event_loops_exactly(name):
    traj = PATHS[name]()
    grids = [
        make_grid(traj.horizon_ms, 10.0),
        make_grid(traj.horizon_ms, 7.0),
        np.array([-5.0, 0.0, 1e-9, 99.99, 2000.0, 2e9]),
    ]
    for grid in grids:
        assert np.array_equal(session_curves(traj, grid), loop_session_curves(traj, grid))
    expected = loop_time_average_counts(traj)
    assert np.array_equal(time_average_counts(traj), expected)

    s = summarize(traj, grid_ms=10.0)
    assert np.array_equal(s.mean_counts, expected)
    assert np.array_equal(s.m_t, loop_session_curves(traj, s.grid))
    assert s.m_t.dtype == traj.states.dtype
    assert np.array_equal(s.m_t, session_curves(traj, s.grid))
    demands = np.asarray(traj.demands, dtype=float)
    assert s.rho_avg == float(expected @ demands) / traj.capacity
    assert np.array_equal(s.rho_t, demands @ loop_session_curves(traj, s.grid) / traj.capacity)


def whole_cumsum_time_average(times, states, end):
    """The time average as one ``cumsum`` over the whole path's terms."""
    dt = np.diff(np.concatenate(([0.0], times, [end])))
    acc = np.cumsum(states * dt[:, None], axis=0)[-1]
    return acc / end if end > 0 else acc


def long_path(n, seed=5):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 1000.0, n))
    return times, rng.integers(0, 40, (n + 1, 3)).astype(np.int16)


@pytest.mark.parametrize("rows", [1, 2, 7, metrics._SUM_ROWS])
def test_the_chunked_time_average_is_the_whole_cumsum_bit_for_bit(monkeypatch, rows):
    # The first term of each chunk takes the running total, so the sum makes
    # the same additions in the same order as one cumsum over the path. The
    # paths hold k events, with k before, on and after chunk boundaries; each
    # ends at its last event or past it.
    monkeypatch.setattr(metrics, "_SUM_ROWS", rows)
    times, states = long_path(2 * metrics._SUM_ROWS + 37 if rows > 7 else 301)
    cuts = [k for k in (0, 1, rows - 2, rows - 1, rows, 2 * rows + 3, len(times)) if k >= 0]
    for k in cuts:
        for end in (times[k - 1] if k else 0.0, 1200.0):
            got = metrics._time_average(times[:k], states[:k + 1], float(end))
            want = whole_cumsum_time_average(times[:k], states[:k + 1], float(end))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (k, end)


def test_the_time_average_holds_no_whole_array_of_its_terms():
    # The terms of a million-event path over three dimensions take 24 MB as
    # one float64 array, and its cumsum as much again; the chunked sum keeps
    # the path's time steps (two float64 arrays of its length at most) and a
    # chunk's terms.
    times, states = long_path(1_000_000)
    tracemalloc.start()
    try:
        metrics._time_average(times, states, 1000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < states[1:].size * 8


@pytest.mark.parametrize("policy", ["NC1", "NC2", "NC3"])
def test_path_metrics_equal_the_event_loops_on_simulated_runs(policy):
    for rec in run_experiment(burst_scenario(policy, reps=3)):
        grid = make_grid(rec.horizon_ms, 10.0)
        assert np.array_equal(session_curves(rec, grid), loop_session_curves(rec, grid))
        assert np.array_equal(time_average_counts(rec), loop_time_average_counts(rec))


# ---------------------------------------------------------------------------
# The column readers against the event loops they replace
# ---------------------------------------------------------------------------

LOOP_ARRIVAL_KINDS = (
    ARRIVAL_ACCEPTED, ARRIVAL_REJECTED, ARRIVAL_DOWNGRADED, PREEMPT_DISCARD, DOWNGRADE_CASCADE,
)


def loop_ratios(traj):
    video_arrivals = video_rejected = downgraded = discarded = 0
    gf_arrivals = gf_rejected = goose_arrivals = goose_rejected = pre = 0
    t_inject = traj.t_inject_ms
    goose_before = traj.initial_counts[0]
    for e in traj.events:
        if e.t_ms > traj.end_ms:
            break
        if e.kind in LOOP_ARRIVAL_KINDS:
            if e.dim == 1:
                video_arrivals += 1
                if t_inject is not None and e.t_ms < t_inject:
                    pre += 1
                rejected = e.kind == ARRIVAL_REJECTED
                video_rejected += rejected
                if goose_before == 0:
                    gf_arrivals += 1
                    gf_rejected += rejected
            elif e.dim == 0:
                goose_arrivals += 1
                goose_rejected += e.kind == ARRIVAL_REJECTED
        downgraded += e.downgraded
        discarded += e.discarded
        goose_before = e.counts[0]
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
    r_v = gf_rejected / gf_arrivals if gf_arrivals else None
    return {"n_ga": n_ga, "r_rj": video_rejected / n_ga, "r_dw": downgraded / n_ga,
            "r_dc": discarded / n_ga, "r_v": r_v, "counts": counts}


def loop_goose_presence_window(traj):
    first = last = None
    count = traj.initial_counts[0]
    if count > 0:
        first = 0.0
    positive = count > 0
    for e in traj.events:
        if e.t_ms > traj.end_ms:
            break
        now = e.counts[0]
        if now > 0 and not positive and first is None:
            first = e.t_ms
        if positive and now == 0:
            last = e.t_ms
        positive = now > 0
    if first is None:
        return None
    if positive:
        last = traj.end_ms
    return first, last if last is not None else traj.end_ms


def loop_burst_period(traj):
    window = loop_goose_presence_window(traj)
    if window is None:
        return None, None
    first, last = window
    if traj.t_inject_ms is None:
        return None, last - first
    return last - traj.t_inject_ms, last - first


def loop_empirical_blocking(traj):
    out = {}
    for e in traj.events:
        if e.t_ms > traj.end_ms:
            break
        if e.kind in LOOP_ARRIVAL_KINDS:
            arr, rej = out.setdefault(e.dim, [0, 0])
            out[e.dim][0] = arr + 1
            out[e.dim][1] = rej + (e.kind == ARRIVAL_REJECTED)
    return {dim: (a, r) for dim, (a, r) in out.items()}


def random_event_path(seed):
    """Any kind, dimension and bookkeeping; the priority count often 0; a
    share of the events at 600 ms, the injection and, at times, the
    observation end."""
    rng = np.random.default_rng(seed)
    n = [0, 1, 5, 60, 400][seed % 5]
    end = [1000.0, 1200.0, 600.0][seed % 3]
    times = np.sort(rng.uniform(0.0, end, n))
    times[rng.random(n) < 0.2] = 600.0  # ties, and events at t_inject
    times.sort()
    kinds = [ARRIVAL_ACCEPTED, ARRIVAL_REJECTED, ARRIVAL_DOWNGRADED, DEPARTURE,
             PREEMPT_DISCARD, DOWNGRADE_CASCADE]
    events = [
        Event(float(t), kinds[rng.integers(6)], int(rng.integers(3)), int(rng.integers(3)),
              int(rng.integers(3)),
              (int(rng.integers(0, 3)) * int(rng.random() < 0.5),
               int(rng.integers(0, 30)), int(rng.integers(0, 9))))
        for t in times
    ]
    initial = (int(rng.integers(2)), 4, 1)
    return synthetic(events, initial=initial, end=end, horizon=1200.0,
                     t_inject=600.0 if seed % 4 else None)


def assert_readers_equal_the_loops(traj):
    expected = loop_empirical_blocking(traj)
    got = empirical_blocking(traj)
    assert got == expected and list(got) == list(expected)
    for value in (*got, *(x for pair in got.values() for x in pair)):
        assert type(value) is int
    s = summarize(traj)
    r = loop_ratios(traj)
    assert (s.burst_period_ms, s.burst_duration_ms) == loop_burst_period(traj)
    assert (s.n_ga, s.r_rj, s.r_dw, s.r_dc, s.r_v, s.counts) == (
        r["n_ga"], r["r_rj"], r["r_dw"], r["r_dc"], r["r_v"], r["counts"])


@pytest.mark.parametrize("name", sorted(PATHS) + [f"events_{k}" for k in range(20)])
def test_column_readers_equal_the_event_loops_exactly(name):
    traj = PATHS[name]() if name in PATHS else random_event_path(int(name.split("_")[1]))
    assert_readers_equal_the_loops(traj)


@pytest.mark.parametrize("policy", ["NC1", "NC2", "NC3"])
def test_column_readers_equal_the_event_loops_on_simulated_runs(policy):
    for rec in run_experiment(burst_scenario(policy, reps=3)):
        assert_readers_equal_the_loops(rec)
    batch = Scenario(
        policy=policy, radio=RADIO62, classes=tuple(table2_classes(policy)),
        injection=InjectionSchedule("batch", 2000.0, batch_size=70),
        horizon_ms=6000.0, warmup="stationary_video_start", time_scale=200.0,
        early_stop_at_goose_cap=policy == "NC2", replications=3,
    )
    for rec in run_experiment(batch):
        assert_readers_equal_the_loops(rec)
