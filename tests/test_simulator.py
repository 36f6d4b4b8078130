import pickle

import numpy as np
import pytest

from ranburst import (
    InjectionSchedule,
    RadioConfig,
    Scenario,
    ScenarioError,
    TrafficClass,
    kaufman_roberts,
    mix_seed,
    run_experiment,
    run_replication,
)
from ranburst import analytic, simulator, traffic
from ranburst.analytic import build_generator, mean_counts, reachable_states, steady_state
from ranburst.metrics import empirical_blocking
from ranburst.simulator import MAX_BATCH_SIZE, MAX_GRID_POINTS, pool_size
from ranburst.traffic import (
    ARRIVAL_DOWNGRADED,
    ARRIVAL_REJECTED,
    DEPARTURE,
    DOWNGRADE_CASCADE,
    PREEMPT_DISCARD,
    arrival_outcome,
    feasible,
    occupied,
)

from conftest import RADIO10, RADIO62, goose_class, table2_classes, video_class


def two_class_scenario(horizon_ms=20000.0, **kw):
    defaults = dict(
        policy="NC1",
        radio=RADIO10,
        classes=(
            TrafficClass(1, 2.0, 1.0, 1, 10),
            TrafficClass(2, 3.0, 1.0, 2, 5),
        ),
        injection=None,
        horizon_ms=horizon_ms,
        base_seed=404,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def burst_scenario(policy="NC3", mode="poisson", batch=52, rate=4.0, **kw):
    defaults = dict(
        policy=policy,
        radio=RADIO62,
        classes=tuple(table2_classes(policy)),
        injection=InjectionSchedule(mode, 2000.0, batch_size=batch, poisson_rate=rate),
        horizon_ms=6000.0,
        warmup="stationary_video_start",
        time_scale=200.0,
        base_seed=11,
    )
    defaults.update(kw)
    return Scenario(**defaults)


# ---------------------------------------------------------------------------
# Determinism and seeding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("crn", [False, True])
def test_identical_seed_gives_identical_trajectory(crn):
    sc = burst_scenario()
    a = run_replication(sc, 1234, crn=crn)
    b = run_replication(sc, 1234, crn=crn)
    assert a.initial_counts == b.initial_counts
    assert a.events == b.events
    assert a.end_ms == b.end_ms


def test_experiment_seeds_are_distinct_and_reproducible():
    sc = two_class_scenario(horizon_ms=500.0, replications=5)
    a = run_experiment(sc)
    b = run_experiment(sc)
    assert len({r.seed for r in a}) == 5
    assert [r.seed for r in a] == [mix_seed(sc.base_seed, i) for i in range(5)]
    for x, y in zip(a, b):
        assert x.events == y.events


def test_single_replication_matches_run_replication():
    sc = two_class_scenario(horizon_ms=500.0, replications=1)
    rec = run_experiment(sc)[0]
    direct = run_replication(sc, mix_seed(sc.base_seed, 0))
    assert rec.events == direct.events


def test_parallel_schedule_matches_serial():
    sc = two_class_scenario(horizon_ms=1000.0, replications=4)
    serial = run_experiment(sc)
    parallel = run_experiment(sc, workers=2)
    for x, y in zip(serial, parallel):
        assert x.events == y.events
        assert x.replication == y.replication


COLUMNS = ("t_ms", "kind", "dim", "downgraded", "discarded", "state", "states")


def assert_same_columns(x, y):
    for name in COLUMNS:
        a, b = getattr(x, name), getattr(y, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert x.events == y.events
    for name in ("initial_counts", "end_ms", "seed", "replication", "stopped_early"):
        assert getattr(x, name) == getattr(y, name), name


def test_pool_records_equal_serial_records_column_by_column():
    sc = burst_scenario(replications=7)
    serial = run_experiment(sc)
    for x, y in zip(serial, run_experiment(sc, workers=2)):
        assert_same_columns(x, y)
    assert sum(r.n_events for r in serial) > 7 * 100


@pytest.mark.parametrize("crn", [False, True])
def test_record_survives_a_pickle_round_trip(crn):
    rec = run_replication(burst_scenario(), 77, crn=crn)
    assert_same_columns(rec, pickle.loads(pickle.dumps(rec)))


def test_records_of_both_constructors_hold_the_same_columns():
    sc = burst_scenario()
    rec = run_replication(sc, 5)
    fields = {k: getattr(rec, k) for k in (
        "policy", "capacity", "dim_labels", "demands", "initial_counts", "end_ms",
        "horizon_ms", "t_inject_ms", "seed", "stopped_early")}
    assert_same_columns(rec, simulator.TrajectoryRecord.from_events(rec.events, **fields))
    assert rec.final_counts() == rec.events[-1].counts
    assert rec.events is not rec.events  # rebuilt on access, never cached


@pytest.mark.parametrize("crn", [False, True])
def test_shared_arc_table_matches_fresh_tables(crn):
    sc = burst_scenario(replications=6)
    shared = run_experiment(sc, crn=crn)
    for r, rec in enumerate(shared):
        fresh = run_replication(sc, mix_seed(sc.base_seed, r), crn=crn)
        assert rec.events == fresh.events
        assert rec.end_ms == fresh.end_ms


@pytest.mark.parametrize("workers, replications, cpus, expected", [
    (None, 10, 4, 1),
    (0, 10, 4, 1),
    (-3, 10, 4, 1),
    (1, 10, 4, 1),
    (2, 10, 4, 2),
    (8, 3, 4, 3),
    (8, 100, 4, 4),
    (10_000, 100_000, 2, 2),
    (3, 10, None, 1),
])
def test_pool_size_is_clamped(monkeypatch, workers, replications, cpus, expected):
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: cpus)
    assert pool_size(workers, replications) == expected


# ---------------------------------------------------------------------------
# Engine replay: every recorded event is an arc of the chain
# ---------------------------------------------------------------------------


def replay_problems(sc, rec):
    """Events that are not the policy's arc out of the previous state."""
    dims = sc.dimensions()
    capacity = sc.radio.capacity_blocks
    problems = []
    state = rec.initial_counts
    for k, e in enumerate(rec.events):
        if e.kind == DEPARTURE:
            target = list(state)
            target[e.dim] -= 1
            expected = (DEPARTURE, e.dim, 0, 0, tuple(target))
            ok = state[e.dim] > 0
        else:
            tr = arrival_outcome(sc.policy, state, e.dim, dims, capacity, 0.0)
            expected = (tr.kind, tr.dim, tr.downgraded, tr.discarded, tr.target)
            ok = True
        if not ok or tuple(e[1:]) != expected or not feasible(e.counts, dims, capacity):
            problems.append((k, state, e))
        state = e.counts
    return problems


REPLAY_CASES = [
    ("NC1", "batch", 52, 4.0, False),
    ("NC1", "poisson", 52, 4.0, False),
    ("NC2", "batch", 52, 4.0, False),
    ("NC2", "poisson", 52, 4.0, False),
    ("NC2", "batch_plus_poisson", 30, 4.0, False),
    ("NC3", "batch", 52, 4.0, False),
    ("NC3", "poisson", 52, 4.0, False),
    ("NC3", "batch_plus_poisson", 30, 4.0, False),
    ("NC3", "batch_plus_poisson", 50, 20.0, True),
    ("NC2", "batch", 70, 0.0, True),
]


# The NC3 "batch" case starts one block short of a full pool, with one
# downgraded video session. A replication makes a downgraded admission with
# probability about 0.1-0.13 from a stationary video start, and about 0.82
# from this state in either engine (300 seeds each), so four replications
# miss one with probability about 1e-3.
ODD_FREE_START = {("NC3", "batch"): (0, 30, 1)}


# The coupled cases get a "-crn" suffix, so the direct ones keep their ids.
@pytest.mark.parametrize("policy, mode, batch, rate, early_stop, crn", [
    pytest.param(*case, False, id="-".join(map(str, case))) for case in REPLAY_CASES
] + [
    pytest.param(*case, True, id="-".join(map(str, case)) + "-crn")
    for case in REPLAY_CASES
])
def test_recorded_events_replay_as_chain_arcs(policy, mode, batch, rate, early_stop, crn):
    sc = burst_scenario(policy, mode, batch=batch, rate=rate, replications=4,
                        early_stop_at_goose_cap=early_stop,
                        initial_counts=ODD_FREE_START.get((policy, mode)))
    kinds = set()
    for rec in run_experiment(sc, crn=crn):
        assert replay_problems(sc, rec) == []
        kinds.update(e.kind for e in rec.events)
        if early_stop:
            assert rec.stopped_early
            assert rec.events[-1].counts[0] == sc.dimensions()[0].max_sessions
            assert rec.end_ms == rec.events[-1].t_ms
    assert DEPARTURE in kinds
    if policy == "NC2":
        assert PREEMPT_DISCARD in kinds
    if policy == "NC3":
        assert DOWNGRADE_CASCADE in kinds
    if policy == "NC3" and mode == "batch":
        assert ARRIVAL_DOWNGRADED in kinds


@pytest.mark.parametrize("crn", [False, True])
def test_infeasible_state_raises_when_first_visited(monkeypatch, crn):
    # The rule sends an offer to a 20th priority session over the pool. The
    # walk first enters a state with 19 of them when the batch arrives, and
    # compiling that state's block proves the bad target infeasible.
    sc = burst_scenario("NC3", "batch", batch=20)
    real = analytic.arrival_outcomes

    def over_the_pool(policy, counts, dim, dims, capacity):
        out = real(policy, counts, dim, dims, capacity)
        if dim == 0:
            out.target[out.target[:, 0] == 20, 1] = capacity
        return out

    monkeypatch.setattr(analytic, "arrival_outcomes", over_the_pool)
    with pytest.raises(RuntimeError, match=r"infeasible state \(20, "):
        run_replication(sc, 5, crn=crn)


@pytest.mark.parametrize("crn", [False, True])
def test_walking_the_burst_chain_resolves_no_state_one_at_a_time(monkeypatch, crn):
    def per_state(*args, **kwargs):
        raise AssertionError("the simulator resolved one state at a time")

    for module in (traffic, simulator):
        monkeypatch.setattr(module, "arrival_outcome", per_state)
    sc = burst_scenario("NC3", "batch_plus_poisson", batch=30, replications=3)
    records = run_experiment(sc, crn=crn)
    assert sum(rec.n_events for rec in records) > 0


def test_a_large_pool_compiles_only_the_blocks_its_walk_enters():
    # 18.2M feasible states in 6,701 blocks; a short walk with a small
    # burst enters a handful of them.
    classes = (goose_class(max_sessions=600),
               video_class("low", 1 / 20, adaptive=True, max_sessions=300))
    sc = burst_scenario("NC3", "batch", batch=3, classes=classes,
                        radio=RadioConfig(250000, 360, 216000, 600),
                        injection=InjectionSchedule("batch", 500.0, batch_size=3),
                        horizon_ms=1000.0)
    dims = sc.dimensions()
    assert analytic._count_feasible(dims, 600) > 5_000_000
    chain = simulator._Chain(sc)
    rec = simulator._run_direct(sc, 3, chain)
    assert rec.n_events > 10
    assert replay_problems(sc, rec) == []
    assert len(chain.blocks) <= 8
    assert rec.events == run_replication(sc, 3).events


def test_a_state_box_past_int64_keeps_exact_keys():
    # 20 classes of up to 10,000 sessions: the box has 10_001**20 keys. Only
    # the last class has arrivals, so the walk stays in the first block.
    classes = tuple(TrafficClass(i, 50.0 if i == 20 else 0.0, 10.0, 1, 10_000)
                    for i in range(1, 21))
    sc = two_class_scenario(horizon_ms=1000.0, classes=classes,
                            radio=RadioConfig(3_600_000, 360, 3_600_000, 10_000))
    chain = simulator._Chain(sc)
    rec = simulator._run_direct(sc, 9, chain)
    assert chain.box.weights.dtype == object and len(chain.blocks) == 1
    assert rec.n_events > 10
    assert replay_problems(sc, rec) == []
    assert rec.final_counts()[:19] == (0,) * 19


def test_the_start_law_is_computed_once_per_experiment(monkeypatch):
    calls = []
    real = simulator.kaufman_roberts

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simulator, "kaufman_roberts", counting)
    records = run_experiment(burst_scenario(replications=5))
    assert len(calls) == 1
    assert len({rec.initial_counts for rec in records}) > 1


# ---------------------------------------------------------------------------
# Basic sampling behavior
# ---------------------------------------------------------------------------


def test_no_arrivals_single_initial_session_departs_once():
    sc = Scenario(
        policy="NC1",
        radio=RadioConfig(1000, 360, 360, 1),
        classes=(TrafficClass(1, 0.0, 1.0, 1, 1),),
        injection=None,
        horizon_ms=1e7,
        initial_counts=(1,),
    )
    rec = run_replication(sc, 7)
    assert len(rec.events) == 1
    assert rec.events[0].kind == DEPARTURE
    assert rec.events[0].counts == (0,)


def test_event_times_are_increasing_and_states_feasible():
    sc = burst_scenario()
    rec = run_replication(sc, 99)
    dims = sc.dimensions()
    last_t = 0.0
    for e in rec.events:
        assert e.t_ms >= last_t
        last_t = e.t_ms
        assert occupied(e.counts, dims) <= sc.radio.capacity_blocks
        assert all(0 <= c <= d.max_sessions for c, d in zip(e.counts, dims))


def test_rejected_arrivals_recorded_as_self_loops():
    sc = two_class_scenario(horizon_ms=50000.0)
    rec = run_replication(sc, 21)
    rejects = [e for e in rec.events if e.kind == ARRIVAL_REJECTED]
    assert rejects
    prev = rec.initial_counts
    for e in rec.events:
        if e.kind == ARRIVAL_REJECTED:
            assert e.counts == prev
        prev = e.counts


@pytest.mark.parametrize("policy", ["NC2", "NC3"])
@pytest.mark.parametrize("batch", [10, 62, 100])
def test_batch_into_empty_pool_admits_up_to_cap(policy, batch):
    classes = list(table2_classes(policy))
    sc = Scenario(
        policy=policy,
        radio=RADIO62,
        classes=tuple(classes),
        injection=InjectionSchedule("batch", 0.0, batch_size=batch),
        horizon_ms=1.0,
        base_seed=5,
    )
    rec = run_replication(sc, 3)
    admitted = max(e.counts[0] for e in rec.events)
    assert admitted == min(batch, 62, 62)


def test_batch_into_loaded_pool_spikes_downgraded_count():
    sc = burst_scenario(policy="NC3", mode="batch", batch=52, rate=0.0)
    rec = run_replication(sc, 4321)
    before = max(
        (e.counts[2] for e in rec.events if e.t_ms < 2000.0),
        default=rec.initial_counts[2],
    )
    at_injection = [e.counts[2] for e in rec.events if e.t_ms == 2000.0]
    assert before == 0
    assert at_injection and max(at_injection) > 5


def test_poisson_injection_stops_after_delivering_batch():
    sc = burst_scenario(policy="NC2", batch=20, rate=4.0)
    rec = run_replication(sc, 31)
    offers = [
        e for e in rec.events
        if e.dim == 0 and e.kind not in (DEPARTURE,)
    ]
    admitted = [e for e in offers if e.kind != ARRIVAL_REJECTED]
    assert len(admitted) == 20
    # after the twentieth admission no further priority offers appear
    t_done = admitted[-1].t_ms
    assert all(o.t_ms <= t_done for o in offers)


@pytest.mark.parametrize("policy", ["NC2", "NC3"])
def test_coupled_offers_lapse_once_the_burst_is_delivered(policy):
    rec = run_replication(burst_scenario(policy, batch=20, rate=4.0), 31, crn=True)
    offers = [e for e in rec.events if e.dim == 0 and e.kind != DEPARTURE]
    admitted = [e for e in offers if e.kind != ARRIVAL_REJECTED]
    assert len(admitted) == 20
    assert all(o.t_ms <= admitted[-1].t_ms for o in offers)


def test_early_stop_at_goose_cap():
    classes = (
        TrafficClass(1, 0.0, 0.001, 1, 62, "high"),
        TrafficClass(2, 0.01, 1 / 600, 2, 31, "low"),
    )
    sc = Scenario(
        policy="NC2",
        radio=RADIO62,
        classes=classes,
        injection=InjectionSchedule("batch", 1000.0, batch_size=100),
        horizon_ms=6000.0,
        early_stop_at_goose_cap=True,
        base_seed=2,
    )
    rec = run_replication(sc, 17)
    assert rec.stopped_early
    assert rec.end_ms == pytest.approx(1000.0)
    assert rec.final_counts()[0] == 62


def test_stationary_video_start_matches_loss_distribution():
    sc = burst_scenario(policy="NC1", horizon_ms=2001.0,
                        injection=None, warmup="stationary_video_start")
    video = sc.classes[1]
    solo = TrafficClass(2, video.arrival_rate, video.service_rate, 2, 31)
    q = kaufman_roberts([solo], 62).q
    mean_blocks = float(np.arange(63) @ q)
    draws = [
        run_replication(sc, mix_seed(88, r)).initial_counts[1] * 2 for r in range(300)
    ]
    # sample mean of initial occupancy within 4 standard errors
    se = float(np.std(draws, ddof=1) / np.sqrt(len(draws)))
    assert abs(np.mean(draws) - mean_blocks) < 4 * se


# ---------------------------------------------------------------------------
# Distributional checks against the analytic oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("crn", [False, True])
def test_blocking_converges_to_erlang_b(crn):
    capacity, load = 5, 4.0
    sc = Scenario(
        policy="NC1",
        radio=RadioConfig(2200, 360, 1800, 5),
        classes=(TrafficClass(1, load, 1.0, 1, 5),),
        injection=None,
        horizon_ms=27_000_000.0,
        base_seed=1,
    )
    rec = run_replication(sc, 2024, crn=crn)
    arrivals, rejected = empirical_blocking(rec)[0]
    assert arrivals > 100_000
    b = kaufman_roberts(list(sc.classes), capacity).blocking[1]
    se = np.sqrt(b * (1 - b) / arrivals)
    assert abs(rejected / arrivals - b) < 3 * se


def test_long_run_occupancy_distribution_matches_recursion():
    sc = two_class_scenario(horizon_ms=10_000_000.0)
    rec = run_replication(sc, 314159)
    dist = kaufman_roberts(list(sc.classes), 10)

    # time fraction spent at each occupancy level, in 20 batches so the
    # comparison has an honest error estimate despite autocorrelation
    n_batches = 20
    batch_len = rec.end_ms / n_batches
    fractions = np.zeros((n_batches, 11))
    def accumulate(start, stop, occ):
        b0 = int(start // batch_len)
        b1 = int(min(stop, rec.end_ms - 1e-9) // batch_len)
        for b in range(b0, b1 + 1):
            lo = max(start, b * batch_len)
            hi = min(stop, (b + 1) * batch_len)
            if hi > lo:
                fractions[b, occ] += hi - lo

    occ = sum(c * d for c, d in zip(rec.initial_counts, rec.demands))
    t_prev = 0.0
    for e in rec.events:
        accumulate(t_prev, e.t_ms, occ)
        t_prev = e.t_ms
        occ = sum(c * d for c, d in zip(e.counts, rec.demands))
    accumulate(t_prev, rec.end_ms, occ)
    fractions /= batch_len
    mean = fractions.mean(axis=0)
    se = fractions.std(axis=0, ddof=1) / np.sqrt(n_batches)
    assert np.all(np.abs(mean - dist.q) <= 3 * se + 1e-4)


def test_crn_couples_arrival_streams_across_policies():
    nc2 = burst_scenario(policy="NC2")
    nc3 = burst_scenario(policy="NC3")
    r2 = run_replication(nc2, 555, crn=True)
    r3 = run_replication(nc3, 555, crn=True)
    video_arrivals_2 = [e.t_ms for e in r2.events if e.dim == 1 and e.kind != DEPARTURE]
    video_arrivals_3 = [e.t_ms for e in r3.events if e.dim == 1 and e.kind != DEPARTURE]
    assert video_arrivals_2 == video_arrivals_3
    assert r2.initial_counts[1] == r3.initial_counts[1]


def test_crn_pairs_share_every_event_before_the_burst():
    departures = 0
    for seed in range(20):
        r1 = run_replication(burst_scenario("NC1"), seed, crn=True)
        r2 = run_replication(burst_scenario("NC2"), seed, crn=True)
        assert r1.initial_counts == r2.initial_counts
        before = [[e for e in r.events if e.t_ms < 2000.0] for r in (r1, r2)]
        assert before[0] == before[1]
        departures += sum(e.kind == DEPARTURE for e in before[0])
    assert departures > 0


def batch_means(rec, n_batches):
    """Time average of each dimension's count over ``n_batches`` equal
    windows of ``[0, end_ms]``, one row per window."""
    x = np.concatenate(([0.0], rec.t_ms))
    s = np.vstack((rec.initial_counts, rec.states[rec.state])).astype(float)
    cum = np.vstack((np.zeros(rec.n_dims), np.cumsum(s[:-1] * np.diff(x)[:, None], axis=0)))
    edges = np.linspace(0.0, rec.end_ms, n_batches + 1)
    j = np.searchsorted(x, edges, side="right") - 1
    integral = cum[j] + s[j] * (edges - x[j])[:, None]
    return np.diff(integral, axis=0) / np.diff(edges)[:, None]


def test_coupled_engine_thins_to_the_chain_law_with_unequal_service_rates():
    # The downgraded video dimension departs 4x faster than the full-rate
    # one, so the video class's candidates, at C times the larger rate, must
    # be thinned by each dimension's own rate.
    sc = Scenario(
        policy="NC3",
        radio=RADIO10,
        classes=(
            TrafficClass(1, 0.5, 1.0, 1, 10, "high"),
            TrafficClass(2, 2.0, 0.5, 3, 3, "low", adaptive=True,
                         downgraded_demand_blocks=1, downgraded_service_rate=2.0),
        ),
        injection=None,
        horizon_ms=4_000_000.0,
    )
    dims = sc.dimensions()
    space, q = build_generator("NC3", dims, 10, space=reachable_states("NC3", dims, 10))
    expected = mean_counts(space, steady_state(q))
    means = batch_means(run_replication(sc, 8080, crn=True), 20)
    z = (means.mean(axis=0) - expected) / (means.std(axis=0, ddof=1) / np.sqrt(20))
    assert np.all(np.abs(z) <= 4), z


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError, match="horizon"):
        burst_scenario(horizon_ms=1500.0).validate()  # before injection
    with pytest.raises(ScenarioError, match="replications"):
        burst_scenario(replications=0).validate()
    with pytest.raises(ScenarioError, match="warmup"):
        burst_scenario(warmup="cold").validate()
    with pytest.raises(ScenarioError, match="feasible"):
        two_class_scenario(initial_counts=(11, 0)).validate()
    with pytest.raises(ScenarioError, match="time_scale"):
        burst_scenario(time_scale=0.0).validate()


@pytest.mark.parametrize("field, value", [
    ("horizon_ms", float("inf")),
    ("horizon_ms", float("nan")),
    ("grid_ms", float("inf")),
    ("grid_ms", float("nan")),
    ("time_scale", float("inf")),
    ("time_scale", float("nan")),
])
def test_non_finite_times_are_rejected(field, value):
    with pytest.raises(ScenarioError, match=field.split("_ms")[0]):
        burst_scenario(**{field: value}).validate()


@pytest.mark.parametrize("grid_ms", [6000.0 / MAX_GRID_POINTS, 1e-6, 1e-310])
def test_reporting_grid_is_bounded(grid_ms):
    # validate() rejects the grid before anything allocates it
    with pytest.raises(ScenarioError, match="grid points"):
        burst_scenario(grid_ms=grid_ms).validate()


def test_largest_reporting_grid_is_accepted():
    burst_scenario(grid_ms=6000.0 / (MAX_GRID_POINTS - 1)).validate()


def test_batch_size_is_bounded():
    InjectionSchedule("batch", 0.0, MAX_BATCH_SIZE, 0.0).validate()
    for mode in ("batch", "poisson", "batch_plus_poisson"):
        with pytest.raises(ScenarioError, match="batch size"):
            InjectionSchedule(mode, 0.0, MAX_BATCH_SIZE + 1, 1.0).validate()


def test_injection_validation_errors():
    with pytest.raises(ScenarioError, match="mode"):
        InjectionSchedule("burst", 0.0, 1, 0.0).validate()
    with pytest.raises(ScenarioError, match="batch size or a poisson rate"):
        InjectionSchedule("batch", 0.0, 0, 0.0).validate()
    with pytest.raises(ScenarioError, match="poisson_rate"):
        InjectionSchedule("batch_plus_poisson", 0.0, 5, 0.0).validate()
    for t in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ScenarioError, match="injection time"):
            InjectionSchedule("batch", t, 5, 0.0).validate()
