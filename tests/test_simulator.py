import ctypes
import hashlib
import json
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ranburst import (
    InjectionSchedule,
    NumericalError,
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
from ranburst.cli import bundled_scenario_path, load_bundled_scenario, main
from ranburst.metrics import empirical_blocking
from ranburst.simulator import (
    MAX_BATCH_SIZE,
    MAX_CAPACITY_BLOCKS,
    MAX_GRID_POINTS,
    MAX_RUN_CURVE_POINTS,
    pool_size,
)
from ranburst.traffic import (
    ARRIVAL_ACCEPTED,
    ARRIVAL_DOWNGRADED,
    ARRIVAL_REJECTED,
    DEPARTURE,
    DOWNGRADE_CASCADE,
    EVENT_KINDS,
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


def test_identical_seed_gives_identical_trajectory():
    sc = burst_scenario()
    a = run_replication(sc, 1234)
    b = run_replication(sc, 1234)
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


def test_records_built_per_group_equal_records_built_one_at_a_time(monkeypatch):
    # A run builds the records of a group of replications in one pass; each
    # must equal its replication's record built alone (a group of one). On a
    # 200 ms horizon at 5 events/s about a third of the replications have no
    # event, a priority cap of 1 stops about two fifths early, and a bound of
    # 6 events closes several groups, serially and in each pool worker.
    sc = two_class_scenario(
        horizon_ms=200.0, replications=40, early_stop_at_goose_cap=True,
        classes=(TrafficClass(1, 2.0, 1.0, 1, 1), TrafficClass(2, 3.0, 1.0, 2, 5)))
    monkeypatch.setattr(simulator, "GROUP_EVENTS", 6)
    groups = []
    records = simulator._Chain.records

    def recording(chain, scenario, walks, times, path):
        groups.append([stop for _, _, _, stop, _, _ in walks])
        return records(chain, scenario, walks, times, path)

    monkeypatch.setattr(simulator._Chain, "records", recording)
    alone = []
    for r in range(sc.replications):
        rec = run_replication(sc, mix_seed(sc.base_seed, r))
        rec.replication = r
        alone.append(rec)
    assert len(groups) == sc.replications
    groups.clear()
    serial = run_experiment(sc)
    assert 1 < len(groups) < sc.replications
    assert any(stops[-1] >= 6 and len(stops) > 1 for stops in groups)
    assert any(0 in np.diff([0, *stops]) for stops in groups)  # a walk without events
    assert any(r.stopped_early for r in serial) and not all(r.stopped_early for r in serial)
    for grouped in (serial, run_experiment(sc, workers=2)):
        assert len(grouped) == len(alone)
        for x, y in zip(grouped, alone):
            assert_same_columns(x, y)


def test_record_survives_a_pickle_round_trip():
    rec = run_replication(burst_scenario(), 77)
    assert_same_columns(rec, pickle.loads(pickle.dumps(rec)))


def test_records_of_both_constructors_hold_the_same_columns():
    sc = burst_scenario()
    rec = run_replication(sc, 5)
    fields = {k: getattr(rec, k) for k in (
        "policy", "capacity", "dim_labels", "demands", "initial_counts", "end_ms",
        "horizon_ms", "t_inject_ms", "seed", "stopped_early")}
    assert_same_columns(rec, simulator.TrajectoryRecord.from_events(rec.events, **fields))
    assert tuple(rec.states[rec.state[-1]].tolist()) == rec.events[-1].counts
    assert rec.events is not rec.events  # rebuilt on access, never cached


def test_shared_arc_table_matches_fresh_tables():
    sc = burst_scenario(replications=6)
    shared = run_experiment(sc)
    for r, rec in enumerate(shared):
        fresh = run_replication(sc, mix_seed(sc.base_seed, r))
        assert rec.events == fresh.events
        assert rec.end_ms == fresh.end_ms


def injected_at(sc, t_inject_ms):
    return replace(sc, injection=replace(sc.injection, t_inject_ms=t_inject_ms))


# Schedule cases the bundled scenarios do not reach: a burst at t = 0
# (stream, batch), a pool with no rate before the injection whose capped
# stream delivers and which then empties, a capped stream on a loaded pool,
# and early stops inside a batch and on a stream. The bundled batch-plus-stream
# burst sets the early stop too, though none of its replications reaches it.
SCHEDULE_CASES = {
    "poisson-at-0": lambda: injected_at(burst_scenario("NC3", "poisson"), 0.0),
    "batch-at-0": lambda: injected_at(burst_scenario("NC3", "batch"), 0.0),
    "idle-until-injection": lambda: burst_scenario(
        "NC2", "poisson", batch=10, warmup="empty_start",
        classes=(goose_class(), video_class(arrival_rate=0.0))),
    "poisson-cap": lambda: burst_scenario("NC1", "poisson", batch=20, warmup="empty_start"),
    "early-stop-in-batch": lambda: burst_scenario(
        "NC2", "batch", batch=70, rate=0.0, early_stop_at_goose_cap=True),
    "early-stop-on-stream": lambda: burst_scenario(
        "NC3", "batch_plus_poisson", batch=50, rate=20.0, early_stop_at_goose_cap=True),
    "table2_nc3_lam20_literal": lambda: load_bundled_scenario("table2_nc3_lam20_literal"),
}

# sha256 of every record column (name, dtype, shape, bytes), the end time and
# the early stop of 3 replications per case. They pin the walk's draws: a
# change to any draw, float or record shows here.
SCHEDULE_DIGESTS = {
    "batch-at-0": "98a1f3840c9fffe8bad2649c14146e4036d90a79e0fbfa1fb9234b9809bc6dce",
    "early-stop-in-batch": "f5d7b664c6c7a1d8fd958eeaf9256d93e3435f22dc70885710e6bff64b6368e0",
    "early-stop-on-stream": "a488d43cbb89ec26b30a4c52e293909ad59755a419e39f31eeced8fa2ab8a3d4",
    "idle-until-injection": "d2b09923af182324a2996f20d4c3e33df1394d3a0bf30cc36941e5b1cceb3cd1",
    "poisson-at-0": "6fbd7d135cc5060858aa2cf7877a789cb8acf6ba12244258c238368496bffde7",
    "poisson-cap": "8a9f258a32a09d5208b81e9f94c5d78ef0353877686a663e7eaaaf710b55af28",
    "table2_nc3_lam20_literal": "ce51d599a97a0cb7d7b99c271273c4a9bb25b89c0d1de7ecc12fc2fd1bb38b94",
}


def record_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        for name in COLUMNS:
            col = getattr(rec, name)
            h.update(f"{name} {col.dtype} {col.shape}".encode())
            h.update(np.ascontiguousarray(col).tobytes())
        h.update(repr((rec.end_ms, rec.stopped_early)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
def test_schedule_cases_keep_their_pinned_draws(case):
    sc = replace(SCHEDULE_CASES[case](), replications=3)
    assert record_digest(run_experiment(sc)) == SCHEDULE_DIGESTS[case]


BUNDLED_NAMES = sorted(
    p.stem for p in bundled_scenario_path("demo_nc3_small").parent.glob("*.yaml"))


@pytest.mark.parametrize("case", BUNDLED_NAMES + ["early-stop-in-batch", "early-stop-on-stream"])
def test_every_event_lies_at_or_before_the_observation_end(case):
    # The metrics read a record's whole path as its observed window. A walk
    # ends at the horizon, or right after its stopping event, at that event.
    sc = SCHEDULE_CASES[case]() if case in SCHEDULE_CASES else load_bundled_scenario(case)
    records = run_experiment(replace(sc, replications=4))
    for rec in records:
        assert rec.n_events == 0 or rec.t_ms[-1] <= rec.end_ms
        if rec.stopped_early:
            assert rec.t_ms[-1] == rec.end_ms < rec.horizon_ms
        else:
            assert rec.end_ms == rec.horizon_ms
    if case.startswith("early-stop"):
        assert any(rec.stopped_early for rec in records)


def test_a_hand_built_record_holds_no_event_past_its_end():
    fields = dict(policy="NC1", capacity=10, dim_labels=("a", "b"), demands=(1, 2),
                  initial_counts=(0, 0), horizon_ms=100.0, t_inject_ms=None, seed=0)
    events = [simulator.Event(50.0, ARRIVAL_ACCEPTED, 0, 0, 0, (1, 0))]
    assert simulator.TrajectoryRecord.from_events(events, end_ms=50.0, **fields).n_events == 1
    with pytest.raises(ValueError, match="past the observation end"):
        simulator.TrajectoryRecord.from_events(events, end_ms=49.0, **fields)


@pytest.mark.parametrize("seed", [0, 7, 2024, 20260810, 2**64 - 1])
def test_bound_draws_are_the_generators_own(seed):
    # The walk draws through numpy's C functions bound with ctypes, and takes
    # an exponential holding time as the scale times a standard draw. Over
    # 25,000 interleaved pairs per seed, at scales from 1e-12 to 1e12, they
    # must give Generator.exponential(scale) and Generator.random() bit for
    # bit, and leave the generator where the methods leave it.
    exponential, uniform = simulator._draws()
    scales = [1e-12, 1e12, *(10.0 ** np.random.default_rng(seed).uniform(-12, 12, 24_998))]
    bound, methods = np.random.default_rng(seed), np.random.default_rng(seed)
    bitgen = bound.bit_generator.ctypes.bit_generator
    got = np.array([(s * exponential(bitgen), uniform(bitgen)) for s in scales])
    want = np.array([(methods.exponential(s), methods.random()) for s in scales])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert bound.bit_generator.state == methods.bit_generator.state


real_pydll = ctypes.PyDLL


def _missing_draw(path):
    lib = real_pydll(path)
    return SimpleNamespace(random_standard_exponential=lib.random_standard_exponential)


def _swapped_draws(path):
    lib = real_pydll(path)
    return SimpleNamespace(random_standard_exponential=lib.random_standard_uniform,
                           random_standard_uniform=lib.random_standard_exponential)


@pytest.fixture
def rebind_draws():
    simulator._draws.cache_clear()
    yield
    simulator._draws.cache_clear()


@pytest.mark.parametrize("library, message", [
    (_missing_draw, "does not export"), (_swapped_draws, "are not the generator's own"),
], ids=["missing", "swapped"])
def test_draws_that_are_not_numpys_own_stop_the_run(monkeypatch, capsys, tmp_path,
                                                    rebind_draws, library, message):
    # A numpy without the symbols, or whose bound pair does not draw what
    # its Generator draws, is a numerical failure that names the version:
    # the CLI exits 3 with its JSON record and no traceback.
    monkeypatch.setattr(simulator.ctypes, "PyDLL", library)
    with pytest.raises(NumericalError, match=f"numpy {np.__version__}.*{message}"):
        simulator._draws()
    code = main(["--scenario", str(bundled_scenario_path("oracle_transient_c4")),
                 "--replications", "2", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "numerical_failure"
    assert "Traceback" not in err and message in err


@pytest.mark.parametrize("name", ["table2_nc1_lam10", "table2_nc2_lam20", "table2_nc3_lam40"])
def test_the_stationary_start_is_the_one_generator_choice_draws(name):
    # The start takes one bound uniform draw against the chain's cumulative
    # law, which must pick the block count Generator.choice(len(q), p=q)
    # picks and use up the same draws.
    sc = load_bundled_scenario(name)
    chain = simulator._Chain(sc)
    q = chain.start_law
    demand = sc.classes[1].demand_blocks
    uniform = simulator._draws()[1]
    for seed in range(2000):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        start = simulator._initial_state(sc, chain, uniform, rng.bit_generator.ctypes.bit_generator)
        assert start == (0, int(ref.choice(len(q), p=q)) // demand) + (0,) * (len(start) - 2)
        assert rng.bit_generator.state == ref.bit_generator.state


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
# from this state (300 seeds), so four replications miss one with
# probability about 1e-3.
ODD_FREE_START = {("NC3", "batch"): (0, 30, 1)}


@pytest.mark.parametrize("policy, mode, batch, rate, early_stop", [
    pytest.param(*case, id="-".join(map(str, case))) for case in REPLAY_CASES
])
def test_recorded_events_replay_as_chain_arcs(policy, mode, batch, rate, early_stop):
    sc = burst_scenario(policy, mode, batch=batch, rate=rate, replications=4,
                        early_stop_at_goose_cap=early_stop,
                        initial_counts=ODD_FREE_START.get((policy, mode)))
    kinds = set()
    for rec in run_experiment(sc):
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


def test_infeasible_state_raises_when_first_visited(monkeypatch):
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
        run_replication(sc, 5)


def test_walking_the_burst_chain_resolves_no_state_one_at_a_time(monkeypatch):
    def per_state(*args, **kwargs):
        raise AssertionError("the simulator resolved one state at a time")

    for module in (traffic, simulator):
        monkeypatch.setattr(module, "arrival_outcome", per_state)
    sc = burst_scenario("NC3", "batch_plus_poisson", batch=30, replications=3)
    records = run_experiment(sc)
    assert sum(rec.n_events for rec in records) > 0


def walk_one(sc, seed, chain):
    """The record of one walk over ``chain``, a group of one."""
    times, path = [], []
    initial, end, stopped = simulator._walk(sc, seed, chain, times, path)
    return chain.records(sc, [(0, seed, initial, len(path), end, stopped)], times, path)[0]


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
    rec = walk_one(sc, 3, chain)
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
    rec = walk_one(sc, 9, chain)
    assert chain.box.weights.dtype == object and len(chain.blocks) == 1
    assert rec.n_events > 10
    assert replay_problems(sc, rec) == []
    assert rec.events[-1].counts[:19] == (0,) * 19


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


BUNDLED = sorted(p.stem for p in bundled_scenario_path("demo_nc3_small").parent.glob("*.yaml"))


@pytest.mark.parametrize("name", BUNDLED)
def test_the_per_ms_chain_has_the_rates_the_simulator_walks(name):
    # Each rate is one product with time_scale / 1000: (a * 200) / 1000 and
    # a * (200 / 1000) differ in the last bit for the video rates 1/10,
    # 1/20 and 1/40, and every trajectory with them.
    sc = load_bundled_scenario(name)
    policy, dims, capacity = sc.chain(per_ms=True)
    assert (policy, capacity) == (sc.policy, sc.radio.capacity_blocks)
    scale = sc.time_scale / 1000.0
    plain = sc.dimensions()
    assert [(d.arrival_rate, d.service_rate) for d in dims] == [
        (p.arrival_rate * scale, p.service_rate * scale) for p in plain]
    assert [replace(d, arrival_rate=p.arrival_rate, service_rate=p.service_rate)
            for d, p in zip(dims, plain)] == plain
    chain = simulator._Chain(sc)
    assert chain.arr_rates == [d.arrival_rate for d in dims]
    assert chain.box.dims == dims  # what its compiled arcs' rates are read from


def test_a_batch_burst_leaves_the_priority_class_at_its_own_rate():
    sc = load_bundled_scenario("demo_nc3_small")
    assert sc.injection.mode == "batch" and sc.classes[0].arrival_rate == 0.2
    assert sc.chain(burst=True) == sc.chain()


def test_a_stream_burst_adds_its_rate_to_the_priority_class():
    sc = load_bundled_scenario("table2_nc3_lam20")
    sc = replace(sc, classes=(replace(sc.classes[0], arrival_rate=1.5), *sc.classes[1:]))
    _, dims, _ = sc.chain(burst=True)
    _, plain, _ = sc.chain()
    assert dims[0].arrival_rate == (1.5 + sc.injection.poisson_rate) * sc.time_scale
    assert dims[1:] == plain[1:]
    assert dims[0].service_rate == plain[0].service_rate


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
    assert rec.events[-1].counts[0] == 62


@pytest.mark.parametrize("cap, stops", [(6, True), (10, True), (11, False), (2**64, False)])
def test_early_stop_at_the_edge_of_the_pool(cap, stops):
    # demo_nc3_small's ten blocks hold at most 10 priority sessions, and a
    # batch of 12 fills them in every replication. A cap up to 10 stops each
    # one at the injection; a cap the pool cannot reach stops none.
    sc = load_bundled_scenario("demo_nc3_small")
    priority = replace(sc.classes[0], max_sessions=cap)
    sc = replace(sc, classes=(priority, *sc.classes[1:]), replications=20,
                 injection=replace(sc.injection, batch_size=12),
                 early_stop_at_goose_cap=True)
    records = run_experiment(sc)
    peak = max(int(rec.states[:, 0].max()) for rec in records)
    if stops:
        assert all(rec.stopped_early and rec.end_ms == 1000.0 for rec in records)
        assert peak == cap
    else:
        assert not any(rec.stopped_early for rec in records)
        assert peak == 10


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


def test_blocking_converges_to_erlang_b():
    capacity, load = 5, 4.0
    sc = Scenario(
        policy="NC1",
        radio=RadioConfig(2200, 360, 1800, 5),
        classes=(TrafficClass(1, load, 1.0, 1, 5),),
        injection=None,
        horizon_ms=27_000_000.0,
        base_seed=1,
    )
    rec = run_replication(sc, 2024)
    arrivals, rejected = empirical_blocking(rec)[0]
    assert arrivals > 100_000
    b = kaufman_roberts(list(sc.classes), capacity).blocking[1]
    # A full pool stays full for a while, so rejections come in runs and a
    # binomial error understates the spread; take it from 20 windows.
    per_window = window_blocking(rec, 20)
    se = per_window.std(ddof=1) / np.sqrt(len(per_window))
    assert abs(rejected / arrivals - b) < 3 * se


def window_blocking(rec, n_windows):
    """Rejected over offered arrivals in each of ``n_windows`` equal
    windows of ``[0, end_ms]``."""
    kinds = np.array(EVENT_KINDS)[rec.kind]
    window = np.minimum((rec.t_ms * n_windows / rec.end_ms).astype(int), n_windows - 1)
    arrivals = np.bincount(window[kinds != DEPARTURE], minlength=n_windows)
    return np.bincount(window[kinds == ARRIVAL_REJECTED], minlength=n_windows) / arrivals


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


def unequal_rates_pool():
    """An NC3 pool whose downgraded video dimension departs 4x faster than
    the full-rate one."""
    return Scenario(
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


def test_time_averages_match_the_chain_law_with_unequal_service_rates():
    # Each video dimension departs at its own rate, n_i mu_i: the downgraded
    # one 4x faster than the full-rate one.
    sc = unequal_rates_pool()
    dims = sc.dimensions()
    space, q = build_generator("NC3", dims, 10, space=reachable_states("NC3", dims, 10))
    expected = mean_counts(space, steady_state(q))
    means = batch_means(run_replication(sc, 8080), 20)
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
    # The start law is the video class's own law up to its cap, so a cap
    # that binds below capacity // demand still validates.
    burst_scenario("NC2", classes=(goose_class(), video_class(max_sessions=20))).validate()


def start_residual(sc):
    """``max |pi0 Q|`` of the simulator's start law placed on the states of
    the scenario's pre-burst chain with video sessions only, and the mass
    placed there."""
    policy, dims, capacity = sc.chain()
    space, q = build_generator(policy, dims, capacity,
                               space=reachable_states(policy, dims, capacity))
    law, demand = simulator._Chain(sc).start_law, sc.classes[1].demand_blocks
    pi0 = np.zeros(len(space))
    for n in range((len(law) - 1) // demand + 1):
        pi0[space.index[(0, n) + (0,) * (len(dims) - 2)]] = law[n * demand]
    return np.abs(pi0 @ q).max(), pi0.sum()


def radio_of(capacity):
    return RadioConfig(25000, 360, 360 * capacity, capacity)


@pytest.mark.parametrize("capacity, honored", [(62, True), (63, False)])
def test_nc3_stationary_start_needs_a_capacity_the_recursion_honors(capacity, honored):
    # 31 full-rate video sessions leave 63 % 2 = 1 block, which NC3 fills
    # with a downgraded admission, so the recursion's law placed on the
    # states without downgraded sessions is stationary at 62 blocks only.
    sc = burst_scenario(radio=radio_of(capacity))
    residual, mass = start_residual(sc)
    assert mass == pytest.approx(1.0)
    if honored:
        assert residual < 1e-12
        sc.validate()
    else:
        assert residual > 1.0
        with pytest.raises(ScenarioError, match="at capacity 63, NC3 admits"):
            sc.validate()
        replace(sc, warmup="empty_start").validate()


@pytest.mark.parametrize("policy, capacity, honored", [
    ("NC1", 62, True), ("NC1", 63, True), ("NC2", 62, True), ("NC2", 63, True),
    ("NC3", 62, False),
])
def test_the_start_law_honors_a_binding_video_cap(policy, capacity, honored):
    # With 20 video sessions at most, the recursion runs over the 40 blocks
    # they can fill: the birth-death law of the video class alone, whatever
    # C. NC3 admits downgraded a video arrival that finds 20 sessions there,
    # since the 22 blocks left fit it, so its law is not that one.
    classes = tuple(table2_classes(policy))
    classes = (classes[0], replace(classes[1], max_sessions=20))
    sc = burst_scenario(policy, radio=radio_of(capacity), classes=classes)
    residual, mass = start_residual(sc)
    assert mass == pytest.approx(1.0)
    if honored:
        assert residual <= 1e-12
        sc.validate()
    else:
        assert residual > 1.0
        with pytest.raises(ScenarioError, match=f"at capacity {capacity}, NC3 admits"):
            sc.validate()


def test_a_pinned_start_needs_no_start_rule():
    # initial_counts overrides the warmup, so the NC3 rule that rejects the
    # stationary start at 63 blocks does not apply.
    sc = burst_scenario(radio=radio_of(63), initial_counts=(0, 5, 1), replications=2)
    sc.validate()
    assert [r.initial_counts for r in run_experiment(sc)] == [(0, 5, 1)] * 2


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("field", [
    "arrival_rate", "service_rate", "downgraded_service_rate", "poisson_rate"])
def test_non_finite_rates_are_rejected(field, value):
    sc = burst_scenario()
    if field == "poisson_rate":
        sc = replace(sc, injection=replace(sc.injection, poisson_rate=value))
    else:
        sc = replace(sc, classes=(sc.classes[0], replace(sc.classes[1], **{field: value})))
    with pytest.raises(ScenarioError, match=field):
        sc.validate()


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


def test_the_curve_points_of_a_run_are_bounded():
    # 5,000 grid points: the bound admits MAX_RUN_CURVE_POINTS / 5,000
    # replications, and the event bound admits these too.
    grid_ms = 6000.0 / 4999
    burst_scenario(grid_ms=grid_ms, replications=MAX_RUN_CURVE_POINTS // 5000).validate()
    with pytest.raises(ScenarioError, match="replications times the grid points"):
        burst_scenario(grid_ms=grid_ms, replications=MAX_RUN_CURVE_POINTS // 5000 + 1).validate()
    # 15,000 replications on a 0.01 ms grid expect 9.5e7 events, within their
    # bound, but hold 9.0e9 curve points: about 117 GiB.
    sc = load_bundled_scenario("table2_nc3_lam20")
    with pytest.raises(ScenarioError, match="replications times the grid points"):
        replace(sc, replications=15000, grid_ms=0.01).validate()
    replace(sc, replications=600).validate()


def test_batch_size_is_bounded():
    InjectionSchedule("batch", 0.0, MAX_BATCH_SIZE, 0.0).validate()
    for mode in ("batch", "poisson", "batch_plus_poisson"):
        with pytest.raises(ScenarioError, match="batch size"):
            InjectionSchedule(mode, 0.0, MAX_BATCH_SIZE + 1, 1.0).validate()


def test_pool_blocks_are_bounded():
    slow = (TrafficClass(1, 2.0, 1e-6, 1, 10), TrafficClass(2, 3.0, 1e-6, 2, 5))
    for blocks in (0, MAX_CAPACITY_BLOCKS + 1):
        radio = replace(RADIO10, capacity_blocks=blocks)
        with pytest.raises(ScenarioError, match=f"blocks, got {blocks}"):
            two_class_scenario(radio=radio, classes=slow).validate()
    radio = replace(RADIO10, capacity_blocks=MAX_CAPACITY_BLOCKS)
    two_class_scenario(radio=radio, classes=slow).validate()


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
