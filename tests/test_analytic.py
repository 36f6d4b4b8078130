import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import ranburst.analytic as analytic
import ranburst.simulator as simulator
import ranburst.traffic as traffic
from ranburst import (
    NumericalError,
    StateSpaceLimitError,
    TrafficClass,
    build_dimensions,
    build_generator,
    enumerate_states,
    kaufman_roberts,
    reachable_states,
    steady_state,
    transient,
    transitions,
)
from ranburst.analytic import (
    blocking_from_generator,
    mean_counts,
    occupancy_marginal,
    poisson_isf,
    poisson_pmf,
    poisson_weights,
)
from ranburst.cli import load_bundled_scenario
from ranburst.traffic import ARRIVAL_REJECTED, occupied

from conftest import table2_classes


def erlang_b_exact(servers: int, load) -> float:
    """Direct Erlang-B formula in exact rational arithmetic."""
    a = Fraction(load)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(1, servers + 1):
        term = term * a / k
        total += term
    return float(term / total)


def one_class(load, capacity, demand=1):
    return TrafficClass(1, float(load), 1.0, demand, capacity // demand)


# ---------------------------------------------------------------------------
# Kaufman-Roberts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("capacity", [1, 2, 5, 31, 62, 100])
@pytest.mark.parametrize("load", [Fraction(1, 2), 1, 15, 30, 100])
def test_single_class_recursion_reproduces_erlang_b(capacity, load):
    dist = kaufman_roberts([one_class(load, capacity)], capacity)
    assert dist.blocking[1] == pytest.approx(erlang_b_exact(capacity, load), abs=1e-12)


def test_erlang_b_example():
    dist = kaufman_roberts([one_class(1, 2)], 2)
    assert dist.blocking[1] == pytest.approx(0.2, abs=1e-12)


def test_video_only_blocking_at_table2_loads():
    # Full-rate video occupies two blocks of the 62-block pool: equivalent to
    # 31 servers. Offered loads 30 and 15.
    v30 = TrafficClass(2, 1 / 20, 1 / 600, 2, 31)
    v15 = TrafficClass(2, 1 / 40, 1 / 600, 2, 31)
    b30 = kaufman_roberts([v30], 62).blocking[2]
    b15 = kaufman_roberts([v15], 62).blocking[2]
    assert b30 == pytest.approx(erlang_b_exact(31, 30), abs=1e-12)
    assert b15 == pytest.approx(erlang_b_exact(31, 15), abs=1e-12)
    assert abs(b30 - 0.11) <= 0.02
    assert b15 < 0.005


def test_occupancy_distribution_properties():
    classes = [
        TrafficClass(1, 2.0, 1.0, 1, 10),
        TrafficClass(2, 3.0, 1.0, 2, 5),
    ]
    dist = kaufman_roberts(classes, 10)
    assert dist.q.shape == (11,)
    assert dist.q.min() >= 0
    assert dist.q.sum() == pytest.approx(1.0, abs=1e-12)


def test_kaufman_roberts_input_validation():
    with pytest.raises(ValueError, match="capacity"):
        kaufman_roberts([one_class(1, 2)], 0)
    with pytest.raises(ValueError, match="non-priority"):
        kaufman_roberts([TrafficClass(1, 1.0, 1.0, 1, 5, "high")], 5)
    with pytest.raises(ValueError, match="non-priority"):
        kaufman_roberts(
            [TrafficClass(1, 1.0, 1.0, 2, 5, adaptive=True, downgraded_demand_blocks=1)],
            10,
        )
    with pytest.raises(ValueError, match="cap"):
        kaufman_roberts([TrafficClass(1, 1.0, 1.0, 1, 3)], 10)


# ---------------------------------------------------------------------------
# State spaces and generators
# ---------------------------------------------------------------------------


def test_generator_mm22_birth_death():
    lam, mu = 0.7, 1.3
    dims = build_dimensions("NC1", [TrafficClass(1, lam, mu, 1, 2)], 2)
    space, q = build_generator("NC1", dims, 2)
    assert len(space) == 3
    dense = q.toarray()
    i0, i1, i2 = (space.index[(k,)] for k in (0, 1, 2))
    assert dense[i0, i1] == pytest.approx(lam)
    assert dense[i1, i2] == pytest.approx(lam)
    assert dense[i1, i0] == pytest.approx(mu)
    assert dense[i2, i1] == pytest.approx(2 * mu)
    assert np.allclose(dense.sum(axis=1), 0.0, atol=1e-14)


def test_generator_rows_sum_to_zero_nc3():
    dims = build_dimensions("NC3", table2_classes("NC3", lam2=1.0), 62)
    space, q = build_generator("NC3", dims, 62)
    sums = np.asarray(q.sum(axis=1)).ravel()
    assert np.abs(sums).max() < 1e-9


def test_nc3_table2_enumeration_matches_triple_loop():
    dims = build_dimensions("NC3", table2_classes("NC3"), 62)
    space = enumerate_states(dims, 62)
    count = 0
    for w1 in range(63):
        for w2 in range(32):
            for w3 in range(63):
                if w1 + 2 * w2 + w3 <= 62:
                    count += 1
    assert len(space) == count
    assert all(w1 + 2 * w2 + w3 <= 62 for (w1, w2, w3) in space.states)


def test_enumeration_cap_raises_with_size():
    dims = build_dimensions("NC3", table2_classes("NC3"), 62)
    with pytest.raises(StateSpaceLimitError) as err:
        enumerate_states(dims, 62, limit=1000)
    assert err.value.size > 1000


def test_oversized_enumeration_raises_at_once():
    # About 1.1e11 states: counting them one by one would not end.
    classes = [TrafficClass(i, 1.0, 1.0, 1, 200) for i in range(1, 7)]
    dims = build_dimensions("NC1", classes, 200)
    t0 = time.perf_counter()
    with pytest.raises(StateSpaceLimitError) as err:
        enumerate_states(dims, 200)
    assert time.perf_counter() - t0 < 1.0
    assert err.value.size == math.comb(206, 6)  # non-negative 6-tuples summing to <= 200


@pytest.mark.parametrize("policy", ["NC1", "NC2", "NC3"])
@pytest.mark.parametrize("capacity", [1, 7, 13])
def test_state_count_equals_the_enumeration(policy, capacity):
    if policy == "NC1":
        classes = [TrafficClass(1, 1.0, 1.0, 1, 5), TrafficClass(2, 1.0, 1.0, 3, 9),
                   TrafficClass(3, 1.0, 1.0, 2, 2)]
    else:
        classes = [TrafficClass(1, 1.0, 1.0, 2, 4, "high"),
                   TrafficClass(2, 1.0, 1.0, 3, 3, "low", adaptive=policy == "NC3",
                                downgraded_demand_blocks=1 if policy == "NC3" else None)]
    dims = build_dimensions(policy, classes, capacity)
    boxes = [range(d.max_sessions + 1) for d in dims]
    brute = sum(occupied(c, dims) <= capacity for c in itertools.product(*boxes))
    assert analytic._count_feasible(dims, capacity) == brute == len(
        enumerate_states(dims, capacity))


def test_nc2_preemption_arc_in_generator():
    classes = [
        TrafficClass(1, 0.5, 1 / 60, 1, 62, "high"),
        TrafficClass(2, 1.0, 1 / 600, 2, 31, "low"),
    ]
    dims = build_dimensions("NC2", classes, 62)
    space, q = build_generator("NC2", dims, 62)
    row = space.index[(0, 31)]
    col = space.index[(1, 30)]
    assert q[row, col] == pytest.approx(0.5)


def test_reachable_states_excludes_armless_dimensions():
    # No priority arrivals at all: only the video-only slice is reachable,
    # and with full-rate admission always preferred nothing ever downgrades.
    dims = build_dimensions("NC3", table2_classes("NC3"), 62)
    space = reachable_states("NC3", dims, 62)
    assert all(s[0] == 0 and s[2] == 0 for s in space.states)
    assert len(space) == 32


# ---------------------------------------------------------------------------
# Steady state
# ---------------------------------------------------------------------------


def test_steady_state_mm11_symmetric():
    dims = build_dimensions("NC1", [TrafficClass(1, 1.0, 1.0, 1, 1)], 1)
    _, q = build_generator("NC1", dims, 1)
    pi = steady_state(q)
    assert pi == pytest.approx([0.5, 0.5], abs=1e-12)


def test_steady_state_birth_death_erlang():
    dims = build_dimensions("NC1", [TrafficClass(1, 1.0, 1.0, 1, 2)], 2)
    space, q = build_generator("NC1", dims, 2)
    pi = steady_state(q)
    expected = {(0,): 0.4, (1,): 0.4, (2,): 0.2}
    for state, value in expected.items():
        assert pi[space.index[state]] == pytest.approx(value, abs=1e-12)


def small_nc3_dims():
    """A 30-block NC3 pool under heavy priority load (three dimensions)."""
    classes = [
        TrafficClass(1, 1.0, 1 / 60, 1, 30, "high"),
        TrafficClass(2, 1 / 20, 1 / 600, 2, 15, "low", adaptive=True,
                     downgraded_demand_blocks=1),
    ]
    return "NC3", build_dimensions("NC3", classes, 30), 30


def nc3_chain():
    """The generator of :func:`small_nc3_dims` over every feasible state."""
    return build_generator(*small_nc3_dims())


def table2_burst_dims(name="table2_nc3_lam20"):
    """Policy, dimensions and capacity of a bundled scenario's burst chain.

    The priority class gets the rate at which the burst offers sessions (it
    has no arrival stream of its own), and rates are scaled by
    ``time_scale`` as the analytic report scales them.
    """
    scenario = load_bundled_scenario(name)
    classes = list(scenario.classes)
    classes[0] = replace(classes[0], arrival_rate=scenario.injection.poisson_rate)
    capacity = scenario.radio.capacity_blocks
    k = scenario.time_scale
    dims = [
        replace(d, arrival_rate=d.arrival_rate * k, service_rate=d.service_rate * k)
        for d in build_dimensions(scenario.policy, classes, capacity)
    ]
    return scenario.policy, dims, capacity


def table2_nc3_burst_chain():
    """The burst-reachable chain of ``table2_nc3_lam20``."""
    policy, dims, capacity = table2_burst_dims()
    space = reachable_states(policy, dims, capacity)
    return build_generator(policy, dims, capacity, space=space)


def test_nc3_steady_state_solves_on_three_dimensional_space():
    space, q = nc3_chain()
    assert len(space) > 2000
    pi = steady_state(q)
    assert pi.min() >= 0
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(pi @ q).max() < 1e-10
    # heavy priority load pins the pool near its cap
    mean_goose = mean_counts(space, pi)[0]
    assert 25 < mean_goose <= 30


def test_nc1_steady_state_aggregates_to_kaufman_roberts():
    classes = [
        TrafficClass(1, 2.0, 1.0, 1, 10),
        TrafficClass(2, 3.0, 1.0, 2, 5),
    ]
    dims = build_dimensions("NC1", classes, 10)
    space, q = build_generator("NC1", dims, 10)
    pi = steady_state(q)
    marginal = occupancy_marginal(space, pi)
    dist = kaufman_roberts(classes, 10)
    assert np.abs(marginal - dist.q).max() < 1e-8


def test_light_load_steady_state_matches_kaufman_roberts():
    # The fullest state has a true mass near 1e-775, far below the smallest
    # double; the solve must still recover the distribution.
    classes = [TrafficClass(1, 0.01, 1.0, 1, 200)]
    dims = build_dimensions("NC1", classes, 200)
    space, q = build_generator("NC1", dims, 200)
    pi = steady_state(q)
    marginal = occupancy_marginal(space, pi)
    assert np.abs(marginal - kaufman_roberts(classes, 200).q).max() <= 1e-12


def test_steady_state_on_table2_nc3_burst_chain():
    space, q = table2_nc3_burst_chain()
    assert len(space) == 22_352
    pi = steady_state(q)
    assert np.abs(pi @ q).max() <= 1e-10
    assert pi.min() >= 0
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


class _ConstantFactor:
    """A preconditioner that maps every vector to the same one."""

    def solve(self, x):
        return np.ones_like(x)


def _singular_ilu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize(
    "ilu", [_singular_ilu, lambda *args, **kwargs: _ConstantFactor()],
    ids=["singular", "useless"],
)
def test_steady_state_retries_with_the_complete_factor(monkeypatch, ilu):
    space, q = table2_nc3_burst_chain()
    expected = steady_state(q)
    complete = []

    def splu(*args, **kwargs):
        complete.append(args)
        return real_splu(*args, **kwargs)

    real_splu = spla.splu
    monkeypatch.setattr(spla, "spilu", ilu)
    monkeypatch.setattr(spla, "splu", splu)
    pi = steady_state(q)
    assert len(complete) == 1
    assert np.abs(pi - expected).max() <= 1e-12
    assert np.abs(pi @ q).max() <= 1e-10


def test_steady_state_residual_guard():
    q = sp.csr_matrix(np.zeros((2, 2)))
    # An all-zero generator has no unique stationary vector; the solver must
    # refuse rather than return garbage.
    with pytest.raises(NumericalError):
        steady_state(q)


def burst_generator(name):
    """A ``table2_*`` burst chain as the benchmark's checks build it: NC1
    over every feasible state, NC2 and NC3 over the reachable ones."""
    policy, dims, capacity = table2_burst_dims(name)
    space = None if policy == "NC1" else reachable_states(policy, dims, capacity)
    return build_generator(policy, dims, capacity, space=space)


def report_generator(name):
    """The chain of a bundled NC2/NC3 scenario's steady-state report: no
    burst, rates scaled by ``time_scale``, as ``cli`` builds it."""
    scenario = load_bundled_scenario(name)
    capacity = scenario.radio.capacity_blocks
    k = scenario.time_scale
    dims = [replace(d, arrival_rate=d.arrival_rate * k, service_rate=d.service_rate * k)
            for d in scenario.dimensions()]
    space = reachable_states(scenario.policy, dims, capacity)
    return build_generator(scenario.policy, dims, capacity, space=space)


def light_load_nc1_generator():
    dims = build_dimensions("NC1", [TrafficClass(1, 0.01, 1.0, 1, 200)], 200)
    return build_generator("NC1", dims, 200)


def two_class_nc1_generator():
    classes = [TrafficClass(1, 2.0, 1.0, 1, 10), TrafficClass(2, 3.0, 1.0, 2, 5)]
    return build_generator("NC1", build_dimensions("NC1", classes, 10), 10)


PAPER_CHAINS = {
    **{f"burst_table2_nc{p}_lam{lam}": lambda n=f"table2_nc{p}_lam{lam}": burst_generator(n)[1]
       for p in (1, 2, 3) for lam in (10, 20, 40)},
    **{f"report_{n}": lambda n=n: report_generator(n)[1]
       for n in ("demo_nc3_small", "table2_nc2_lam10", "table2_nc2_lam20",
                 "table2_nc2_lam40", "table2_nc3_lam10", "table2_nc3_lam20",
                 "table2_nc3_lam40", "table2_nc3_lam20_literal")},
    "nc3_chain": lambda: nc3_chain()[1],
    "light_load_nc1": lambda: light_load_nc1_generator()[1],
    "two_class_nc1": lambda: two_class_nc1_generator()[1],
    "nearly_decomposable": lambda: nearly_decomposable_generator(),
}


def complete_lu_steady_state(q):
    """The bordered system of ``steady_state`` solved by one complete LU."""
    n = q.shape[0]
    a = sp.vstack([q.T.tocsr()[:-1], sp.csr_matrix(np.ones((1, n)))], format="csc")
    b = np.zeros(n)
    b[-1] = 1.0
    return spla.splu(a).solve(b)


@pytest.mark.parametrize("chain", sorted(PAPER_CHAINS))
def test_paper_chains_never_need_the_complete_factor(monkeypatch, chain):
    q = PAPER_CHAINS[chain]()
    expected = complete_lu_steady_state(q) if q.shape[0] <= 3000 else None
    complete = []

    def splu(*args, **kwargs):
        complete.append(args)
        return real_splu(*args, **kwargs)

    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", splu)
    pi = steady_state(q)
    assert complete == []
    assert np.abs(pi @ q).max() <= 1e-10
    if expected is not None:
        assert np.abs(pi - expected).max() <= 1e-12


def test_state_order_changes_the_cost_of_a_solve_not_its_answer():
    # A random numbering scatters the band the incomplete factor relies on.
    space, q = nc3_chain()
    pi = steady_state(q)
    perm = np.random.default_rng(2024).permutation(len(space))
    shuffled = steady_state(q[perm][:, perm].tocsr())
    assert np.abs(shuffled - pi[perm]).max() <= 1e-12


def test_blocking_from_generator_matches_per_dimension_walk():
    space, q = nc3_chain()
    pi = steady_state(q)
    dims = list(space.dims)
    expected = {}
    for d in dims:
        if d.arrival_rate <= 0:
            continue
        mass = 0.0
        for state, p_state in zip(space.states, pi):
            for tr in transitions("NC3", state, dims, space.capacity):
                if tr.kind == ARRIVAL_REJECTED and tr.dim == d.index:
                    mass += p_state
                    break
        expected[d.index] = float(mass)
    assert blocking_from_generator("NC3", space, pi) == expected


# ---------------------------------------------------------------------------
# The compiled chain table
# ---------------------------------------------------------------------------


def per_state_reachable(policy, dims, capacity, start=None):
    """The state search ``reachable_states`` ran before it compiled a table."""
    start = tuple(0 for _ in dims) if start is None else start
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for tr in transitions(policy, state, dims, capacity):
            if tr.kind != ARRIVAL_REJECTED and tr.target not in seen:
                seen.add(tr.target)
                frontier.append(tr.target)
    return sorted(seen)


def per_state_generator(policy, dims, capacity, space):
    """The per-state assembly loop ``build_generator`` ran before it read a
    compiled table."""
    n = len(space)
    rows, cols, vals = [], [], []
    for i, state in enumerate(space.states):
        out = 0.0
        for tr in transitions(policy, state, dims, capacity):
            if tr.kind == ARRIVAL_REJECTED:
                continue
            rows.append(i)
            cols.append(space.index[tr.target])
            vals.append(tr.rate)
            out += tr.rate
        rows.append(i)
        cols.append(i)
        vals.append(-out)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def per_state_marginal(space, pi):
    """The per-state loop ``occupancy_marginal`` ran before it used bincount."""
    out = np.zeros(space.capacity + 1)
    dims = list(space.dims)
    for state, mass in zip(space.states, pi):
        out[occupied(state, dims)] += mass
    return out


def per_state_blocking(policy, space, pi):
    """The per-state loop ``blocking_from_generator`` ran before it read a
    compiled table."""
    dims = list(space.dims)
    offered = [d.index for d in dims if d.arrival_rate > 0]
    mass = dict.fromkeys(offered, 0.0)
    for state, p_state in zip(space.states, pi):
        rejected = {
            tr.dim
            for tr in transitions(policy, state, dims, space.capacity)
            if tr.kind == ARRIVAL_REJECTED
        }
        for i in offered:
            if i in rejected:
                mass[i] += p_state
    return {i: float(m) for i, m in mass.items()}


def assert_same_matrix(a, b):
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, part), getattr(b, part)), part


CHAINS = {
    "nc1_burst": lambda: table2_burst_dims("table2_nc1_lam20"),
    "nc2_burst": lambda: table2_burst_dims("table2_nc2_lam40"),
    "nc3_small": small_nc3_dims,
    "nc3_plain": lambda: ("NC3", build_dimensions(
        "NC3", table2_classes("NC3"), 62), 62),
    "table2_nc3_lam20_burst": table2_burst_dims,
}


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_compiled_chain_equals_the_per_state_loops(chain):
    policy, dims, capacity = CHAINS[chain]()
    space, q = build_generator(policy, dims, capacity,
                               space=reachable_states(policy, dims, capacity))
    assert space.states == per_state_reachable(policy, dims, capacity)
    assert space.index == {s: i for i, s in enumerate(space.states)}
    assert_same_matrix(q, per_state_generator(policy, dims, capacity, space))
    assert q.dtype == np.float64
    rng = np.random.default_rng(17)
    for pi in (steady_state(q), rng.dirichlet(np.ones(len(space)))):
        assert (blocking_from_generator(policy, space, pi)
                == per_state_blocking(policy, space, pi))


def test_compiled_generator_on_an_enumerated_space():
    policy, dims, capacity = small_nc3_dims()
    space = enumerate_states(dims, capacity)
    assert space.table is None
    compiled, q = build_generator(policy, dims, capacity, space=space)
    assert compiled == space and compiled.table.compiled_for(policy, dims, capacity)
    assert_same_table(compiled.table, per_state_table(policy, dims, capacity, space.states))
    assert_same_matrix(q, per_state_generator(policy, dims, capacity, space))
    _, q_default = build_generator(policy, dims, capacity)
    assert_same_matrix(q_default, q)


def test_space_compiled_for_other_arguments_is_compiled_afresh():
    policy, dims, capacity = table2_burst_dims("table2_nc2_lam20")
    doubled = [replace(d, arrival_rate=2 * d.arrival_rate) for d in dims]
    fresh, q_fresh = build_generator(policy, dims, capacity,
                                     space=reachable_states(policy, dims, capacity))
    pi = np.random.default_rng(3).dirichlet(np.ones(len(fresh)))
    for other_policy, other_dims in (("NC1", dims), (policy, doubled)):
        other = reachable_states(other_policy, other_dims, capacity)
        assert other.states == fresh.states
        assert not other.table.compiled_for(policy, dims, capacity)
        recompiled, q = build_generator(policy, dims, capacity, space=other)
        assert recompiled.table.compiled_for(policy, dims, capacity)
        assert_same_matrix(q, q_fresh)
        assert (blocking_from_generator(policy, other, pi)
                == blocking_from_generator(policy, fresh, pi))


def test_compiling_the_burst_chain_resolves_no_state_one_at_a_time(monkeypatch):
    def per_state(*args, **kwargs):
        raise AssertionError("the chain compiler resolved one state at a time")

    for module in (traffic, analytic):
        monkeypatch.setattr(module, "transitions", per_state)
    monkeypatch.setattr(traffic, "arrival_outcome", per_state)
    space, q = table2_nc3_burst_chain()
    blocking_from_generator("NC3", space, np.full(len(space), 1 / len(space)))
    build_generator("NC3", list(space.dims), space.capacity,
                    space=replace(space, table=None))
    assert len(space) == 22_352


def per_state_table(policy, dims, capacity, states):
    """The per-state walk the chain compiler replaced: ``transitions`` for
    each state of ``states`` in order, every arc recorded in slot order."""
    index = {s: i for i, s in enumerate(states)}
    columns = ([], [], [], [], [])
    for i, state in enumerate(states):
        for k, tr in enumerate(transitions(policy, state, dims, capacity)):
            rejected = tr.kind == ARRIVAL_REJECTED
            arc = (i, i if rejected else index[tr.target], tr.rate,
                   tr.dim if rejected else -1, k)
            for column, value in zip(columns, arc):
                column.append(value)
    source, target, rate, rejected, slot = columns
    return {
        "counts": np.array(states, dtype=np.int64).reshape(len(states), len(dims)),
        "source": np.array(source, dtype=np.intp),
        "target": np.array(target, dtype=np.intp),
        "rate": np.array(rate, dtype=float),
        "rejected": np.array(rejected, dtype=np.intp),
        "slot": np.array(slot, dtype=np.intp),
    }


def assert_same_table(table, expected):
    for name, column in expected.items():
        got = getattr(table, name)
        assert got.dtype == column.dtype, name
        assert np.array_equal(got, column), name


TABLE2 = [f"table2_nc{p}_lam{lam}" for p in (1, 2, 3) for lam in (10, 20, 40)]


@pytest.mark.parametrize("name", TABLE2)
def test_compiled_burst_chain_equals_the_per_state_walk(name):
    policy, dims, capacity = table2_burst_dims(name)
    space = reachable_states(policy, dims, capacity)
    states = per_state_reachable(policy, dims, capacity)
    assert space.states == states
    assert_same_table(space.table, per_state_table(policy, dims, capacity, states))


@pytest.mark.parametrize("policy", ["NC1", "NC2", "NC3"])
def test_the_simulator_compiles_the_analytic_burst_chain(policy):
    # Both layers key a state by its box number: the analytic numbering is
    # the keys' rank, and the simulator's offer is the analytic chain's
    # priority arrival.
    name = f"table2_{policy.lower()}_lam20"
    _, dims, capacity = table2_burst_dims(name)
    table = reachable_states(policy, dims, capacity).table
    keys = analytic._StateBox(dims, capacity).keys(table.counts)
    assert (np.diff(keys) > 0).all()
    chain = simulator._Chain(load_bundled_scenario(name))
    arriving = [d.index for d in dims if d.arrival_rate > 0]
    assert arriving == [0, 1] and chain.arriving == [1]
    sim_slot = [len(chain.arriving), 0]  # the offer, then the video arrival
    first = np.searchsorted(table.source, np.arange(len(table.counts)))
    block_keys = chain.per * chain.span
    for b in np.unique(keys // block_keys).tolist():
        block = chain.compile(b)
        here = keys // block_keys == b
        r = block.row[keys[here] - b * block_keys]
        assert (r >= 0).all()
        for k in range(len(arriving)):
            assert (table.slot[first[here] + k] == k).all()
            assert np.array_equal(block.target[r, sim_slot[k]],
                                  keys[table.target[first[here] + k]])


def test_state_keys_stay_exact_beyond_int64():
    # Mixed-radix keys over these 20 dimensions would need 10_001**20 values;
    # only the first dimension has arrivals, so 10_001 states are reachable.
    classes = [TrafficClass(i, 1.0 if i == 1 else 0.0, 1.0, 1, 10_000)
               for i in range(1, 21)]
    dims = build_dimensions("NC1", classes, 10_000)
    space = reachable_states("NC1", dims, 10_000)
    assert len(space) == 10_001
    assert space.states == [(k,) + (0,) * 19 for k in range(10_001)]
    box = analytic._StateBox(dims, 10_000)
    keys = box.keys(space.table.counts)
    assert keys.dtype == object and all(type(k) is int for k in keys)  # exact, not int64
    assert keys[-1] == 10_000 * 10_001**19
    assert np.array_equal(box.decode(keys), space.table.counts)
    assert_same_table(space.table, per_state_table("NC1", dims, 10_000, space.states))


def test_a_frontier_larger_than_a_search_step_is_expanded_in_parts():
    # The first step finds the whole line, which the next steps expand in
    # FRONTIER_CHUNK parts.
    capacity = 2 * analytic.FRONTIER_CHUNK + 7
    dims = build_dimensions("NC1", [TrafficClass(1, 1.0, 1.0, 1, capacity)], capacity)
    space = reachable_states("NC1", dims, capacity)
    assert space.states == [(k,) for k in range(capacity + 1)]
    assert_same_table(space.table, per_state_table("NC1", dims, capacity, space.states))


def test_reachable_states_rejects_a_bad_start():
    dims = build_dimensions("NC3", table2_classes("NC3"), 62)
    for start, match in (((0, 0), "3 dimensions"), ((0, 0, 0, 0), "3 dimensions"),
                         ((100, 0, 0), "not a feasible"), ((-1, 0, 0), "not a feasible"),
                         ((0, 32, 0), "not a feasible")):
        with pytest.raises(ValueError, match=match):
            reachable_states("NC3", dims, 62, start=start)
    space = reachable_states("NC3", dims, 62, start=(3, 5, 2))
    assert (3, 5, 2) in space.index
    assert all(s[0] <= 3 for s in space.states)  # no priority arrivals


def test_a_pure_death_line_is_walked_in_one_step():
    # No arrivals: from a full pool only departures move, one state at a time.
    dims = build_dimensions("NC1", [TrafficClass(1, 0.0, 1.0, 1, 5000)], 5000)
    t0 = time.perf_counter()
    space = reachable_states("NC1", dims, 5000, start=(5000,))
    assert time.perf_counter() - t0 < 0.1
    assert space.states == [(k,) for k in range(5001)]
    assert_same_table(space.table, per_state_table("NC1", dims, 5000, space.states))


def test_departure_rays_leave_the_search_unchanged_from_an_occupied_start():
    policy, dims, capacity = "NC3", build_dimensions("NC3", table2_classes("NC3"), 62), 62
    start = (3, 5, 2)
    space = reachable_states(policy, dims, capacity, start=start)
    assert space.states == per_state_reachable(policy, dims, capacity, start)
    assert_same_table(space.table, per_state_table(policy, dims, capacity, space.states))
    with pytest.raises(StateSpaceLimitError):
        reachable_states(policy, dims, capacity, start=start, limit=10)


def test_reachable_states_stops_at_its_limit():
    policy, dims, capacity = table2_burst_dims()
    with pytest.raises(StateSpaceLimitError) as err:
        reachable_states(policy, dims, capacity, limit=1000)
    assert err.value.limit == 1000 and err.value.size > 1000
    assert len(reachable_states(policy, dims, capacity, limit=22_352)) == 22_352


def test_rays_past_the_limit_raise_before_they_are_built():
    classes = [TrafficClass(i, 1.0, 1.0, 1, 10**6) for i in (1, 2)]
    dims = build_dimensions("NC1", classes, 10**6)
    with pytest.raises(StateSpaceLimitError) as err:
        reachable_states("NC1", dims, 10**6, limit=100_000)
    assert err.value.size == 10**6


def test_fixed_space_without_an_arc_target_raises_key_error():
    dims = build_dimensions("NC3", table2_classes("NC3"), 62)
    video_only = reachable_states("NC3", dims, 62)  # no priority arrivals
    offered = [replace(dims[0], arrival_rate=1.0), *dims[1:]]
    with pytest.raises(KeyError, match=r"\(1, 0, 0\)"):
        build_generator("NC3", offered, 62, space=video_only)


def test_marginal_and_means_equal_the_per_state_loops():
    space, q = table2_nc3_burst_chain()
    enumerated = enumerate_states(*small_nc3_dims()[1:])
    rng = np.random.default_rng(11)
    for sp_, pi in (
        (space, steady_state(q)),
        (space, rng.dirichlet(np.ones(len(space)))),
        (enumerated, rng.dirichlet(np.ones(len(enumerated)))),
    ):
        assert np.array_equal(occupancy_marginal(sp_, pi), per_state_marginal(sp_, pi))
        states = np.asarray(sp_.states, dtype=float)
        assert np.array_equal(mean_counts(sp_, pi), states.T @ pi)


# ---------------------------------------------------------------------------
# Transients by uniformization
# ---------------------------------------------------------------------------


def pure_death_generator():
    dims = build_dimensions("NC1", [TrafficClass(1, 0.0, 1.0, 1, 1)], 1)
    return build_generator("NC1", dims, 1)


def test_transient_identity_at_zero():
    space, q = pure_death_generator()
    pi0 = np.array([0.25, 0.75])
    assert transient(q, pi0, 0.0) is not pi0
    assert np.array_equal(transient(q, pi0, 0.0), pi0)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0])
def test_transient_pure_death_closed_form(t):
    space, q = pure_death_generator()
    pi0 = np.zeros(2)
    pi0[space.index[(1,)]] = 1.0
    pt = transient(q, pi0, t)
    assert pt[space.index[(0,)]] == pytest.approx(1 - np.exp(-t), abs=1e-9)


def test_transient_two_state_closed_form():
    lam, mu = 2.0, 3.0
    q = sp.csr_matrix(np.array([[-lam, lam], [mu, -mu]]))
    pi0 = np.array([1.0, 0.0])
    t = 1 / lam
    pt = transient(q, pi0, t)
    # stationary + decaying mode of the two-state chain
    p1 = lam / (lam + mu) * (1 - np.exp(-(lam + mu) * t))
    assert pt[1] == pytest.approx(p1, abs=1e-8)
    assert pt[0] == pytest.approx(1 - p1, abs=1e-8)


def test_transient_converges_to_steady_state():
    classes = [TrafficClass(1, 1.0, 0.5, 1, 3)]
    dims = build_dimensions("NC1", classes, 3)
    space, q = build_generator("NC1", dims, 3)
    pi = steady_state(q)
    pi0 = np.zeros(len(space))
    pi0[space.index[(0,)]] = 1.0
    t = 50.0 / 0.5  # fifty times the slowest rate
    pt = transient(q, pi0, t)
    assert np.abs(pt - pi).max() < 1e-6


@pytest.mark.parametrize("t", [5.0, 60.0])
def test_transient_matches_matrix_exponential_on_nc3(t):
    space, q = nc3_chain()
    pi0 = np.zeros(len(space))
    pi0[space.index[(0, 0, 0)]] = 1.0
    expected = expm_multiply(q.T.tocsr() * t, pi0)
    assert np.abs(transient(q, pi0, t) - expected).sum() <= 1e-8


def test_transient_is_probability_vector():
    dims = build_dimensions("NC1", table2_classes("NC1", lam2=1.0), 10)
    space, q = build_generator("NC1", dims, 10)
    pi0 = np.zeros(len(space))
    pi0[space.index[tuple([0, 0])]] = 1.0
    for t in (0.01, 0.3, 2.0, 10.0):
        pt = transient(q, pi0, t, eps=1e-9)
        assert pt.min() > -1e-12
        assert pt.sum() == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("t", [float("inf"), float("nan"), -1.0])
def test_transient_rejects_a_time_that_is_not_finite_and_non_negative(t):
    _, q = pure_death_generator()
    with pytest.raises(ValueError, match="time"):
        transient(q, np.array([0.0, 1.0]), t)


@pytest.mark.parametrize("pi0", [
    [1.0], [0.0, 0.0, 1.0], [[0.0, 1.0]], [0.5, float("nan")], [0.5, float("inf")],
    [1.5, -0.5],
])
def test_transient_rejects_a_malformed_initial_vector(pi0):
    _, q = pure_death_generator()
    with pytest.raises(ValueError, match="pi0"):
        transient(q, np.array(pi0), 1.0)


# ---------------------------------------------------------------------------
# Stationarity cut of uniformization against the full Poisson sum
# ---------------------------------------------------------------------------


def full_poisson_sum(q, pi0, t, eps=1e-9):
    """``transient`` as it was before the stationarity cut: every term of the
    Poisson sum up to the truncation point."""
    pi0 = np.asarray(pi0, dtype=float)
    lam = float(-q.diagonal().min()) * 1.02
    pt = (sp.eye(q.shape[0], format="csr") + q.tocsr() / lam).T.tocsr()
    mean = lam * t
    k_max = poisson_isf(eps, mean) + 1
    weights = poisson_weights(np.arange(k_max + 1), mean)
    out = weights[0] * pi0
    v = pi0
    for k in range(1, k_max + 1):
        v = pt @ v
        out += weights[k] * v
    return out


@pytest.fixture(scope="module")
def burst_chain():
    """The burst chain of ``table2_nc3_lam20``, its steady state, and an
    empty pool as the start."""
    space, q = table2_nc3_burst_chain()
    pi0 = np.zeros(len(space))
    pi0[space.index[(0, 0, 0)]] = 1.0
    return q, steady_state(q), pi0


def count_matvecs(monkeypatch):
    """Count the CSR matrix-vector products made from here on, whole or over
    a band of rows (through scipy's private kernel, which both call; a test
    that finds none fails rather than passes)."""
    from scipy.sparse import _sparsetools

    calls = []
    real = _sparsetools.csr_matvec

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(_sparsetools, "csr_matvec", counting)
    return calls


BENCHMARK_TIMES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


@pytest.mark.parametrize("t", BENCHMARK_TIMES)
def test_cut_stays_within_eps_of_the_full_sum_on_the_burst_chain(burst_chain, t):
    q, _, pi0 = burst_chain
    eps = 1e-9
    got = transient(q, pi0, t, eps=eps)
    assert np.abs(got - full_poisson_sum(q, pi0, t, eps)).sum() <= eps
    assert abs(got.sum() - 1.0) <= eps
    assert got.min() >= 0.0


def test_cut_follows_mixing_time_not_the_horizon(burst_chain, monkeypatch):
    q, pi, pi0 = burst_chain
    calls = count_matvecs(monkeypatch)
    got = transient(q, pi0, 100.0)
    # The full sum would take about 1.03e5 steps to reach t = 100 s.
    assert 0 < len(calls) < 1000
    assert np.abs(got - pi).sum() <= 2e-9


def test_iterates_that_stop_moving_exactly_cut_without_a_budget(monkeypatch):
    # On the NC2 burst chain at t = 100 s (Poisson mean 103,020) scipy's
    # formula for the weights (poisson_pmf) loses more than eps, which left
    # the cut no budget. transient's weights keep their mass and leave it
    # 3e-11, too little to cut on: the iterates still have to reach a fixed
    # point of the floating-point mat-vec, after which every remaining term
    # of the sum is the same array.
    policy, dims, capacity = table2_burst_dims("table2_nc2_lam20")
    space = reachable_states(policy, dims, capacity)
    space, q = build_generator(policy, dims, capacity, space=space)
    pi0 = np.zeros(len(space))
    pi0[space.index[(0, 0)]] = 1.0
    t, eps = 100.0, 1e-9
    mean = float(-q.diagonal().min()) * 1.02 * t
    weights = poisson_pmf(np.arange(poisson_isf(eps, mean) + 2), mean)
    assert 1.0 - weights.sum() > eps
    calls = count_matvecs(monkeypatch)
    got = transient(q, pi0, t, eps=eps)
    assert 0 < len(calls) < 1000  # the full sum takes about 1.05e5 steps
    assert np.abs(got - full_poisson_sum(q, pi0, t, eps)).sum() <= 1e-12


def nearly_decomposable_generator():
    """Two blocks of two states: rate 100 inside a block, 1e-3 between."""
    fast, slow = 100.0, 1e-3
    rates = np.array([
        [0.0, fast, slow, slow],
        [fast, 0.0, slow, slow],
        [slow, slow, 0.0, fast],
        [slow, slow, fast, 0.0],
    ])
    return sp.csr_matrix(rates - np.diag(rates.sum(axis=1)))


@pytest.mark.parametrize("eps", [1e-9, 1e-4])
@pytest.mark.parametrize("t", [1.0, 100.0, 1000.0])
def test_slow_drift_between_blocks_does_not_cut(t, eps):
    # Each block mixes within a few steps; after that every step moves mass
    # between the blocks by a little (d_k about 1e-5), but over many steps.
    # The dense exponential of four states is the oracle: expm_multiply
    # takes about 12 s at t = 1000 on this stiff chain.
    q = nearly_decomposable_generator()
    pi0 = np.array([1.0, 0.0, 0.0, 0.0])
    got = transient(q, pi0, t, eps=eps)
    assert np.abs(got - full_poisson_sum(q, pi0, t, eps)).sum() <= eps
    assert np.abs(got - pi0 @ expm(q.toarray() * t)).sum() <= eps
    assert abs(got.sum() - 1.0) <= eps


def test_sub_stochastic_start_scales_the_result_and_the_budget(burst_chain):
    q, _, pi0 = burst_chain
    eps, mass = 1e-9, 0.25
    got = transient(q, mass * pi0, 2.0, eps=eps)
    assert np.abs(got - full_poisson_sum(q, mass * pi0, 2.0, eps)).sum() <= mass * eps
    assert abs(got.sum() - mass) <= mass * eps


# ---------------------------------------------------------------------------
# Band product and dropped mass
# ---------------------------------------------------------------------------


def test_band_product_equals_the_whole_product_bit_for_bit(burst_chain):
    q, _, _ = burst_chain
    n = q.shape[0]
    pt = (sp.eye(n, format="csr") + q.tocsr() / 3.0).T.tocsr()
    rng = np.random.default_rng(23)
    for _ in range(50):
        lo, hi = np.sort(rng.integers(0, n + 1, size=2))
        r0, r1 = int(rng.integers(0, lo + 1)), int(rng.integers(hi, n + 1))
        v = np.zeros(n)
        v[lo:hi] = rng.random(hi - lo) * (rng.random(hi - lo) < 0.3)
        y = np.zeros(n)
        analytic._band_product(pt, v, y, r0, r1)
        assert np.array_equal(y[r0:r1], (pt @ v)[r0:r1])
        assert not y[:r0].any() and not y[r1:].any()


def erlang_chain(capacity=200, load=20.0):
    """An Erlang loss pool whose states far above the load hold almost no
    mass: a start from the empty pool leaves entries for the drop."""
    dims = build_dimensions("NC1", [TrafficClass(1, load, 1.0, 1, capacity)], capacity)
    return build_generator("NC1", dims, capacity)


@pytest.mark.parametrize("t", [0.2, 1.0, 20.0])
def test_dropped_mass_stays_within_eps_of_the_exponential(t):
    _, q = erlang_chain()
    pi0 = np.zeros(q.shape[0])
    pi0[0] = 1.0
    eps = 1e-4
    got = transient(q, pi0, t, eps=eps)
    full = full_poisson_sum(q, pi0, t, eps)
    # Mass really was dropped, and no more than the drop's share of eps.
    assert 1e-12 < full.sum() - got.sum() <= analytic.DROP_SHARE * eps
    assert np.abs(got - pi0 @ expm(q.toarray() * t)).sum() <= eps
    assert got.min() >= 0.0


def drift_and_dust_chain(mean, eps, n_dust=200, m_a=0.01, fast=1000.0):
    """A chain on which ``transient`` drops about a fifth of its budget and
    the cut's bound is nearly exact, with the time ``t`` of Poisson mean
    ``mean`` and the start.

    State 1 holds 99% of the mass and never moves. State 0 holds 1% and
    drifts into state 1 so slowly that the drift is nearly constant over
    the Poisson window: the cut's error is close to its bound ``d_k J_k``,
    with the cut about one standard deviation before the mean. State 0
    also feeds ``n_dust`` absorbing states at 99% of the drop threshold a
    step, so every step drops them. A pair of states with no mass swapping
    at ``fast`` sets the uniformization rate.
    """
    lam = 1.02 * fast
    k_max = poisson_isf(eps, mean) + 1
    budget = eps - (1.0 - poisson_weights(np.arange(k_max + 1), mean).sum())
    n = n_dust + 4
    theta = analytic.DROP_SHARE * budget / (k_max * n)
    rates = np.zeros((n, n))
    rates[0, 1] = budget / (2 * m_a * math.sqrt(mean)) * lam
    rates[0, 2:n_dust + 2] = 0.99 * theta * lam / m_a
    rates[n - 2, n - 1] = rates[n - 1, n - 2] = fast
    pi0 = np.zeros(n)
    pi0[:2] = m_a, 1 - m_a
    q = sp.csr_matrix(rates - np.diag(rates.sum(axis=1)))
    return q, pi0, mean / lam, budget


def test_stop_rule_charges_the_dropped_mass():
    # The Poisson tail takes 60% of eps here and the drops take 19% of what
    # is left. A stop rule without its 2 * dropped term spends the whole
    # rest on the cut and misses eps by about 5%.
    eps = 1e-4
    q, pi0, t, budget = drift_and_dust_chain(202.5, eps)
    got = transient(q, pi0, t, eps=eps)
    exact = pi0 @ expm(q.toarray() * t)
    dust = slice(2, q.shape[0] - 2)
    assert (exact[dust] - got[dust]).sum() > 0.15 * budget
    assert np.abs(got - exact).sum() <= eps
    assert got.min() >= 0.0


@pytest.mark.parametrize("eps", [1e-9, 1e-4])
def test_support_touching_the_first_and_last_state(eps):
    _, q = erlang_chain()
    n = q.shape[0]
    pi0 = np.zeros(n)
    pi0[[0, n - 1]] = 0.5
    for t in (0.01, 0.5, 5.0):
        got = transient(q, pi0, t, eps=eps)
        assert np.abs(got - pi0 @ expm(q.toarray() * t)).sum() <= eps
        assert got.min() >= 0.0


def test_permuted_numbering_gives_the_permuted_answer():
    # A scattered numbering widens the band to every row; the answer is the
    # same up to the error each side is allowed.
    space, q = nc3_chain()
    n = len(space)
    perm = np.random.default_rng(29).permutation(n)
    pi0 = np.zeros(n)
    pi0[space.index[(0, 0, 0)]] = 1.0
    eps = 1e-9
    for t in (5.0, 60.0):
        got = transient(q.tocsr()[perm][:, perm], pi0[perm], t, eps=eps)
        assert np.abs(got - transient(q, pi0, t, eps=eps)[perm]).sum() <= 2 * eps
        assert got.min() >= 0.0


def test_all_zero_start_stays_zero(burst_chain):
    q, _, _ = burst_chain
    got = transient(q, np.zeros(q.shape[0]), 2.0)
    assert got.shape == (q.shape[0],) and not got.any()


def test_mean_counts_matches_occupancy():
    classes = [TrafficClass(1, 2.0, 1.0, 1, 4)]
    dims = build_dimensions("NC1", classes, 4)
    space, q = build_generator("NC1", dims, 4)
    pi = steady_state(q)
    mean = mean_counts(space, pi)[0]
    expected = 2.0 * (1 - erlang_b_exact(4, 2))  # carried load
    assert mean == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# Poisson weights of uniformization against scipy.stats
# ---------------------------------------------------------------------------

POISSON_MEANS = np.concatenate((
    np.geomspace(0.1, 5000.0, 61),
    np.random.default_rng(5).uniform(0.1, 5000.0, 40),
    [1.0, 2.5, 10.0, 100.0, 1000.0, 4999.999],
))
POISSON_EPS = np.concatenate((10.0 ** -np.arange(6, 13), np.geomspace(1e-12, 1e-6, 9)))


# Inputs where the inverted cdf lands one count high and the truncation
# point steps back.
POISSON_STEP_BACK = [
    (4004.8492958261695, 2.261701682972786e-12),
    (4406.999488677046, 2.9570673583478443e-12),
    (1856.6164356873753, 3.5927995537612314e-12),
    (332.5210634037652, 1.0450349300185113e-12),
]


def test_poisson_truncation_and_weights_equal_scipy_stats_exactly():
    from scipy.stats import poisson

    for mean, eps in POISSON_STEP_BACK:
        assert poisson_isf(eps, mean) == poisson.isf(eps, mean), (mean, eps)
    for mean in POISSON_MEANS:
        for eps in POISSON_EPS:
            assert poisson_isf(eps, mean) == poisson.isf(eps, mean), (mean, eps)
        ks = np.arange(poisson_isf(1e-12, mean) + 2)  # the longest sum asked for
        assert np.array_equal(poisson_pmf(ks, mean), poisson.pmf(ks, mean)), mean


@pytest.mark.parametrize("mean", np.geomspace(1e2, 1e7, 11))
def test_poisson_weights_keep_their_mass(mean):
    from scipy.special import pdtr, pdtrc

    # Over mean +- 40 standard deviations the weights plus the mass outside
    # sum to 1 to rounding. scipy's formula (poisson_pmf) misses by 6e-14
    # at mean 1e2, 6e-11 at 1e5 and 2e-9 at 3e6.
    sd = math.sqrt(mean)
    lo, hi = max(0, int(mean - 40 * sd)), int(mean + 40 * sd)
    below = pdtr(lo - 1, mean) if lo else 0.0
    weights = poisson_weights(np.arange(lo, hi + 1), mean)
    assert abs(below + weights.sum() + pdtrc(hi, mean) - 1.0) <= 1e-14
    # What they leave past transient's truncation point is the tail.
    # scipy's pdtrc drifts above mean 1e6 (1.7% low at 1e7, against an
    # exact sum), so it is the reference up to there only.
    k_max = poisson_isf(1e-9, mean) + 1
    tail = 1.0 - below - weights[:k_max - lo + 1].sum()
    if mean <= 1e6:
        assert tail == pytest.approx(pdtrc(k_max, mean), rel=1e-5)


def test_poisson_weights_equal_scipy_where_its_formula_is_accurate():
    for mean in POISSON_MEANS[POISSON_MEANS <= 100.0]:
        ks = np.arange(poisson_isf(1e-12, mean) + 2)
        assert np.allclose(poisson_weights(ks, mean), poisson_pmf(ks, mean),
                           rtol=1e-12, atol=0.0), mean


@pytest.mark.parametrize("eps", [0.0, 1.0, -1e-9, float("nan")])
def test_poisson_truncation_rejects_eps_outside_the_unit_interval(eps):
    with pytest.raises(ValueError, match="eps"):
        poisson_isf(eps, 3.0)
