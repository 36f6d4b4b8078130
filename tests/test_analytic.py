import itertools
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
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
    poisson_cut,
    poisson_left,
    poisson_weights,
)
from ranburst.cli import bundled_scenario_path, load_bundled_scenario
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


def test_kaufman_roberts_rejects_duplicate_class_ids():
    # Blocking is keyed by class id: a shared id would keep one class's value.
    classes = [one_class(2, 10), TrafficClass(1, 3.0, 1.0, 2, 5)]
    with pytest.raises(ValueError, match="distinct"):
        kaufman_roberts(classes, 10)


def log_space_occupancy(loads, capacity):
    """The occupancy law of the Kaufman-Roberts recursion, run on log g."""
    log_g = [0.0]
    for c in range(1, capacity + 1):
        terms = [math.log(a * d) + log_g[c - d] for a, d in loads if d <= c]
        top = max(terms)
        log_g.append(top + math.log(sum(math.exp(x - top) for x in terms)) - math.log(c))
    log_g = np.array(log_g)
    q = np.exp(log_g - log_g.max())
    return q / q.sum()


@pytest.mark.parametrize("loads", [[(36_000.0, 1)], [(20_000.0, 1), (9_000.0, 2)]],
                         ids=["one-class", "two-classes"])
def test_the_occupancy_recursion_stays_finite_at_heavy_load(loads):
    # Tens of thousands of erlangs on 2,000 blocks: for one class of 36,000,
    # g(c) = a^c / c! passes the float range near c = 105, where the
    # unscaled recursion gave an all-NaN q.
    classes = [TrafficClass(i, a, 1.0, d, 2000 // d) for i, (a, d) in enumerate(loads, 1)]
    dist = kaufman_roberts(classes, 2000)
    expected = log_space_occupancy(loads, 2000)
    assert np.isfinite(dist.q).all()
    np.testing.assert_allclose(dist.q, expected, rtol=1e-9, atol=1e-300)
    for cls in classes:
        tail = expected[2000 - cls.demand_blocks + 1:].sum()
        assert dist.blocking[cls.id] == pytest.approx(tail, rel=1e-9)


def test_rescaling_the_occupancy_recursion_leaves_q_as_it_was(monkeypatch):
    # 2,000 erlangs on 200 blocks: the largest g is about 2**948, past the
    # rescaling threshold of 2**900 and still inside the float range, so the
    # recursion runs both ways; a power-of-two scale gives the same bits.
    classes = [one_class(2000, 200)]
    rescaled = kaufman_roberts(classes, 200)
    monkeypatch.setattr(analytic, "_G_RESCALE_ABOVE", math.inf)
    plain = kaufman_roberts(classes, 200)
    assert np.array_equal(rescaled.q, plain.q)
    assert rescaled.blocking == plain.blocking


def test_a_load_too_large_for_the_recursion_is_a_numerical_error():
    # g(2) = 1e300 * g(1) / 2 overflows even after g(1) is scaled down.
    with pytest.raises(NumericalError, match="occupancy recursion"):
        kaufman_roberts([one_class(1e300, 10)], 10)


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
    """Policy, dimensions and capacity of a bundled scenario's burst chain."""
    return load_bundled_scenario(name).chain(burst=True)


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

    def solve(self, x, trans="N"):
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
    """The chain of a bundled NC2/NC3 scenario's steady-state report."""
    policy, dims, capacity = load_bundled_scenario(name).chain()
    space = reachable_states(policy, dims, capacity)
    return build_generator(policy, dims, capacity, space=space)


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


def per_state_reachable(policy, dims, capacity):
    """The state search ``reachable_states`` ran before it compiled a table."""
    start = tuple(0 for _ in dims)
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
    each state of ``states`` in order, every arc recorded in list order."""
    index = {s: i for i, s in enumerate(states)}
    columns = ([], [], [], [], [], [], [])
    for i, state in enumerate(states):
        for tr in transitions(policy, state, dims, capacity):
            rejected = tr.kind == ARRIVAL_REJECTED
            arc = (i, i if rejected else index[tr.target], tr.rate,
                   traffic._KIND_CODE[tr.kind], tr.dim, tr.downgraded, tr.discarded)
            for column, value in zip(columns, arc):
                column.append(value)
    source, target, rate, kind, dim, downgraded, discarded = columns
    small = analytic._int_dtype(max(capacity, len(dims)))
    return {
        "counts": np.array(states, dtype=np.int64).reshape(len(states), len(dims)),
        "source": np.array(source, dtype=np.intp),
        "target": np.array(target, dtype=np.intp),
        "rate": np.array(rate, dtype=float),
        "kind": np.array(kind, dtype=np.int8),
        "dim": np.array(dim, dtype=small),
        "downgraded": np.array(downgraded, dtype=small),
        "discarded": np.array(discarded, dtype=small),
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


def test_the_chain_search_compiles_each_state_once(monkeypatch):
    compiled = []

    def counting(policy, box, rows, arrivals):
        compiled.append(len(rows))
        return real_compile(policy, box, rows, arrivals)

    real_compile = analytic._compile
    monkeypatch.setattr(analytic, "_compile", counting)
    space = reachable_states(*table2_burst_dims())
    assert len(space) == 22_352 and sum(compiled) == len(space)


BUNDLED = sorted(p.stem for p in bundled_scenario_path("demo_nc3_small").parent.glob("*.yaml"))
SEARCHED_CHAINS = [(name, False) for name in BUNDLED] + [(name, True) for name in TABLE2]
TABLE_COLUMNS = ("counts", "source", "target", "rate", "kind", "dim", "downgraded", "discarded")


@pytest.mark.parametrize("scenario, burst", SEARCHED_CHAINS,
                         ids=[f"{n}-{'burst' if b else 'chain'}" for n, b in SEARCHED_CHAINS])
def test_the_search_table_is_the_table_compiled_in_key_order(scenario, burst):
    policy, dims, capacity = load_bundled_scenario(scenario).chain(burst=burst)
    space = reachable_states(policy, dims, capacity)
    assert space.table.counts is space.counts
    expected = analytic._table_for(replace(space, table=None), policy, dims, capacity)
    assert expected is not space.table
    assert_same_table(space.table, {c: getattr(expected, c) for c in TABLE_COLUMNS})


@pytest.mark.parametrize("policy", ["NC1", "NC2", "NC3"])
def test_the_simulator_compiles_the_analytic_burst_chain(policy):
    # Both layers key a state by its box number, and the analytic numbering
    # is the keys' rank. Out of every state of the burst chain, the arcs the
    # walk follows are the analytic table's, one for one and column by
    # column: the offer is the priority arrival (its rate is the walk's
    # own), then come the video arrival and the departures, at the same
    # rates (both chains per ms).
    scenario = load_bundled_scenario(f"table2_{policy.lower()}_lam20")
    _, dims, capacity = scenario.chain(burst=True, per_ms=True)
    table = reachable_states(policy, dims, capacity).table
    box = analytic._StateBox(dims, capacity)
    keys = box.keys(table.counts)
    assert (np.diff(keys) > 0).all()
    chain = simulator._Chain(scenario)
    assert box.arriving == [0, 1] and chain.arriving == [1]
    arcs, rates, admits, totals = [], [], [], []
    for key in keys.tolist():
        arrivals, departures, departure_total, offer = chain.visit(key)
        arcs += [offer[:2], *(arc for _, arc in arrivals + departures)]
        rates += [dims[0].arrival_rate, *(rate for rate, _ in arrivals + departures)]
        admits.append(offer[2])
        totals.append(departure_total)
    ids, targets = map(list, zip(*arcs))
    assert np.array_equal(targets, keys[table.target])
    assert np.array_equal(rates, table.rate)
    offers = np.searchsorted(table.source, np.arange(len(keys)))
    assert np.array_equal(admits, table.kind[offers] != traffic._KIND_CODE[ARRIVAL_REJECTED])
    departing = table.kind == traffic._KIND_CODE[traffic.DEPARTURE]
    assert np.array_equal(totals, np.bincount(table.source[departing],
                                              weights=table.rate[departing],
                                              minlength=len(keys)))
    walk = (0, 0, (0,) * len(dims), len(ids), scenario.horizon_ms, False)
    record, = chain.records(scenario, [walk], [0.0] * len(ids), ids)
    for name in ("kind", "dim", "downgraded", "discarded"):
        assert np.array_equal(getattr(record, name), getattr(table, name)), name
    assert np.array_equal(record.states[record.state], table.counts[table.target])


def brute_rows(box, lo, hi):
    """The feasible rows with keys in ``[lo, hi)``: every key decoded, then
    filtered by the session caps and the capacity."""
    keys = np.array(range(max(lo, 0), min(hi, box.size)), dtype=box.weights.dtype)
    rows = box.decode(keys)
    caps = np.array([d.max_sessions for d in box.dims])
    return rows[(rows <= caps).all(axis=1) & (rows @ box.demand <= box.capacity)]


@st.composite
def narrow_boxes(draw):
    """A box of one to four dimensions and a range that may be empty, cut
    digits anywhere or run past either end of the box."""
    capacity = draw(st.integers(1, 12))
    classes = [TrafficClass(i, 1.0, 1.0, draw(st.integers(1, 4)), draw(st.integers(1, 8)))
               for i in range(1, draw(st.integers(1, 4)) + 1)]
    box = analytic._StateBox(build_dimensions("NC1", classes, capacity), capacity)
    lo = draw(st.integers(-3, box.size + 3))
    return box, lo, draw(st.integers(lo - 3, box.size + 5))


# 20 dimensions of 11 values: 11**20 keys, past int64.
WIDE_BOX = analytic._StateBox(
    build_dimensions("NC1", [TrafficClass(i, 1.0, 1.0, 1, 10) for i in range(1, 21)], 10), 10)


@st.composite
def wide_ranges(draw):
    """A range of the wide box near the key of a feasible state (most keys
    are not feasible) or near the end of the box."""
    sessions = draw(st.lists(st.integers(0, 19), max_size=10))
    near = draw(st.sampled_from([int(WIDE_BOX.keys(np.bincount(sessions, minlength=20))),
                                 WIDE_BOX.size]))
    lo = near + draw(st.integers(-2000, 2000))
    return WIDE_BOX, lo, lo + draw(st.integers(-3, 4000))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=st.one_of(narrow_boxes(), wide_ranges()))
def test_box_rows_are_the_decoded_keys_that_fit(case):
    box, lo, hi = case
    rows = box.rows(lo, hi)
    assert rows.dtype == np.int64 and rows.shape[1] == len(box.dims)
    assert np.array_equal(rows, brute_rows(box, lo, hi))


def test_box_rows_of_a_range_past_int64():
    assert WIDE_BOX.weights.dtype == object and WIDE_BOX.size == 11**20
    lo = 10 * 11**19 - 5  # ten sessions of the first dimension, less five keys
    rows = WIDE_BOX.rows(lo, WIDE_BOX.size + 10)
    assert rows.tolist() == [[10] + [0] * 19]
    assert np.array_equal(rows, brute_rows(WIDE_BOX, lo, lo + 10))


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


@pytest.mark.parametrize("eps", [float("nan"), 0.0, 1.0, -1e-9, 1.5, float("inf")])
def test_transient_rejects_an_eps_outside_the_unit_interval(eps):
    # At t = 0 and on a chain with no rate the sum is never taken, so the
    # truncation point never checks eps either.
    _, death = pure_death_generator()
    pi0 = np.array([0.0, 1.0])
    for q, t in ((death, 0.0), (death, 1.0), (sp.csr_matrix((2, 2)), 1.0)):
        with pytest.raises(ValueError, match="eps"):
            transient(q, pi0, t, eps=eps)


# ---------------------------------------------------------------------------
# Stationarity cut of uniformization against the full Poisson sum
# ---------------------------------------------------------------------------


def full_poisson_sum(q, pi0, t, eps=1e-9, weights=None):
    """``transient`` as it was before the stationarity cut: every term of the
    Poisson sum up to the truncation point, with ``poisson_weights`` unless
    ``weights`` are given."""
    pi0 = np.asarray(pi0, dtype=float)
    lam = float(-q.diagonal().min()) * 1.02
    pt = (sp.eye(q.shape[0], format="csr") + q.tocsr() / lam).T.tocsr()
    mean = lam * t
    k_max = poisson_cut(eps, mean)
    if weights is None:
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


def test_a_long_horizon_costs_only_its_steps(burst_chain, monkeypatch):
    # At t = 4000 s the Poisson mean is about 4.1e6: weights over every count
    # up to the cut took 0.84 s and a 355 MB tracemalloc peak for 219
    # mat-vecs. The sum stops long before the left point, where no weight
    # is formed.
    import tracemalloc

    q, pi, pi0 = burst_chain
    calls = count_matvecs(monkeypatch)
    tracemalloc.start()
    try:
        got = transient(q, pi0, 4000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(calls) < 1000
    assert peak < 32 * 2**20
    assert np.abs(got - pi).sum() <= 2e-9


TWO_STATE = [[-1.0, 1.0], [2.0, -2.0]]


def test_a_horizon_of_a_trillion_seconds_returns_the_stationary_law():
    # Poisson mean 2.04e12: the cut's search once asked for 14.8 TiB.
    q = sp.csr_matrix(TWO_STATE)
    eps = 1e-9
    got = transient(q, np.array([1.0, 0.0]), 1e12, eps=eps)
    assert np.abs(got - [2 / 3, 1 / 3]).sum() <= eps
    assert got.min() >= 0.0


@pytest.mark.parametrize("q, t", [
    (TWO_STATE, 1e20), (TWO_STATE, 1e300), ([[-1e300, 1e300], [1e300, -1e300]], 1e10),
], ids=["mean-2e20", "mean-2e300", "mean-inf"])
def test_a_poisson_mean_past_exact_counts_raises(q, t):
    with pytest.raises(ValueError, match="Poisson mean"):
        transient(sp.csr_matrix(q), np.array([1.0, 0.0]), t)


def test_a_stop_before_the_left_point_and_a_sum_from_zero(monkeypatch):
    # Poisson mean 408 at t = 200 puts the left point near 240 steps, past
    # where the two-state chain's iterates stop moving; mean 20.4 at t = 10
    # is below log(1 / delta), so the left point is 0 and every weight from
    # 0 to the cut is formed.
    q = sp.csr_matrix(TWO_STATE)
    pi0 = np.array([1.0, 0.0])
    eps = 1e-9
    delta = analytic.LEFT_SHARE * eps
    calls = count_matvecs(monkeypatch)
    steps = {}
    for t in (200.0, 10.0):
        before = len(calls)
        got = transient(q, pi0, t, eps=eps)
        steps[t] = len(calls) - before
        assert np.abs(got - pi0 @ expm(q.toarray() * t)).sum() <= eps, t
        assert got.min() >= 0.0
    assert 0 < steps[200.0] <= poisson_left(delta, 2.04 * 200.0)
    assert poisson_left(delta, 2.04 * 10.0) == 0 and 2.04 * 10.0 < -math.log(delta)
    assert steps[10.0] > 0


# Mat-vecs of the eight calls when every entry at or below theta was dropped,
# not only the runs at the band's ends.
MATVECS_DROPPING_EVERY_SMALL_ENTRY = (213, 219, 222, 222, 224, 225, 227, 227)


def test_dropping_only_at_the_band_ends_takes_no_more_steps(burst_chain, monkeypatch):
    q, _, pi0 = burst_chain
    calls = count_matvecs(monkeypatch)
    for t, most in zip(BENCHMARK_TIMES, MATVECS_DROPPING_EVERY_SMALL_ENTRY):
        before = len(calls)
        transient(q, pi0, t, eps=1e-9)
        assert 0 < len(calls) - before <= most, t


def test_iterates_that_stop_moving_exactly_cut_without_a_budget(monkeypatch):
    # On the NC2 burst chain at t = 100 s (Poisson mean 103,020), a left
    # share of 1/2 makes the budget of a stop before the left point, (eps -
    # 2 delta) |pi0|, exactly 0, and so theta. The sum must then run on until
    # the iterates reach a fixed point of the floating-point mat-vec, after
    # which every remaining term of the sum is the same array: the whole
    # Poisson mass on it is the full sum with its tail past k_max put on its
    # last term.
    policy, dims, capacity = table2_burst_dims("table2_nc2_lam20")
    space = reachable_states(policy, dims, capacity)
    space, q = build_generator(policy, dims, capacity, space=space)
    pi0 = np.zeros(len(space))
    pi0[space.index[(0, 0)]] = 1.0
    t, eps = 100.0, 1e-9
    monkeypatch.setattr(analytic, "LEFT_SHARE", 0.5)
    calls = count_matvecs(monkeypatch)
    got = transient(q, pi0, t, eps=eps)
    monkeypatch.undo()
    assert abs(got.sum() - 1.0) <= 1e-13  # with theta = 0, nothing was dropped
    mean = 1.02 * float(-q.diagonal().min()) * t
    assert 0 < len(calls) < 1000  # the full sum takes about 1.05e5 steps
    assert len(calls) <= poisson_left(0.5 * eps, mean)  # it stopped before L
    weights = poisson_weights(np.arange(poisson_cut(eps, mean) + 1), mean)
    weights[-1] += 1.0 - weights.sum()
    want = full_poisson_sum(q, pi0, t, eps, weights=weights)
    assert np.abs(got - want).sum() <= 1e-12


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
def test_dropped_mass_stays_within_eps_of_the_exponential(t, monkeypatch):
    _, q = erlang_chain()
    pi0 = np.zeros(q.shape[0])
    pi0[0] = 1.0
    eps = 1e-4
    calls = count_matvecs(monkeypatch)
    got = transient(q, pi0, t, eps=eps)
    monkeypatch.undo()
    full = full_poisson_sum(q, pi0, t, eps)
    # Mass really was dropped, and no more than the drop's share of eps. A
    # sum that stops before the left point (only at t = 20 here) puts the
    # whole Poisson mass on its last iterate, so its mass is 1 less the
    # dropped mass; one that reaches it keeps the full sum's mass less that.
    left = poisson_left(analytic.LEFT_SHARE * eps, 1.02 * float(-q.diagonal().min()) * t)
    before_left = len(calls) <= left
    assert before_left == (t == 20.0)
    kept = 1.0 if before_left else full.sum()
    assert 1e-12 < kept - got.sum() <= analytic.DROP_SHARE * eps
    assert np.abs(got - pi0 @ expm(q.toarray() * t)).sum() <= eps
    assert got.min() >= 0.0


def drift_and_dust_chain(mean, eps, n_dust=200, m_a=0.01, fast=1000.0):
    """A chain on which ``transient`` drops about 18% of its budget and
    the cut's bound is nearly exact, with the time ``t`` of Poisson mean
    ``mean`` and the start. The budget is ``eps`` less the Poisson tail past
    ``poisson_cut(eps, mean)``: at mean 202.5 and eps 1e-4 the cut is 266,
    the tail 0.086 eps and the budget 0.914 eps.

    State 1 holds 99% of the mass and never moves. State 0 holds 1% and
    drifts into state 1 so slowly that the drift is nearly constant over
    the Poisson window: the cut's error is close to its bound ``d_k J_k``,
    with the cut about one standard deviation before the mean. State 0
    also feeds ``n_dust`` absorbing states at 99% of the drop threshold a
    step, so every step drops them. A pair of states with no mass swapping
    at ``fast`` sets the uniformization rate.
    """
    lam = 1.02 * fast
    k_max = poisson_cut(eps, mean)
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
    # The Poisson tail takes 8.6% of eps here and the drops take 17.8% of
    # the budget left; transient errs by 0.82 eps. A stop rule without its
    # 2 * dropped term spends the whole rest on the cut and errs by 1.096e-4,
    # missing eps by about 10%.
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


def test_an_iterate_with_no_entry_above_theta_is_dropped_whole():
    # One state that leaves the chain at rate 1 (a sub-generator): each step
    # keeps 1/51 of the mass, and at t = 50 the iterate falls to theta
    # before its steps stop moving. Nothing is left above theta, so the
    # whole band is dropped and the sum ends there, below the exact value;
    # a stop by the cut would end above it, since it puts the remaining
    # Poisson mass on an iterate larger than every later one.
    q = sp.csr_matrix([[-1.0]])
    pi0 = np.array([1.0])
    eps = 1e-9
    got = transient(q, pi0, 50.0, eps=eps)
    exact = math.exp(-50.0)
    assert 0.0 < got[0] < exact * (1 - 1e-6)
    assert exact - got[0] <= eps


@st.composite
def small_chains(draw):
    """A generator of at most 40 states with some absorbing states, whose
    arcs span at most ``width`` indices so that the band and the drop come
    into play; a start that is a single state, split between both ends or
    sub-stochastic; and a horizon."""
    n = draw(st.integers(1, 40))
    width = draw(st.integers(1, max(n - 1, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = np.indices((n, n))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    arcs = (i != j) & (np.abs(i - j) <= width) & (rng.random((n, n)) < density)
    rates = np.where(arcs, 10.0 ** rng.uniform(-2.0, 1.5, (n, n)), 0.0)
    rates[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = 0.0
    q = sp.csr_matrix(rates - np.diag(rates.sum(axis=1)))
    start = draw(st.sampled_from(["single", "both ends", "sub-stochastic"]))
    pi0 = np.zeros(n)
    if start == "single":
        pi0[draw(st.integers(0, n - 1))] = 1.0
    elif start == "both ends":
        pi0[[0, n - 1]] = 0.5
    else:
        pi0 = rng.random(n) * (rng.random(n) < 0.5)
        pi0[rng.integers(n)] += 0.1
        pi0 *= draw(st.floats(1e-3, 0.99)) / pi0.sum()
    return q, pi0, draw(st.floats(0.01, 3.0))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(chain=small_chains(), eps=st.sampled_from([1e-9, 1e-4]))
def test_transient_stays_within_eps_of_the_exponential_on_small_chains(chain, eps):
    q, pi0, t = chain
    got = transient(q, pi0, t, eps=eps)
    assert np.abs(got - pi0 @ expm(q.toarray() * t)).sum() <= eps * pi0.sum()
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


@pytest.mark.parametrize("mean", np.geomspace(1e2, 1e7, 11))
def test_poisson_weights_keep_their_mass(mean):
    from scipy.special import pdtr, pdtrc

    # Over mean +- 40 standard deviations the weights plus the mass outside
    # sum to 1 to rounding. scipy.stats.poisson.pmf misses by 6e-14 at mean
    # 1e2, 6e-11 at 1e5 and 2e-9 at 3e6.
    sd = math.sqrt(mean)
    lo, hi = max(0, int(mean - 40 * sd)), int(mean + 40 * sd)
    below = pdtr(lo - 1, mean) if lo else 0.0
    weights = poisson_weights(np.arange(lo, hi + 1), mean)
    assert abs(below + weights.sum() + pdtrc(hi, mean) - 1.0) <= 1e-14
    # What they leave past transient's truncation point is the tail.
    # scipy's pdtrc drifts above mean 1e6 (1.7% low at 1e7, against an
    # exact sum), so it is the reference up to there only.
    k_max = poisson_cut(1e-9, mean)
    tail = 1.0 - below - weights[:k_max - lo + 1].sum()
    if mean <= 1e6:
        assert tail == pytest.approx(pdtrc(k_max, mean), rel=1e-5)


def test_poisson_weights_equal_scipy_where_its_formula_is_accurate():
    from scipy.stats import poisson

    for mean in POISSON_MEANS[POISSON_MEANS <= 100.0]:
        ks = np.arange(poisson_cut(1e-12, mean) + 2)
        assert np.allclose(poisson_weights(ks, mean), poisson.pmf(ks, mean),
                           rtol=1e-12, atol=0.0), mean


def exact_poisson_tail(k, mean):
    """``P(N > k)`` for a Poisson ``N`` of mean ``mean``, summed term by term
    in 30-digit arithmetic until a term adds less than 1e-20 of the sum."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        m = mpmath.mpf(mean)
        term = mpmath.exp((k + 1) * mpmath.log(m) - m - mpmath.loggamma(k + 2))
        total, j = mpmath.mpf(0), k + 1
        while term > total * mpmath.mpf(10) ** -20:
            total += term
            j += 1
            term = term * m / j
        return float(total)


@pytest.mark.parametrize("mean", np.geomspace(1e2, 1e7, 11))
def test_poisson_cut_leaves_a_tail_within_a_tenth_of_eps(mean):
    # The Chernoff bound the cut is taken from is loose by a factor of
    # about 16: the exact tail past it is near eps / 16 at every mean. The
    # inverse cdf's point (scipy.stats.poisson.isf, one count past it) left
    # 0.98 to 0.998 eps from mean 1e5 to 1e7.
    eps = 1e-9
    k = poisson_cut(eps, mean)
    assert k >= mean
    assert exact_poisson_tail(k, mean) <= eps / 10


def test_poisson_cut_bounds_the_tail_at_every_eps():
    from scipy.special import pdtrc

    # scipy's tail is accurate at these means (up to 5,000).
    for mean in POISSON_MEANS:
        for eps in POISSON_EPS:
            k = poisson_cut(eps, mean)
            assert k >= mean and pdtrc(k, mean) <= eps, (mean, eps)


# The most counts an oracle search below tests: every count of the bracket
# at each mean up to 1e7. At mean 2**52 the brackets hold 3e8 to 6e8 counts.
ORACLE_COUNTS = 1 << 16


def array_poisson_cut(eps, mean):
    """``poisson_cut`` as one array search over its whole bracket. Of a wider
    bracket it searches the last ``ORACLE_COUNTS`` counts: below them
    ``deviance(k + 1, mean) <= (k + 1 - mean)**2 / (2 mean)`` stays under
    the level, so the test fails there."""
    level = -math.log(eps)
    lo, hi = math.ceil(mean), math.ceil(mean + math.sqrt(2 * mean * level) + level)
    ks = np.arange(max(lo, hi + 1 - ORACLE_COUNTS), hi + 1)
    return int(ks[np.argmax(analytic._deviance(ks + 1.0, mean) >= level)])


def array_poisson_left(delta, mean):
    """``poisson_left`` as one array search over its whole bracket, or over
    its first ``ORACLE_COUNTS`` counts when it is wider."""
    level = -math.log(delta)
    if mean < level:
        return 0
    lo = max(1, math.floor(mean - math.sqrt(2 * mean * level)))
    ks = np.arange(lo, min(math.floor(mean), lo + ORACLE_COUNTS - 1) + 1)
    held = analytic._deviance(ks.astype(np.float64), mean) < level
    assert held.any(), mean
    return int(ks[np.argmax(held)])


@pytest.mark.parametrize("eps", [1e-9, 1e-4])
def test_poisson_cut_equals_the_search_over_its_whole_bracket(eps):
    # Both truncation points bisect their brackets; the widest, at mean
    # 2**52, takes about 30 evaluations. The left point is also taken at the
    # share of eps that uniformization gives it.
    cases = ((poisson_cut, array_poisson_cut, eps), (poisson_left, array_poisson_left, eps),
             (poisson_left, array_poisson_left, analytic.LEFT_SHARE * eps))
    for mean in [*np.geomspace(1e-3, 1e7, 201), 2.0**52]:
        for point, oracle, p in cases:
            assert point(p, mean) == oracle(p, mean), (point.__name__, p, mean)


def test_the_poisson_tail_leaves_room_for_the_drop():
    from scipy.special import pdtrc

    # A uniformization sum that runs to the cut is off by the mass below the
    # left point (at most delta) and past the cut, plus the dropped mass (at
    # most DROP_SHARE of eps): within eps while the tail stays below
    # (1 - DROP_SHARE) eps - delta. The Chernoff bound alone gives eps.
    for mean in POISSON_MEANS:
        for eps in np.concatenate(([0.5, 0.1, 1e-2, 1e-4], POISSON_EPS)):
            tail = pdtrc(poisson_cut(eps, mean), mean)
            assert tail <= (1 - analytic.DROP_SHARE - analytic.LEFT_SHARE) * eps, (mean, eps)


def exact_poisson_below(k, mean):
    """``P(N < k)`` for a Poisson ``N`` of mean ``mean``, summed term by term
    down from ``k - 1`` in 30-digit arithmetic until a term adds less than
    1e-20 of the sum."""
    mpmath = pytest.importorskip("mpmath")
    if k == 0:
        return 0.0
    with mpmath.workdps(30):
        m = mpmath.mpf(mean)
        term = mpmath.exp((k - 1) * mpmath.log(m) - m - mpmath.loggamma(k))
        total, j = mpmath.mpf(0), k - 1
        while j >= 0 and term > total * mpmath.mpf(10) ** -20:
            total += term
            term = term * j / m
            j -= 1
        return float(total)


@pytest.mark.parametrize("eps", [1e-9, 1e-4])
@pytest.mark.parametrize("mean", np.geomspace(1e-2, 1e8, 11))
def test_the_left_point_leaves_at_most_delta_below_it(mean, eps):
    delta = analytic.LEFT_SHARE * eps
    level = -math.log(delta)
    left = poisson_left(delta, mean)
    assert 0 <= left <= mean
    assert exact_poisson_below(left, mean) <= delta
    # left + 1 already fails the Chernoff test: the bound of P(N <= left)
    # passes delta.
    bound = mean if left == 0 else float(analytic._deviance(float(left), mean))
    assert bound < level


@pytest.mark.parametrize("mean", [0.7, 0.8, 0.99])
def test_a_left_point_above_a_mean_below_one(mean):
    # delta 0.5 passes P(N = 0) = exp(-mean) once mean > log 2, and the
    # bracket [1, floor(mean)] is empty there: the point is 1.
    assert poisson_left(0.5, mean) == 1
    assert exact_poisson_below(1, mean) <= 0.5


@pytest.mark.parametrize("mean", [float("inf"), float("nan"), -1.0, 0.0, 2.0**53])
def test_poisson_truncation_rejects_a_mean_past_exact_counts(mean):
    for point in (poisson_cut, poisson_left):
        with pytest.raises(ValueError, match="Poisson mean"):
            point(1e-9, mean)


@pytest.mark.parametrize("eps", [0.0, 1.0, -1e-9, float("nan")])
def test_poisson_truncation_rejects_eps_outside_the_unit_interval(eps):
    with pytest.raises(ValueError, match="eps"):
        poisson_cut(eps, 3.0)


def test_the_exact_pipeline_leaves_scipy_special_unloaded():
    # The analytic layer takes its Poisson terms from its own formulas;
    # importing scipy.special costs more than the first transient call.
    code = (
        "import sys; import numpy as np\n"
        "from ranburst.analytic import (blocking_from_generator, build_generator,\n"
        "    reachable_states, steady_state, transient)\n"
        "from ranburst.cli import load_bundled_scenario\n"
        "policy, dims, capacity = load_bundled_scenario('table2_nc3_lam20').chain(burst=True)\n"
        "space = reachable_states(policy, dims, capacity)\n"
        "space, q = build_generator(policy, dims, capacity, space=space)\n"
        "pi = steady_state(q)\n"
        "blocking_from_generator(policy, space, pi)\n"
        "transient(q, pi, 1.0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"
