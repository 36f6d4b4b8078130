import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranburst import (
    TrafficClass,
    admissible,
    arrival_outcome,
    build_dimensions,
    occupied,
    transitions,
)
from ranburst.traffic import (
    ARRIVAL_ACCEPTED,
    ARRIVAL_DOWNGRADED,
    ARRIVAL_REJECTED,
    DEPARTURE,
    DOWNGRADE_CASCADE,
    EVENT_KINDS,
    POLICIES,
    PREEMPT_DISCARD,
    arrival_outcomes,
)

from conftest import table2_classes


def dims_for(policy, capacity=62, lam2=1 / 20):
    return build_dimensions(policy, table2_classes(policy, lam2), capacity)


# ---------------------------------------------------------------------------
# Brute-force admission oracle: enumerate every downgrade/discard combination
# and apply the documented preference order. Kept deliberately independent of
# the production cascade loops.
# ---------------------------------------------------------------------------


def oracle_nc2_goose(counts, dims, capacity):
    """Returns (admitted, n_discarded) by trying every discard count."""
    w1, w2 = counts
    feasible_ks = []
    for k in range(0, w2 + 1):
        target = (w1 + 1, w2 - k)
        if (
            target[0] <= dims[0].max_sessions
            and target[1] <= dims[1].max_sessions
            and occupied(target, dims) <= capacity
        ):
            feasible_ks.append(k)
    if not feasible_ks:
        return False, 0
    return True, min(feasible_ks)


def oracle_nc3_goose(counts, dims, capacity):
    """Returns (admitted, n_downgraded, n_discarded) over all combinations."""
    w1, w2, w3 = counts
    combos = []
    for k in range(0, w2 + 1):
        for j in range(0, w3 + k + 1):
            target = (w1 + 1, w2 - k, w3 + k - j)
            if (
                target[0] <= dims[0].max_sessions
                and target[1] <= dims[1].max_sessions
                and target[2] <= dims[2].max_sessions
                and occupied(target, dims) <= capacity
            ):
                combos.append((k, j))
    if not combos:
        return False, 0, 0
    # Downgrade before discard, minimum victims: no-discard combos win with
    # the smallest downgrade count; otherwise everything downgradeable is
    # downgraded and the discard count is minimal.
    no_discard = [k for k, j in combos if j == 0]
    if no_discard:
        return True, min(no_discard), 0
    j_min = min(j for k, j in combos if k == w2)
    return True, w2, j_min


# ---------------------------------------------------------------------------
# Spec'd examples
# ---------------------------------------------------------------------------


def test_occupied_examples():
    dims = dims_for("NC3")
    assert occupied((10, 5, 3), dims) == 23
    assert occupied((0, 0, 0), dims) == 0
    assert occupied((1, 30, 1), dims) == 62


def test_admissible_examples():
    dims = dims_for("NC3")
    assert not admissible((0, 31, 0), 1, dims, 62)  # full pool, video needs 2
    assert all(admissible((0, 0, 0), i, dims, 62) for i in range(3))
    assert not admissible((62, 0, 0), 0, dims, 62)


def test_nc1_admission_boundaries():
    classes = table2_classes("NC1")
    classes = [
        TrafficClass(1, 1.0, 1 / 60, 1, 62),
        TrafficClass(2, 1.0, 1 / 600, 2, 31),
    ]
    dims = build_dimensions("NC1", classes, 62)
    arcs = transitions("NC1", (61, 0), dims, 62)
    goose = next(t for t in arcs if t.kind != DEPARTURE and t.dim == 0)
    video = next(t for t in arcs if t.kind != DEPARTURE and t.dim == 1)
    assert goose.kind == ARRIVAL_ACCEPTED and goose.target == (62, 0)
    assert video.kind == ARRIVAL_REJECTED

    arcs = transitions("NC1", (0, 0), dims, 62)
    assert len(arcs) == 2
    assert all(t.kind == ARRIVAL_ACCEPTED for t in arcs)


def test_nc2_preemption_examples():
    dims = dims_for("NC2")
    tr = arrival_outcome("NC2", (0, 31), 0, dims, 62, 1.0)
    assert tr.kind == PREEMPT_DISCARD and tr.target == (1, 30) and tr.discarded == 1

    tr = arrival_outcome("NC2", (62, 0), 0, dims, 62, 1.0)
    assert tr.kind == ARRIVAL_REJECTED

    tr = arrival_outcome("NC2", (60, 1), 0, dims, 62, 1.0)
    assert tr.kind == PREEMPT_DISCARD and tr.target == (61, 0) and tr.discarded == 1


def test_nc3_cascade_examples():
    dims = dims_for("NC3")
    tr = arrival_outcome("NC3", (0, 31, 0), 0, dims, 62, 1.0)
    assert tr.kind == DOWNGRADE_CASCADE
    assert tr.target == (1, 30, 1)
    assert tr.downgraded == 1 and tr.discarded == 0
    assert occupied(tr.target, dims) == 62

    tr = arrival_outcome("NC3", (0, 31, 0), 1, dims, 62, 1.0)
    assert tr.kind == ARRIVAL_REJECTED

    tr = arrival_outcome("NC3", (62, 0, 0), 0, dims, 62, 1.0)
    assert tr.kind == ARRIVAL_REJECTED


def test_nc3_discards_only_after_all_downgrades():
    dims = dims_for("NC3")
    # Full pool with no full-rate sessions left: the cascade must discard.
    tr = arrival_outcome("NC3", (1, 0, 61), 0, dims, 62, 1.0)
    assert tr.kind == DOWNGRADE_CASCADE
    assert tr.target == (2, 0, 60)
    assert tr.downgraded == 0 and tr.discarded == 1


def test_nc3_combined_downgrade_and_discard():
    # A wide priority demand (3 blocks) forces downgrading all full-rate
    # sessions (freeing one block each) and then discarding.
    classes = [
        TrafficClass(1, 1.0, 1.0, 3, 4, "high"),
        TrafficClass(2, 1.0, 1.0, 2, 6, "low", adaptive=True,
                     downgraded_demand_blocks=1),
    ]
    dims = build_dimensions("NC3", classes, 12)
    # occupied 12 = 2 full (4 blocks) + 8 downgraded; need 3 free blocks
    tr = arrival_outcome("NC3", (0, 2, 8), 0, dims, 12, 1.0)
    assert tr.kind == DOWNGRADE_CASCADE
    assert tr.target == (1, 0, 9)
    assert tr.downgraded == 2 and tr.discarded == 1
    assert occupied(tr.target, dims) == 12


def test_nc3_video_downgraded_admission():
    dims = dims_for("NC3")
    # occupied 61: full-rate does not fit, the downgraded rate does
    tr = arrival_outcome("NC3", (1, 30, 0), 1, dims, 62, 1.0)
    assert tr.kind == ARRIVAL_DOWNGRADED
    assert tr.target == (1, 30, 1)
    assert tr.downgraded == 1 and tr.discarded == 0


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


def small_dims(policy):
    if policy == "NC1":
        classes = [TrafficClass(1, 1.0, 2.0, 1, 8), TrafficClass(2, 3.0, 1.0, 2, 4)]
    elif policy == "NC2":
        classes = [
            TrafficClass(1, 1.0, 2.0, 1, 8, "high"),
            TrafficClass(2, 3.0, 1.0, 2, 4, "low"),
        ]
    else:
        classes = [
            TrafficClass(1, 1.0, 2.0, 1, 8, "high"),
            TrafficClass(2, 3.0, 1.0, 2, 4, "low", adaptive=True,
                         downgraded_demand_blocks=1),
        ]
    return build_dimensions(policy, classes, 8)


def feasible_states(dims, capacity):
    ranges = [range(d.max_sessions + 1) for d in dims]
    for counts in itertools.product(*ranges):
        if occupied(counts, dims) <= capacity:
            yield counts


@pytest.mark.parametrize("policy", ["NC1", "NC2", "NC3"])
def test_total_outgoing_rate(policy):
    dims = small_dims(policy)
    for counts in feasible_states(dims, 8):
        arcs = transitions(policy, counts, dims, 8)
        total = sum(t.rate for t in arcs)
        expect = sum(d.arrival_rate for d in dims if d.arrival_rate > 0)
        expect += sum(c * d.service_rate for c, d in zip(counts, dims))
        assert total == pytest.approx(expect)


@pytest.mark.parametrize("policy", ["NC1", "NC2", "NC3"])
def test_targets_always_feasible(policy):
    dims = small_dims(policy)
    for counts in feasible_states(dims, 8):
        for t in transitions(policy, counts, dims, 8):
            assert occupied(t.target, dims) <= 8
            assert all(0 <= c <= d.max_sessions for c, d in zip(t.target, dims))
            assert t.rate > 0


def test_nc1_equals_nc2_on_admissible_states():
    d1 = small_dims("NC1")
    d2 = small_dims("NC2")
    for counts in feasible_states(d1, 8):
        if not admissible(counts, 0, d1, 8):
            continue
        a1 = {(t.target, t.kind, round(t.rate, 12)) for t in transitions("NC1", counts, d1, 8)}
        a2 = {(t.target, t.kind, round(t.rate, 12)) for t in transitions("NC2", counts, d2, 8)}
        assert a1 == a2


def test_nc2_admission_matches_bruteforce_oracle_small():
    dims = small_dims("NC2")
    for counts in feasible_states(dims, 8):
        tr = arrival_outcome("NC2", counts, 0, dims, 8, 1.0)
        admitted, k = oracle_nc2_goose(counts, dims, 8)
        if not admitted:
            assert tr.kind == ARRIVAL_REJECTED
        else:
            assert tr.kind in (ARRIVAL_ACCEPTED, PREEMPT_DISCARD)
            assert tr.discarded == k
            assert tr.target[0] == counts[0] + 1


def wide_goose_dims():
    classes = [
        TrafficClass(1, 1.0, 1.0, 3, 4, "high"),
        TrafficClass(2, 1.0, 1.0, 2, 6, "low", adaptive=True,
                     downgraded_demand_blocks=1),
    ]
    return build_dimensions("NC3", classes, 12), 12


@pytest.mark.parametrize("setup", ["narrow", "wide"])
def test_nc3_admission_matches_bruteforce_oracle_small(setup):
    if setup == "narrow":
        dims, cap = small_dims("NC3"), 8
    else:
        dims, cap = wide_goose_dims()
    for counts in feasible_states(dims, cap):
        tr = arrival_outcome("NC3", counts, 0, dims, cap, 1.0)
        admitted, k, j = oracle_nc3_goose(counts, dims, cap)
        if not admitted:
            assert tr.kind == ARRIVAL_REJECTED
        else:
            assert tr.kind in (ARRIVAL_ACCEPTED, DOWNGRADE_CASCADE)
            assert (tr.downgraded, tr.discarded) == (k, j)
            if tr.discarded:
                assert tr.target[1] == 0  # nothing left to downgrade


# ---------------------------------------------------------------------------
# The array form of the admission rule
# ---------------------------------------------------------------------------


@st.composite
def random_pools(draw):
    """A policy, its dimensions and a capacity of at most 12 blocks. NC3
    draws full-rate demands up to five blocks over any smaller downgraded
    demand, and a cap on the downgraded dimension that may bind."""
    policy = draw(st.sampled_from(POLICIES))
    capacity = draw(st.integers(1, 12))
    demand = st.integers(1, 4)
    cap = st.integers(1, 8)
    if policy == "NC1":
        classes = [
            TrafficClass(i + 1, 1.0, 1.0, draw(demand), draw(cap))
            for i in range(draw(st.integers(1, 3)))
        ]
        return policy, build_dimensions(policy, classes, capacity), capacity
    prio = TrafficClass(1, 1.0, 1.0, draw(demand), draw(cap), "high")
    if policy == "NC2":
        low = TrafficClass(2, 1.0, 1.0, draw(demand), draw(cap), "low")
        return policy, build_dimensions(policy, [prio, low], capacity), capacity
    full = draw(st.integers(2, 5))
    low = TrafficClass(2, 1.0, 1.0, full, draw(cap), "low", adaptive=True,
                       downgraded_demand_blocks=draw(st.integers(1, full - 1)))
    dims = build_dimensions(policy, [prio, low], capacity)
    dims[2] = replace(dims[2], max_sessions=draw(st.integers(0, dims[2].max_sessions)))
    return policy, dims, capacity


def outcome_kind(policy, dim, out, i):
    """The :class:`Transition` kind of row ``i`` of an ``arrival_outcomes``
    result."""
    if out.rejected[i]:
        return ARRIVAL_REJECTED
    if out.downgraded[i] == 0 and out.discarded[i] == 0:
        return ARRIVAL_ACCEPTED
    if policy == "NC2":
        return PREEMPT_DISCARD
    return DOWNGRADE_CASCADE if dim == 0 else ARRIVAL_DOWNGRADED


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(pool=random_pools())
def test_array_rule_equals_arrival_outcome_on_every_feasible_state(pool):
    policy, dims, capacity = pool
    states = list(feasible_states(dims, capacity))
    rows = np.array(states, dtype=np.int64).reshape(len(states), len(dims))
    for dim in range(len(dims)):
        out = arrival_outcomes(policy, rows, dim, dims, capacity)
        for i, counts in enumerate(states):
            tr = arrival_outcome(policy, counts, dim, dims, capacity, 1.0)
            assert tuple(out.target[i].tolist()) == tr.target
            assert outcome_kind(policy, dim, out, i) == tr.kind
            assert EVENT_KINDS[out.kind[i]] == tr.kind
            assert (out.downgraded[i], out.discarded[i]) == (tr.downgraded, tr.discarded)


@pytest.mark.parametrize("setup", ["narrow", "wide"])
def test_array_rule_matches_bruteforce_oracle(setup):
    dims, cap = (small_dims("NC3"), 8) if setup == "narrow" else wide_goose_dims()
    states = list(feasible_states(dims, cap))
    out = arrival_outcomes("NC3", np.array(states), 0, dims, cap)
    for i, counts in enumerate(states):
        admitted, k, j = oracle_nc3_goose(counts, dims, cap)
        assert out.rejected[i] == (not admitted)
        assert (out.downgraded[i], out.discarded[i]) == (k, j)
    dims = small_dims("NC2")
    states = list(feasible_states(dims, 8))
    out = arrival_outcomes("NC2", np.array(states), 0, dims, 8)
    for i, counts in enumerate(states):
        assert (not out.rejected[i], out.discarded[i]) == oracle_nc2_goose(counts, dims, 8)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_class_validation_errors():
    with pytest.raises(ValueError, match="downgraded demand must be smaller"):
        TrafficClass(2, 1.0, 1.0, 2, 5, "low", adaptive=True,
                     downgraded_demand_blocks=2).validate()
    with pytest.raises(ValueError, match="service rate"):
        TrafficClass(1, 1.0, 0.0, 1, 5).validate()
    with pytest.raises(ValueError, match="demand"):
        TrafficClass(1, 1.0, 1.0, 0, 5).validate()
    with pytest.raises(ValueError, match="non-adaptive"):
        TrafficClass(1, 1.0, 1.0, 2, 5, downgraded_demand_blocks=1).validate()


def test_build_dimensions_policy_constraints():
    with pytest.raises(ValueError, match="priority-free"):
        build_dimensions("NC1", table2_classes("NC2"), 62)
    with pytest.raises(ValueError, match="exactly two"):
        build_dimensions("NC2", [table2_classes("NC2")[0]], 62)
    with pytest.raises(ValueError, match="adaptive"):
        build_dimensions("NC3", table2_classes("NC2"), 62)
    with pytest.raises(ValueError, match="unknown policy"):
        build_dimensions("NC4", table2_classes("NC1"), 62)


def test_nc3_downgraded_dimension_shape():
    dims = dims_for("NC3")
    assert [d.demand_blocks for d in dims] == [1, 2, 1]
    assert [d.max_sessions for d in dims] == [62, 31, 62]
    assert dims[2].arrival_rate == 0.0
    assert dims[2].service_rate == dims[1].service_rate  # defaults to full rate
    assert dims[2].downgraded
