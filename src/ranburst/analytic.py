"""Exact and numerical solutions used as oracles and for steady-state reports.

Contains the Kaufman-Roberts occupancy recursion (valid for the non-priority
pool), the chain compiler, generator-matrix assembly for all three policies
from one compiled arc table, a preconditioned Krylov steady-state solve, and
transient probabilities by uniformization. Uniformization drops negligible
mass and multiplies only the band of rows its iterate can reach; its l1 error
is the Poisson tail plus twice the dropped mass plus the stationarity cut,
within ``eps``, and its cost is the steps taken times the band.

This module and the simulator share one state key, a state's number in the
box of session counts (:class:`_StateBox`), whose rank numbers states here,
and one slot compiler (:func:`_resolve_slots`), which resolves every slot of
an array of states with the array rule
(:func:`ranburst.traffic.arrival_outcomes`). ``transitions`` stays the
per-state specification and is not called here; it is still imported under
its name, which the benchmark's tracer (``perfbench/tracer.py``) wraps to
count per-state calls.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, StateSpaceLimitError
from .traffic import (  # noqa: F401  (``transitions``: see the module docstring)
    _KIND_CODE,
    DEPARTURE,
    Dimension,
    TrafficClass,
    arrival_outcomes,
    feasible,
    transitions,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_STATE_LIMIT = 5_000_000
# States expanded per step of the chain search: bounds the arrays of one
# step and how far the search can pass its state limit before it stops.
FRONTIER_CHUNK = 1 << 14

# Steady state: restarted GMRES preconditioned by an incomplete LU factor
# taken in the states' own order. States are numbered in lexicographic order
# of their counts, so every arc of a generator stays within a band of rows
# and the incomplete factor keeps its fill inside that band; a fill-reducing
# ordering scatters the band and gives a larger, slower factor. Of the drop
# tolerances 1e-2, 3e-2 and 1e-1, 3e-2 was fastest over the bundled
# scenarios' chains and random small pools without needing the complete
# factor; 1e-1 needed it on some random pools. The complete factor, the
# fallback, keeps a minimum-degree ordering because fill is what costs there.
ILU_DROP_TOL = 3e-2
GMRES_RESTART = 50
GMRES_MAXITER = 20
GMRES_RTOL = 1e-14
# Uniformization: the share of the error budget that dropping negligible
# mass may spend (see :func:`transient`); the rest is left to the cut.
DROP_SHARE = 0.25


@dataclass(frozen=True)
class OccupancyDistribution:
    """Probability mass over occupied blocks 0..C plus per-class blocking."""

    q: np.ndarray
    blocking: dict[int, float]  # class id -> blocking probability


def kaufman_roberts(classes: list[TrafficClass], capacity: int) -> OccupancyDistribution:
    """Occupancy distribution and blocking of the non-priority block pool.

    Classic recursion ``c * g(c) = sum_i a_i * d_i * g(c - d_i)`` with
    offered loads ``a_i = arrival_rate / service_rate`` and integer block
    demands ``d_i``. Only valid when no class has priority or adaptivity and
    no per-class session cap binds below what capacity already enforces.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    for cls in classes:
        cls.validate()
        if cls.priority != "none" or cls.adaptive:
            raise ValueError(
                f"class {cls.id}: the occupancy recursion applies to "
                f"non-priority, non-adaptive classes only"
            )
        if cls.max_sessions < capacity // cls.demand_blocks:
            raise ValueError(
                f"class {cls.id}: session cap {cls.max_sessions} binds below "
                f"capacity; the recursion cannot honor it"
            )

    loads = [(c.arrival_rate / c.service_rate, c.demand_blocks) for c in classes]
    g = np.zeros(capacity + 1)
    g[0] = 1.0
    for c in range(1, capacity + 1):
        acc = 0.0
        for a, d in loads:
            if d <= c:
                acc += a * d * g[c - d]
        g[c] = acc / c
    q = g / g.sum()

    blocking = {
        cls.id: float(q[capacity - cls.demand_blocks + 1:].sum()) for cls in classes
    }
    return OccupancyDistribution(q=q, blocking=blocking)


@dataclass(frozen=True)
class ChainTable:
    """Every arc of a policy's chain over a list of states, as arrays.

    ``counts`` holds the states as rows. Arc ``a`` leaves state
    ``source[a]`` for state ``target[a]`` at ``rate[a]``; ``rejected[a]`` is
    the dimension whose arrival it rejects (a self-loop), or -1; ``slot[a]``
    is its position in the state's :func:`~ranburst.traffic.transitions`
    list. Arcs are ordered by source, then slot.
    """

    policy: str
    dims: tuple[Dimension, ...]
    capacity: int
    counts: np.ndarray
    source: np.ndarray
    target: np.ndarray
    rate: np.ndarray
    rejected: np.ndarray
    slot: np.ndarray

    def compiled_for(self, policy: str, dims, capacity: int) -> bool:
        return (self.policy, self.dims, self.capacity) == (policy, tuple(dims), capacity)


class _StateIndex(Mapping):
    """State tuple -> number over rows of counts in lexicographic order.

    A lookup is a binary search over the rows, so it builds no tuples but
    the dozen or so it compares.
    """

    def __init__(self, counts: np.ndarray):
        self._counts = counts

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self):
        return map(tuple, self._counts.tolist())

    def __getitem__(self, state):
        rows = self._counts
        i = bisect_left(rows, state, key=lambda row: tuple(row.tolist()))
        if i < len(rows) and tuple(rows[i].tolist()) == state:
            return i
        raise KeyError(state)


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Feasible states, numbered in lexicographic order of their counts.

    ``counts`` holds the states as rows, in that order. ``states`` (the rows
    as tuples) is built when first read; ``index`` maps a state tuple to its
    number by binary search over ``counts``. ``table`` is the chain compiled
    while the space was walked (:func:`reachable_states`,
    :func:`build_generator`), or None. Two spaces are equal when their
    dimensions, capacity and states are.
    """

    counts: np.ndarray
    dims: tuple[Dimension, ...]
    capacity: int
    table: ChainTable | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def states(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.counts.tolist()))

    @property
    def index(self) -> Mapping[tuple[int, ...], int]:
        return _StateIndex(self.counts)

    def __eq__(self, other):
        if not isinstance(other, StateSpace):
            return NotImplemented
        return ((self.dims, self.capacity) == (other.dims, other.capacity)
                and np.array_equal(self.counts, other.counts))


class _StateBox:
    """The box ``0 <= c_d < radix[d] = min(max_sessions, C // demand) + 1``,
    which holds every feasible state. A state's key is its mixed-radix number
    in the box, so keys sort as the counts do lexicographically; they are
    int64, or exact Python ints in object arrays past int64."""

    def __init__(self, dims: list[Dimension], capacity: int):
        self.dims, self.capacity = list(dims), capacity
        self.demand = np.array([d.demand_blocks for d in dims], dtype=np.int64)
        radix = [min(d.max_sessions, capacity // d.demand_blocks) + 1 for d in dims]
        self.radix = np.array(radix, dtype=np.int64)
        wide = math.prod(radix) > np.iinfo(np.int64).max
        self.weights = np.array([math.prod(radix[i + 1:]) for i in range(len(radix))],
                                dtype=object if wide else np.int64)

    def keys(self, rows) -> np.ndarray:
        """The key of each state row (the last axis holds the counts)."""
        return np.asarray(rows, dtype=np.int64) @ self.weights

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """The counts of each key, as rows."""
        return (keys[..., None] // self.weights % self.radix).astype(np.int64)


def _admission_rays(
    dims: list[Dimension], capacity: int, rows: np.ndarray, limit: int
) -> np.ndarray:
    """States reachable from ``rows`` by repeated direct admissions.

    For each dimension ``d`` with arrivals and each row with no session of
    ``d``, the rows with 1, 2, ... sessions of ``d`` up to the last that
    fits: every policy admits an arrival that fits directly. A chain search
    that adds them at once walks a long line of states in one step instead
    of one per state. The rays of one dimension are distinct states, so
    more than ``limit`` of them raise :class:`StateSpaceLimitError` before
    they are built.
    """
    demand = np.array([d.demand_blocks for d in dims], dtype=np.int64)
    free = capacity - rows @ demand
    rays = [np.empty((0, len(dims)), dtype=np.int64)]
    for d in dims:
        if d.arrival_rate <= 0:
            continue
        base = rows[:, d.index] == 0
        length = np.minimum(d.max_sessions, free[base] // d.demand_blocks)
        if length.sum() > limit:
            raise StateSpaceLimitError(int(length.sum()), limit)
        ray = np.repeat(rows[base], length, axis=0)
        starts = np.cumsum(length) - length
        ray[:, d.index] = np.arange(1, len(ray) + 1) - np.repeat(starts, length)
        rays.append(ray)
    return np.concatenate(rays)


def _departure_rays(start: np.ndarray, limit: int) -> np.ndarray:
    """States reachable from the state ``start`` by repeated departures of
    one dimension.

    For each dimension ``d``, the rows with ``start[d] - 1``, ..., 0
    sessions of ``d`` and the other counts of ``start``: every occupied
    dimension has a departure. Like :func:`_admission_rays`, they let a
    chain search walk a line without arrivals in one step. They are
    distinct states, none of them ``start``, so more than ``limit - 1`` of
    them raise :class:`StateSpaceLimitError` before they are built.
    """
    total = int(start.sum())
    if total + 1 > limit:
        raise StateSpaceLimitError(total + 1, limit)
    ray = np.repeat(start[None, :], total, axis=0)
    starts = np.cumsum(start) - start
    ray[np.arange(total), np.repeat(np.arange(len(start)), start)] = (
        np.arange(total) - np.repeat(starts, start))
    return ray


def _resolve_slots(
    policy: str, box: _StateBox, rows: np.ndarray, arriving: list[int]
) -> tuple[np.ndarray, ...]:
    """Every slot of each feasible state in ``rows``: the arrival of each
    dimension in ``arriving``, then each departure (an empty dimension's
    keeps the row). Returns ``(target, kind, downgraded, discarded,
    rejected)`` indexed by slot, then row: the target rows, then the columns
    of :class:`~ranburst.traffic.ArrivalOutcomes`. Raises ``RuntimeError``
    when an arrival target is not a feasible state."""
    m, n = rows.shape
    a = len(arriving)
    target = np.empty((a + n, m, n), dtype=np.int64)
    kind = np.full((a + n, m), _KIND_CODE[DEPARTURE], dtype=np.int8)
    downgraded, discarded = np.zeros((2, a + n, m), dtype=np.int64)
    rejected = np.zeros((a + n, m), dtype=bool)
    for s, i in enumerate(arriving):
        target[s], rejected[s], downgraded[s], discarded[s], kind[s] = arrival_outcomes(
            policy, rows, i, box.dims, box.capacity)
    # An out-of-box row would alias another state's key; a negative count
    # wraps past every radix as uint64.
    outside = target[:a].view(np.uint64) >= box.radix.view(np.uint64)
    over = target[:a] @ box.demand > box.capacity
    if outside.any() or over.any():
        s, r = divmod(int(np.argmax(outside.any(axis=-1) | over)), m)
        raise RuntimeError(
            f"compiling the chain gave infeasible state {tuple(target[s, r].tolist())}, "
            f"the target of an arc out of {tuple(rows[r].tolist())}")
    # A departure takes one session from a feasible row, so its target is feasible.
    for i in range(n):
        target[a + i] = rows
        target[a + i, :, i] -= rows[:, i] > 0
    return target, kind, downgraded, discarded, rejected


def _compile_rows(policy: str, box: _StateBox, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every arc out of each row of ``rows``, ordered by row, then slot.

    Returns ``(source, target, rate, rejected, slot)``: ``source`` indexes
    ``rows``, ``target`` holds the arcs' target rows (a rejected arrival's
    is its source row), and the rest are as in :class:`ChainTable`. The
    slots of :func:`~ranburst.traffic.transitions` are those of
    :func:`_resolve_slots` for the dimensions with a positive arrival rate,
    less the departures of empty dimensions.
    """
    m, n = rows.shape
    arriving = [d.index for d in box.dims if d.arrival_rate > 0]
    a = len(arriving)
    target, _, _, _, rejected = _resolve_slots(policy, box, rows, arriving)
    rate = np.empty((m, a + n))
    rate[:, :a] = [box.dims[i].arrival_rate for i in arriving]
    rate[:, a:] = rows * np.array([d.service_rate for d in box.dims])
    rejected = np.where(rejected.T, np.array([*arriving, *range(n)], dtype=np.intp), -1)
    # A state's slots number its arcs in column order.
    present = np.concatenate((np.ones((m, a), dtype=bool), rows > 0), axis=1)
    slot = np.cumsum(present, axis=1) - 1
    source = np.nonzero(present)[0]
    return (source, target.swapaxes(0, 1)[present], rate[present], rejected[present],
            slot[present])


def _table_for(space: StateSpace, policy: str, dims, capacity: int) -> ChainTable:
    """The space's own table when it was compiled for these arguments, else
    a fresh compile over ``space.counts``."""
    if space.table is not None and space.table.compiled_for(policy, dims, capacity):
        return space.table
    box = _StateBox(dims, capacity)
    counts = space.counts
    source, target_rows, rate, rejected, slot = _compile_rows(policy, box, counts)
    # A state's number is the rank of its key.
    keys, wanted = box.keys(counts), box.keys(target_rows)
    target = np.searchsorted(keys, wanted)
    missing = keys[np.minimum(target, len(keys) - 1)] != wanted
    if missing.any():
        raise KeyError(tuple(target_rows[np.argmax(missing)].tolist()))
    return ChainTable(policy=policy, dims=tuple(dims), capacity=capacity, counts=counts,
                      source=source, target=target, rate=rate, rejected=rejected, slot=slot)


def _count_feasible(dims: list[Dimension], capacity: int) -> int:
    """Number of feasible states, by dynamic programming over (dimension,
    free blocks) in exact integers."""
    # ways[f]: feasible counts of the dimensions after the current one that
    # fit in f free blocks.
    ways = [1] * (capacity + 1)
    for d in reversed(dims):
        step = d.demand_blocks
        # reach[f] = sum of ways[f - k * step] over every k >= 0 with
        # f - k * step >= 0; the session cap then cuts off k > max_sessions.
        reach = ways[:]
        for f in range(step, capacity + 1):
            reach[f] += reach[f - step]
        span = (d.max_sessions + 1) * step
        ways = [reach[f] - reach[f - span] if f >= span else reach[f]
                for f in range(capacity + 1)]
    return ways[capacity]


def enumerate_states(
    dims: list[Dimension],
    capacity: int,
    limit: int = DEFAULT_STATE_LIMIT,
) -> StateSpace:
    """All feasible states (caps respected, occupancy within capacity).

    States are numbered in lexicographic order of their counts, as
    :func:`reachable_states` numbers them; :func:`steady_state` relies on
    that order for a banded generator.
    """
    size = _count_feasible(dims, capacity)
    if size > limit:
        raise StateSpaceLimitError(size, limit)

    states: list[tuple[int, ...]] = []

    def rec(prefix: list[int], i: int, free: int) -> None:
        if i == len(dims):
            states.append(tuple(prefix))
            return
        d = dims[i]
        top = min(d.max_sessions, free // d.demand_blocks)
        for k in range(top + 1):
            prefix.append(k)
            rec(prefix, i + 1, free - k * d.demand_blocks)
            prefix.pop()

    rec([], 0, capacity)
    counts = np.array(states, dtype=np.int64).reshape(len(states), len(dims))
    return StateSpace(counts=counts, dims=tuple(dims), capacity=capacity)


def reachable_states(
    policy: str,
    dims: list[Dimension],
    capacity: int,
    start: tuple[int, ...] | None = None,
    limit: int = DEFAULT_STATE_LIMIT,
) -> StateSpace:
    """States reachable from ``start`` (default: the empty system).

    Needed when some dimension has no arrival stream (its states would be
    transient or unreachable and make the balance system singular). The
    search is breadth first: it resolves every arc of a whole frontier of
    states at once (:func:`_compile_rows`), and the arcs it sees become the
    returned space's ``table``. Each step also adds the states that repeated
    direct admissions reach (:func:`_admission_rays`), and the first step
    the states that repeated departures reach from ``start``
    (:func:`_departure_rays`), so a long line of states costs one step.
    States are numbered in lexicographic order of their counts, whatever
    order the search found them in, which keeps the generator banded for
    :func:`steady_state`. It raises :class:`StateSpaceLimitError` once it
    has found more than ``limit`` states, and ``ValueError`` when ``start``
    does not give one count per dimension or is not feasible.
    """
    dims = list(dims)
    if start is None:
        start = tuple(0 for _ in dims)
    if len(start) != len(dims):
        raise ValueError(f"start {tuple(start)} has {len(start)} counts for "
                         f"{len(dims)} dimensions")
    if not feasible(tuple(start), dims, capacity):
        raise ValueError(f"start {tuple(start)} is not a feasible state")
    start = np.array(start, dtype=np.int64).reshape(len(dims))
    first = np.concatenate((start[None, :], _departure_rays(start, limit)))
    box = _StateBox(dims, capacity)
    index = dict(zip(box.keys(first).tolist(), range(len(first))))  # state key -> number
    found = [first]  # blocks of states in the order they were numbered
    arcs = []
    expanded = 0
    for block in found:  # grows while it is walked
        for lo in range(0, len(block), FRONTIER_CHUNK):
            frontier = block[lo:lo + FRONTIER_CHUNK]
            source, target_rows, rate, rejected, slot = _compile_rows(policy, box, frontier)
            source += expanded
            target = source.copy()
            moves = rejected < 0
            target_rows = np.concatenate(
                (target_rows[moves], _admission_rays(dims, capacity, frontier, limit)))
            keys, at, inverse = np.unique(box.keys(target_rows), return_index=True,
                                          return_inverse=True)
            ids = np.fromiter(map(index.get, keys.tolist(), repeat(-1)), dtype=np.intp,
                              count=len(keys))
            new = np.flatnonzero(ids < 0)
            if len(new):
                known = len(index)
                if known + len(new) > limit:
                    raise StateSpaceLimitError(known + len(new), limit)
                ids[new] = np.arange(known, known + len(new))
                index.update(zip(keys[new].tolist(), ids[new].tolist()))
                found.append(target_rows[at[new]])
            target[moves] = ids[inverse.ravel()[:np.count_nonzero(moves)]]
            arcs.append((source, target, rate, rejected, slot))
            expanded += len(frontier)
    counts = np.concatenate(found)
    source, target, rate, rejected, slot = (np.concatenate(col) for col in zip(*arcs))
    # Number the states by the rank of their keys; arcs stay ordered by source.
    order = np.argsort(box.keys(counts))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    counts = counts[order]
    source = rank[source]
    arcs = np.argsort(source, kind="stable")
    table = ChainTable(
        policy=policy,
        dims=tuple(dims),
        capacity=capacity,
        counts=counts,
        source=source[arcs],
        target=rank[target][arcs],
        rate=rate[arcs],
        rejected=rejected[arcs],
        slot=slot[arcs],
    )
    return StateSpace(counts=counts, dims=tuple(dims), capacity=capacity, table=table)


def build_generator(
    policy: str,
    dims: list[Dimension],
    capacity: int,
    space: StateSpace | None = None,
    limit: int = DEFAULT_STATE_LIMIT,
) -> tuple[StateSpace, sp.csr_matrix]:
    """Materialize the policy's transition system as a sparse rate matrix.

    Rows match :func:`ranburst.traffic.transitions` exactly, except that
    rejected-arrival self-loops are omitted (they cancel in a generator).
    Row sums are zero by construction. The arcs come from ``space.table``
    when it was compiled for these arguments, else from one walk over
    ``space.counts``; the returned space carries the table used.
    """
    import scipy.sparse as sp

    if space is None:
        space = enumerate_states(dims, capacity, limit=limit)
    table = _table_for(space, policy, dims, capacity)
    if table is not space.table:
        space = replace(space, table=table)
    n = len(space)
    keep = table.rejected < 0
    source, target, rate = table.source[keep], table.target[keep], table.rate[keep]
    slot = table.slot[keep]
    # Each state's outflow, added in transitions order as a per-state loop
    # would add it: a state has at most one arc in each slot.
    out = np.zeros(n)
    for k in range(int(slot.max(initial=-1)) + 1):
        at = slot == k
        out[source[at]] += rate[at]
    diagonal = np.arange(n)
    rows = np.concatenate((source, diagonal))
    # Each row: its arcs in transitions order, then the diagonal.
    entries = np.argsort(rows, kind="stable")
    q = sp.csr_matrix(
        (np.concatenate((rate, -out))[entries],
         (rows[entries], np.concatenate((target, diagonal))[entries])),
        shape=(n, n),
    )
    return space, q


def steady_state(q: sp.spmatrix, tol: float = 1e-10) -> np.ndarray:
    """Stationary distribution: pi Q = 0, sum(pi) = 1, pi >= 0.

    Solves the transposed balance system with its last row replaced by the
    normalization constraint. The normalization row keeps every unknown on
    the scale of a probability; pinning one state's mass to 1 instead would
    scale the others by its inverse, which leaves the range of a double when
    that state's mass does. Restarted GMRES solves the system, preconditioned
    by an incomplete LU factor in the states' own order: :func:`reachable_states`
    and :func:`enumerate_states` number states in lexicographic order of their
    counts, which keeps every arc, and so the factor's fill, within a band of
    rows. A solution is accepted when it is finite, its residual
    ``max |pi Q|`` is at most ``tol`` and no state has mass below ``-tol``; if
    the incomplete factor gives none, the solve is repeated once with the
    complete factor, taken in minimum-degree order of ``A^T + A`` to keep its
    fill small. Any numbering gives the same answer; one that scatters the
    band only makes the incomplete factor costlier or sends the solve to the
    complete one.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = q.shape[0]
    if n == 1:
        return np.ones(1)
    qt = q.T.tocsr()
    a = sp.vstack([qt[:-1], sp.csr_matrix(np.ones((1, n)))], format="csc")
    b = np.zeros(n)
    b[n - 1] = 1.0

    def solve(factor) -> tuple[np.ndarray, float]:
        pre = spla.LinearOperator(a.shape, factor.solve)
        pi, _ = spla.gmres(a, b, rtol=GMRES_RTOL, atol=0.0, restart=GMRES_RESTART,
                           maxiter=GMRES_MAXITER, M=pre)
        return pi, float(np.abs(pi @ q).max())

    def accepted(pi: np.ndarray, residual: float) -> bool:
        return bool(np.isfinite(pi).all()) and residual <= tol and pi.min() >= -tol

    try:
        ilu = spla.spilu(a, drop_tol=ILU_DROP_TOL, permc_spec="NATURAL")
    except RuntimeError:  # a singular incomplete factor: try the complete one
        pi = None
    else:
        pi, residual = solve(ilu)
    if pi is None or not accepted(pi, residual):
        try:
            lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # SuperLU reports a singular factor this way
            raise NumericalError(f"steady-state factorization failed: {exc}") from exc
        pi, residual = solve(lu)
    if not np.isfinite(pi).all() or residual > tol:
        raise NumericalError(
            f"steady-state solve did not reach tolerance {tol:g} "
            f"(residual {residual:.3e})",
            residual=residual,
        )
    if pi.min() < -tol:
        raise NumericalError(
            f"steady-state solution has negative mass {pi.min():.3e}",
            residual=residual,
        )
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


# The Poisson weights of uniformization, computed as ``scipy.stats.poisson``
# computes them (bit for bit) from ``scipy.special`` alone: importing
# ``scipy.stats`` takes about a second, several times the rest of ranburst.
# scipy is imported inside the functions that use it, so that a simulation
# never loads it.


def poisson_isf(eps: float, mean: float) -> int:
    """``poisson.isf(eps, mean)``, about the least ``k`` with ``P(N > k) <= eps``.

    Inverts the cdf at ``1 - eps`` and steps back one count when the cdf
    there already reaches it, as scipy does. A search on the tail
    ``pdtrc(k, mean) <= eps`` would differ on some inputs: there ``1 - eps``
    rounds, and scipy's answer has a tail a little above ``eps``.
    """
    from scipy.special import pdtr, pdtrik

    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    q = 1.0 - eps
    k = math.ceil(pdtrik(q, mean))
    return k - 1 if k > 0 and pdtr(k - 1, mean) >= q else k


def poisson_pmf(k: np.ndarray, mean: float) -> np.ndarray:
    """``poisson.pmf(k, mean)`` for integer ``k >= 0``, by scipy's formula.

    Its exponent ``k log(mean) - log(k!) - mean`` is a difference of terms
    near ``mean log(mean)``, so each value has a relative error of about
    ``mean log(mean)`` units in the last place: at mean 1e5 the weights up
    to ``poisson_isf(1e-9, mean)`` lose 6e-11 more than the tail, and at
    mean 1e6 they sum above 1. :func:`transient` uses
    :func:`poisson_weights`.
    """
    from scipy.special import gammaln, xlogy

    return np.clip(np.exp(xlogy(k, mean) - gammaln(k + 1) - mean), 0.0, 1.0)


# Coefficients of the Stirling series of log(n!) (Loader 2000).
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


def _stirling_error(n: np.ndarray) -> np.ndarray:
    """``log(n!) - log(sqrt(2 pi n) (n / e)^n)`` for integer ``n >= 1``.

    The Stirling series from ``n = 16`` on, where its five terms are exact
    to rounding; below, ``log(n!)`` is small and the difference loses
    nothing that matters.
    """
    from scipy.special import gammaln

    s0, s1, s2, s3, s4 = _STIRLING
    nn = n * n
    series = (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / n
    small = np.minimum(n, 16)
    direct = (gammaln(small + 1) - (small + 0.5) * np.log(small) + small
              - 0.5 * math.log(2 * math.pi))
    return np.where(n > 15, series, direct)


def _deviance(x: np.ndarray, mean: float) -> np.ndarray:
    """``x log(x / mean) + mean - x`` for ``x >= 1``, without cancellation.

    Near the mean (``|x - mean| < 0.1 (x + mean)``) it is the series
    ``(x - mean) v + 2 x sum_j v^(2j+1) / (2j + 1)`` with ``v = (x - mean) /
    (x + mean)``; there ``|v| < 0.1`` and twelve terms reach rounding.
    """
    d = x - mean
    v = d / (x + mean)
    series, term, v2 = d * v, 2 * x * v, v * v
    for j in range(1, 13):
        term = term * v2
        series = series + term / (2 * j + 1)
    direct = x * np.log(x / mean) + mean - x
    return np.where(np.abs(d) < 0.1 * (x + mean), series, direct)


def poisson_weights(k: np.ndarray, mean: float) -> np.ndarray:
    """``poisson.pmf(k, mean)`` for integer ``k >= 0`` and ``mean > 0``,
    accurate at any mean.

    Loader's saddle-point form ``exp(-stirling(k) - deviance(k, mean)) /
    sqrt(2 pi k)`` (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000) has no term that grows with the mean: each value
    is within about 1e-13 of the exact one, relatively, from mean 1e2 to
    1e7, and the weights keep their mass.
    """
    k = np.asarray(k, dtype=np.float64)
    x = np.maximum(k, 1.0)
    w = np.exp(-_stirling_error(x) - _deviance(x, mean)) / np.sqrt(2 * math.pi * x)
    return np.where(k == 0, math.exp(-mean), w)


def _band_product(
    pt: sp.csr_matrix, v: np.ndarray, y: np.ndarray, r0: int, r1: int
) -> None:
    """Add rows ``r0:r1`` of ``pt @ v`` into ``y[r0:r1]``, in place.

    One call of scipy's own CSR kernel on the rows' slice of ``indptr``
    (entry offsets stay absolute) and a view of ``y``: no copy, and on a
    zeroed ``y`` the rows are bit for bit those of ``pt @ v``, which makes
    the same call over every row. The public ``pt[r0:r1] @ v`` copies the
    rows first and costs several times the product on a narrow band.
    """
    from scipy.sparse import _sparsetools

    _sparsetools.csr_matvec(r1 - r0, pt.shape[1], pt.indptr[r0:r1 + 1], pt.indices,
                            pt.data, v, y[r0:r1])


def transient(
    q: sp.spmatrix,
    pi0: np.ndarray,
    t: float,
    eps: float = 1e-9,
) -> np.ndarray:
    """State distribution at time ``t`` by uniformization.

    Sums the Poisson-weighted powers ``v_k = pi0 P^k`` of the uniformized
    jump matrix ``P = I + Q / lam``, dropping negligible mass as it goes
    (fast adaptive uniformization). The l1 error against ``pi0 exp(Q t)``
    is at most ``eps * sum(pi0)`` (``pi0`` may be sub-stochastic), Poisson
    tail plus twice the dropped mass plus cut:

    * the Poisson tail beyond ``k_max = poisson_isf(eps, lam t) + 1`` is
      dropped; the weights up to it are :func:`poisson_weights`, whose
      missing mass is the tail to rounding;
    * after each step, every entry of the iterate at or below ``theta`` is
      set to 0 and its mass added to ``dropped``. ``P`` is non-negative
      with rows summing to 1, so a drop of ``delta`` moves every later
      iterate by at most ``delta`` in l1: the iterates summed before the
      cut, and the exact continuation summed in its place, each lie within
      ``dropped`` of the exact ones. ``theta = drop_budget / (k_max n)``,
      where ``drop_budget`` is ``DROP_SHARE`` of what the tail leaves of
      ``eps``, so no run can drop more than that share;
    * the sum stops at the first step ``k`` whose iterates provably stop
      moving. ``d_k = |v_{k-1} P - v_{k-1}|_1`` is measured on the computed
      iterates, before the step's drop; the exact continuation
      ``v_{k-1} P^j`` then never moves by more than ``d_k`` a step, so
      putting all the remaining Poisson mass on ``v_{k-1} P`` moves the sum
      by at most ``d_k J_k``, where ``J_k`` is the remaining mass times the
      expected number of remaining steps. The stop is taken once
      ``d_k J_k + 2 dropped`` fits in what the tail leaves of ``eps``, or
      once ``d_k`` is exactly 0: from there every later iterate is the
      same array, so the stop changes only the order of the additions.

    Each step multiplies only the band of rows the iterate can reach. When
    every nonzero of ``v`` lies in ``[lo, hi)``, every nonzero of ``v P``
    lies in ``[lo - down, hi + up)``, where ``up`` and ``down`` are the
    largest upward and downward index shifts (target - source) of an arc of
    ``q``; the difference, the sum and the drop also run over that band.
    The cost is the steps taken times the band's nonzeros. States numbered
    so that arcs stay near the diagonal (:func:`reachable_states`,
    :func:`enumerate_states`) keep the band narrow; a scattered numbering
    widens it to every row, which gives the same answer at the cost of a
    full product a step. No stationary distribution is needed, and the
    number of steps follows the chain's mixing time rather than ``lam t``.
    """
    import scipy.sparse as sp

    t = float(t)
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    n = q.shape[0]
    pi0 = np.asarray(pi0, dtype=float)
    if pi0.shape != (n,):
        raise ValueError(f"pi0 must have shape ({n},), got {pi0.shape}")
    if not np.isfinite(pi0).all() or (pi0 < 0).any():
        raise ValueError("pi0 must be finite and non-negative")
    rate = float(-q.diagonal().min())
    if t == 0 or rate == 0:
        return pi0.copy()

    lam = rate * 1.02  # small margin keeps the jump matrix strictly substochastic
    q = q.tocsr()
    # Row vector times P is P^T times a column vector: one CSR mat-vec a step.
    pt = (sp.eye(n, format="csr") + q / lam).T.tocsr()
    shift = q.indices - np.repeat(np.arange(n), np.diff(q.indptr))
    up, down = int(shift.max(initial=0)), -int(shift.min(initial=0))
    mean = lam * t
    k_max = poisson_isf(eps, mean) + 1

    weights = poisson_weights(np.arange(k_max + 1), mean)
    # tail[k]: Poisson mass from step k on; reach[k] = J_k = sum of tail[m]
    # for m > k, both as sums of non-negative terms (no cancellation).
    tail = np.cumsum(weights[::-1])[::-1]
    reach = np.append(np.cumsum(tail[:0:-1])[::-1], 0.0)
    neglected = max(0.0, 1.0 - float(weights.sum()))
    budget = max(0.0, eps - neglected) * float(pi0.sum())
    theta = DROP_SHARE * budget / (k_max * n)
    dropped = 0.0
    out = weights[0] * pi0
    # v holds the iterate, nonzero only in [lo, hi); y, the next iterate's
    # buffer, is all zeros at the start of each step.
    v, y, scratch = pi0.copy(), np.zeros(n), np.empty(n)
    mask = np.empty(n, dtype=bool)
    support = np.flatnonzero(v)
    lo, hi = (int(support[0]), int(support[-1]) + 1) if len(support) else (0, 0)
    for k in range(1, k_max + 1):
        r0, r1 = max(lo - down, 0), min(hi + up, n)
        _band_product(pt, v, y, r0, r1)
        new, diff, small = y[r0:r1], scratch[r0:r1], mask[r0:r1]
        np.subtract(new, v[r0:r1], out=diff)
        # An empty band has d_k = 0 and always stops here.
        if float(np.abs(diff, out=diff).sum()) * reach[k] + 2.0 * dropped <= budget:
            np.multiply(new, tail[k], out=diff)
            out[r0:r1] += diff
            return out
        np.less_equal(new, theta, out=small)  # with theta = 0, the zeros only
        dropped += float(np.dot(new, small))
        np.putmask(new, small, 0.0)
        np.multiply(new, weights[k], out=diff)
        out[r0:r1] += diff
        v[lo:hi] = 0.0
        v, y = y, v
        first, last = int(np.argmin(small)), len(small) - int(np.argmin(small[::-1]))
        lo, hi = (r0, r0) if small[first] else (r0 + first, r0 + last)
    return out


def occupancy_marginal(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """Aggregate a state distribution by occupied blocks (0..C)."""
    demands = np.array([d.demand_blocks for d in space.dims], dtype=np.int64)
    return np.bincount(space.counts @ demands, weights=pi,
                       minlength=space.capacity + 1)


def mean_counts(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """Expected sessions per dimension under a state distribution."""
    states = np.asarray(space.counts, dtype=float)
    return states.T @ pi


def blocking_from_generator(
    policy: str, space: StateSpace, pi: np.ndarray
) -> dict[int, float]:
    """Per-dimension rejection probability implied by a state distribution.

    Probability that an arrival of each dimension (with a positive arrival
    rate) finds the system in a state where the policy rejects it outright
    (downgraded admissions are not rejections). Each sum runs over the
    rejecting states in index order (a sequential ``cumsum``, not a pairwise
    ``sum``), as a per-state loop adds.
    """
    table = _table_for(space, policy, space.dims, space.capacity)
    pi = np.asarray(pi, dtype=float)
    blocking = {}
    for d in space.dims:
        if d.arrival_rate > 0:
            mass = pi[table.source[table.rejected == d.index]]
            blocking[d.index] = float(np.cumsum(mass)[-1]) if len(mass) else 0.0
    return blocking
