"""Exact and numerical solutions used as oracles and for steady-state reports.

Contains the Kaufman-Roberts occupancy recursion (valid for the non-priority
pool), the chain search, which compiles each state it finds once, the chain
compiler (:func:`_compile`, which builds every :class:`ChainTable`),
generator-matrix assembly for all three policies from that arc table, a
preconditioned Krylov steady-state solve, whose incomplete factor is taken
of ``Q`` itself and applied transposed, and transient probabilities by
uniformization. Uniformization drops negligible mass, multiplies only the
band of rows its iterate can reach and stops once its iterates provably
stop moving; it forms no Poisson weight below the left truncation point
(Fox and Glynn), so a sum that stops before it, as at any long horizon,
puts the whole Poisson mass on its last iterate. Its l1 error, the Poisson
mass it leaves out plus twice the dropped mass plus the stationarity cut,
is within ``eps``, and its cost is the steps taken times the band, whatever
the horizon.

This module and the simulator share one state key, a state's number in the
box of session counts (:class:`_StateBox`), whose rank numbers states here;
one enumerator of feasible states (:meth:`_StateBox.rows`); and one chain
compiler (:func:`_compile`). For an array of states it lays out each state's
arcs, the arrival of each dimension in a given list, in that order, then
the departure of each occupied dimension ``i`` at ``n_i μ_i``, and fills
every column of a :class:`ChainTable`: the targets, rates and rejections
the generator reads, and the event columns the simulator records. The
arrivals are resolved with the array rule
(:func:`ranburst.traffic.arrival_outcomes`). ``transitions`` stays the
per-state specification and is not called here; it is still imported under
its name, which the benchmark's tracer (``perfbench/tracer.py``) wraps to
count per-state calls. scipy is imported inside the functions that use it,
so that a simulation never loads it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, StateSpaceLimitError
from .traffic import (  # noqa: F401  (``transitions``: see the module docstring)
    _KIND_CODE,
    ARRIVAL_REJECTED,
    DEPARTURE,
    Dimension,
    TrafficClass,
    _reject_duplicate_ids,
    arrival_outcomes,
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
# ordering scatters the band and gives a larger, slower factor. The factor is
# taken of Q with its last column set to ones, the transpose of the bordered
# system, and applied transposed: SuperLU builds it in less than half the time
# it takes over the bordered system itself (11-14 against 29-32 ms on the
# 22,352-state NC3 burst chains, 2-core x86-64 host), with GMRES still at 8-10
# iterations there. Of the drop tolerances 1e-2, 3e-2 and 1e-1, 3e-2 was
# fastest over the bundled scenarios' chains and random small pools without
# needing the complete factor; 1e-1 needed it on some random pools. The
# complete factor, the fallback, keeps a minimum-degree ordering because fill
# is what costs there.
ILU_DROP_TOL = 3e-2
GMRES_RESTART = 50
GMRES_MAXITER = 20
GMRES_RTOL = 1e-14
# Uniformization: the share of the error budget that dropping negligible
# mass may spend (see :func:`transient`); the rest is left to the cut.
DROP_SHARE = 0.25
# The share of eps that the Poisson mass below the left point may hold.
LEFT_SHARE = 2.0**-20
# The stationarity check is skipped for CHECK_SKIP steps after one whose
# bound misses the remaining budget by more than a factor of CHECK_MISS.
CHECK_MISS = 64.0
CHECK_SKIP = 3
# Poisson counts are exact doubles up to 2**53; no truncation point passes it
# for a mean up to 2**52.
MAX_POISSON_MEAN = 2.0**52
# Counts tested at once by a search for a truncation point (:func:`_least`):
# every bracket of a mean up to about 1.5e4 takes one evaluation.
SEARCH_POINTS = 1024
# Occupancy recursion: once an unnormalised g(c) passes 2**900, every entry
# so far is multiplied by 2**-900. A power-of-two scale is exact (an entry
# pushed below the normal range loses bits, but it is then below 2**-1000 of
# the largest), so g stays finite at heavy loads, and q is unchanged on any
# pool whose g never passes the threshold, such as every bundled scenario's.
_G_RESCALE_ABOVE = 2.0**900
_G_RESCALE = 2.0**-900
_REJECTED = _KIND_CODE[ARRIVAL_REJECTED]


@dataclass(frozen=True)
class OccupancyDistribution:
    """Probability mass over occupied blocks 0..C plus per-class blocking."""

    q: np.ndarray
    blocking: dict[int, float]  # class id -> blocking probability


def cap_binds(cls: TrafficClass, capacity: int) -> bool:
    """Whether ``cls``'s session cap binds below what ``capacity`` already
    enforces, which :func:`kaufman_roberts` cannot honor."""
    return cls.max_sessions < capacity // cls.demand_blocks


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
        if cap_binds(cls, capacity):
            raise ValueError(
                f"class {cls.id}: session cap {cls.max_sessions} binds below "
                f"capacity; the recursion cannot honor it"
            )
    _reject_duplicate_ids(classes)

    loads = [(c.arrival_rate / c.service_rate, c.demand_blocks) for c in classes]
    g = np.zeros(capacity + 1)
    g[0] = 1.0
    # A load too large for one step to stay finite is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(1, capacity + 1):
            acc = 0.0
            for a, d in loads:
                if d <= c:
                    acc += a * d * g[c - d]
            g[c] = acc = acc / c
            if acc > _G_RESCALE_ABOVE:
                # The recursion is linear in g, so scaling every entry so far
                # by a power of two changes no ratio of them, and so not q.
                g[:c + 1] *= _G_RESCALE
        q = g / g.sum()
    if not np.isfinite(q).all():
        raise NumericalError(
            "the occupancy recursion overflowed: a class's offered load is too large")

    blocking = {
        cls.id: float(q[capacity - cls.demand_blocks + 1:].sum()) for cls in classes
    }
    return OccupancyDistribution(q=q, blocking=blocking)


def _int_dtype(bound: int) -> type:
    """int16 if it holds every integer from 0 to ``bound``, else int32.

    A session holds at least one block, so session counts, downgrade and
    discard counts are bounded by the capacity, dimension indices by the
    number of dimensions, and state indices by the number of states.
    """
    return np.int16 if bound <= np.iinfo(np.int16).max else np.int32


@dataclass(frozen=True)
class ChainTable:
    """Every arc of a policy's chain over a list of states, as arrays.

    ``counts`` holds the states as rows. Arcs are ordered by source; a
    row's arcs are the arrival of each dimension in the compiled arrival
    list, in that order, then the departure of each occupied dimension
    ``i`` at ``n_i μ_i``. Arc ``a`` leaves row ``source[a]`` for
    ``target[a]`` at ``rate[a]``: the target's box key as compiled
    (:func:`_compile`, which builds every table), its state number in a
    space's table (:func:`_table_for`). ``kind[a]`` indexes
    :data:`~ranburst.traffic.EVENT_KINDS`; an ``arrival_rejected`` arc is a
    self-loop. ``dim[a]`` is the arriving or departing dimension, and
    ``downgraded[a]`` and ``discarded[a]`` count sessions as
    :class:`~ranburst.traffic.Transition` does. ``kind`` is
    int8; ``dim``, ``downgraded`` and ``discarded`` are int16 or int32
    (:func:`_int_dtype` of the capacity and the number of dimensions).
    """

    policy: str
    dims: tuple[Dimension, ...]
    capacity: int
    counts: np.ndarray
    source: np.ndarray
    target: np.ndarray
    rate: np.ndarray
    kind: np.ndarray
    dim: np.ndarray
    downgraded: np.ndarray
    discarded: np.ndarray

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
    over ``counts`` (:func:`_table_for`) once the space was found
    (:func:`reachable_states`) or a generator built on it
    (:func:`build_generator`), or None. Two spaces are equal when their
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
    int64, or exact Python ints in object arrays past int64. ``size`` is the
    number of keys. ``arriving`` lists the dimensions with a positive arrival
    rate, in order: the arrival slots of every compiled state."""

    def __init__(self, dims: list[Dimension], capacity: int):
        self.dims, self.capacity = list(dims), capacity
        self.arriving = [d.index for d in dims if d.arrival_rate > 0]
        self.demand = np.array([d.demand_blocks for d in dims], dtype=np.int64)
        radix = [min(d.max_sessions, capacity // d.demand_blocks) + 1 for d in dims]
        self.radix = np.array(radix, dtype=np.int64)
        self.size = math.prod(radix)
        wide = self.size > np.iinfo(np.int64).max
        self.weights = np.array([math.prod(radix[i + 1:]) for i in range(len(radix))],
                                dtype=object if wide else np.int64)

    def keys(self, rows) -> np.ndarray:
        """The key of each state row (the last axis holds the counts)."""
        return np.asarray(rows, dtype=np.int64) @ self.weights

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """The counts of each key, as rows."""
        return (keys[..., None] // self.weights % self.radix).astype(np.int64)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The feasible states whose keys lie in ``[lo, hi)``, as rows in key
        order.

        The rows are built one dimension at a time. The keys of a prefix of
        counts form one range, so each step keeps the prefixes that fit in
        the capacity and whose range meets ``[lo, hi)``. Each kept prefix but
        the one holding ``lo`` completes with zeros to a returned row, so the
        cost follows the rows returned.
        """
        lo, hi = max(lo, 0), min(hi, self.size)  # int64 keys stay in range
        rows = np.zeros((1, 0), dtype=np.int64)
        base = np.zeros(1, dtype=self.weights.dtype)  # the least key of each prefix
        free = np.full(1, self.capacity, dtype=np.int64)
        for d, r, w in zip(self.demand.tolist(), self.radix.tolist(), self.weights.tolist()):
            first = np.maximum((lo - base) // w, 0).astype(np.int64)
            last = np.minimum((hi - 1 - base) // w, np.minimum(free // d, r - 1))
            length = np.maximum(last.astype(np.int64) - first + 1, 0)
            parent = np.repeat(np.arange(len(rows)), length)
            count = np.arange(len(parent)) - np.repeat(np.cumsum(length) - length - first, length)
            rows = np.column_stack((rows[parent], count))
            base = base[parent] + count.astype(base.dtype) * w
            free = free[parent] - count * d
        return rows


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
        # The cap read below C // demand, as the box reads it, fits int64.
        length = np.minimum(min(d.max_sessions, capacity // d.demand_blocks),
                            free[base] // d.demand_blocks)
        if length.sum() > limit:
            raise StateSpaceLimitError(int(length.sum()), limit)
        ray = np.repeat(rows[base], length, axis=0)
        starts = np.cumsum(length) - length
        ray[:, d.index] = np.arange(1, len(ray) + 1) - np.repeat(starts, length)
        rays.append(ray)
    return np.concatenate(rays)


def _compile(policy: str, box: _StateBox, rows: np.ndarray, arrivals: list[int]) -> ChainTable:
    """Every arc out of each feasible state of ``rows``, compiled at once:
    the one compiled form of the chain, for the analytic layer
    (:func:`_table_for`) and the simulator alike.

    A row's arcs are the arrival of each dimension in ``arrivals``, in that
    order, then the departure of each occupied dimension ``i`` at
    ``n_i μ_i``. Each arrival is resolved by the policy's admission rule
    (:func:`~ranburst.traffic.arrival_outcomes`, called nowhere else in the
    package); a rejected one is a self-loop. Targets are keyed by ``box``.
    Raises ``RuntimeError`` when an arrival target is not a feasible state,
    whose key would alias another state's.
    """
    m, n = rows.shape
    a, w = len(arrivals), len(arrivals) + n
    small = _int_dtype(max(box.capacity, n))
    # Every column laid out by row, then slot: the arrivals, then one
    # departure per dimension, of which the occupied ones are kept.
    arrived = np.empty((m, a, n), dtype=np.int64)
    rate = np.empty((m, w))
    kind = np.full((m, w), _KIND_CODE[DEPARTURE], dtype=np.int8)
    dim = np.empty((m, w), dtype=small)
    dim[:] = [*arrivals, *range(n)]
    downgraded, discarded = np.zeros((2, m, w), dtype=small)
    for s, i in enumerate(arrivals):
        out = arrival_outcomes(policy, rows, i, box.dims, box.capacity)
        arrived[:, s], kind[:, s] = out.target, out.kind
        downgraded[:, s], discarded[:, s] = out.downgraded, out.discarded
        rate[:, s] = box.dims[i].arrival_rate
    # A negative count wraps past every radix as uint64.
    outside = arrived.view(np.uint64) >= box.radix.view(np.uint64)
    over = arrived @ box.demand > box.capacity
    if outside.any() or over.any():
        r, s = divmod(int(np.argmax(outside.any(axis=-1) | over)), a)
        raise RuntimeError(
            f"compiling the chain gave infeasible state {tuple(arrived[r, s].tolist())}, "
            f"the target of an arc out of {tuple(rows[r].tolist())}")
    rate[:, a:] = rows * np.array([d.service_rate for d in box.dims])
    # Keys are linear in the counts: a departure's target key is its row's
    # key less the key of one session of its dimension.
    target = np.concatenate(
        (box.keys(arrived), box.keys(rows)[:, None] - box.keys(np.eye(n, dtype=np.int64))),
        axis=1)
    present = np.concatenate((np.ones((m, a), dtype=bool), rows > 0), axis=1)
    return ChainTable(
        policy=policy, dims=tuple(box.dims), capacity=box.capacity, counts=rows,
        source=np.flatnonzero(present) // w, target=target[present], rate=rate[present],
        kind=kind[present], dim=dim[present], downgraded=downgraded[present],
        discarded=discarded[present])


def _table_for(space: StateSpace, policy: str, dims, capacity: int) -> ChainTable:
    """The space's own table when it was compiled for these arguments, such
    as the one :func:`reachable_states` leaves, else every arc out of each
    state of ``space.counts``: the arrival of each dimension with a positive
    arrival rate, in dimension order, then the departure of each occupied
    dimension (:func:`_compile`).

    A target is numbered by the rank of its key among the space's keys; a
    target outside the space raises ``KeyError``.
    """
    if space.table is not None and space.table.compiled_for(policy, dims, capacity):
        return space.table
    box = _StateBox(dims, capacity)
    table = _compile(policy, box, space.counts, box.arriving)
    keys = box.keys(space.counts)
    target = np.searchsorted(keys, table.target)
    missing = keys[np.minimum(target, len(keys) - 1)] != table.target
    if missing.any():
        raise KeyError(tuple(box.decode(table.target[[np.argmax(missing)]])[0].tolist()))
    return replace(table, target=target)


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
    that order for a banded generator. The states are the rows of the whole
    box (:meth:`_StateBox.rows`), listed only once their number, counted in
    exact integers, is known to be within ``limit``.
    """
    size = _count_feasible(dims, capacity)
    if size > limit:
        raise StateSpaceLimitError(size, limit)
    box = _StateBox(dims, capacity)
    return StateSpace(counts=box.rows(0, box.size), dims=tuple(dims), capacity=capacity)


def reachable_states(
    policy: str,
    dims: list[Dimension],
    capacity: int,
    *,
    limit: int = DEFAULT_STATE_LIMIT,
) -> StateSpace:
    """States reachable from the empty system.

    Needed when some dimension has no arrival stream (its states would be
    transient or unreachable and make the balance system singular). The
    search is breadth first: it compiles every arc of a whole frontier of
    states at once (:func:`_compile`) and keeps the targets it has not seen,
    found by one sort of the frontier's target keys and one set probe per
    distinct key, so a step's cost follows its own keys. Each step also adds
    the states that repeated direct admissions reach
    (:func:`_admission_rays`), so a long line of states costs one step.
    States are numbered in lexicographic order of their counts, whatever
    order the search found them in, which keeps the generator banded for
    :func:`steady_state`; the returned space's ``table`` is the frontiers'
    own tables put in that order (:func:`_in_key_order`), so each state is
    compiled once. It raises :class:`StateSpaceLimitError` once it has found
    more than ``limit`` states.
    """
    dims = list(dims)
    box = _StateBox(dims, capacity)
    first = np.zeros((1, len(dims)), dtype=np.int64)
    seen = set(box.keys(first).tolist())
    found = [first]  # blocks of states in the order they were found
    tables = []  # the compiled frontiers, in the same order
    for block in found:  # grows while it is walked
        for lo in range(0, len(block), FRONTIER_CHUNK):
            frontier = block[lo:lo + FRONTIER_CHUNK]
            table = _compile(policy, box, frontier, box.arriving)
            tables.append(table)
            keys = np.sort(np.concatenate((
                table.target[table.kind != _REJECTED],
                box.keys(_admission_rays(dims, capacity, frontier, limit)))))
            distinct = np.ones(len(keys), dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
            keys = keys[distinct]
            new = ~np.fromiter(map(seen.__contains__, keys.tolist()), dtype=bool,
                               count=len(keys))
            total = len(seen) + int(np.count_nonzero(new))
            if total > limit:
                raise StateSpaceLimitError(total, limit)
            seen.update(keys[new].tolist())
            found.append(box.decode(keys[new]))
    del seen, found  # before the tables are put in order, which is the peak
    table = _in_key_order(box, tables)
    return StateSpace(counts=table.counts, dims=tuple(dims), capacity=capacity, table=table)


def _in_key_order(box: _StateBox, tables: list[ChainTable]) -> ChainTable:
    """One table over the rows of ``tables``, put in key order: the table
    :func:`_table_for` would compile over the sorted rows.

    The rows of ``tables`` are distinct states whose arc targets are all
    among them. Each row's arcs keep their order and move as one range to
    the row's place in key order; each target is then numbered by the rank
    of its key.
    """
    counts = np.concatenate([t.counts for t in tables])
    keys = box.keys(counts)
    order = np.argsort(keys)
    counts, keys = counts[order], keys[order]
    # Arc a of the result is arc gather[a] of the tables' arcs end to end.
    width = np.concatenate([np.bincount(t.source, minlength=len(t.counts)) for t in tables])
    found_start = np.cumsum(width) - width
    width = width[order]
    start = np.cumsum(width) - width
    gather = np.repeat(found_start[order] - start, width) + np.arange(width.sum())
    columns = {name: np.concatenate([getattr(t, name) for t in tables])[gather]
               for name in ("target", "rate", "kind", "dim", "downgraded", "discarded")}
    # In key order the target keys run close to sorted, which makes their
    # binary searches cheap.
    columns["target"] = np.searchsorted(keys, columns["target"])
    return replace(tables[0], counts=counts, source=np.repeat(np.arange(len(counts)), width),
                   **columns)


def build_generator(
    policy: str,
    dims: list[Dimension],
    capacity: int,
    space: StateSpace | None = None,
    limit: int = DEFAULT_STATE_LIMIT,
) -> tuple[StateSpace, sp.csr_matrix]:
    """Materialize the policy's transition system as a sparse rate matrix.

    Row ``i`` holds state ``i``'s arcs: the arrival of each dimension with a
    positive arrival rate, in dimension order, then the departure of each
    occupied dimension ``j`` at ``n_j μ_j``, less the rejected arrivals'
    self-loops (they cancel in a generator); then the diagonal. Row sums are
    zero by construction. The arcs come from ``space.table`` when it was
    compiled for these arguments, else from one compile over
    ``space.counts`` (:func:`_table_for`); the returned space carries the
    table used.
    """
    import scipy.sparse as sp

    if space is None:
        space = enumerate_states(dims, capacity, limit=limit)
    table = _table_for(space, policy, dims, capacity)
    if table is not space.table:
        space = replace(space, table=table)
    n = len(space)
    keep = table.kind != _REJECTED
    source, target, rate = table.source[keep], table.target[keep], table.rate[keep]
    # Each state's outflow, its arcs added one by one in their order, as a
    # per-state loop would add them.
    out = np.bincount(source, weights=rate, minlength=n)
    diagonal = np.arange(n)
    rows = np.concatenate((source, diagonal))
    # Each row: its arcs in their order, then the diagonal.
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
    that state's mass does. That system is the transpose of ``Q`` with its
    last column set to ones, which is built in CSC straight from ``Q``'s
    columns; both factors are taken of it and solved transposed
    (``solve(x, "T")``). Restarted GMRES solves the system, preconditioned
    by an incomplete LU factor in the states' own order: :func:`reachable_states`
    and :func:`enumerate_states` number states in lexicographic order of their
    counts, which keeps every arc, and so the factor's fill, within a band of
    rows. A solution is accepted when it is finite, its residual
    ``max |pi Q|`` is at most ``tol`` and no state has mass below ``-tol``; if
    the incomplete factor gives none, the solve is repeated once with the
    complete factor, taken in minimum-degree order of ``A^T + A`` (symmetric
    in structure, so the same for either orientation) to keep its fill
    small. Any numbering gives the same answer; one that scatters the
    band only makes the incomplete factor costlier or sends the solve to the
    complete one.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = q.shape[0]
    if n == 1:
        return np.ones(1)
    # at: Q with its last column set to ones, in CSC; the system is at^T.
    qc = q.tocsc()
    end = qc.indptr[n - 1]
    at = sp.csc_matrix(
        (np.concatenate((qc.data[:end], np.ones(n))),
         np.concatenate((qc.indices[:end], np.arange(n, dtype=qc.indices.dtype))),
         np.append(qc.indptr[:n], end + n)),
        shape=(n, n))
    a = at.T
    b = np.zeros(n)
    b[n - 1] = 1.0

    def solve(factor) -> tuple[np.ndarray, float]:
        pre = spla.LinearOperator(a.shape, lambda x: factor.solve(x, "T"))
        pi, _ = spla.gmres(a, b, rtol=GMRES_RTOL, atol=0.0, restart=GMRES_RESTART,
                           maxiter=GMRES_MAXITER, M=pre)
        return pi, float(np.abs(pi @ q).max())

    def accepted(pi: np.ndarray, residual: float) -> bool:
        return bool(np.isfinite(pi).all()) and residual <= tol and pi.min() >= -tol

    try:
        ilu = spla.spilu(at, drop_tol=ILU_DROP_TOL, permc_spec="NATURAL")
    except RuntimeError:  # a singular incomplete factor: try the complete one
        pi = None
    else:
        pi, residual = solve(ilu)
    if pi is None or not accepted(pi, residual):
        try:
            lu = spla.splu(at, permc_spec="MMD_AT_PLUS_A")
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


# Coefficients of the Stirling series of log(n!) (Loader 2000).
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
# log(n!) for n = 0..16, each correctly rounded: the terms below the series.
_LOG_FACTORIAL = np.array([math.log(math.factorial(n)) for n in range(17)])


def _stirling_error(n: np.ndarray) -> np.ndarray:
    """``log(n!) - log(sqrt(2 pi n) (n / e)^n)`` for integer ``n >= 1``.

    The Stirling series from ``n = 16`` on, where its five terms are exact
    to rounding; below, ``log(n!)`` is small and the difference loses
    nothing that matters.
    """
    s0, s1, s2, s3, s4 = _STIRLING
    nn = n * n
    series = (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / n
    small = np.minimum(n, 16)
    direct = (_LOG_FACTORIAL[small.astype(np.intp)] - (small + 0.5) * np.log(small) + small
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


def poisson_cut(eps: float, mean: float) -> int:
    """A count that a Poisson variable of mean ``mean > 0`` passes with
    probability at most ``eps``: the least ``k >= mean`` with
    ``deviance(k + 1, mean) >= log(1 / eps)``.

    For ``x >= mean`` the Chernoff bound ``P(N >= x) <= exp(-deviance(x,
    mean))`` holds, so ``P(N > k) <= eps`` at any mean, with the deviance
    of :func:`poisson_weights` and no inverse cdf. The bound is loose by a
    factor of about 16 there. Every candidate is below ``mean + sqrt(2 mean
    L) + L``, ``L = log(1 / eps)``, where the Bernstein form of the bound,
    ``deviance(mean + a) >= a^2 / (2 (mean + a / 3))``, already passes ``L``;
    the search over that bracket (:func:`_least`) takes bounded memory. A
    mean that is not positive or passes ``MAX_POISSON_MEAN``, where counts
    stop being exact doubles (infinity and NaN among them), raises
    ``ValueError``.
    """
    level = _poisson_level(eps, mean, "eps")
    lo, hi = math.ceil(mean), math.ceil(mean + math.sqrt(2 * mean * level) + level)
    return _least(lambda ks: _deviance(ks + 1.0, mean) >= level, lo, hi)


def poisson_left(delta: float, mean: float) -> int:
    """The greatest count ``L`` below which a Poisson variable of mean
    ``mean > 0`` lies with probability at most ``delta``, by the Chernoff
    bound ``P(N <= x) <= exp(-deviance(x, mean))`` for ``x <= mean``.

    ``L`` is 0 when even ``P(N = 0) = exp(-mean)`` passes ``delta``, that is
    when ``mean < log(1 / delta)``; else it is the least ``x >= 1`` with
    ``deviance(x, mean) < log(1 / delta)``, so that ``L - 1`` is the greatest
    count whose bound passes and ``L`` is the first whose bound fails. It is
    above ``mean - sqrt(2 mean log(1 / delta))``, where ``deviance(mean -
    a) >= a^2 / (2 mean)`` already passes, and at most ``mean``.
    """
    level = _poisson_level(delta, mean, "delta")
    if mean < level:
        return 0
    lo = max(1, math.floor(mean - math.sqrt(2 * mean * level)))
    return _least(lambda ks: _deviance(ks, mean) < level, lo, math.floor(mean))


def _poisson_level(p: float, mean: float, name: str) -> float:
    """``log(1 / p)`` for a truncation point's probability ``p``, once ``p``
    and ``mean`` are checked."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {p}")
    if not 0.0 < mean <= MAX_POISSON_MEAN:
        raise ValueError(
            f"the Poisson mean must be positive and at most 2**52, got {mean}")
    return -math.log(p)


def _least(test, lo: int, hi: int) -> int:
    """The least count ``k`` in ``[lo, hi]`` at which ``test`` holds, for a
    test that fails below some count and holds from there on (``hi`` if it
    holds nowhere). ``test`` takes an array of counts as doubles.

    Each round tests at most ``SEARCH_POINTS`` evenly spaced counts and keeps
    the gap after the last that fails, up to the first that holds, so memory
    stays bounded at any width and a bracket of ``SEARCH_POINTS`` counts or
    fewer takes one evaluation.
    """
    while True:
        step = max(1, (hi - lo + SEARCH_POINTS - 2) // (SEARCH_POINTS - 1))
        ks = np.arange(lo, hi + 1, step)
        held = test(ks.astype(np.float64))
        i = int(np.argmax(held))
        if not held[i]:
            if ks[-1] == hi:
                return hi
            lo = int(ks[-1]) + 1
        elif step == 1 or i == 0:
            return int(ks[i])
        else:
            lo, hi = int(ks[i - 1]) + 1, int(ks[i])


# scipy.sparse._sparsetools, bound by the first band product; csr_matvec is
# looked up on it at each call.
_sparsetools = None


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
    global _sparsetools
    if _sparsetools is None:
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
    jump matrix ``P = I + Q / lam``, dropping negligible mass as it goes and
    stopping once the iterates provably stop moving (fast adaptive
    uniformization, Mateescu et al., IET Syst. Biol. 2010), with the left
    truncation point of Fox and Glynn (CACM 1988). The l1 error against
    ``pi0 exp(Q t)`` is at most ``eps |pi0|``, ``|pi0| = sum(pi0)`` (``pi0``
    may be sub-stochastic). With ``N`` Poisson of mean ``lam t``, ``k_max =
    poisson_cut(eps, lam t)`` and the left point ``L = poisson_left(delta,
    lam t)``, ``delta = LEFT_SHARE eps``, so that ``P(N < L) <= delta``:

    * ``d_k = |v_{k-1} P - v_{k-1}|_1`` is measured on the computed
      iterates at step ``k``, before the step's drop. The exact
      continuation ``v_{k-1} P^j`` never moves by more than ``d_k`` a step,
      so putting the Poisson mass of the terms from ``k`` on on ``v_{k-1}
      P`` moves the sum by at most ``d_k J_k``, ``J_k`` their mass times
      the expected number of remaining steps;
    * after each step, the entries of the iterate at or below ``theta``
      before its first and after its last entry above ``theta`` are set to
      0 and their mass added to ``dropped``; entries between those two are
      kept. The drop is there to narrow the band, and dropping less keeps
      the bound. ``P`` is non-negative with rows summing to at most 1, so a
      drop moves every later iterate by at most its mass in l1: the
      iterates summed before a stop, and the exact continuation summed in
      their place, each lie within ``dropped`` of the exact ones. ``theta``
      is ``DROP_SHARE`` of the budget in force over ``k_max n``, so no run
      drops more than ``DROP_SHARE eps |pi0|``. A step that leaves no entry
      above ``theta`` (only a ``q`` whose rows sum below 0, which loses
      mass, can) drops the whole iterate and ends the sum, whose later
      terms are all 0;
    * up to step ``L`` no Poisson weight is formed and nothing is
      accumulated, so a call's cost follows the steps it takes, not ``lam
      t``. A stop at step ``k <= L`` puts the whole Poisson mass on the
      step's iterate. The weights of the terms before ``k`` sum to at most
      ``delta`` and each such term is off by at most ``2 |pi0|``, and ``J_k
      = E[(N - k)^+] <= lam t - k + k delta``, so the error is at most
      ``2 delta |pi0| + d_k J_k + 2 dropped``; the stop is taken once that
      fits in ``eps |pi0|``;
    * a sum that reaches ``L`` forms the weights of ``[L, k_max]``
      (:func:`poisson_weights`) and sums them as a truncated sum. Their
      missing mass, ``neglected``, is what lies below ``L`` and past
      ``k_max`` (near ``eps / 16``), and the budget becomes ``(eps -
      neglected) |pi0|``. A stop at step ``k`` puts the window's mass from
      ``k`` on on the step's iterate and is taken once ``d_k J_k + 2
      dropped`` fits in the budget. A sum that runs to ``k_max`` is off by
      ``neglected |pi0| + dropped``, within ``eps |pi0|`` since the tail
      past ``poisson_cut`` stays below ``(1 - DROP_SHARE) eps - delta``
      (at most 0.35 ``eps`` at means up to 5,000, ``eps`` up to 0.5);
    * either stop is also taken once ``d_k`` is exactly 0: from there every
      later iterate is the same array, so the stop changes only the order
      of the additions. The check's difference and norm are skipped for
      ``CHECK_SKIP`` steps after a check whose ``d_k J_k`` passes what the
      budget leaves after ``2 dropped`` by a factor of ``CHECK_MISS``; a
      skipped check can only delay a stop, so the bound holds.

    Each step multiplies only the band of rows the iterate can reach. When
    every nonzero of ``v`` lies in ``[lo, hi)``, every nonzero of ``v P``
    lies in ``[lo - down, hi + up)``, where ``up`` and ``down`` are the
    largest upward and downward index shifts (target - source) of an arc of
    ``q``; ``P^T`` and the shifts are read from one ``q.tocsc()``. A step
    is one call of the CSR kernel over that band (:func:`_band_product`)
    and at most six passes over it: the difference to the last iterate and
    its l1 norm (BLAS ``dasum``) when checked, the compare with ``theta``
    (the first and last entry above it are then found by ``memchr`` from
    each end), a multiply and an add of the weighted iterate into the
    result from ``L`` on, and clearing the last iterate. The cost is the
    steps taken times the band's nonzeros. States numbered so that arcs
    stay near the diagonal (:func:`reachable_states`,
    :func:`enumerate_states`) keep the band narrow; a scattered numbering
    widens it to every row, which gives the same answer at the cost of a
    full product a step. No stationary distribution is needed, and the
    number of steps follows the chain's mixing time rather than ``lam t``.
    A Poisson mean ``lam t`` past ``MAX_POISSON_MEAN`` raises
    ``ValueError``.
    """
    import scipy.sparse as sp
    from scipy.linalg.blas import dasum

    t = float(t)
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    n = q.shape[0]
    pi0 = np.asarray(pi0, dtype=float)
    if pi0.shape != (n,):
        raise ValueError(f"pi0 must have shape ({n},), got {pi0.shape}")
    if not np.isfinite(pi0).all() or (pi0 < 0).any():
        raise ValueError("pi0 must be finite and non-negative")
    rate = float(-q.diagonal().min())
    support = np.flatnonzero(pi0)
    if t == 0 or rate == 0 or not len(support):
        return pi0.copy()

    lam = rate * 1.02  # small margin keeps the jump matrix strictly substochastic
    mean = lam * t
    k_max = poisson_cut(eps, mean)
    delta = LEFT_SHARE * eps
    left = poisson_left(delta, mean)
    # Row vector times P is P^T times a column vector: one CSR mat-vec a
    # step. Q's columns are the rows of Q^T, and an arc's shift (target -
    # source) is its column less its row in Q. The entries are scaled by
    # 1 / lam, as scipy's q / lam scales them, so P^T is bit for bit the
    # matrix I + q / lam transposed.
    qc = q.tocsc()
    pt = (sp.csr_matrix((qc.data * (1 / lam), qc.indices, qc.indptr), shape=(n, n))
          + sp.eye(n, format="csr"))
    shift = np.repeat(np.arange(n), np.diff(qc.indptr)) - qc.indices
    up, down = int(shift.max(initial=0)), -int(shift.min(initial=0))
    mass = float(pi0.sum())

    def window() -> tuple:
        """The weights of ``[left, k_max]``; ``tail[i]``, their mass from
        ``left + i`` on; ``reach[i] = J_(left+i)``, the sum of ``tail[j]`` for
        ``j > i``, both as sums of non-negative terms (no cancellation); and
        the budget and ``theta`` they leave."""
        weights = poisson_weights(np.arange(left, k_max + 1), mean)
        tail = np.cumsum(weights[::-1])[::-1]
        reach = np.append(np.cumsum(tail[:0:-1])[::-1], 0.0)
        budget = max(0.0, eps - (1.0 - float(weights.sum()))) * mass
        return weights, tail, reach, budget, DROP_SHARE * budget / (k_max * n)

    budget = (eps - 2.0 * delta) * mass
    theta = DROP_SHARE * budget / (k_max * n)
    if left == 0:
        weights, tail, reach, budget, theta = window()
        out = weights[0] * pi0
    dropped = 0.0
    skip = 0  # checks still to skip
    # v holds the iterate, nonzero only in [lo, hi); y, the next iterate's
    # buffer, is all zeros at the start of each step. above marks the
    # entries over theta in the bytes of marks, whose find and rfind
    # (memchr from either end) give the first and last mark.
    v, y, scratch = pi0.copy(), np.zeros(n), np.empty(n)
    marks = bytearray(n)
    above = np.frombuffer(marks, dtype=bool)
    lo, hi = int(support[0]), int(support[-1]) + 1
    for k in range(1, k_max + 1):
        r0, r1 = max(lo - down, 0), min(hi + up, n)
        _band_product(pt, v, y, r0, r1)
        new = y[r0:r1]
        if skip:
            skip -= 1
        else:
            diff = scratch[r0:r1]
            np.subtract(new, v[r0:r1], out=diff)
            moved = dasum(diff) * (mean - k + k * delta if k <= left else reach[k - left])
            if moved + 2.0 * dropped <= budget:
                if k <= left:  # the whole Poisson mass on this iterate
                    return y
                np.multiply(new, tail[k - left], out=diff)
                out[r0:r1] += diff
                return out
            if moved > CHECK_MISS * (budget - 2.0 * dropped):
                skip = CHECK_SKIP
        np.greater(new, theta, out=above[r0:r1])  # with theta = 0, the nonzeros
        v[lo:hi] = 0.0
        v, y = y, v
        lo, hi = marks.find(1, r0, r1), marks.rfind(1, r0, r1) + 1
        if lo < 0:  # nothing above theta: the whole iterate is dropped
            return out if k > left else np.zeros(n)
        # Drop the runs at or below theta at either end of the band.
        for a, b in ((r0, lo), (hi, r1)):
            if a < b:
                dropped += dasum(v[a:b])
                v[a:b] = 0.0
        if k < left:
            continue
        if k == left:
            weights, tail, reach, budget, theta = window()
            out = np.zeros(n)
        # Not BLAS daxpy: OpenBLAS hands one of more than 10,000 entries to a
        # worker thread, whose spin after each call slows the next steps.
        np.multiply(v[lo:hi], weights[k - left], out=scratch[lo:hi])
        out[lo:hi] += scratch[lo:hi]
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
            mass = pi[table.source[(table.kind == _REJECTED) & (table.dim == d.index)]]
            blocking[d.index] = float(np.cumsum(mass)[-1]) if len(mass) else 0.0
    return blocking
