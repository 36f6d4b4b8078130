"""Exact and numerical solutions used as oracles and for steady-state reports.

Contains the Kaufman-Roberts occupancy recursion (valid for the non-priority
pool), the chain compiler, generator-matrix assembly for all three policies
from one compiled arc table, a preconditioned Krylov steady-state solve, and
transient probabilities by uniformization.

The chain compiler resolves the arcs of a whole array of states at once, one
slot of :func:`ranburst.traffic.transitions` at a time, with the array form
of the admission rule (:func:`ranburst.traffic.arrival_outcomes`).
``transitions`` stays the per-state specification and is not called here;
it is still imported under its name, which the benchmark's tracer
(``perfbench/tracer.py``) wraps to count per-state calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, StateSpaceLimitError
from .traffic import (  # noqa: F401  (``transitions``: see the module docstring)
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

# Steady state: incomplete LU (minimum-degree ordering of A^T + A) as the
# preconditioner of restarted GMRES; the complete factor is the fallback.
ILU_DROP_TOL = 1e-4
ILU_FILL_FACTOR = 10
GMRES_RESTART = 50
GMRES_MAXITER = 20
GMRES_RTOL = 1e-14


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


@dataclass(frozen=True)
class StateSpace:
    """Dense enumeration of feasible states with a state<->index bijection.

    ``table`` is the chain compiled while the space was walked
    (:func:`reachable_states`, :func:`build_generator`), or None.
    """

    states: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    dims: tuple[Dimension, ...]
    capacity: int
    table: ChainTable | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.states)


def _state_rows(space: StateSpace) -> np.ndarray:
    if space.table is not None:
        return space.table.counts
    return np.array(space.states, dtype=np.int64).reshape(len(space), len(space.dims))


def _state_keys(dims: list[Dimension], capacity: int, rows: np.ndarray):
    """A function from state rows to one exact, hashable key per row.

    It is exact on ``rows`` and on every arc target out of them. A state in
    the box ``0 <= c_d < r_d``, ``r_d = min(max_sessions, C // demand) + 1``,
    which holds every feasible state, is keyed by its mixed-radix number in
    the box when ``rows`` lie in it and the box has fewer than ``2**63``
    points; the policy rule and departures never lead out of the box.
    Otherwise a state is keyed by the bytes of its row.
    """
    radix = [min(d.max_sessions, capacity // d.demand_blocks) + 1 for d in dims]
    if math.prod(radix) < 2**63 and ((rows >= 0) & (rows < radix)).all():
        weights = np.array([math.prod(radix[i + 1:]) for i in range(len(radix))],
                           dtype=np.int64)
        return lambda block: block @ weights
    return lambda block: np.ascontiguousarray(block, dtype=np.int64).view(
        np.dtype((np.void, 8 * len(dims)))).ravel()


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


def _compile_rows(
    policy: str,
    dims: list[Dimension],
    capacity: int,
    rows: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Every arc out of each row of ``rows``, ordered by row, then slot.

    Returns ``(source, target, rate, rejected, slot)``: ``source`` indexes
    ``rows``, ``target`` holds the arcs' target rows (a rejected arrival's
    is its source row), and the rest are as in :class:`ChainTable`. Each
    slot of :func:`~ranburst.traffic.transitions` is resolved for all rows
    at once: the arrival of each dimension with a positive arrival rate, in
    dimension order, then the departure of each occupied dimension.
    """
    m, n = rows.shape
    arriving = [d for d in dims if d.arrival_rate > 0]
    # One column per slot kind: each arrival, then each departure. A state
    # has an arc of each kind but the departures of its empty dimensions,
    # and its slots number its arcs in column order.
    a = len(arriving)
    target = np.empty((m, a + n, n), dtype=np.int64)
    rate = np.empty((m, a + n))
    rejected = np.full((m, a + n), -1, dtype=np.intp)
    present = np.ones((m, a + n), dtype=bool)
    for k, d in enumerate(arriving):
        out = arrival_outcomes(policy, rows, d.index, dims, capacity)
        target[:, k] = out.target
        rate[:, k] = d.arrival_rate
        rejected[out.rejected, k] = d.index
    target[:, a:] = rows[:, None, :] - np.eye(n, dtype=np.int64)
    rate[:, a:] = rows * np.array([d.service_rate for d in dims])
    present[:, a:] = rows > 0
    slot = np.cumsum(present, axis=1) - 1
    source = np.nonzero(present)[0]
    return (source, target.reshape(-1, n)[present.ravel()], rate[present],
            rejected[present], slot[present])


def _table_for(space: StateSpace, policy: str, dims, capacity: int) -> ChainTable:
    """The space's own table when it was compiled for these arguments, else
    a fresh compile over ``space.states``."""
    if space.table is not None and space.table.compiled_for(policy, dims, capacity):
        return space.table
    dims = list(dims)
    counts = _state_rows(space)
    source, target_rows, rate, rejected, slot = _compile_rows(
        policy, dims, capacity, counts)
    key = _state_keys(dims, capacity, counts)
    index = dict(zip(key(counts).tolist(), range(len(counts))))
    moves = rejected < 0
    ids = np.fromiter(map(index.get, key(target_rows[moves]).tolist(), repeat(-1)),
                      dtype=np.intp, count=int(np.count_nonzero(moves)))
    if (ids < 0).any():
        raise KeyError(tuple(target_rows[moves][np.argmax(ids < 0)].tolist()))
    target = source.copy()
    target[moves] = ids
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
    """All feasible states (caps respected, occupancy within capacity)."""
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
    index = {s: i for i, s in enumerate(states)}
    return StateSpace(states=states, index=index, dims=tuple(dims), capacity=capacity)


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
    direct admissions reach (:func:`_admission_rays`), so a long line of
    states costs one step. It raises :class:`StateSpaceLimitError` once it
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
    first = np.array([start], dtype=np.int64).reshape(1, len(dims))
    key = _state_keys(dims, capacity, first)
    index = dict.fromkeys(key(first).tolist(), 0)  # state key -> number
    found = [first]  # blocks of states in the order they were numbered
    arcs = []
    expanded = 0
    for block in found:  # grows while it is walked
        for lo in range(0, len(block), FRONTIER_CHUNK):
            frontier = block[lo:lo + FRONTIER_CHUNK]
            source, target_rows, rate, rejected, slot = _compile_rows(
                policy, dims, capacity, frontier)
            source += expanded
            target = source.copy()
            moves = rejected < 0
            target_rows = np.concatenate(
                (target_rows[moves], _admission_rays(dims, capacity, frontier, limit)))
            keys, at, inverse = np.unique(key(target_rows), return_index=True,
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
    # Number the states in sorted order; arcs stay ordered by source.
    order = np.lexsort(counts.T[::-1])
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
    states = list(map(tuple, counts.tolist()))
    index = dict(zip(states, range(len(states))))
    return StateSpace(states=states, index=index, dims=tuple(dims), capacity=capacity,
                      table=table)


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
    ``space.states``; the returned space carries the table used.
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
    by an incomplete LU factor (minimum-degree ordering of ``A^T + A``). A
    solution is accepted when it is finite, its residual ``max |pi Q|`` is at
    most ``tol`` and no state has mass below ``-tol``; if the incomplete
    factor gives none, the solve is repeated once with the complete factor.
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
        ilu = spla.spilu(a, drop_tol=ILU_DROP_TOL, fill_factor=ILU_FILL_FACTOR,
                         permc_spec="MMD_AT_PLUS_A")
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
    """``poisson.pmf(k, mean)`` for integer ``k >= 0``."""
    from scipy.special import gammaln, xlogy

    return np.clip(np.exp(xlogy(k, mean) - gammaln(k + 1) - mean), 0.0, 1.0)


def transient(
    q: sp.spmatrix,
    pi0: np.ndarray,
    t: float,
    eps: float = 1e-9,
) -> np.ndarray:
    """State distribution at time ``t`` by uniformization.

    Sums the Poisson-weighted powers ``v_k = pi0 P^k`` of the uniformized
    jump matrix ``P = I + Q / lam``. The l1 error against ``pi0 exp(Q t)``
    is at most ``eps * sum(pi0)`` (``pi0`` may be sub-stochastic), Poisson
    tail plus cut:

    * the Poisson tail beyond ``k_max = poisson_isf(eps, lam t) + 1`` is
      dropped;
    * the sum stops at the first step ``k`` whose iterates provably stop
      moving. ``P`` is non-negative with rows summing to 1, so
      ``d_k = |v_k - v_{k-1}|_1`` never grows and ``|v_{k+j} - v_k|_1 <=
      j d_k``. Putting all the remaining Poisson mass on ``v_k`` therefore
      moves the sum by at most ``d_k J_k``, where ``J_k`` is the remaining
      mass times the expected number of remaining steps. The stop is taken
      once ``d_k J_k`` fits in what the dropped tail leaves of ``eps``, or
      once ``d_k`` is exactly 0: from there every later iterate is the same
      array, so the stop changes only the order of the additions.

    No stationary distribution is needed, and the cost follows the chain's
    mixing time rather than ``lam t``.
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
    # Row vector times P is P^T times a column vector: one CSR mat-vec a step.
    pt = (sp.eye(n, format="csr") + q.tocsr() / lam).T.tocsr()
    mean = lam * t
    k_max = poisson_isf(eps, mean) + 1

    weights = poisson_pmf(np.arange(k_max + 1), mean)
    # tail[k]: Poisson mass from step k on; reach[k] = J_k = sum of tail[m]
    # for m > k, both as sums of non-negative terms (no cancellation).
    tail = np.cumsum(weights[::-1])[::-1]
    reach = np.append(np.cumsum(tail[:0:-1])[::-1], 0.0)
    neglected = max(0.0, 1.0 - float(weights.sum()))
    budget = max(0.0, eps - neglected) * float(pi0.sum())
    out = weights[0] * pi0
    scratch = np.empty_like(pi0)
    v = pi0
    for k in range(1, k_max + 1):
        prev, v = v, pt @ v
        np.subtract(v, prev, out=scratch)
        if float(np.abs(scratch, out=scratch).sum()) * reach[k] <= budget:
            np.multiply(v, tail[k], out=scratch)
            out += scratch
            return out
        np.multiply(v, weights[k], out=scratch)
        out += scratch
    return out


def occupancy_marginal(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """Aggregate a state distribution by occupied blocks (0..C)."""
    demands = np.array([d.demand_blocks for d in space.dims], dtype=np.int64)
    return np.bincount(_state_rows(space) @ demands, weights=pi,
                       minlength=space.capacity + 1)


def mean_counts(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """Expected sessions per dimension under a state distribution."""
    states = np.asarray(_state_rows(space), dtype=float)
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
