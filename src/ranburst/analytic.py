"""Exact and numerical solutions used as oracles and for steady-state reports.

Contains the Kaufman-Roberts occupancy recursion (valid for the non-priority
pool), generator-matrix assembly for all three policies from one compiled arc
table, a preconditioned Krylov steady-state solve, and transient
probabilities by uniformization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, StateSpaceLimitError
from .traffic import (
    ARRIVAL_REJECTED,
    Dimension,
    TrafficClass,
    transitions,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_STATE_LIMIT = 5_000_000

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


def _compile(
    policy: str,
    dims: list[Dimension],
    capacity: int,
    states: list[tuple[int, ...]],
    index: dict[tuple[int, ...], int],
    limit: int | None = None,
) -> ChainTable:
    """Walk ``states`` once, recording every arc in ``transitions`` order.

    With ``limit=None`` the states are fixed and an arc into a state outside
    ``index`` raises ``KeyError``. Otherwise each new target is appended to
    ``states`` and ``index`` (and walked in turn) while at most ``limit``
    states are known.
    """
    source: list[int] = []
    target: list[int] = []
    rate: list[float] = []
    rejected: list[int] = []
    slot: list[int] = []
    i = 0
    while i < len(states):
        for k, tr in enumerate(transitions(policy, states[i], dims, capacity)):
            if tr.kind == ARRIVAL_REJECTED:
                j, code = i, tr.dim
            else:
                code = -1
                j = index.get(tr.target)
                if j is None:
                    if limit is None:
                        raise KeyError(tr.target)
                    if len(states) >= limit:
                        raise StateSpaceLimitError(len(states) + 1, limit)
                    j = index[tr.target] = len(states)
                    states.append(tr.target)
            source.append(i)
            target.append(j)
            rate.append(tr.rate)
            rejected.append(code)
            slot.append(k)
        i += 1
    return ChainTable(
        policy=policy,
        dims=tuple(dims),
        capacity=capacity,
        counts=np.array(states, dtype=np.int64).reshape(len(states), len(dims)),
        source=np.array(source, dtype=np.intp),
        target=np.array(target, dtype=np.intp),
        rate=np.array(rate, dtype=float),
        rejected=np.array(rejected, dtype=np.intp),
        slot=np.array(slot, dtype=np.intp),
    )


def _table_for(space: StateSpace, policy: str, dims, capacity: int) -> ChainTable:
    """The space's own table when it was compiled for these arguments, else
    a fresh compile over ``space.states``."""
    if space.table is not None and space.table.compiled_for(policy, dims, capacity):
        return space.table
    return _compile(policy, list(dims), capacity, space.states, space.index)


def _count_feasible(dims: list[Dimension], capacity: int) -> int:
    def rec(i: int, free: int) -> int:
        if i == len(dims):
            return 1
        d = dims[i]
        top = min(d.max_sessions, free // d.demand_blocks)
        return sum(rec(i + 1, free - k * d.demand_blocks) for k in range(top + 1))

    return rec(0, capacity)


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
    search calls ``transitions`` once per state, and the arcs it sees become
    the returned space's ``table``.
    """
    if start is None:
        start = tuple(0 for _ in dims)
    found = [start]
    table = _compile(policy, dims, capacity, found, {start: 0}, limit=limit)
    # Number the states in sorted order and keep the arcs ordered by source.
    order = np.lexsort(table.counts.T[::-1])
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    source = rank[table.source]
    arcs = np.argsort(source, kind="stable")
    table = replace(
        table,
        counts=table.counts[order],
        source=source[arcs],
        target=rank[table.target][arcs],
        rate=table.rate[arcs],
        rejected=table.rejected[arcs],
        slot=table.slot[arcs],
    )
    states = [found[i] for i in order.tolist()]
    index = {s: i for i, s in enumerate(states)}
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
