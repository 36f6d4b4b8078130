"""Exact and numerical solutions used as oracles and for steady-state reports.

Contains the Kaufman-Roberts occupancy recursion (valid for the non-priority
pool), generator-matrix assembly for all three policies, a direct sparse
steady-state solve, and transient probabilities by uniformization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import gammaln, pdtr, pdtrik, xlogy

from .errors import NumericalError, StateSpaceLimitError
from .traffic import (
    ARRIVAL_REJECTED,
    Dimension,
    TrafficClass,
    occupied,
    transitions,
)

DEFAULT_STATE_LIMIT = 5_000_000


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
class StateSpace:
    """Dense enumeration of feasible states with a state<->index bijection."""

    states: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    dims: tuple[Dimension, ...]
    capacity: int

    def __len__(self) -> int:
        return len(self.states)


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
    transient or unreachable and make the balance system singular).
    """
    if start is None:
        start = tuple(0 for _ in dims)
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for tr in transitions(policy, state, dims, capacity):
            if tr.kind == ARRIVAL_REJECTED:
                continue
            if tr.target not in seen:
                if len(seen) >= limit:
                    raise StateSpaceLimitError(len(seen) + 1, limit)
                seen.add(tr.target)
                frontier.append(tr.target)
    states = sorted(seen)
    index = {s: i for i, s in enumerate(states)}
    return StateSpace(states=states, index=index, dims=tuple(dims), capacity=capacity)


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
    Row sums are zero by construction.
    """
    if space is None:
        space = enumerate_states(dims, capacity, limit=limit)
    n = len(space)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i, state in enumerate(space.states):
        out = 0.0
        for tr in transitions(policy, state, dims, capacity):
            if tr.kind == ARRIVAL_REJECTED:
                continue
            j = space.index[tr.target]
            rows.append(i)
            cols.append(j)
            vals.append(tr.rate)
            out += tr.rate
        rows.append(i)
        cols.append(i)
        vals.append(-out)
    q = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return space, q


def steady_state(q: sp.spmatrix, tol: float = 1e-10) -> np.ndarray:
    """Stationary distribution: pi Q = 0, sum(pi) = 1, pi >= 0.

    Solves the transposed balance system with its last row replaced by the
    normalization constraint, with iterative refinement until the residual
    ``max |pi Q|`` is below ``tol``. The normalization row keeps every
    unknown on the scale of a probability; pinning one state's mass to 1
    instead would scale the others by its inverse, which leaves the range of
    a double when that state's mass does. SuperLU factors the system
    with the minimum-degree ordering of ``A^T + A``, which keeps the fill
    about four times below that of its default column ordering.
    """
    n = q.shape[0]
    if n == 1:
        return np.ones(1)
    qt = q.T.tocsr()
    a = sp.vstack([qt[:-1], sp.csr_matrix(np.ones((1, n)))], format="csc")
    b = np.zeros(n)
    b[n - 1] = 1.0

    try:
        lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU reports a singular factor this way
        raise NumericalError(f"steady-state factorization failed: {exc}") from exc
    pi = lu.solve(b)
    for _ in range(3):
        residual = float(np.abs(pi @ q).max())
        if residual <= tol:
            break
        pi += lu.solve(b - a @ pi)
    residual = float(np.abs(pi @ q).max())
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


def poisson_isf(eps: float, mean: float) -> int:
    """``poisson.isf(eps, mean)``, about the least ``k`` with ``P(N > k) <= eps``.

    Inverts the cdf at ``1 - eps`` and steps back one count when the cdf
    there already reaches it, as scipy does. A search on the tail
    ``pdtrc(k, mean) <= eps`` would differ on some inputs: there ``1 - eps``
    rounds, and scipy's answer has a tail a little above ``eps``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    q = 1.0 - eps
    k = math.ceil(pdtrik(q, mean))
    return k - 1 if k > 0 and pdtr(k - 1, mean) >= q else k


def poisson_pmf(k: np.ndarray, mean: float) -> np.ndarray:
    """``poisson.pmf(k, mean)`` for integer ``k >= 0``."""
    return np.clip(np.exp(xlogy(k, mean) - gammaln(k + 1) - mean), 0.0, 1.0)


def transient(
    q: sp.spmatrix,
    pi0: np.ndarray,
    t: float,
    eps: float = 1e-9,
) -> np.ndarray:
    """State distribution at time ``t`` by uniformization.

    Poisson-weighted sum of powers of the uniformized jump matrix, truncated
    adaptively so the neglected probability mass is at most ``eps``.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    pi0 = np.asarray(pi0, dtype=float)
    rate = float(-q.diagonal().min())
    if t == 0 or rate == 0:
        return pi0.copy()

    lam = rate * 1.02  # small margin keeps the jump matrix strictly substochastic
    # Row vector times P is P^T times a column vector: one CSR mat-vec a step.
    pt = (sp.eye(q.shape[0], format="csr") + q.tocsr() / lam).T.tocsr()
    mean = lam * t
    k_max = poisson_isf(eps, mean) + 1

    weights = poisson_pmf(np.arange(k_max + 1), mean)
    out = weights[0] * pi0
    v = pi0
    for k in range(1, k_max + 1):
        v = pt @ v
        out += weights[k] * v
    return out


def occupancy_marginal(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """Aggregate a state distribution by occupied blocks (0..C)."""
    out = np.zeros(space.capacity + 1)
    dims = list(space.dims)
    for state, mass in zip(space.states, pi):
        out[occupied(state, dims)] += mass
    return out


def mean_counts(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """Expected sessions per dimension under a state distribution."""
    states = np.asarray(space.states, dtype=float)
    return states.T @ pi


def blocking_from_generator(
    policy: str, space: StateSpace, pi: np.ndarray
) -> dict[int, float]:
    """Per-dimension rejection probability implied by a state distribution.

    Probability that an arrival of each dimension (with a positive arrival
    rate) finds the system in a state where the policy rejects it outright
    (downgraded admissions are not rejections).
    """
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
