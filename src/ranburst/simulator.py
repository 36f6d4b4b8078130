"""Event-driven Monte-Carlo simulation of the policy chains.

Two engines walk the same chain, with a burst-injection schedule layered on
top and deterministic per-replication seeding; identical (scenario, seed)
pairs reproduce trajectories bit for bit. Both walk one compiled chain
(:class:`_Chain`) by integer state key; it lives for one ``run_experiment``
or ``run_replication`` call. A key is the state's number in the analytic
layer's box (:class:`~ranburst.analytic._StateBox`). The chain is compiled
one block of keys at a time, when a walk first enters the block, by the
analytic layer's slot compiler (:func:`~ranburst.analytic._resolve_slots`),
which proves every arrival target feasible. The scalar
:func:`~ranburst.traffic.arrival_outcome` is not called here; it is still
imported under its name, with ``feasible`` and ``kaufman_roberts``, which
the benchmark's tracer (``perfbench/tracer.py``) wraps to count calls.

* The direct engine (the default) samples the continuous-time chain: an
  exponential holding time at the total outgoing rate, then an arc picked
  proportionally to its rate.
* The coupled engine (``crn=True``) thins policy-independent candidate
  streams: arrival instants, injected offers, and per-class departure
  candidates with their marks. Two scenarios that differ only in policy
  share all of these, so their difference has a small variance (common
  random numbers). They do not share per-session service times: the
  engine tracks counts, not sessions.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .analytic import FRONTIER_CHUNK, _resolve_slots, _StateBox, kaufman_roberts
from .errors import ScenarioError
from .numerology import RadioConfig
from .traffic import (  # noqa: F401  (``arrival_outcome``: see the module docstring)
    _KIND_CODE,
    EVENT_KINDS,
    Dimension,
    TrafficClass,
    arrival_outcome,
    build_dimensions,
    feasible,
)

BATCH = "batch"
POISSON = "poisson"
BATCH_PLUS_POISSON = "batch_plus_poisson"
INJECTION_MODES = (BATCH, POISSON, BATCH_PLUS_POISSON)

# Most points a reporting grid (``horizon_ms / grid_ms + 1``) may have: 80 MB
# per gridded curve. The bundled scenarios use 601; the long-run checks of the
# simulator use up to 2.7M at the default 10 ms step.
MAX_GRID_POINTS = 10_000_000

# Largest injection ``batch_size``. A batch records one event per offer, even
# once every offer is rejected: a replication with 1,000,000 offers holds
# 17 MB of record columns and peaks near 170 MB while it runs. The bundled
# scenarios use at most 52.
MAX_BATCH_SIZE = 1_000_000

# Most events a replication may expect: the horizon times the event-rate bound
# both engines respect, sum_d (arrival_rate + C * service_rate) plus the offer
# rate. A walk peaks near 106 bytes per event, so 1e7 events near 1 GB; the
# bundled scenarios reach at most 6.25e5 (``oracle_nc1_small``).
MAX_EXPECTED_EVENTS = 10_000_000

EMPTY_START = "empty_start"
STATIONARY_VIDEO_START = "stationary_video_start"
WARMUPS = (EMPTY_START, STATIONARY_VIDEO_START)


@dataclass(frozen=True)
class InjectionSchedule:
    """Burst of priority sessions entering at ``t_inject_ms``.

    * ``batch``: ``batch_size`` sessions offered back to back at the
      injection instant, each one walking the policy's admission cascade.
    * ``poisson``: offers arrive at ``poisson_rate`` per (scaled) second
      from the injection instant onward. With ``batch_size > 0`` the stream
      stops once that many sessions have been *admitted* -- the burst is a
      fixed amount of work that keeps being offered until delivered, the
      way an event-repetition burst behaves; with ``batch_size == 0`` it
      runs to the horizon.
    * ``batch_plus_poisson``: the batch at the injection instant plus an
      unbounded tail stream.
    """

    mode: str
    t_inject_ms: float
    batch_size: int = 0
    poisson_rate: float = 0.0

    def validate(self) -> None:
        if self.mode not in INJECTION_MODES:
            raise ScenarioError(f"unknown injection mode {self.mode!r}")
        if not (math.isfinite(self.t_inject_ms) and self.t_inject_ms >= 0):
            raise ScenarioError("injection time must be finite and >= 0")
        if self.batch_size < 0 or self.poisson_rate < 0:
            raise ScenarioError("injection batch size and rate must be >= 0")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ScenarioError(f"injection batch size must be at most {MAX_BATCH_SIZE}")
        if self.batch_size == 0 and self.poisson_rate == 0:
            raise ScenarioError("injection needs a batch size or a poisson rate")
        if self.mode in (BATCH, BATCH_PLUS_POISSON) and self.batch_size == 0:
            raise ScenarioError(f"{self.mode} injection needs batch_size > 0")
        if self.mode in (POISSON, BATCH_PLUS_POISSON) and self.poisson_rate == 0:
            raise ScenarioError(f"{self.mode} injection needs poisson_rate > 0")

    @property
    def has_batch(self) -> bool:
        return self.mode in (BATCH, BATCH_PLUS_POISSON)

    @property
    def has_stream(self) -> bool:
        return self.mode in (POISSON, BATCH_PLUS_POISSON)


@dataclass(frozen=True)
class Scenario:
    """A complete experiment description.

    ``time_scale`` multiplies every configured rate (class arrival and
    service rates and the injection rate); wall-clock keys such as the
    horizon and injection instant are untouched. It exists because nominal
    parameter sets may use a time unit far slower than the transient window
    of interest.
    """

    policy: str
    radio: RadioConfig
    classes: tuple[TrafficClass, ...]
    injection: InjectionSchedule | None
    horizon_ms: float
    warmup: str = EMPTY_START
    replications: int = 1
    base_seed: int = 0
    time_scale: float = 1.0
    early_stop_at_goose_cap: bool = False
    grid_ms: float = 10.0
    initial_counts: tuple[int, ...] | None = None
    label: str = ""
    description: str = ""
    figure: str = ""

    def dimensions(self) -> list[Dimension]:
        return build_dimensions(self.policy, list(self.classes), self.radio.capacity_blocks)

    def validate(self) -> None:
        try:
            dims = self.dimensions()
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if not (math.isfinite(self.horizon_ms) and self.horizon_ms > 0):
            raise ScenarioError("horizon must be positive and finite")
        if self.injection is not None:
            self.injection.validate()
            if self.injection.t_inject_ms >= self.horizon_ms:
                raise ScenarioError("horizon must exceed the injection time")
        if self.replications < 1:
            raise ScenarioError("replications must be >= 1")
        if self.warmup not in WARMUPS:
            raise ScenarioError(f"unknown warmup {self.warmup!r}")
        if self.warmup == STATIONARY_VIDEO_START and len(self.classes) < 2:
            raise ScenarioError("stationary_video_start needs a second (video) class")
        if not (math.isfinite(self.time_scale) and self.time_scale > 0):
            raise ScenarioError("time_scale must be positive and finite")
        if self.base_seed < 0:
            raise ScenarioError("base_seed must be >= 0")
        rate = sum(d.arrival_rate + self.radio.capacity_blocks * d.service_rate for d in dims)
        if self.injection is not None:
            rate += self.injection.poisson_rate
        if not rate * self.time_scale / 1000.0 * self.horizon_ms <= MAX_EXPECTED_EVENTS:
            raise ScenarioError(
                f"rates over horizon_ms allow more than {MAX_EXPECTED_EVENTS} events")
        if not (math.isfinite(self.grid_ms) and self.grid_ms > 0):
            raise ScenarioError("grid_ms must be positive and finite")
        steps = self.horizon_ms / self.grid_ms
        if not math.isfinite(steps) or round(steps) + 1 > MAX_GRID_POINTS:
            raise ScenarioError(
                f"horizon_ms / grid_ms gives more than {MAX_GRID_POINTS} grid points"
            )
        if self.initial_counts is not None:
            if len(self.initial_counts) != len(dims):
                raise ScenarioError(
                    f"initial_counts needs {len(dims)} entries, got {len(self.initial_counts)}"
                )
            if not feasible(tuple(self.initial_counts), dims, self.radio.capacity_blocks):
                raise ScenarioError("initial_counts is not a feasible state")


def _int_dtype(bound: int) -> type:
    """int16 if it holds every integer from 0 to ``bound``, else int32.

    A session holds at least one block, so session counts, downgrade and
    discard counts are bounded by the capacity, dimension indices by the
    number of dimensions, and state indices by the number of states.
    """
    return np.int16 if bound <= np.iinfo(np.int16).max else np.int32


class Event(NamedTuple):
    """One recorded transition; ``counts`` is the state after it."""

    t_ms: float
    kind: str
    dim: int
    downgraded: int
    discarded: int
    counts: tuple[int, ...]


@dataclass(eq=False)
class TrajectoryRecord:
    """Piecewise-constant sample path of one replication, held as columns.

    Event ``i`` happens at ``t_ms[i]``; ``kind[i]`` indexes
    :data:`~ranburst.traffic.EVENT_KINDS`; ``dim``, ``downgraded`` and
    ``discarded`` are the transition's bookkeeping; the state after it is
    row ``state[i]`` of ``states``, a table of the distinct states the path
    enters, in order of first entry. The integer columns other than
    ``kind`` are int16 when their values allow (see :func:`_int_dtype`) and
    int32 otherwise. ``events`` rebuilds the same path as a list of
    :class:`Event` on every access.
    """

    policy: str
    capacity: int
    dim_labels: tuple[str, ...]
    demands: tuple[int, ...]
    initial_counts: tuple[int, ...]
    t_ms: np.ndarray  # float64, (n,)
    kind: np.ndarray  # int8, (n,)
    dim: np.ndarray  # (n,)
    downgraded: np.ndarray  # (n,)
    discarded: np.ndarray  # (n,)
    state: np.ndarray  # (n,): row of ``states`` entered
    states: np.ndarray  # (distinct states, n_dims)
    end_ms: float
    horizon_ms: float
    t_inject_ms: float | None
    seed: int
    replication: int = 0
    stopped_early: bool = False

    @classmethod
    def from_events(cls, events: list[Event], **fields) -> TrajectoryRecord:
        """A record of ``events``; ``fields`` are the remaining attributes."""
        n_dims = len(fields["initial_counts"])
        small = _int_dtype(max(fields["capacity"], n_dims))
        rows: dict[tuple[int, ...], int] = {}
        state = [rows.setdefault(tuple(e.counts), len(rows)) for e in events]
        return cls(
            t_ms=np.array([e.t_ms for e in events], dtype=np.float64),
            kind=np.array([_KIND_CODE[e.kind] for e in events], dtype=np.int8),
            dim=np.array([e.dim for e in events], dtype=small),
            downgraded=np.array([e.downgraded for e in events], dtype=small),
            discarded=np.array([e.discarded for e in events], dtype=small),
            state=np.array(state, dtype=_int_dtype(len(rows))),
            states=np.array(list(rows), dtype=small).reshape(len(rows), n_dims),
            **fields,
        )

    @property
    def n_dims(self) -> int:
        return len(self.initial_counts)

    @property
    def n_events(self) -> int:
        return len(self.t_ms)

    @property
    def events(self) -> list[Event]:
        """The path as :class:`Event` tuples, built anew on each access."""
        counts = [tuple(row) for row in self.states.tolist()]
        return [
            Event(t, EVENT_KINDS[k], d, dw, dc, counts[s])
            for t, k, d, dw, dc, s in zip(
                self.t_ms.tolist(), self.kind.tolist(), self.dim.tolist(),
                self.downgraded.tolist(), self.discarded.tolist(), self.state.tolist(),
            )
        ]

    def final_counts(self) -> tuple[int, ...]:
        if not self.n_events:
            return self.initial_counts
        return tuple(self.states[self.state[-1]].tolist())


def mix_seed(base_seed: int, replication: int) -> int:
    """Deterministic, platform-stable per-replication seed."""
    ss = np.random.SeedSequence((base_seed, replication))
    return int(ss.generate_state(1, np.uint64)[0])


def _initial_state(scenario: Scenario, chain: _Chain, rng) -> tuple[int, ...]:
    if scenario.initial_counts is not None:
        return tuple(scenario.initial_counts)
    counts = [0] * len(chain.dims)
    if scenario.warmup == STATIONARY_VIDEO_START:
        q = chain.start_law
        blocks = int(rng.choice(len(q), p=q))
        counts[1] = blocks // scenario.classes[1].demand_blocks
    return tuple(counts)


def run_replication(scenario: Scenario, seed: int, crn: bool = False) -> TrajectoryRecord:
    """Simulate one replication; bit-for-bit reproducible from (scenario, seed).

    ``crn=True`` runs the coupled engine (see :func:`_run_coupled`): two
    scenarios that differ only in policy then share their arrival instants,
    injected offers and departure candidates with their marks.
    """
    scenario.validate()
    run = _run_coupled if crn else _run_direct
    return run(scenario, seed, _Chain(scenario))


# An arc as the engines follow it: (arc id, key of the target state). An
# injected offer's arc carries a third entry, 1 if it admits the session.
Arc = tuple[int, int]


class _Block(NamedTuple):
    """The feasible states of one block of keys, as :meth:`_Chain.compile`
    leaves them: arc ``offset + r * slots + s`` is slot ``s`` of row ``r``."""

    offset: int
    row: np.ndarray  # (keys,) row of each key of the block, -1 if infeasible
    counts: np.ndarray  # (rows, n_dims)
    target: np.ndarray  # (rows, slots) target key of each arc


class _Chain:
    """A scenario's chain, compiled one block of states at a time; shared by
    its replications in one process and by both engines.

    A state is keyed by ``box``, the analytic layer's
    :class:`~ranburst.analytic._StateBox`, whose key ranks are the analytic
    state numbers. A block is a fixed range of at most ``FRONTIER_CHUNK``
    keys: ``per`` consecutive values of the leading digits, each with every
    value of the trailing digits, which span ``span`` keys. The first time a
    walk enters a state of a block, :meth:`compile` resolves every slot of
    the block's feasible states with
    :func:`~ranburst.analytic._resolve_slots`: the arrival of each dimension
    with a positive rate, in dimension order, the injected offer (an arrival
    of dimension 0), then the departure of each dimension. Arc ``id`` is row
    ``id`` of the columns ``target`` (a state
    key), ``kind``, ``dim``, ``downgraded`` and ``discarded``; a path is
    kept as a list of arc ids and turned into record columns by
    :meth:`columns`.

    ``by_state`` maps the key of each visited state to what the engines
    walk, built by :meth:`visit` from its block's arrays: ``(arrivals,
    departures, departure_total, offer, n0)``. ``arrivals`` pairs each
    positive arrival rate with its arc, in dimension order; ``departures``
    holds ``(rate, arc, class)`` for each positive departure rate, with
    ``class`` the dimension's index in ``classes``; ``departure_total`` is
    the sum of those rates; ``offer`` is the injected offer's arc; ``n0`` is
    the count of dimension 0.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.dims = dims = scenario.dimensions()
        self.capacity = scenario.radio.capacity_blocks
        self.policy = scenario.policy
        self.scale = scenario.time_scale / 1000.0  # configured per-second rates -> per ms
        self.arr_rates = [d.arrival_rate * self.scale for d in dims]
        self.dep_rates = [d.service_rate * self.scale for d in dims]
        self.classes = list(dict.fromkeys(d.source_class for d in dims))
        self.class_of = [self.classes.index(d.source_class) for d in dims]
        self.arriving = [i for i, rate in enumerate(self.arr_rates) if rate > 0.0]
        self.slots = len(self.arriving) + 1 + len(dims)
        self.box = box = _StateBox(dims, self.capacity)
        # The trailing digits are the longest run at the end whose values
        # fit in a block. Their rows and occupancy are decoded once here, so
        # a compile decodes only its ``per`` leading values.
        radix = box.radix.tolist()
        j = next(i for i in range(len(radix) + 1) if math.prod(radix[i:]) <= FRONTIER_CHUNK)
        self._lead = j
        self._leads = math.prod(radix[:j])  # values of the leading digits
        self.span = math.prod(radix[j:])
        self.per = FRONTIER_CHUNK // self.span
        self._trail = box.decode(np.arange(self.span))[:, j:]
        self._trail_occ = self._trail @ box.demand[j:]
        self.small = _int_dtype(max(self.capacity, len(dims)))
        self.blocks: dict[int, _Block] = {}
        self.by_state: dict[int, tuple] = {}
        self._parts: list[tuple[np.ndarray, ...]] = []  # arc columns, one entry per block
        self._arcs = 0

    @cached_property
    def start_law(self) -> np.ndarray:
        """Occupancy law of the video class alone (``stationary_video_start``)."""
        video = self.scenario.classes[1]
        solo = TrafficClass(
            id=video.id,
            arrival_rate=video.arrival_rate,
            service_rate=video.service_rate,
            demand_blocks=video.demand_blocks,
            max_sessions=video.max_sessions,
        )
        return kaufman_roberts([solo], self.capacity).q

    def compile(self, b: int) -> _Block:
        """Resolve every arc out of the feasible states of block ``b``."""
        j, box = self._lead, self.box
        first, stop = b * self.per, min((b + 1) * self.per, self._leads)
        leads = np.arange(stop - first).astype(box.weights.dtype) + first
        lead = box.decode(leads * self.span)[:, :j]
        free = self.capacity - lead @ box.demand[:j]
        # The box holds the session caps, so a row is feasible when it fits.
        p, t = np.nonzero(self._trail_occ <= free[:, None])
        rows = np.concatenate((lead[p], self._trail[t]), axis=1)
        m = len(rows)
        arrivals = [*self.arriving, 0]  # the offer is an arrival of dimension 0
        target_rows, kind, downgraded, discarded, _ = _resolve_slots(
            self.policy, box, rows, arrivals)
        target = box.keys(target_rows).T
        dim = np.tile(np.array([*arrivals, *range(len(self.dims))], dtype=self.small), m)
        self._parts.append((target.ravel(), kind.T.ravel(), dim,
                            downgraded.T.astype(self.small).ravel(),
                            discarded.T.astype(self.small).ravel()))
        row = np.full(self.per * self.span, -1, dtype=_int_dtype(FRONTIER_CHUNK))
        row[p * self.span + t] = np.arange(m)
        block = _Block(self._arcs, row, rows, target)
        self._arcs += m * self.slots
        self.blocks[b] = block
        return block

    def visit(self, key: int) -> tuple:
        """What the engines walk out of the state keyed ``key``, on its first visit."""
        b, at = divmod(key, self.per * self.span)
        block = self.blocks.get(b) or self.compile(b)
        r = int(block.row[at])
        if r < 0:
            state = tuple(self.box.decode(np.array([key]))[0].tolist())
            raise RuntimeError(f"simulation entered infeasible state {state}")
        counts = block.counts[r].tolist()
        targets = block.target[r].tolist()
        first = block.offset + r * self.slots  # arc id of slot 0
        a = len(self.arriving)
        arrivals = tuple([(self.arr_rates[i], (first + s, targets[s]))
                          for s, i in enumerate(self.arriving)])
        # A rejected offer is a self-loop; an admitted one adds a session.
        offer = (first + a, targets[a], int(targets[a] != key))
        departures = []
        departure_total = 0.0  # summed in dimension order, zeros included
        for i, rate in enumerate(self.dep_rates):
            out = counts[i] * rate
            departure_total += out
            if out > 0.0:
                s = a + 1 + i
                departures.append((out, (first + s, targets[s]), self.class_of[i]))
        state = (arrivals, tuple(departures), departure_total, offer, counts[0])
        self.by_state[key] = state
        return state

    def columns(self, path: list[int]) -> dict[str, np.ndarray]:
        """Event columns of a path of arc ids, gathered in one fancy-index
        each; its states are numbered in order of first entry."""
        if len(self._parts) > 1:
            self._parts = [tuple(np.concatenate(c) for c in zip(*self._parts))]
        target, kind, dim, downgraded, discarded = (
            c[np.array(path, dtype=np.intp)] for c in self._parts[0])
        _, first, inverse = np.unique(target, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return dict(
            kind=kind,
            dim=dim,
            downgraded=downgraded,
            discarded=discarded,
            state=rank[inverse].astype(_int_dtype(len(order))),
            states=self.box.decode(target[first[order]]).astype(self.small),
        )

    def record(self, scenario: Scenario, seed: int, initial: tuple[int, ...],
               times: list[float], path: list[int], end: float,
               stopped: bool) -> TrajectoryRecord:
        """The record of a path of arc ids entered at ``times``."""
        inj = scenario.injection
        return TrajectoryRecord(
            policy=self.policy,
            capacity=self.capacity,
            dim_labels=tuple(d.label for d in self.dims),
            demands=tuple(d.demand_blocks for d in self.dims),
            initial_counts=initial,
            t_ms=np.array(times, dtype=np.float64),
            **self.columns(path),
            end_ms=end,
            horizon_ms=scenario.horizon_ms,
            t_inject_ms=inj.t_inject_ms if inj is not None else None,
            seed=seed,
            stopped_early=stopped,
        )


def _run_direct(scenario: Scenario, seed: int, chain: _Chain) -> TrajectoryRecord:
    """The direct engine, a walk over ``chain``, which may be shared by
    replications of the same scenario."""
    rng = np.random.default_rng(seed)
    initial = _initial_state(scenario, chain, rng)

    arr_total = sum(chain.arr_rates)
    inj = scenario.injection
    has_stream = inj is not None and inj.has_stream
    inj_rate = inj.poisson_rate * chain.scale if has_stream else 0.0
    inj_cap = inj.batch_size if inj is not None and inj.mode == POISSON else 0
    early_stop = scenario.early_stop_at_goose_cap
    goose_cap = chain.dims[0].max_sessions
    horizon = scenario.horizon_ms
    lookup = chain.by_state.get
    visit = chain.visit

    key = int(chain.box.keys(initial))
    arrivals, departures, departure_total, offer, n0 = lookup(key) or visit(key)
    times: list[float] = []
    path: list[int] = []  # arc id of each event
    t = 0.0
    delivered = 0
    injected = inj is None
    stopped = False

    while True:
        t_break = inj.t_inject_ms if not injected else horizon
        if not injected and t >= t_break:
            injected = True
            t_break = horizon
            if inj.has_batch:
                for _ in range(inj.batch_size):
                    times.append(t)
                    path.append(offer[0])
                    key = offer[1]
                    arrivals, departures, departure_total, offer, n0 = (
                        lookup(key) or visit(key))
                    if early_stop and n0 >= goose_cap:
                        stopped = True
                        break
                if stopped:
                    break

        stream_on = has_stream and injected and (inj_cap == 0 or delivered < inj_cap)
        total = arr_total + (inj_rate if stream_on else 0.0)
        total += departure_total

        if total == 0.0:
            if t_break >= horizon:
                break
            t = t_break
            continue

        dt = rng.exponential(1.0 / total)
        if t + dt >= t_break:
            if t_break >= horizon:
                break
            t = t_break
            continue  # memoryless: re-draw after the schedule changes
        t += dt

        u = rng.random() * total
        a: Arc | None = None
        for rate, arrival in arrivals:
            if u < rate:
                a = arrival
                break
            u -= rate
        if a is None and stream_on:
            if u < inj_rate:
                a = offer
                delivered += offer[2]
            else:
                u -= inj_rate
        if a is None:
            for out, departure, _ in departures:
                if u < out:
                    a = departure
                    break
                u -= out
        if a is None:
            continue  # floating-point edge at the top of the rate sum

        times.append(t)
        path.append(a[0])
        key = a[1]
        arrivals, departures, departure_total, offer, n0 = lookup(key) or visit(key)
        if early_stop and n0 >= goose_cap:
            stopped = True
            break

    return chain.record(scenario, seed, initial, times, path,
                        t if stopped else horizon, stopped)


# Sources of the coupled engine's candidate events.
_ARRIVAL, _OFFER, _DEPARTURE = range(3)


def _candidates(rng: np.random.Generator, rate: float, start: float, stop: float,
                source: int, k: int, marked: bool = False):
    """Events ``(t, source, k, mark)`` at the points of a Poisson process of
    ``rate`` per ms on ``(start, stop)``; with ``marked`` each carries a
    uniform mark in ``[0, rate)``, else 0."""
    t = start + rng.exponential(1.0 / rate)
    while t < stop:
        yield t, source, k, rng.random() * rate if marked else 0.0
        t += rng.exponential(1.0 / rate)


def _run_coupled(scenario: Scenario, seed: int, chain: _Chain) -> TrajectoryRecord:
    """The coupled engine, a walk over the same ``chain`` as the direct one.

    Every random number comes from a stream spawned from ``seed`` that does
    not depend on the policy: the initial state; one Poisson arrival stream
    per dimension with a positive arrival rate; the injected offers (the
    batch at ``t_inject_ms``, then the Poisson offers); and one stream of
    departure candidates per traffic class. Class ``c``'s candidates come at
    ``Λ_c = C · max μ`` over its dimensions, each with a uniform mark ``v``
    in ``[0, Λ_c)``; a candidate removes a session from the first of the
    class's dimensions, in order, whose running sum of ``n_i μ_i`` exceeds
    ``v``, and is a null event otherwise. A session holds at least one
    block, so ``n_i ≤ C`` and the thinned candidates are the departures of
    the chain (Lewis & Shedler 1979). The streams are merged lazily in time
    order; the walk itself draws nothing.
    """
    dims = chain.dims
    horizon = scenario.horizon_ms
    init_ss, arr_ss, inj_ss, dep_ss = np.random.SeedSequence(seed).spawn(4)
    initial = _initial_state(scenario, chain, np.random.default_rng(init_ss))

    streams = []
    # The k-th positive arrival rate is the k-th entry of a state's arrivals.
    positive = [(child, rate) for child, rate in zip(arr_ss.spawn(len(dims)), chain.arr_rates)
                if rate > 0.0]
    for k, (child, rate) in enumerate(positive):
        streams.append(_candidates(np.random.default_rng(child), rate, 0.0, horizon,
                                   _ARRIVAL, k))

    inj = scenario.injection
    delivered = 0  # injected sessions admitted so far
    if inj is not None:
        offers = itertools.repeat((inj.t_inject_ms, _OFFER, 0, 0.0),
                                  inj.batch_size if inj.has_batch else 0)
        if inj.has_stream:
            offers = itertools.chain(offers, _candidates(
                np.random.default_rng(inj_ss), inj.poisson_rate * chain.scale,
                inj.t_inject_ms, horizon, _OFFER, 0))
        if inj.mode == POISSON and inj.batch_size:
            # Offers lapse once the burst is delivered. ``heapq.merge`` asks
            # for the next offer only after the walk has handled this one.
            offers = itertools.takewhile(lambda _: delivered < inj.batch_size, offers)
        streams.append(offers)

    for c, child in enumerate(dep_ss.spawn(len(chain.classes))):
        lam = chain.capacity * max(r for r, j in zip(chain.dep_rates, chain.class_of) if j == c)
        streams.append(_candidates(np.random.default_rng(child), lam, 0.0, horizon,
                                   _DEPARTURE, c, marked=True))

    early_stop = scenario.early_stop_at_goose_cap
    goose_cap = dims[0].max_sessions
    lookup = chain.by_state.get
    visit = chain.visit

    key = int(chain.box.keys(initial))
    arrivals, departures, _, offer, n0 = lookup(key) or visit(key)
    times: list[float] = []
    path: list[int] = []
    stopped = False
    for t, source, k, v in heapq.merge(*streams):
        if source == _ARRIVAL:
            a = arrivals[k][1]
        elif source == _OFFER:
            a = offer
            delivered += offer[2]
        else:
            for out, a, c in departures:
                if c == k:
                    if v < out:
                        break
                    v -= out
            else:
                continue  # null candidate
        times.append(t)
        path.append(a[0])
        key = a[1]
        arrivals, departures, _, offer, n0 = lookup(key) or visit(key)
        if early_stop and n0 >= goose_cap:
            stopped = True
            break

    return chain.record(scenario, seed, initial, times, path,
                        t if stopped else horizon, stopped)


def pool_size(workers: int | None, replications: int) -> int:
    """Worker processes worth starting: at most one per replication and one
    per CPU; 1 means run serially."""
    return max(1, min(workers or 1, replications, os.cpu_count() or 1))


def run_experiment(
    scenario: Scenario, workers: int | None = None, crn: bool = False
) -> list[TrajectoryRecord]:
    """All replications, seeded ``mix_seed(base_seed, r)``.

    Replications are independent; with ``workers`` they run in a process
    pool (clamped by :func:`pool_size`), and results are identical to a
    serial run because every replication owns a deterministic seed stream.
    The replications share one compiled chain (:class:`_Chain`), which
    lives for this call only: it compiles a block of states the first time
    a walk enters it, and each pool worker compiles its own. ``crn=True``
    runs the coupled engine, as in :func:`run_replication`.
    """
    scenario.validate()
    seeds = [mix_seed(scenario.base_seed, r) for r in range(scenario.replications)]
    n_workers = pool_size(workers, scenario.replications)
    if n_workers == 1:
        records = _replicate((scenario, seeds, crn))
    else:
        from concurrent.futures import ProcessPoolExecutor

        # One contiguous chunk of seeds per worker, so that each worker
        # compiles one chain and sends its records back in one message.
        bounds = [len(seeds) * k // n_workers for k in range(n_workers + 1)]
        chunks = [(scenario, seeds[a:b], crn) for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            records = [rec for part in pool.map(_replicate, chunks) for rec in part]
    for r, record in enumerate(records):
        record.replication = r
    return records


def _replicate(args) -> list[TrajectoryRecord]:
    """Replications of one scenario for a list of seeds, sharing one compiled chain."""
    scenario, seeds, crn = args
    run = _run_coupled if crn else _run_direct
    chain = _Chain(scenario)
    return [run(scenario, s, chain) for s in seeds]
