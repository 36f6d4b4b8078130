"""Event-driven Monte-Carlo simulation of the policy chains.

One walk (:func:`_walk`) samples a chain, with a burst-injection schedule
layered on top and deterministic per-replication seeding; identical
(scenario, seed) reproduce trajectories bit for bit. It walks a
compiled chain (:class:`_Chain`) by integer state key; the chain lives for
one ``run_experiment`` or ``run_replication`` call. A key is the state's
number in the analytic layer's box (:class:`~ranburst.analytic._StateBox`).
The chain is compiled one block of keys at a time, when a walk first
enters the block, by the analytic layer's chain compiler
(:func:`~ranburst.analytic._compile`), which proves every arrival target
feasible; the walk reads each state's arcs from it as they are. The scalar
:func:`~ranburst.traffic.arrival_outcome` is not called here; it is still
imported under its name, with ``feasible`` and ``kaufman_roberts``, which
the benchmark's tracer (``perfbench/tracer.py``) wraps to count calls.

The walk draws a holding time, exponential at the state's total rate, and
a uniform mark in ``[0, total)`` that picks an arc by its rate. It draws
them from one ``numpy.random.default_rng(seed)`` per walk, made by the walk
and never shared across threads, through numpy's own C functions
``random_standard_exponential`` and ``random_standard_uniform``, exported
by the shared library of ``numpy.random._generator``. :func:`_draws` binds
them with ``ctypes`` once per process, on first use, and the walk calls
them on the generator's ``bitgen_t`` pointer. ``Generator.exponential(scale)``
returns ``scale * random_standard_exponential``, and the walk takes the
same product, so a walk takes the same values, in the same order, that
``Generator.exponential(scale)`` and ``Generator.random()`` would give;
only the method call's overhead is gone. The walk samples the
continuous-time chain: a dimension departs at ``n_i μ_i``, so every draw is
an event.

A walk appends its events to lists that it shares with the other walks of
its group (:func:`_replicate`); the records of a group are built at once,
when its walks hold ``GROUP_EVENTS`` events or the walks run out
(:meth:`_Chain.records`).
"""

from __future__ import annotations

import ctypes
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .analytic import FRONTIER_CHUNK, _compile, _int_dtype, _StateBox, kaufman_roberts
from .errors import NumericalError, ScenarioError
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

# Most points a reporting grid (``horizon_ms / grid_ms + 1``) may have. A run's
# summaries share one float64 grid, 80 MB at this bound; the curves each
# replication keeps on it are bounded by ``MAX_RUN_CURVE_POINTS``. The bundled
# scenarios use 601; the long-run checks of the simulator use up to 2.7M at
# the default 10 ms step.
MAX_GRID_POINTS = 10_000_000

# Largest injection ``batch_size``. A batch records one event per offer, even
# once every offer is rejected: a replication with 1,000,000 offers holds
# 17 MB of record columns and peaks near 85 MB while it runs. The bundled
# scenarios use at most 52.
MAX_BATCH_SIZE = 1_000_000

# Most events a replication may expect: the horizon times a bound on the
# walk's total rate, sum_d (arrival_rate + C * service_rate) plus the offer
# rate, since a session holds at least one block and so n_i <= C. A walk and
# its record peak near 80 bytes per event, so 1e7 events near 0.8 GB; the
# bundled scenarios reach at most 6.25e5 (``oracle_nc1_small``).
MAX_EXPECTED_EVENTS = 10_000_000

# Most events a whole run may expect: ``replications`` times the bound above.
# ``run_experiment`` keeps every replication's record, about 18 bytes per
# event, so 1e8 events hold about 1.8 GB; the bundled scenarios reach at most
# 6.25e5 (``oracle_nc1_small``), and ``table2_nc3_lam20`` with 600
# replications about 3.8e6.
MAX_EXPECTED_RUN_EVENTS = 100_000_000

# Events a group of replications holds before its records are built. A group
# shares one pass of record building, whose fixed numpy cost is then paid per
# group rather than per replication; the bound keeps the group's buffers (a
# few MB) and the wait before ``on_record`` sees its records small. A
# replication with more events than this is a group of its own.
GROUP_EVENTS = 16_384

# Most curve points a run may hold: ``replications`` times the grid's points.
# Every replication's summary keeps, per grid point, each dimension's count in
# the record's integer dtype (2 or 4 bytes) and the utilization as a float64:
# 14 bytes for the three int16 dimensions of the bundled NC3 scenarios, so
# 5e7 points hold 0.7 GB there. The bundled scenarios reach at most 210,000
# (``oracle_transient_c4``), and ``table2_nc3_lam20`` with 600 replications
# 360,600.
MAX_RUN_CURVE_POINTS = 50_000_000

# Most replications a run may have. A run keeps every replication's record and
# summary even when it expects no events: about 1.3 KB and 0.9 KB for an empty
# path on a one-point grid, so 400,000 replications hold about 0.9 GB. The
# bundled scenarios use at most 10,000 (``oracle_transient_c4``).
MAX_REPLICATIONS = 400_000

# Largest pool, in blocks. The occupancy recursion (``kaufman_roberts``, run
# for the ``stationary_video_start`` law and the NC1 analytic report) holds
# two float arrays of capacity + 1 entries and loops over every block in
# Python: at this bound 16 MB, and 0.7 s for one class or 1.2 s for two on a
# 2-core x86-64 host. The largest pool in the tests has 10,000 blocks, the
# bundled scenarios 62.
MAX_CAPACITY_BLOCKS = 1_000_000

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
        if not math.isfinite(self.poisson_rate):
            raise ScenarioError(f"injection poisson_rate must be finite, got {self.poisson_rate}")
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
    of interest. :meth:`chain` applies it to the class rates, for the
    simulator and the analytic report alike.
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

    def chain(self, burst: bool = False, per_ms: bool = False
              ) -> tuple[str, list[Dimension], int]:
        """``(policy, dims, capacity)`` of the scenario's chain, with every
        arrival and service rate multiplied by ``time_scale``: per scaled
        second, or with ``per_ms`` by ``time_scale / 1000.0``.

        With ``burst`` and an injection that has a stream, dimension 0 (the
        priority class) also arrives at the stream's ``poisson_rate``, which
        makes the burst states reachable; a batch alone adds no rate. Each
        rate is one product with the scale, which the simulator's and the
        report's floats depend on.
        """
        scale = self.time_scale / 1000.0 if per_ms else self.time_scale
        dims = self.dimensions()
        inj = self.injection
        if burst and inj is not None and inj.has_stream:
            dims[0] = replace(dims[0], arrival_rate=dims[0].arrival_rate + inj.poisson_rate)
        dims = [replace(d, arrival_rate=d.arrival_rate * scale,
                        service_rate=d.service_rate * scale) for d in dims]
        return self.policy, dims, self.radio.capacity_blocks

    def validate(self) -> None:
        if not 1 <= self.radio.capacity_blocks <= MAX_CAPACITY_BLOCKS:
            raise ScenarioError(
                f"the pool must hold 1 to {MAX_CAPACITY_BLOCKS} blocks, "
                f"got {self.radio.capacity_blocks}")
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
        # A pinned start ignores the warmup, so it needs no start rule.
        if self.warmup == STATIONARY_VIDEO_START and self.initial_counts is None:
            if len(self.classes) < 2:
                raise ScenarioError("stationary_video_start needs a second (video) class")
            # The start law is the video class's birth-death law up to its
            # full-rate ceiling; NC3 leaves it when the blocks left there
            # fit a downgraded session, which it then admits.
            video, capacity = self.classes[1], self.radio.capacity_blocks
            ceiling = min(video.max_sessions, capacity // video.demand_blocks)
            if (self.policy == "NC3" and capacity - ceiling * video.demand_blocks
                    >= video.downgraded_demand_blocks):
                raise ScenarioError(
                    f"stationary_video_start: at capacity {capacity}, NC3 admits downgraded "
                    f"a video arrival with no room at full rate; the occupancy recursion "
                    f"cannot honor it")
        if not (math.isfinite(self.time_scale) and self.time_scale > 0):
            raise ScenarioError("time_scale must be positive and finite")
        if self.base_seed < 0:
            raise ScenarioError("base_seed must be >= 0")
        rate = sum(d.arrival_rate + self.radio.capacity_blocks * d.service_rate for d in dims)
        if self.injection is not None:
            rate += self.injection.poisson_rate
        events = rate * self.time_scale / 1000.0 * self.horizon_ms
        if not events <= MAX_EXPECTED_EVENTS:
            raise ScenarioError(
                f"rates over horizon_ms allow more than {MAX_EXPECTED_EVENTS} events")
        # Divided, not multiplied: a replication count past float range
        # would overflow the product.
        if not events <= MAX_EXPECTED_RUN_EVENTS / self.replications:
            raise ScenarioError(
                f"replications times the rates over horizon_ms allow more than "
                f"{MAX_EXPECTED_RUN_EVENTS} events in a run")
        if self.replications > MAX_REPLICATIONS:
            raise ScenarioError(f"replications must be at most {MAX_REPLICATIONS}")
        if not (math.isfinite(self.grid_ms) and self.grid_ms > 0):
            raise ScenarioError("grid_ms must be positive and finite")
        steps = self.horizon_ms / self.grid_ms
        if not math.isfinite(steps) or round(steps) + 1 > MAX_GRID_POINTS:
            raise ScenarioError(
                f"horizon_ms / grid_ms gives more than {MAX_GRID_POINTS} grid points"
            )
        if self.replications * (round(steps) + 1) > MAX_RUN_CURVE_POINTS:
            raise ScenarioError(
                f"replications times the grid points of horizon_ms / grid_ms exceed "
                f"{MAX_RUN_CURVE_POINTS} curve points in a run")
        if self.initial_counts is not None:
            if len(self.initial_counts) != len(dims):
                raise ScenarioError(
                    f"initial_counts needs {len(dims)} entries, got {len(self.initial_counts)}"
                )
            if not feasible(tuple(self.initial_counts), dims, self.radio.capacity_blocks):
                raise ScenarioError("initial_counts is not a feasible state")


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

    Every event lies at or before ``end_ms``, so the path is the whole
    observed window and no reader cuts it: a walk ends at the horizon, or
    right after its stopping event with ``end_ms`` at that event's time.
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
        """A record of ``events``; ``fields`` are the remaining attributes.
        Raises ValueError when an event lies past ``end_ms``."""
        t_ms = np.array([e.t_ms for e in events], dtype=np.float64)
        if (t_ms > fields["end_ms"]).any():
            raise ValueError(f"an event lies past the observation end {fields['end_ms']} ms")
        n_dims = len(fields["initial_counts"])
        small = _int_dtype(max(fields["capacity"], n_dims))
        rows: dict[tuple[int, ...], int] = {}
        state = [rows.setdefault(tuple(e.counts), len(rows)) for e in events]
        return cls(
            t_ms=t_ms,
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


def mix_seed(base_seed: int, replication: int) -> int:
    """Deterministic, platform-stable per-replication seed."""
    ss = np.random.SeedSequence((base_seed, replication))
    return int(ss.generate_state(1, np.uint64)[0])


@cache
def _draws() -> tuple:
    """``(exponential, uniform)``: numpy's
    ``random_standard_exponential(bitgen)`` and
    ``random_standard_uniform(bitgen)``. ``Generator.random()`` calls the
    second; ``Generator.exponential(scale)`` calls ``random_exponential``,
    which returns ``scale * random_standard_exponential(bitgen)``, so
    ``scale * exponential(bitgen)`` is its draw. The one-argument call
    converts no float argument, which makes it the cheaper of the two.

    They are bound from the shared library of ``numpy.random._generator``,
    as numpy's own cffi example loads it, once per process and on first
    use, so importing ranburst does not import ``numpy.random``. The library
    is opened as a ``PyDLL``, so a call keeps the GIL: a draw is too short
    to gain from releasing it, and a call that releases it costs more. The
    calls skip the generator's lock, which is why a walk's generator is
    never shared across threads.

    A numpy whose library lacks either symbol, or whose bound pair's first
    draws on a fixed seed are not ``Generator.standard_exponential()`` and
    ``Generator.random()``, raises :class:`NumericalError` naming numpy's
    version: its walks would not take numpy's own draws.
    """
    from numpy.random import _generator

    lib = ctypes.PyDLL(_generator.__file__)
    try:
        exponential = lib.random_standard_exponential
        uniform = lib.random_standard_uniform
    except AttributeError as exc:
        raise NumericalError(
            f"numpy {np.__version__} does not export the draws the simulator binds: {exc}"
        ) from exc
    for draw in (exponential, uniform):
        draw.argtypes = (ctypes.c_void_p,)
        draw.restype = ctypes.c_double
    bound, reference = np.random.default_rng(0), np.random.default_rng(0)
    bitgen = bound.bit_generator.ctypes.bit_generator
    drawn = (exponential(bitgen), uniform(bitgen))
    expected = (reference.standard_exponential(), reference.random())
    if drawn != expected:
        raise NumericalError(
            f"numpy {np.__version__}: the bound draws {drawn} are not the "
            f"generator's own {expected}")
    return exponential, uniform


def _initial_state(scenario: Scenario, chain: _Chain, uniform, bitgen) -> tuple[int, ...]:
    """The walk's start. A ``stationary_video_start`` takes one uniform draw
    and the first block count whose cumulative start law exceeds it, which
    is how ``Generator.choice(len(q), p=q)`` samples ``q``."""
    if scenario.initial_counts is not None:
        return tuple(scenario.initial_counts)
    counts = [0] * len(chain.dims)
    if scenario.warmup == STATIONARY_VIDEO_START:
        blocks = int(chain.start_cdf.searchsorted(uniform(bitgen), side="right"))
        counts[1] = blocks // scenario.classes[1].demand_blocks
    return tuple(counts)


def run_replication(scenario: Scenario, seed: int) -> TrajectoryRecord:
    """Simulate one replication; bit-for-bit reproducible from (scenario, seed)."""
    scenario.validate()
    return _replicate((scenario, 0, [seed], None))[0]


class _Block(NamedTuple):
    """The feasible states of one block of keys, as :meth:`_Chain.compile`
    leaves them: row ``r``'s arcs are ``start[r]`` to ``start[r + 1]`` of
    ``target`` and ``rate``, and arc ``i`` of them has id ``offset + i``."""

    offset: int
    row: np.ndarray  # (keys,) row of each key of the block, -1 if infeasible
    start: list[int]  # (rows + 1) each row's first arc
    target: np.ndarray  # (arcs,) target key of each arc
    rate: np.ndarray  # (arcs,)
    n0: list[int]  # (rows) count of dimension 0


class _Chain:
    """A scenario's chain, compiled one block of states at a time; shared by
    its replications in one process.

    ``policy``, ``dims`` and ``capacity`` are those of
    :meth:`Scenario.chain` with ``per_ms``, so every class rate is per ms;
    ``scale`` turns the injection's rate into per ms, the one rate the
    walk scales itself. A state is keyed by ``box``, the analytic layer's
    :class:`~ranburst.analytic._StateBox`, whose key ranks are the analytic
    state numbers. Block ``b`` is the range of ``FRONTIER_CHUNK`` keys from
    ``b * FRONTIER_CHUNK``. The first time a walk enters a state of a block,
    :meth:`compile` takes the block's feasible states from
    :meth:`~ranburst.analytic._StateBox.rows` and compiles their arcs with
    the analytic layer's :func:`~ranburst.analytic._compile`: the arrival of
    each dimension with a positive rate, in dimension order, the injected
    offer (an arrival of dimension 0, whose rate the walk supplies), then
    the departure of each occupied dimension. Arc ids number the arcs of
    the blocks in the order they were compiled; arc ``id`` is row ``id`` of
    the compiled columns ``target`` (a state key), ``kind``, ``dim``,
    ``downgraded`` and ``discarded``. A path is kept as a list of arc ids,
    which the walk's one event site appends to, and :meth:`records` turns
    the paths of a group of walks into record columns.

    ``by_state`` maps the key of each visited state to what the walk
    follows, built by :meth:`visit` from one slice of its block's arcs:
    ``(arrivals, departures, departure_total, offer, n0)``. ``arrivals``
    pairs each arrival rate with its arc, in dimension order;
    ``departures`` pairs each departure rate with its arc, in dimension
    order; ``departure_total`` is the sum of those rates, added in that
    order; ``offer`` is the injected offer's arc; ``n0`` is the count of
    dimension 0. An arc, as the walk follows it, is ``(arc id, key of the
    target state)``; the offer's carries a third entry, 1 if it admits the
    session.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.policy, dims, self.capacity = scenario.chain(per_ms=True)
        self.dims = dims
        self.scale = scenario.time_scale / 1000.0  # the injection rate per second -> per ms
        self.arr_rates = [d.arrival_rate for d in dims]
        self.box = box = _StateBox(dims, self.capacity)
        self.arriving = box.arriving
        self.small = _int_dtype(max(self.capacity, len(dims)))
        self.blocks: dict[int, _Block] = {}
        self.by_state: dict[int, tuple] = {}
        self._parts: list[tuple[np.ndarray, ...]] = []  # arc columns, one entry per block
        self._arcs = 0

    @cached_property
    def start_law(self) -> np.ndarray:
        """Stationary law of the blocks the video class holds alone
        (``stationary_video_start``): the occupancy recursion over the
        ``min(C, max_sessions * demand)`` blocks its sessions can fill,
        which no session cap then binds."""
        video = self.scenario.classes[1]
        solo = TrafficClass(
            id=video.id,
            arrival_rate=video.arrival_rate,
            service_rate=video.service_rate,
            demand_blocks=video.demand_blocks,
            max_sessions=video.max_sessions,
        )
        return kaufman_roberts(
            [solo], min(self.capacity, video.max_sessions * video.demand_blocks)).q

    @cached_property
    def start_cdf(self) -> np.ndarray:
        """The cumulative start law over its own last entry, as
        ``Generator.choice`` normalises it."""
        cdf = self.start_law.cumsum()
        cdf /= cdf[-1]
        return cdf

    def compile(self, b: int) -> _Block:
        """Compile every arc out of the feasible states of block ``b``."""
        box, lo = self.box, b * FRONTIER_CHUNK
        rows = box.rows(lo, lo + FRONTIER_CHUNK)
        table = _compile(self.policy, box, rows, [*self.arriving, 0])
        self._parts.append((table.target, table.kind, table.dim, table.downgraded,
                            table.discarded))
        row = np.full(FRONTIER_CHUNK, -1, dtype=_int_dtype(FRONTIER_CHUNK))
        row[(box.keys(rows) - lo).astype(np.intp)] = np.arange(len(rows))
        start = np.searchsorted(table.source, np.arange(len(rows) + 1)).tolist()
        block = _Block(self._arcs, row, start, table.target, table.rate, rows[:, 0].tolist())
        self._arcs += len(table.source)
        self.blocks[b] = block
        return block

    def visit(self, key: int) -> tuple:
        """What the walk follows out of the state keyed ``key``, on its first visit."""
        b, at = divmod(key, FRONTIER_CHUNK)
        block = self.blocks.get(b) or self.compile(b)
        r = int(block.row[at])
        if r < 0:
            state = tuple(self.box.decode(np.array([key]))[0].tolist())
            raise RuntimeError(f"simulation entered infeasible state {state}")
        lo, hi = block.start[r], block.start[r + 1]
        first = block.offset + lo  # arc id of the state's first arc
        targets = block.target[lo:hi].tolist()
        rates = block.rate[lo:hi].tolist()
        a = len(self.arriving)  # the offer's arc; the departures follow it
        arrivals = []
        for s in range(a):
            arrivals.append((rates[s], (first + s, targets[s])))
        departures = []
        departure_total = 0.0
        for s in range(a + 1, hi - lo):  # added in dimension order
            departures.append((rates[s], (first + s, targets[s])))
            departure_total += rates[s]
        # A rejected offer is a self-loop; an admitted one adds a session.
        offer = (first + a, targets[a], int(targets[a] != key))
        state = (tuple(arrivals), tuple(departures), departure_total, offer, block.n0[r])
        self.by_state[key] = state
        return state

    def records(self, scenario: Scenario, walks: list[tuple], times: list[float],
                path: list[int]) -> list[TrajectoryRecord]:
        """The records of a group of walks, whose events were appended in
        turn to ``times`` and ``path`` (arc ids). Walk ``i`` is ``walks[i]``,
        ``(replication, seed, initial, stop, end, stopped)``, where ``stop``
        is the length of ``path`` once the walk ended. ``times`` and ``path``
        are emptied once read, which frees their Python objects before the
        states are numbered.

        Each event column is gathered for the whole group in one
        fancy-index. One ``np.unique`` over ``(walk, target key)`` lists the
        distinct states of each path; sorted by their first indices they are
        numbered walk by walk, each walk's in order of first entry, and one
        ``decode`` gives their counts. Each record's columns are slices of
        these, and its ``state`` numbers its own states from 0 in the dtype
        its number of states allows.
        """
        if len(self._parts) > 1:
            self._parts = [tuple(np.concatenate(c) for c in zip(*self._parts))]
        arcs = np.array(path, dtype=np.intp)
        t_ms = np.array(times, dtype=np.float64)
        path.clear()
        times.clear()
        target, kind, dim, downgraded, discarded = (c[arcs] for c in self._parts[0])
        stops = [0, *(w[3] for w in walks)]
        # Each event's key is its target's key plus its walk's number times
        # the box size; past int64 the keys are exact Python ints, as a wide
        # box's own keys are.
        size = self.box.size
        wide = len(walks) * size > np.iinfo(np.int64).max
        key = np.repeat(np.arange(len(walks)).astype(object if wide else np.int64) * size,
                        np.diff(stops))
        key += target
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        state = rank[inverse]
        entered = first[order]  # each distinct state's first event, walk by walk
        states = self.box.decode(target[entered]).astype(self.small)
        rows = np.searchsorted(entered, stops).tolist()  # each walk's first state row
        inj = scenario.injection
        fields = dict(
            policy=self.policy,
            capacity=self.capacity,
            dim_labels=tuple(d.label for d in self.dims),
            demands=tuple(d.demand_blocks for d in self.dims),
            horizon_ms=scenario.horizon_ms,
            t_inject_ms=inj.t_inject_ms if inj is not None else None,
        )
        records = []
        for (r, seed, initial, _, end, stopped), a, b, lo, hi in zip(
                walks, stops, stops[1:], rows, rows[1:]):
            records.append(TrajectoryRecord(
                initial_counts=initial,
                t_ms=t_ms[a:b],
                kind=kind[a:b],
                dim=dim[a:b],
                downgraded=downgraded[a:b],
                discarded=discarded[a:b],
                state=(state[a:b] - lo).astype(_int_dtype(hi - lo)),
                states=states[lo:hi],
                end_ms=end,
                seed=seed,
                replication=r,
                stopped_early=stopped,
                **fields,
            ))
        return records


def _walk(scenario: Scenario, seed: int, chain: _Chain, times: list[float],
          path: list[int]) -> tuple[tuple[int, ...], float, bool]:
    """One replication walked over ``chain``, which may be shared by
    replications of the same scenario; every draw comes from
    ``default_rng(seed)``, taken through :func:`_draws` on its bit generator.
    Each event's time is appended to ``times`` and its arc id to ``path``;
    the walk returns its initial counts, its end time and whether it
    stopped early.

    The rates are constant up to ``t_break``, the next schedule instant: the
    injection, then the horizon. One branch moves the walk there when a draw
    would pass it, no rate is live or ``t`` stands on it (an injection at 0):
    it turns the stream on and sets ``pending`` batch offers, or ends the walk
    at the horizon, and the holding time is drawn anew (it is memoryless).
    Each event, a pending offer taken without a draw or a drawn arc, is
    recorded in one block, which also checks the early stop.
    """
    rng = np.random.default_rng(seed)
    exponential, uniform = _draws()
    bitgen = rng.bit_generator.ctypes.bit_generator  # valid while ``rng`` lives
    initial = _initial_state(scenario, chain, uniform, bitgen)

    arr_total = sum(chain.arr_rates)
    inj = scenario.injection
    offer_rate = 0.0  # the injected offers' rate, while they are live
    inj_cap = inj.batch_size if inj is not None and inj.mode == POISSON else 0
    early_stop = scenario.early_stop_at_goose_cap
    goose_cap = chain.dims[0].max_sessions
    horizon = scenario.horizon_ms
    lookup = chain.by_state.get
    visit = chain.visit

    key = int(chain.box.keys(initial))
    arrivals, departures, departure_total, offer, n0 = lookup(key) or visit(key)
    t = 0.0
    t_break = horizon if inj is None else inj.t_inject_ms
    pending = 0  # batch offers still to make at ``t``
    delivered = 0
    stopped = False

    while True:
        if pending:
            pending -= 1
            a = offer
        else:
            total = arr_total + offer_rate + departure_total
            dt = 1.0 / total * exponential(bitgen) if total and t < t_break else math.inf
            if t + dt >= t_break:
                if t_break >= horizon:
                    break
                t, t_break = t_break, horizon
                offer_rate = inj.poisson_rate * chain.scale if inj.has_stream else 0.0
                pending = inj.batch_size if inj.has_batch else 0
                continue
            t += dt

            # The mark picks the first arc whose rate exceeds what is left of
            # it: the arrivals, the offer, then the departures.
            u = uniform(bitgen) * total
            for rate, a in arrivals:
                if u < rate:
                    break
                u -= rate
            else:
                if u < offer_rate:
                    a = offer
                    delivered += offer[2]
                    if inj_cap and delivered == inj_cap:
                        offer_rate = 0.0  # the burst is delivered
                else:
                    u -= offer_rate
                    for rate, a in departures:
                        if u < rate:
                            break
                        u -= rate
                    else:
                        continue  # the floating-point edge at the top of the rate sum

        times.append(t)
        path.append(a[0])
        key = a[1]
        arrivals, departures, departure_total, offer, n0 = lookup(key) or visit(key)
        if early_stop and n0 >= goose_cap:
            stopped = True
            break

    return initial, t if stopped else horizon, stopped


def pool_size(workers: int | None, replications: int) -> int:
    """Worker processes worth starting: at most one per replication and one
    per CPU; 1 means run serially."""
    return max(1, min(workers or 1, replications, os.cpu_count() or 1))


def run_experiment(
    scenario: Scenario,
    workers: int | None = None,
    on_record: Callable[[TrajectoryRecord], None] | None = None,
) -> list[TrajectoryRecord]:
    """All replications, seeded ``mix_seed(base_seed, r)``.

    Replications are independent; with ``workers`` they run in a process
    pool (clamped by :func:`pool_size`), and results are identical to a
    serial run because every replication owns a deterministic seed stream.
    The replications share one compiled chain (:class:`_Chain`), which
    lives for this call only: it compiles a block of states the first time
    a walk enters it, and each pool worker compiles its own.

    ``on_record``, if given, is called on each record, in replication order,
    once the walks of its group have ended and the group's records are built
    (a group closes at ``GROUP_EVENTS`` events), in the process that
    simulated it: a pool worker, or this process when the run is serial. In
    a pool it must pickle, and what it changes on a record does not come
    back. An exception it raises ends the run and propagates from here once
    the pool has shut down.
    """
    scenario.validate()
    seeds = [mix_seed(scenario.base_seed, r) for r in range(scenario.replications)]
    n_workers = pool_size(workers, scenario.replications)
    if n_workers == 1:
        return _replicate((scenario, 0, seeds, on_record))

    from concurrent.futures import ProcessPoolExecutor

    # One contiguous chunk of seeds per worker, so that each worker
    # compiles one chain and sends its records back in one message.
    bounds = [len(seeds) * k // n_workers for k in range(n_workers + 1)]
    chunks = [(scenario, a, seeds[a:b], on_record) for a, b in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return [rec for part in pool.map(_replicate, chunks) for rec in part]


def _replicate(args) -> list[TrajectoryRecord]:
    """Replications ``first, first + 1, ...`` of one scenario for a list of
    seeds, sharing one compiled chain. The walks run in groups, each closed
    once its walks hold ``GROUP_EVENTS`` events or the seeds run out; the
    group's records are then built in one pass (:meth:`_Chain.records`) and
    ``on_record`` runs on each."""
    scenario, first, seeds, on_record = args
    chain = _Chain(scenario)
    last = first + len(seeds) - 1
    records = []
    walks, times, path = [], [], []
    for r, seed in enumerate(seeds, first):
        initial, end, stopped = _walk(scenario, seed, chain, times, path)
        walks.append((r, seed, initial, len(path), end, stopped))
        if len(path) < GROUP_EVENTS and r < last:
            continue
        for record in chain.records(scenario, walks, times, path):
            if on_record is not None:
                on_record(record)
            records.append(record)
        walks = []
    return records
