"""Scenario loading, experiment orchestration, and CSV emission.

Scenario files are YAML with the key names documented in the README. CSV
bodies are byte-stable: two runs with the same scenario and seed produce
identical files (run metadata, including the timestamp, lives in
``run_meta.json`` only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import astuple, dataclass, fields, replace
from fractions import Fraction
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analytic import (
    blocking_from_generator,
    build_generator,
    cap_binds,
    kaufman_roberts,
    mean_counts,
    reachable_states,
    steady_state,
)
from .errors import NumericalError, ScenarioError, StateSpaceLimitError
from .metrics import (
    ExperimentSummary,
    ReplicationSummary,
    aggregate,
    empirical_blocking,
    summarize,
    time_average_counts,  # noqa: F401  (kept importable from ranburst.cli)
)
from .numerology import lookup_numerology, usable_capacity
from .simulator import (
    InjectionSchedule,
    Scenario,
    TrajectoryRecord,
    run_experiment,
)
from .traffic import EVENT_KINDS, TrafficClass

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_STATE_SPACE = 4
EXIT_OUTPUT = 5  # an output directory or file cannot be written

MODES = ("simulate", "analytic", "both")

# The top-level and injection keys are the dataclasses' field names; the
# radio and class keys are not (``beta``, ``num_prbs``, ``*_khz``).
_SCENARIO_KEYS = {f.name for f in fields(Scenario)}
_RADIO_KEYS = {
    "channel_bandwidth_khz", "beta", "num_prbs", "block_khz", "guard_overhead_khz",
}
_CLASS_KEYS = {
    "id", "arrival_rate", "service_rate", "demand_khz", "max_sessions",
    "priority", "adaptive", "downgraded_demand_khz", "downgraded_service_rate",
}
_INJECTION_KEYS = {f.name for f in fields(InjectionSchedule)}


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where} must be a mapping, got {mapping!r}")
    unknown = set(map(str, mapping)) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _rate(value, where: str) -> float:
    """Rates may be numbers or fraction strings like '1/20'; they must be finite."""
    if not isinstance(value, (int, float, str)) or isinstance(value, bool):
        raise ScenarioError(f"{where}: cannot parse rate {value!r}")
    try:
        rate = float(Fraction(value)) if isinstance(value, str) else float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ScenarioError(f"{where}: cannot parse rate {value!r}") from exc
    if not math.isfinite(rate):
        raise ScenarioError(f"{where}: rate {value!r} is not finite")
    return rate


def _float(value, where: str) -> float:
    """Times and scales: a number or a numeric string; finiteness is checked
    by ``Scenario.validate``."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise ScenarioError(f"{where}: expected a number, got {value!r}")


def _int(value, where: str) -> int:
    """Integers: an int, an integral float such as 3.0, or an integer string."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ScenarioError(f"{where}: expected an integer, got {value!r}")


def _bool(value, where: str) -> bool:
    """Flags must be YAML booleans; strings such as 'false' are not read as True."""
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true or false, got {value!r}")
    return value


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"missing key {key!r} in {where}")
    return mapping[key]


def scenario_from_dict(raw: dict, label_default: str = "") -> Scenario:
    """Build and validate a Scenario from parsed YAML/JSON data."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must hold a mapping at the top level")
    _reject_unknown(raw, _SCENARIO_KEYS, "scenario")

    radio_raw = _require(raw, "radio", "scenario")
    _reject_unknown(radio_raw, _RADIO_KEYS, "radio")
    classes_raw = _require(raw, "classes", "scenario")
    if not isinstance(classes_raw, list) or not classes_raw:
        raise ScenarioError("classes must be a non-empty list")

    demands_khz = []
    for i, cls in enumerate(classes_raw):
        _reject_unknown(cls, _CLASS_KEYS, f"classes[{i}]")
        where = f"classes[{i}]"
        demands_khz.append(_int(_require(cls, "demand_khz", where), where))
        if _bool(cls.get("adaptive", False), where):
            down = cls.get("downgraded_demand_khz")
            if down is None:
                raise ScenarioError(f"{where}: adaptive class needs downgraded_demand_khz")
            demands_khz.append(_int(down, where))

    block = radio_raw.get("block_khz")
    if block is None:
        block = math.gcd(*demands_khz) if len(demands_khz) > 1 else demands_khz[0]
    block = _int(block, "radio")
    if block <= 0:
        raise ScenarioError(f"allocation block must be positive, got {block} kHz")
    for d in demands_khz:
        if d % block != 0:
            raise ScenarioError(
                f"demand {d} kHz is not a multiple of the allocation block {block} kHz"
            )

    try:
        numerology = lookup_numerology(_int(_require(radio_raw, "beta", "radio"), "radio"))
        radio = usable_capacity(
            _float(_require(radio_raw, "channel_bandwidth_khz", "radio"), "radio"),
            numerology,
            _int(_require(radio_raw, "num_prbs", "radio"), "radio"),
            block,
            guard_overhead_khz=_int(radio_raw.get("guard_overhead_khz", 0), "radio"),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    classes = []
    for i, cls in enumerate(classes_raw):
        where = f"classes[{i}]"
        adaptive = _bool(cls.get("adaptive", False), where)
        down_khz = cls.get("downgraded_demand_khz")
        down_rate = cls.get("downgraded_service_rate")
        classes.append(
            TrafficClass(
                id=_int(_require(cls, "id", where), where),
                arrival_rate=_rate(_require(cls, "arrival_rate", where), where),
                service_rate=_rate(_require(cls, "service_rate", where), where),
                demand_blocks=_int(_require(cls, "demand_khz", where), where) // block,
                max_sessions=_int(_require(cls, "max_sessions", where), where),
                priority=str(cls.get("priority", "none")),
                adaptive=adaptive,
                downgraded_demand_blocks=(
                    _int(down_khz, where) // block if down_khz is not None else None
                ),
                downgraded_service_rate=_rate(down_rate, where) if down_rate is not None else None,
            )
        )

    injection = None
    if raw.get("injection") is not None:
        inj_raw = raw["injection"]
        _reject_unknown(inj_raw, _INJECTION_KEYS, "injection")
        injection = InjectionSchedule(
            mode=str(_require(inj_raw, "mode", "injection")),
            t_inject_ms=_float(_require(inj_raw, "t_inject_ms", "injection"), "injection"),
            batch_size=_int(inj_raw.get("batch_size", 0), "injection"),
            poisson_rate=_rate(inj_raw.get("poisson_rate", 0.0), "injection"),
        )

    initial = raw.get("initial_counts")
    if initial is not None:
        if not isinstance(initial, list):
            raise ScenarioError("initial_counts must be a list")
        initial = tuple(_int(c, "initial_counts") for c in initial)
    scenario = Scenario(
        policy=str(_require(raw, "policy", "scenario")),
        radio=radio,
        classes=tuple(classes),
        injection=injection,
        horizon_ms=_float(_require(raw, "horizon_ms", "scenario"), "horizon_ms"),
        warmup=str(raw.get("warmup", "empty_start")),
        replications=_int(raw.get("replications", 1), "replications"),
        base_seed=_int(raw.get("base_seed", 0), "base_seed"),
        time_scale=_float(raw.get("time_scale", 1.0), "time_scale"),
        early_stop_at_goose_cap=_bool(
            raw.get("early_stop_at_goose_cap", False), "early_stop_at_goose_cap"
        ),
        grid_ms=_float(raw.get("grid_ms", 10.0), "grid_ms"),
        initial_counts=initial,
        label=str(raw.get("label", label_default)),
        description=str(raw.get("description", "")),
        figure=str(raw.get("figure", "")),
    )
    scenario.validate()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from exc
    return scenario_from_dict(raw, label_default=path.stem)


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (name without extension)."""
    return Path(resources.files("ranburst") / "scenarios" / f"{name}.yaml")


def load_bundled_scenario(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))


def scenario_hash(scenario: Scenario) -> str:
    """Stable short hash of every scenario field but the three that only
    name it (``label``, ``description``, ``figure``); a nested dataclass
    enters as the tuple of its fields."""
    payload = {
        f.name: value for f, value in zip(fields(scenario), astuple(scenario))
        if f.name not in ("label", "description", "figure")
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return digest[:12]


def _fmt(value) -> str:
    """Deterministic CSV cell: shortest round-trip float repr, '' for absent."""
    if value is None:
        return ""
    if isinstance(value, float):
        value = float(value)  # collapse numpy scalars to the builtin repr
        if value.is_integer():  # neither nan nor infinite
            return str(int(value)) if abs(value) < 1e15 else repr(value)
        return "nan" if value != value else repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


@dataclass
class OutputBundle:
    """Paths and in-memory results of one run."""

    out_dir: Path
    scenario_hash: str
    summary_path: Path | None = None
    curves_path: Path | None = None
    analytic_path: Path | None = None
    trajectory_paths: list[Path] | None = None
    records: list[TrajectoryRecord] | None = None
    summaries: list[ReplicationSummary] | None = None
    experiment: ExperimentSummary | None = None


def write_summary_csv(
    path: Path,
    summaries: list[ReplicationSummary],
    experiment: ExperimentSummary,
    shash: str,
) -> None:
    header = [
        "replication", "seed", "rho_avg", "burst_period_ms", "burst_duration_ms",
        "r_rj", "r_dw", "r_dc", "r_v", "n_ga",
        "n_ga_pre_inject", "n_ga_post_inject", "scenario_hash",
    ]
    rows = []
    for s in summaries:
        rows.append([
            s.replication, s.seed, s.rho_avg, s.burst_period_ms,
            s.burst_duration_ms, s.r_rj, s.r_dw, s.r_dc, s.r_v, s.n_ga,
            s.counts["n_ga_pre_inject"], s.counts["n_ga_post_inject"], shash,
        ])
    for stat, values in (("mean", experiment.mean), ("var", experiment.variance)):
        rows.append([
            stat, "", values["rho_avg"], values["burst_period_ms"],
            values["burst_duration_ms"], values["r_rj"], values["r_dw"],
            values["r_dc"], values["r_v"], values["n_ga"], "", "", shash,
        ])
    _write_csv(path, header, rows)


def write_curves_csv(path: Path, experiment: ExperimentSummary, labels, shash: str) -> None:
    n = len(labels)
    header = (
        ["t_ms"]
        + [f"mean_m_{i + 1}" for i in range(n)]
        + [f"var_m_{i + 1}" for i in range(n)]
        + ["mean_rho", "scenario_hash"]
    )
    columns = (experiment.grid, *experiment.mean_m_t[:n], *experiment.var_m_t[:n],
               experiment.mean_rho_t)
    cells = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    _write_csv(path, header, [[*row, shash] for row in cells])


def write_trajectory_csv(path: Path, traj: TrajectoryRecord, shash: str) -> None:
    """One row for the initial state, then one per event. The
    ``m_i,occupied_blocks,rho`` cells of each distinct state are formatted
    once and shared by every row that enters it; the ``occupied_blocks,rho``
    pair once per occupancy."""
    n = traj.n_dims
    header = (
        ["t_ms"]
        + [f"m_{i + 1}" for i in range(n)]
        + ["occupied_blocks", "rho", "event_kind", "n_downgraded", "n_discarded",
           "scenario_hash"]
    )
    occupancy: dict[int, str] = {}

    def cells(counts, occ: int) -> str:
        tail = occupancy.get(occ)
        if tail is None:
            tail = occupancy[occ] = f"{occ},{_fmt(occ / traj.capacity)}"
        return ",".join(map(str, counts)) + "," + tail

    demands = np.asarray(traj.demands)
    initial = cells(traj.initial_counts, int(demands @ traj.initial_counts))
    state_cells = [
        cells(row, occ)
        for row, occ in zip(traj.states.tolist(), (traj.states @ demands).tolist())
    ]
    lines = [",".join(header), f"{_fmt(0.0)},{initial},initial,0,0,{shash}"]
    lines.extend(
        f"{_fmt(t)},{state_cells[s]},{EVENT_KINDS[k]},{dw},{dc},{shash}"
        for t, s, k, dw, dc in zip(
            traj.t_ms.tolist(), traj.state.tolist(), traj.kind.tolist(),
            traj.downgraded.tolist(), traj.discarded.tolist(),
        )
    )
    path.write_text("\n".join(lines) + "\n")


def _trajectory_name(replication: int) -> str:
    return f"rep_{replication:03d}.csv"


def _write_trajectory_file(traj_dir: Path, shash: str, traj: TrajectoryRecord) -> None:
    """Write one record's ``rep_NNN.csv`` into ``traj_dir``. ``run`` binds
    the first two arguments with ``functools.partial``, which pickles into
    a pool worker, where the record is written as soon as it is made."""
    write_trajectory_csv(traj_dir / _trajectory_name(traj.replication), traj, shash)


def _analytic_report(scenario: Scenario) -> list[list]:
    """Steady-state rows: per-dimension blocking and mean occupancy.

    NC1 takes the occupancy recursion unless a session cap binds below
    capacity; every other case solves the generator of
    :meth:`~ranburst.simulator.Scenario.chain`.
    """
    dims = scenario.dimensions()
    capacity = scenario.radio.capacity_blocks
    rows = []
    if scenario.policy == "NC1" and not any(cap_binds(c, capacity) for c in scenario.classes):
        dist = kaufman_roberts(list(scenario.classes), capacity)
        method = "kaufman_roberts"
        means = []
        for d, cls in zip(dims, scenario.classes):
            a = cls.arrival_rate / cls.service_rate
            b = dist.blocking[cls.id]
            mean_n = a * (1.0 - b)
            means.append(mean_n)
            rows.append([d.index, d.label, method, a, b, mean_n, None])
    else:
        policy, scaled, _ = scenario.chain()
        space = reachable_states(policy, scaled, capacity)
        space, q = build_generator(policy, scaled, capacity, space=space)
        pi = steady_state(q)
        blocking = blocking_from_generator(policy, space, pi)
        means = mean_counts(space, pi)
        method = "generator"
        for d in dims:
            a = d.arrival_rate / d.service_rate if d.service_rate > 0 else None
            rows.append([
                d.index, d.label, method, a,
                blocking.get(d.index), float(means[d.index]), None,
            ])
    util = sum(m * d.demand_blocks for m, d in zip(means, dims)) / capacity
    rows.append(["total", "", method, None, None, None, float(util)])
    return rows


def run(
    scenario: Scenario,
    mode: str = "simulate",
    out_dir: str | Path = "ranburst-out",
    emit_trajectories: bool = False,
    workers: int | None = None,
) -> OutputBundle:
    """Execute a scenario and write the output bundle."""
    if mode not in MODES:
        raise ScenarioError(f"unknown mode {mode!r}")
    scenario.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shash = scenario_hash(scenario)
    bundle = OutputBundle(out_dir=out, scenario_hash=shash)

    sim_blocking: dict[int, tuple[int, int]] = {}
    sim_means = None
    if mode in ("simulate", "both"):
        on_record = None
        if emit_trajectories:
            traj_dir = out / "trajectories"
            traj_dir.mkdir(exist_ok=True)
            on_record = partial(_write_trajectory_file, traj_dir, shash)
            bundle.trajectory_paths = [
                traj_dir / _trajectory_name(r) for r in range(scenario.replications)
            ]
        records = run_experiment(scenario, workers=workers, on_record=on_record)
        summaries = [summarize(r, grid_ms=scenario.grid_ms) for r in records]
        experiment = aggregate(summaries)
        bundle.records = records
        bundle.summaries = summaries
        bundle.experiment = experiment

        bundle.summary_path = out / "summary.csv"
        write_summary_csv(bundle.summary_path, summaries, experiment, shash)
        bundle.curves_path = out / "curves.csv"
        write_curves_csv(bundle.curves_path, experiment, records[0].dim_labels, shash)

        if mode == "both":
            for r in records:
                for dim, (arr, rej) in empirical_blocking(r).items():
                    a0, r0 = sim_blocking.get(dim, (0, 0))
                    sim_blocking[dim] = (a0 + arr, r0 + rej)
            stack = [s.mean_counts for s in summaries]
            sim_means = [float(sum(col) / len(col)) for col in zip(*stack)]

    if mode in ("analytic", "both"):
        rows = _analytic_report(scenario)
        header = [
            "dim", "label", "method", "offered_load", "blocking",
            "mean_sessions", "utilization", "sim_blocking", "sim_mean_sessions",
            "scenario_hash",
        ]
        out_rows = []
        for row in rows:
            dim = row[0]
            sim_b = None
            sim_m = None
            if mode == "both" and isinstance(dim, int):
                if dim in sim_blocking and sim_blocking[dim][0] > 0:
                    arr, rej = sim_blocking[dim]
                    sim_b = rej / arr
                if sim_means is not None and dim < len(sim_means):
                    sim_m = sim_means[dim]
            out_rows.append(row + [sim_b, sim_m, shash])
        bundle.analytic_path = out / "analytic.csv"
        _write_csv(bundle.analytic_path, header, out_rows)

    meta = {
        "scenario_hash": shash,
        "label": scenario.label,
        "mode": mode,
        "base_seed": scenario.base_seed,
        "replications": scenario.replications,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return bundle


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranburst",
        description="Run block-pool burst scenarios: Monte-Carlo transients "
                    "and steady-state reports.",
    )
    parser.add_argument("--scenario", required=True, help="scenario YAML path")
    parser.add_argument("--mode", choices=MODES, default="simulate")
    parser.add_argument("--replications", type=int, default=None,
                        help="override the scenario's replication count")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario's base seed")
    parser.add_argument("--out", default="ranburst-out", help="output directory")
    parser.add_argument("--grid-ms", type=float, default=None,
                        help="override the reporting grid step")
    parser.add_argument("--emit-trajectories", action="store_true",
                        help="write one event CSV per replication")
    parser.add_argument("--workers", type=int, default=None,
                        help="run replications in a process pool")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        overrides = {}
        if args.replications is not None:
            overrides["replications"] = args.replications
        if args.seed is not None:
            overrides["base_seed"] = args.seed
        if args.grid_ms is not None:
            overrides["grid_ms"] = args.grid_ms
        if overrides:
            scenario = replace(scenario, **overrides)
        bundle = run(
            scenario,
            mode=args.mode,
            out_dir=args.out,
            emit_trajectories=args.emit_trajectories,
            workers=args.workers,
        )
    except ScenarioError as exc:
        _emit_error("validation", exc)
        return EXIT_VALIDATION
    except StateSpaceLimitError as exc:
        _emit_error("state_space_cap", exc)
        return EXIT_STATE_SPACE
    except NumericalError as exc:
        _emit_error("numerical_failure", exc)
        return EXIT_NUMERICAL
    except OSError as exc:
        # Reading the scenario file raises ScenarioError, not OSError; what
        # reaches here failed to write, in this process or a pool worker.
        _emit_error("output", exc)
        return EXIT_OUTPUT

    written = [
        str(p)
        for p in (bundle.summary_path, bundle.curves_path, bundle.analytic_path)
        if p is not None
    ]
    print(json.dumps({"scenario_hash": bundle.scenario_hash, "outputs": written}))
    return EXIT_OK


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
