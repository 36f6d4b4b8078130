import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ranburst import ScenarioError, kaufman_roberts, run_experiment
from ranburst.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    _write_csv,
    bundled_scenario_path,
    load_bundled_scenario,
    load_scenario,
    main,
    run,
    scenario_hash,
    scenario_from_dict,
    write_trajectory_csv,
)
from ranburst.simulator import (
    MAX_BATCH_SIZE,
    MAX_EXPECTED_EVENTS,
    MAX_GRID_POINTS,
    Event,
    TrajectoryRecord,
)
from ranburst.traffic import (
    ARRIVAL_ACCEPTED,
    ARRIVAL_DOWNGRADED,
    ARRIVAL_REJECTED,
    DEPARTURE,
    DOWNGRADE_CASCADE,
    PREEMPT_DISCARD,
)

BUNDLED = [
    f"table2_{p}_{lam}"
    for p in ("nc1", "nc2", "nc3")
    for lam in ("lam10", "lam20", "lam40")
]


def demo_dict(**overrides):
    raw = yaml.safe_load(bundled_scenario_path("demo_nc3_small").read_text())
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------


def test_bundled_table2_nc3_values():
    sc = load_bundled_scenario("table2_nc3_lam20")
    assert sc.policy == "NC3"
    assert sc.radio.usable_capacity_khz == 22320
    assert sc.radio.capacity_blocks == 62
    dims = sc.dimensions()
    assert [d.demand_blocks * sc.radio.block_khz for d in dims] == [360, 720, 360]
    assert [d.max_sessions for d in dims] == [62, 31, 62]
    assert sc.classes[1].arrival_rate == pytest.approx(1 / 20)
    assert sc.replications == 30


@pytest.mark.parametrize("name", BUNDLED)
def test_all_bundled_scenarios_load(name):
    sc = load_bundled_scenario(name)
    sc.validate()
    assert sc.label == name


# Hashes of the bundled scenarios as the loader has always read them; a
# parser change that reads any field differently moves one of them.
BUNDLED_HASHES = {
    "demo_nc3_small": "2f65d08ba972",
    "oracle_nc1_small": "0ed63f41cc6b",
    "oracle_transient_c4": "c2ff1bf9a723",
    "table2_nc1_lam10": "e7bc1c1483be",
    "table2_nc1_lam20": "8a8ff603ab8f",
    "table2_nc1_lam40": "699e2a9b032f",
    "table2_nc2_lam10": "ff6889289e4a",
    "table2_nc2_lam20": "21ec6e5d74de",
    "table2_nc2_lam40": "0dc1852aa65e",
    "table2_nc3_lam10": "ba5042413490",
    "table2_nc3_lam20": "ec5118708130",
    "table2_nc3_lam20_literal": "ba43a4d8280e",
    "table2_nc3_lam40": "c4741ad75e3d",
}


def test_bundled_scenarios_load_unchanged():
    names = sorted(p.stem for p in bundled_scenario_path("demo_nc3_small").parent.glob("*.yaml"))
    assert names == sorted(BUNDLED_HASHES)
    assert {n: scenario_hash(load_bundled_scenario(n)) for n in names} == BUNDLED_HASHES


def test_downgraded_demand_must_be_smaller():
    raw = demo_dict()
    raw["classes"][1]["downgraded_demand_khz"] = 720
    with pytest.raises(ScenarioError, match="downgraded demand must be smaller"):
        scenario_from_dict(raw)


def test_missing_horizon_rejected():
    raw = demo_dict()
    del raw["horizon_ms"]
    with pytest.raises(ScenarioError, match="horizon_ms"):
        scenario_from_dict(raw)


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown key.*jitter"):
        scenario_from_dict(demo_dict(jitter=3))
    raw = demo_dict()
    raw["classes"][0]["color"] = "blue"
    with pytest.raises(ScenarioError, match="unknown key.*color"):
        scenario_from_dict(raw)


def test_demand_must_align_with_explicit_block():
    raw = demo_dict()
    raw["radio"]["block_khz"] = 360
    raw["classes"][0]["demand_khz"] = 500
    with pytest.raises(ScenarioError, match="multiple"):
        scenario_from_dict(raw)


def test_block_defaults_to_gcd_of_demands():
    sc = scenario_from_dict(demo_dict())
    assert sc.radio.block_khz == 360  # gcd(360, 720, 360)


def test_fraction_rates_parse():
    raw = demo_dict()
    raw["classes"][1]["arrival_rate"] = "3/2"
    sc = scenario_from_dict(raw)
    assert sc.classes[1].arrival_rate == pytest.approx(1.5)


def test_downgraded_service_rate_override():
    raw = demo_dict()
    raw["classes"][1]["downgraded_service_rate"] = "1/4"
    sc = scenario_from_dict(raw)
    dims = sc.dimensions()
    assert dims[2].service_rate == pytest.approx(0.25)
    assert dims[1].service_rate == pytest.approx(0.5)


def test_guard_overhead_key_shrinks_capacity():
    raw = demo_dict()
    raw["radio"]["guard_overhead_khz"] = 360
    sc = scenario_from_dict(raw)
    assert sc.radio.capacity_blocks == 9


def test_unreadable_file_and_bad_yaml(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("policy: [unclosed")
    with pytest.raises(ScenarioError, match="cannot parse"):
        load_scenario(bad)


def test_scenario_hash_sensitive_to_parameters():
    a = load_bundled_scenario("table2_nc3_lam20")
    b = load_bundled_scenario("table2_nc3_lam40")
    assert scenario_hash(a) != scenario_hash(b)
    assert scenario_hash(a) == scenario_hash(load_bundled_scenario("table2_nc3_lam20"))


# ---------------------------------------------------------------------------
# Output bundles
# ---------------------------------------------------------------------------


def test_simulate_outputs(tmp_path):
    sc = load_bundled_scenario("demo_nc3_small")
    bundle = run(sc, mode="simulate", out_dir=tmp_path, emit_trajectories=True)
    lines = bundle.summary_path.read_text().splitlines()
    assert lines[0].startswith("replication,seed,rho_avg,burst_period_ms")
    assert len(lines) == 1 + sc.replications + 2  # header + reps + mean + var
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("var,")
    shash = bundle.scenario_hash
    for line in lines[1:]:
        assert line.endswith(shash)
    assert bundle.curves_path.exists()
    assert len(bundle.trajectory_paths) == sc.replications
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["scenario_hash"] == shash


def test_analytic_output_matches_occupancy_recursion(tmp_path):
    sc = load_bundled_scenario("oracle_nc1_small")
    bundle = run(sc, mode="analytic", out_dir=tmp_path)
    dist = kaufman_roberts(list(sc.classes), sc.radio.capacity_blocks)
    rows = bundle.analytic_path.read_text().splitlines()[1:]
    by_dim = {r.split(",")[0]: r.split(",") for r in rows}
    assert by_dim["0"][2] == "kaufman_roberts"
    assert float(by_dim["0"][4]) == pytest.approx(dist.blocking[1], abs=1e-12)
    assert float(by_dim["1"][4]) == pytest.approx(dist.blocking[2], abs=1e-12)


def test_both_mode_populates_comparison_columns(tmp_path):
    sc = load_bundled_scenario("demo_nc3_small")
    bundle = run(sc, mode="both", out_dir=tmp_path)
    header, *rows = bundle.analytic_path.read_text().splitlines()
    cols = header.split(",")
    sim_b = cols.index("sim_blocking")
    video_row = rows[1].split(",")
    assert video_row[sim_b] != ""


def test_byte_identical_reruns_and_parallel_schedule(tmp_path):
    sc = load_bundled_scenario("demo_nc3_small")
    b1 = run(sc, mode="simulate", out_dir=tmp_path / "a")
    b2 = run(sc, mode="simulate", out_dir=tmp_path / "b")
    b3 = run(sc, mode="simulate", out_dir=tmp_path / "c", workers=2)
    ref_summary = b1.summary_path.read_bytes()
    ref_curves = b1.curves_path.read_bytes()
    assert b2.summary_path.read_bytes() == ref_summary
    assert b3.summary_path.read_bytes() == ref_summary
    assert b2.curves_path.read_bytes() == ref_curves
    assert b3.curves_path.read_bytes() == ref_curves


def test_trajectory_csv_schema(tmp_path):
    sc = load_bundled_scenario("demo_nc3_small")
    bundle = run(sc, mode="simulate", out_dir=tmp_path, emit_trajectories=True)
    header = bundle.trajectory_paths[0].read_text().splitlines()[0]
    assert header.split(",") == [
        "t_ms", "m_1", "m_2", "m_3", "occupied_blocks", "rho",
        "event_kind", "n_downgraded", "n_discarded", "scenario_hash",
    ]


# ---------------------------------------------------------------------------
# Command-line entry point
# ---------------------------------------------------------------------------


def test_main_success_and_exit_codes(tmp_path, capsys):
    path = bundled_scenario_path("demo_nc3_small")
    code = main([
        "--scenario", str(path), "--out", str(tmp_path),
        "--replications", "2", "--seed", "99",
    ])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert (tmp_path / "summary.csv").exists()
    assert out["outputs"]

    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 + 2  # replications override applied


def test_main_validation_failure(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    raw = demo_dict()
    raw["classes"][1]["downgraded_demand_khz"] = 720
    bad.write_text(yaml.safe_dump(raw))
    code = main(["--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "downgraded demand" in err["message"]


def test_main_rejects_a_negative_seed(tmp_path, capsys):
    path = bundled_scenario_path("demo_nc3_small")
    code = main(["--scenario", str(path), "--out", str(tmp_path), "--seed", "-1"])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and "base_seed" in err["message"]


@pytest.mark.parametrize("path, value", [(("time_scale",), 1.0e308),
                                         (("classes", 1, "arrival_rate"), 1.0e300)],
                         ids=["time_scale", "arrival_rate"])
def test_rates_too_high_for_the_horizon_are_validation_errors(tmp_path, capsys, path, value):
    # Holding times this short stop the clock, or overflow the start law.
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(_set(demo_dict(), path, value)))
    code = main(["--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and f"{MAX_EXPECTED_EVENTS} events" in err["message"]


@pytest.mark.parametrize("literal", [".nan", ".inf", "1.0e+400", "'1e400'"])
def test_non_finite_rates_are_validation_errors(tmp_path, capsys, literal):
    raw = demo_dict()
    raw["classes"][1]["arrival_rate"] = "RATE"
    text = yaml.safe_dump(raw).replace("RATE", literal)
    with pytest.raises(ScenarioError, match="rate"):
        scenario_from_dict(yaml.safe_load(text))
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    code = main(["--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def _set(raw, path, value):
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return raw


@pytest.mark.parametrize("path, value", [
    (("classes", 1, "adaptive"), "false"),
    (("classes", 1, "adaptive"), 1),
    (("early_stop_at_goose_cap",), "no"),
    (("early_stop_at_goose_cap",), None),
    (("replications",), 2.7),
    (("replications",), True),
    (("replications",), "2.7"),
    (("base_seed",), [1]),
    (("classes", 0, "demand_khz"), 360.9),
    (("classes", 0, "demand_khz"), "abc"),
    (("classes", 0, "max_sessions"), float("inf")),
    (("classes", 1, "downgraded_demand_khz"), 360.5),
    (("radio", "num_prbs"), "five"),
    (("radio", "beta"), 2.5),
    (("injection", "batch_size"), float("nan")),
    (("initial_counts",), 3),
    (("initial_counts",), [0, 1.5, 0]),
])
def test_malformed_ints_and_bools_are_validation_errors(tmp_path, capsys, path, value):
    raw = _set(demo_dict(), path, value)
    with pytest.raises(ScenarioError, match="expected|must be a list"):
        scenario_from_dict(raw)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw))
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def test_integral_numbers_still_parse_as_ints():
    raw = demo_dict(replications=3.0, base_seed="17")
    raw["classes"][0]["demand_khz"] = 360.0
    sc = scenario_from_dict(raw)
    assert sc.replications == 3 and isinstance(sc.replications, int)
    assert sc.base_seed == 17
    assert scenario_hash(sc) == scenario_hash(
        scenario_from_dict(demo_dict(replications=3, base_seed=17))
    )


def test_tiny_grid_step_is_a_validation_error(tmp_path, capsys):
    path = bundled_scenario_path("demo_nc3_small")
    code = main(["--scenario", str(path), "--out", str(tmp_path), "--grid-ms", "1e-9"])
    assert code == EXIT_VALIDATION
    assert "grid points" in json.loads(capsys.readouterr().err)["message"]


def test_main_missing_file(tmp_path, capsys):
    code = main(["--scenario", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION


def test_main_numerical_and_state_space_exit_codes(tmp_path, capsys, monkeypatch):
    import ranburst.cli as cli_mod
    from ranburst.errors import NumericalError, StateSpaceLimitError

    path = bundled_scenario_path("demo_nc3_small")

    def boom_numerical(scenario):
        raise NumericalError("solver stalled", residual=1.0)

    monkeypatch.setattr(cli_mod, "_analytic_report", boom_numerical)
    code = main(["--scenario", str(path), "--mode", "analytic",
                 "--out", str(tmp_path / "n")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "numerical_failure"

    def boom_cap(scenario):
        raise StateSpaceLimitError(10_000_000, 5_000_000)

    monkeypatch.setattr(cli_mod, "_analytic_report", boom_cap)
    code = main(["--scenario", str(path), "--mode", "analytic",
                 "--out", str(tmp_path / "s")])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "state_space_cap"


@pytest.mark.parametrize("path, value", [
    (("horizon_ms",), "abc"),
    (("grid_ms",), "abc"),
    (("time_scale",), "abc"),
    (("injection", "t_inject_ms"), "abc"),
    (("horizon_ms",), [6000]),
    (("radio", "channel_bandwidth_khz"), "wide"),
    (("radio",), [1, 2]),
    (("classes",), [5]),
    (("injection",), ["batch"]),
    (("radio", 7), 1),
])
def test_malformed_keys_and_containers_are_validation_errors(tmp_path, capsys, path, value):
    raw = _set(demo_dict(), path, value)
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw))
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


def test_numeric_strings_still_parse_as_times():
    raw = demo_dict(horizon_ms="6000", grid_ms="10.0")
    assert scenario_hash(scenario_from_dict(raw)) == scenario_hash(
        scenario_from_dict(demo_dict(horizon_ms=6000, grid_ms=10.0))
    )


def test_batch_size_above_the_bound_is_a_validation_error(tmp_path, capsys):
    # validate() rejects it before anything runs
    raw = demo_dict()
    raw["injection"]["batch_size"] = 1_000_000_000_000
    with pytest.raises(ScenarioError, match="batch size"):
        scenario_from_dict(raw)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw))
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    code = "import ranburst.cli, sys; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


def test_importing_the_cli_leaves_scipy_unloaded():
    # Only the analytic solvers need scipy; they import it when called.
    code = (
        "import ranburst.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Scenario fuzz: a malformed mapping ends in ScenarioError and exit code 2
# ---------------------------------------------------------------------------


def full_dict():
    """``demo_nc3_small`` with every optional key given a valid value."""
    raw = demo_dict(time_scale=1.0, early_stop_at_goose_cap=False,
                    initial_counts=[0, 0, 0], figure="f")
    raw["radio"].update(block_khz=360, guard_overhead_khz=0)
    raw["classes"][0]["adaptive"] = False
    raw["classes"][1]["downgraded_service_rate"] = 0.5
    raw["injection"]["poisson_rate"] = 0.0
    return raw


CLASS_NUMBERS = ("id", "arrival_rate", "service_rate", "demand_khz", "max_sessions")
REQUIRED = [
    ("policy",), ("radio",), ("classes",), ("horizon_ms",),
    ("radio", "channel_bandwidth_khz"), ("radio", "beta"), ("radio", "num_prbs"),
    *[("classes", i, key) for i in (0, 1) for key in CLASS_NUMBERS],
    ("classes", 1, "downgraded_demand_khz"), ("injection", "mode"),
    ("injection", "t_inject_ms"),
]
MAPPINGS = [(), ("radio",), ("classes", 0), ("classes", 1), ("injection",)]
NUMBERS = [
    ("horizon_ms",), ("grid_ms",), ("time_scale",), ("replications",), ("base_seed",),
    ("radio", "channel_bandwidth_khz"), ("radio", "beta"), ("radio", "num_prbs"),
    ("radio", "block_khz"), ("radio", "guard_overhead_khz"),
    *[("classes", i, key) for i in (0, 1) for key in CLASS_NUMBERS],
    ("classes", 1, "downgraded_demand_khz"), ("classes", 1, "downgraded_service_rate"),
    ("injection", "t_inject_ms"), ("injection", "batch_size"),
    ("injection", "poisson_rate"), ("initial_counts", 1),
]
FLAGS = [("early_stop_at_goose_cap",), ("classes", 0, "adaptive"), ("classes", 1, "adaptive")]
NAMES = [("policy",), ("warmup",), ("classes", 0, "priority"), ("classes", 1, "priority"),
         ("injection", "mode")]
CONTAINERS = [("radio",), ("classes", 0), ("classes", 1), ("injection",)]


def _parses_as_number(text: str) -> bool:
    for parse in (float, Fraction):
        try:
            parse(text)
            return True
        except (ValueError, ZeroDivisionError):
            pass
    return False


printable = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
numbers = st.one_of(st.integers(-10**6, 10**6), st.floats(allow_nan=False, width=32))
containers = st.one_of(st.lists(numbers, max_size=2),
                       st.dictionaries(printable, numbers, max_size=2))
finite = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
# Strictly negative: a filter ``x < 0`` becomes a bound that lets -0.0 through.
negative = st.floats(max_value=-5e-324, allow_infinity=False)
# Values of the right type that no valid scenario of this shape can hold
# (horizon 3000 ms, injection at 1000 ms, 360 kHz blocks, three dimensions).
OUT_OF_RANGE = {
    ("horizon_ms",): st.one_of(non_finite, finite.filter(lambda x: x <= 1000)),
    ("grid_ms",): st.one_of(non_finite, finite.filter(lambda x: x <= 3000 / MAX_GRID_POINTS)),
    # The event-rate bound of full_dict is 22.2 per second times time_scale,
    # over 3 s: these exceed MAX_EXPECTED_EVENTS (1e7) with a wide margin.
    ("time_scale",): st.one_of(non_finite, finite.filter(lambda x: x <= 0),
                               st.floats(min_value=1e6, allow_infinity=False)),
    ("replications",): st.integers(max_value=0),
    ("base_seed",): st.integers(max_value=-1),
    ("radio", "beta"): st.integers().filter(lambda b: not 0 <= b <= 4),
    ("radio", "block_khz"): st.integers().filter(lambda b: b <= 0 or 360 % b),
    ("classes", 0, "arrival_rate"): st.one_of(non_finite, negative,
                                              st.floats(min_value=1e10, allow_infinity=False)),
    ("classes", 1, "service_rate"): st.one_of(non_finite, finite.filter(lambda x: x <= 0)),
    ("classes", 0, "demand_khz"): st.integers().filter(lambda d: d <= 0 or d % 360),
    ("classes", 1, "max_sessions"): st.integers(max_value=0),
    ("classes", 1, "priority"): printable.filter(lambda p: p not in ("high", "low", "none")),
    ("injection", "t_inject_ms"): st.one_of(non_finite, negative,
                                            finite.filter(lambda x: x >= 3000)),
    ("injection", "batch_size"): st.one_of(st.integers(max_value=-1),
                                           st.integers(min_value=MAX_BATCH_SIZE + 1)),
    ("initial_counts",): st.lists(st.integers(0, 3), max_size=5).filter(lambda c: len(c) != 3),
}


def _deleted(path):
    def edit(raw):
        for key in path[:-1]:
            raw = raw[key]
        del raw[path[-1]]
    return edit


def _added(path, key):
    return lambda raw: _set(raw, (*path, key), 1)


def _replaced(path, value):
    return lambda raw: _set(raw, path, value)


unknown_keys = st.one_of(printable.map(lambda s: "zz" + s), st.integers())
MALFORMED_EDITS = {
    "missing key": st.sampled_from(REQUIRED).map(_deleted),
    "unknown key": st.builds(_added, st.sampled_from(MAPPINGS), unknown_keys),
    "number as text or container": st.builds(
        _replaced, st.sampled_from(NUMBERS),
        st.one_of(containers, printable.filter(lambda s: not _parses_as_number(s)))),
    "number as boolean": st.builds(_replaced, st.sampled_from(NUMBERS), st.booleans()),
    "flag not a boolean": st.builds(_replaced, st.sampled_from(FLAGS),
                                    st.one_of(numbers, printable, containers)),
    "name not a string": st.builds(_replaced, st.sampled_from(NAMES),
                                   st.one_of(numbers, containers)),
    "mapping not a mapping": st.builds(_replaced, st.sampled_from(CONTAINERS),
                                       st.one_of(numbers, printable, st.lists(numbers))),
    "classes not a list": st.builds(_replaced, st.just(("classes",)),
                                    st.one_of(numbers, printable, st.just([]))),
    **{
        f"{'.'.join(map(str, path))} out of range": values.map(
            lambda value, path=path: _replaced(path, value))
        for path, values in OUT_OF_RANGE.items()
    },
}
FUZZ = settings(max_examples=30, derandomize=True, database=None, deadline=None)


def _exit_code(raw, directory) -> tuple[int, str]:
    path = directory / "fuzz.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--scenario", str(path), "--out", str(directory / "out")])
    return code, err.getvalue()


def test_full_fuzz_base_is_a_valid_scenario():
    scenario_from_dict(full_dict())


@pytest.mark.parametrize("kind", sorted(MALFORMED_EDITS))
@FUZZ
@given(data=st.data())
def test_malformed_mapping_is_a_validation_error(tmp_path_factory, kind, data):
    raw = full_dict()
    data.draw(MALFORMED_EDITS[kind])(raw)
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)
    code, err = _exit_code(raw, tmp_path_factory.mktemp("fuzz"))
    assert code == EXIT_VALIDATION
    assert json.loads(err)["error"] == "validation"


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


ANY_PATH = list(_paths(full_dict()))
anything = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), printable),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(printable, inner, max_size=3)),
    max_leaves=6,
)


@settings(FUZZ, max_examples=200)
@given(edits=st.lists(st.tuples(st.sampled_from(ANY_PATH), anything), min_size=1, max_size=3))
def test_any_value_anywhere_loads_or_is_a_validation_error(tmp_path_factory, edits):
    raw = full_dict()
    for path, value in edits:
        # An earlier edit may have replaced a container on this path.
        with contextlib.suppress(KeyError, IndexError, TypeError):
            _set(raw, path, value)
    try:
        scenario_from_dict(raw)
    except ScenarioError:
        code, err = _exit_code(raw, tmp_path_factory.mktemp("fuzz"))
        assert code == EXIT_VALIDATION
        assert json.loads(err)["error"] == "validation"


# ---------------------------------------------------------------------------
# Trajectory CSV: the column writer against the event-by-event writer
# ---------------------------------------------------------------------------


def event_writer(path, traj, shash):
    """The trajectory writer as it read each row from ``traj.events``."""
    n = traj.n_dims
    header = (
        ["t_ms"]
        + [f"m_{i + 1}" for i in range(n)]
        + ["occupied_blocks", "rho", "event_kind", "n_downgraded", "n_discarded",
           "scenario_hash"]
    )
    demands = traj.demands

    def row(t, counts, kind, dw, dc):
        occ = sum(c * d for c, d in zip(counts, demands))
        return [t, *counts, occ, occ / traj.capacity, kind, dw, dc, shash]

    rows = [row(0.0, traj.initial_counts, "initial", 0, 0)]
    rows.extend(
        row(e.t_ms, e.counts, e.kind, e.downgraded, e.discarded) for e in traj.events
    )
    _write_csv(path, header, rows)


def hand_record(events, initial=(1, 2, 0), capacity=62, end=3e15):
    return TrajectoryRecord.from_events(
        events, policy="NC3", capacity=capacity, dim_labels=("a", "b", "c"),
        demands=(1, 2, 1), initial_counts=initial, end_ms=end, horizon_ms=end,
        t_inject_ms=None, seed=0,
    )


HAND_PATHS = {
    "empty": lambda: hand_record([]),
    "large_and_fractional_times": lambda: hand_record([
        Event(0.5, ARRIVAL_ACCEPTED, 0, 0, 0, (2, 2, 0)),  # rho 6/62
        Event(7.0, ARRIVAL_DOWNGRADED, 1, 1, 0, (2, 2, 1)),
        Event(999999999999999.0, DOWNGRADE_CASCADE, 0, 1, 1, (3, 1, 1)),
        Event(1e15, DEPARTURE, 2, 0, 0, (3, 1, 0)),
        Event(1e15 + 2.0, ARRIVAL_REJECTED, 1, 0, 0, (3, 1, 0)),
        Event(2.5e15, PREEMPT_DISCARD, 0, 0, 1, (4, 0, 0)),
    ]),
    "integral_rho": lambda: hand_record(
        [Event(3.0, ARRIVAL_ACCEPTED, 1, 0, 0, (0, 2, 0))], initial=(0, 1, 0), capacity=2),
}


@pytest.mark.parametrize("name", sorted(HAND_PATHS))
def test_trajectory_csv_equals_the_event_writer_on_hand_paths(tmp_path, name):
    traj = HAND_PATHS[name]()
    write_trajectory_csv(tmp_path / "cols.csv", traj, "abc123")
    event_writer(tmp_path / "events.csv", traj, "abc123")
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "events.csv").read_bytes()


@pytest.mark.parametrize("name", ["demo_nc3_small", "table2_nc2_lam40", "table2_nc3_lam20"])
def test_trajectory_csv_equals_the_event_writer_on_simulated_runs(tmp_path, name):
    sc = replace(load_bundled_scenario(name), replications=4)
    for crn in (False, True):
        for traj in run_experiment(sc, crn=crn):
            write_trajectory_csv(tmp_path / "cols.csv", traj, "h")
            event_writer(tmp_path / "events.csv", traj, "h")
            assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "events.csv").read_bytes()
