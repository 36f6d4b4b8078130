import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ranburst import ScenarioError, kaufman_roberts, run_experiment, simulator
from ranburst.cli import (
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_VALIDATION,
    MODES,
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
    MAX_CAPACITY_BLOCKS,
    MAX_EXPECTED_EVENTS,
    MAX_EXPECTED_RUN_EVENTS,
    MAX_GRID_POINTS,
    MAX_REPLICATIONS,
    MAX_RUN_CURVE_POINTS,
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
    raw["warmup"] = "empty_start"
    sc = scenario_from_dict(raw)
    assert sc.radio.capacity_blocks == 9


def test_unreadable_file_and_bad_yaml(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("policy: [unclosed")
    with pytest.raises(ScenarioError, match="cannot parse"):
        load_scenario(bad)


def bumped(value):
    """Another value of the same kind: a scalar moved, a dataclass with every
    field moved."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    return replace(value, **{f.name: bumped(getattr(value, f.name)) for f in fields(value)})


def test_scenario_hash_sensitive_to_parameters():
    a = load_bundled_scenario("table2_nc3_lam20")
    b = load_bundled_scenario("table2_nc3_lam40")
    assert scenario_hash(a) != scenario_hash(b)
    assert scenario_hash(a) == scenario_hash(load_bundled_scenario("table2_nc3_lam20"))
    # Every field moves the hash but the three that only name the scenario,
    # and so does every field of a nested dataclass.
    changed = {
        "classes": a.classes[:1],
        "injection": None,
        "initial_counts": (0, 0, 0),
    }
    for f in fields(a):
        value = changed[f.name] if f.name in changed else bumped(getattr(a, f.name))
        moved = scenario_hash(replace(a, **{f.name: value})) != scenario_hash(a)
        assert moved == (f.name not in ("label", "description", "figure")), f.name
    nested = [("radio", f.name) for f in fields(a.radio)]
    nested += [("injection", f.name) for f in fields(a.injection)]
    for name, field in nested:
        value = replace(getattr(a, name), **{field: bumped(getattr(getattr(a, name), field))})
        assert scenario_hash(replace(a, **{name: value})) != scenario_hash(a), (name, field)
    for f in fields(a.classes[1]):
        video = a.classes[1]
        value = 1.0 if getattr(video, f.name) is None else bumped(getattr(video, f.name))
        classes = (a.classes[0], replace(video, **{f.name: value}))
        assert scenario_hash(replace(a, classes=classes)) != scenario_hash(a), f.name


# ---------------------------------------------------------------------------
# Output bundles
# ---------------------------------------------------------------------------


# sha256 of summary.csv and curves.csv for each table2 scenario at its
# bundled settings (30 replications, bundled seed). They were taken from the
# walk that drew through Generator.exponential and Generator.random method
# calls; every later draw path, metric and formatter must give these bytes.
TABLE2_CSV_SHA256 = {
    "table2_nc1_lam10": (
        "67dea1f0f96853f93ff92bb032ca74eff8f4ea0ae997b38bf3d161ce883a09d9",
        "6b0cbf844ee9ce0b10617805fa8c1f87eae80c2d0ac302f0d100f17da58318dd",
    ),
    "table2_nc1_lam20": (
        "c40880788c10a9cfffa160afe3103aa906b0b24190195ed11c1983eaa1ef5ed0",
        "136d75ccba3d114de0884ed63dc413ae11cd19a84caf7a23f9cb7d1fe4ccaee2",
    ),
    "table2_nc1_lam40": (
        "fe8bb236866043dd10a469c32c697d45f29b0df29398921cc3d65f76088aa2d3",
        "dcaf54ae00c1e98e116cff53e0a6ed3ce478a5cdc29653dc9e35d65fee7f3074",
    ),
    "table2_nc2_lam10": (
        "689be5d71eaaf333031646f42a7f1b386706f82a908fa3878adf22e70fd0bd21",
        "b57c5b320479b1fd0799970a7a020b2dbc2917706919c77a36ab1d65bc7710f2",
    ),
    "table2_nc2_lam20": (
        "4af1ec32b8dfd168b3496dcc0284191191b50a7014ecd05502cc5facb235d59e",
        "5220251b20dada087bf3159b2e08f1cd282c39c8c232c846930ddcd976ce2c94",
    ),
    "table2_nc2_lam40": (
        "40f9e151e1497eb94c323ad932ea6a371cbdb591d437d3a3b2f40cdb5e89d60c",
        "5f6400be794ed1af264e3fe51605393fefe9d164f359671c97f0005b333c840f",
    ),
    "table2_nc3_lam10": (
        "15bdf12c292fade91452ebbcc1e5aeeb84882df6f06c2a91d38d919c51d567ca",
        "b74cac9643219f84746b41811d942d7d05967bbb6fcd56a5fabb9d64afbb6889",
    ),
    "table2_nc3_lam20": (
        "b53b313f868e736b9cb4e85380897bf697a8d295333fde140764de2f939234f5",
        "3ccb695cf28e09fe2800e3a13d9ab17b1eb780307fc9e43ee249a905bc82508b",
    ),
    "table2_nc3_lam40": (
        "66dae683962b11fc764eebb88b73d65193c1b9d251c626567e3ffea8302649c0",
        "62a9877acd850c1f01f8b983071b401036b6c7705a8c60aecef853f2b14a2f31",
    ),
}


@pytest.mark.parametrize("name", BUNDLED)
def test_table2_csv_bytes_are_pinned(tmp_path, name):
    bundle = run(load_bundled_scenario(name), mode="simulate", out_dir=tmp_path)
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (bundle.summary_path, bundle.curves_path))
    assert digests == TABLE2_CSV_SHA256[name]


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


def test_nc1_with_a_binding_cap_reports_the_generator(tmp_path, capsys):
    # One class of demand 1 capped at 3 sessions in 10 blocks: the
    # truncated Erlang loss system, beyond the occupancy recursion.
    raw = yaml.safe_load(bundled_scenario_path("oracle_nc1_small").read_text())
    raw["classes"] = [dict(raw["classes"][0], max_sessions=3)]
    path = tmp_path / "capped.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["--scenario", str(path), "--mode", "analytic", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    rows = (tmp_path / "out" / "analytic.csv").read_text().splitlines()[1:]
    by_dim = {r.split(",")[0]: r.split(",") for r in rows}
    a = raw["classes"][0]["arrival_rate"] / raw["classes"][0]["service_rate"]
    erlang = [a**k / math.factorial(k) for k in range(4)]
    assert by_dim["0"][2] == "generator"
    assert float(by_dim["0"][4]) == pytest.approx(erlang[3] / sum(erlang), abs=1e-10)


def test_duplicate_class_ids_exit_2_with_one_record(tmp_path, capsys):
    # Results are keyed by class id: a shared id would report the second
    # class's blocking, and its label, for the first.
    raw = yaml.safe_load(bundled_scenario_path("oracle_nc1_small").read_text())
    raw["classes"][1]["id"] = raw["classes"][0]["id"]
    path = tmp_path / "dup.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["--scenario", str(path), "--mode", "analytic", "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "validation" and "distinct" in record["message"]
    assert not (tmp_path / "out").exists()


def test_both_mode_populates_comparison_columns(tmp_path):
    sc = load_bundled_scenario("demo_nc3_small")
    bundle = run(sc, mode="both", out_dir=tmp_path)
    header, *rows = bundle.analytic_path.read_text().splitlines()
    cols = header.split(",")
    sim_b = cols.index("sim_blocking")
    video_row = rows[1].split(",")
    assert video_row[sim_b] != ""


def test_byte_identical_reruns_and_parallel_schedule(tmp_path, monkeypatch):
    # Three pool processes even on a smaller host: with workers=3 the four
    # replications run in chunks of 1, 1 and 2.
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
    sc = load_bundled_scenario("demo_nc3_small")
    n = sc.replications
    names = [f"rep_{r:03d}.csv" for r in range(n)]
    files = ["summary.csv", "curves.csv", *(f"trajectories/{name}" for name in names)]
    ref = tmp_path / "serial"
    run(sc, mode="simulate", out_dir=ref, emit_trajectories=True)
    for label, workers in (("rerun", None), ("pool2", 2), ("pool3", 3)):
        out = tmp_path / label
        bundle = run(sc, mode="simulate", out_dir=out, emit_trajectories=True, workers=workers)
        assert bundle.trajectory_paths == [out / "trajectories" / name for name in names]
        assert [r.replication for r in bundle.records] == list(range(n))
        assert sorted(p.name for p in (out / "trajectories").iterdir()) == names
        for name in files:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (label, name)


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


def test_a_heavily_loaded_stationary_start_runs(tmp_path, capsys):
    # table2_nc2_lam20 on 2,000 blocks with 36,000 video erlangs: its start
    # law comes from an occupancy recursion that passes the float range, and
    # used to be all NaN, so drawing the start failed with a traceback.
    raw = yaml.safe_load(bundled_scenario_path("table2_nc2_lam20").read_text())
    raw["radio"].update(num_prbs=1000, channel_bandwidth_khz=800000)
    raw["classes"][0]["max_sessions"] = 2000
    raw["classes"][1].update(demand_khz=360, arrival_rate=60, max_sessions=2000)
    scenario = scenario_from_dict(raw)
    assert scenario.radio.capacity_blocks == 2000
    path = tmp_path / "heavy.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    code = main(["--scenario", str(path), "--out", str(tmp_path / "out"),
                 "--replications", "1"])
    assert code == EXIT_OK, capsys.readouterr().err
    row = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1].split(",")
    rho_avg = float(row[2])
    assert 0.9 < rho_avg <= 1.0  # 36,000 erlangs keep the 2,000 blocks nearly full


@pytest.mark.parametrize("policy, cap, capacity, code", [
    ("nc1", 20, 62, EXIT_OK),
    ("nc1", 20, 63, EXIT_OK),
    ("nc2", 20, 62, EXIT_OK),
    ("nc2", 20, 63, EXIT_OK),
    ("nc3", 31, 63, EXIT_VALIDATION),
    ("nc3", 20, 62, EXIT_VALIDATION),
])
def test_a_capped_video_class_takes_the_stationary_start(tmp_path, capsys, policy, cap,
                                                          capacity, code):
    # Under NC1 and NC2 the start law is the video class's own whatever its
    # cap; NC3 leaves it when the blocks left at the full-rate ceiling (1 at
    # 63 blocks, 22 under a cap of 20) fit a downgraded session.
    raw = yaml.safe_load(bundled_scenario_path(f"table2_{policy}_lam20").read_text())
    raw["classes"][1]["max_sessions"] = cap
    if capacity == 63:
        raw["radio"].update(beta=1, num_prbs=63)  # 63 PRBs of 360 kHz
    path = tmp_path / "capped.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    got = main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--replications", "2"])
    err = capsys.readouterr().err
    assert got == code, err
    if code == EXIT_OK:
        assert load_scenario(path).radio.capacity_blocks == capacity
    else:
        assert f"at capacity {capacity}, NC3 admits" in json.loads(err)["message"]


@pytest.mark.parametrize("name", ["demo_nc3_small", "oracle_nc1_small", "table2_nc2_lam20"])
@pytest.mark.parametrize("cls", [0, 1])
def test_a_session_cap_past_int64_acts_as_the_pool_bound(tmp_path, capsys, name, cls):
    # A count never passes C // demand, so a larger cap, even one past int64,
    # gives the records and CSV bodies of that bound; only the hash moves.
    raw = yaml.safe_load(bundled_scenario_path(name).read_text())
    raw["horizon_ms"] = min(raw["horizon_ms"], 500_000)  # oracle_nc1_small's is 2.5e7
    sc = scenario_from_dict(raw)
    bound = sc.radio.capacity_blocks // sc.classes[cls].demand_blocks
    bodies, records = {}, {}
    for cap in (2**64, bound):
        raw["classes"][cls]["max_sessions"] = cap
        path = tmp_path / f"cap{cap}.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        for mode in MODES:
            out = tmp_path / f"cap{cap}-{mode}"
            code = main(["--scenario", str(path), "--out", str(out), "--mode", mode,
                         "--replications", "2"])
            assert code == EXIT_OK, capsys.readouterr().err
            bodies[cap, mode] = {
                p.name: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
                for p in sorted(out.glob("*.csv"))
            }
        records[cap] = run_experiment(replace(load_scenario(path), replications=2))
    for mode in MODES:
        assert bodies[2**64, mode] == bodies[bound, mode], mode
    for big, capped in zip(records[2**64], records[bound]):
        assert big.initial_counts == capped.initial_counts
        assert big.events == capped.events


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


def test_an_unwritable_output_directory_is_an_output_error(tmp_path, capsys):
    path = bundled_scenario_path("demo_nc3_small")
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["--scenario", str(path), "--out", str(blocker / "out")])
    assert code == EXIT_OUTPUT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "output" and str(blocker / "out") in err["message"]


def test_a_write_failing_in_a_pool_worker_is_an_output_error(tmp_path):
    # Replications 0 and 1 go to the first of two workers, 2 and 3 to the
    # second; the first cannot write rep_001.csv. A serial run would stop
    # there, so rep_003.csv shows that the other worker ran, and the exit
    # within the timeout that the pool shut down.
    out = tmp_path / "out"
    (out / "trajectories" / "rep_001.csv").mkdir(parents=True)
    code = (
        "import os, sys; os.cpu_count = lambda: 2; from ranburst.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "--scenario", str(bundled_scenario_path("demo_nc3_small")),
         "--out", str(out), "--emit-trajectories", "--workers", "2"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == EXIT_OUTPUT
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "output" and "rep_001.csv" in err["message"]
    assert (out / "trajectories" / "rep_000.csv").is_file()
    assert (out / "trajectories" / "rep_003.csv").is_file()
    assert not (out / "summary.csv").exists()


def test_too_many_replications_are_a_validation_error(tmp_path, capsys):
    # About 1e-3 expected events a replication: the event bounds let it pass.
    raw = demo_dict(injection=None, horizon_ms=0.05, replications=1_000_000_000)
    scenario_from_dict(dict(raw, replications=MAX_REPLICATIONS))
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(raw))
    code = main(["--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert f"at most {MAX_REPLICATIONS}" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value, bound", [
    (("time_scale",), 1.0e308, MAX_EXPECTED_EVENTS),
    (("classes", 1, "arrival_rate"), 1.0e300, MAX_EXPECTED_EVENTS),
    # demo_nc3_small expects about 67 events a replication: 1.3e8 in all.
    (("replications",), 2_000_000, MAX_EXPECTED_RUN_EVENTS),
], ids=["time_scale", "arrival_rate", "replications"])
def test_rates_too_high_for_the_horizon_are_validation_errors(tmp_path, capsys, path, value,
                                                              bound):
    # Holding times this short stop the clock, or overflow the start law; a
    # run this long would hold gigabytes of records.
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(_set(demo_dict(), path, value)))
    code = main(["--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and f"{bound} events" in err["message"]


def test_a_replications_override_past_the_run_bound_is_a_validation_error(tmp_path, capsys):
    path = bundled_scenario_path("table2_nc3_lam20")  # about 6.3e3 events a replication
    code = main(["--scenario", str(path), "--out", str(tmp_path), "--replications", "20000"])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert f"{MAX_EXPECTED_RUN_EVENTS} events" in err["message"]
    assert not any(tmp_path.iterdir())


def test_overrides_past_the_curve_point_bound_are_a_validation_error(tmp_path, capsys):
    # 15,000 x 600,001 curve points; the 9.5e7 expected events pass their bound.
    path = bundled_scenario_path("table2_nc3_lam20")
    code = main(["--scenario", str(path), "--out", str(tmp_path),
                 "--replications", "15000", "--grid-ms", "0.01"])
    assert code == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "validation"
    assert f"replications times the grid points of horizon_ms / grid_ms exceed " \
           f"{MAX_RUN_CURVE_POINTS} curve points" in err["message"]
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize("literal", [".nan", ".inf", "-.inf", "1e400"])
def test_non_finite_bandwidths_are_validation_errors(tmp_path, capsys, literal):
    raw = demo_dict()
    raw["radio"]["channel_bandwidth_khz"] = "BANDWIDTH"
    text = yaml.safe_dump(raw).replace("BANDWIDTH", literal)
    with pytest.raises(ScenarioError, match="bandwidth"):
        scenario_from_dict(yaml.safe_load(text))
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    code = main(["--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    assert not (tmp_path / "out").exists()


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


def test_every_public_name_resolves():
    # A name deleted from the package but left in __all__ fails here: the
    # star import raises AttributeError on it.
    import ranburst

    exec("from ranburst import *", {})
    assert [name for name in ranburst.__all__ if not hasattr(ranburst, name)] == []


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


@pytest.mark.parametrize("workers", [1, 2])
def test_a_simulate_run_leaves_scipy_unloaded(tmp_path, workers):
    # A stationary video start comes from the occupancy recursion, which
    # needs numpy only. Importing scipy.sparse.linalg after a run raised its
    # peak memory by a third.
    code = (
        "import os, sys; os.cpu_count = lambda: 2\n"
        "from dataclasses import replace\n"
        "from ranburst.cli import load_bundled_scenario, run\n"
        "scenario = load_bundled_scenario('table2_nc3_lam20')\n"
        "assert scenario.warmup == 'stationary_video_start'\n"
        "run(replace(scenario, replications=4), mode='simulate', out_dir=sys.argv[1],\n"
        "    workers=int(sys.argv[2]))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out"), str(workers)],
        capture_output=True, text=True, check=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[]"


def test_importing_ranburst_leaves_numpy_random_unloaded():
    # The simulator binds numpy's C draws on first use, not at import.
    code = "import ranburst, ranburst.cli, sys; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


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
    ("replications",): st.one_of(st.integers(max_value=0),
                                 st.integers(min_value=MAX_REPLICATIONS + 1)),
    ("base_seed",): st.integers(max_value=-1),
    ("radio", "beta"): st.integers().filter(lambda b: not 0 <= b <= 4),
    ("radio", "block_khz"): st.integers().filter(lambda b: b <= 0 or 360 % b),
    ("radio", "num_prbs"): st.just(0),
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


def _run_grid(replications, points):
    """Set ``replications`` and a grid step that gives ``points`` grid points."""
    return lambda raw: raw.update(replications=replications, grid_ms=3000 / (points - 1))


# Runs whose replications times grid points pass MAX_RUN_CURVE_POINTS, while
# each bound alone holds; full_dict expects 67 events a replication.
too_many_curve_points = st.integers(MAX_RUN_CURVE_POINTS // MAX_GRID_POINTS + 1,
                                    MAX_REPLICATIONS).flatmap(
    lambda reps: st.builds(_run_grid, st.just(reps),
                           st.integers(MAX_RUN_CURVE_POINTS // reps + 1, MAX_GRID_POINTS)))

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
    "replications x grid points out of range": too_many_curve_points,
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


def test_a_pool_past_the_block_bound_exits_2_before_anything_allocates(tmp_path):
    # 10^9 blocks of 360 kHz. Service rates this slow keep the event bounds
    # from binding, and the video cap does not bind, so the start law's
    # occupancy recursion would take 8 GB per array if the run began.
    raw = full_dict()
    raw["radio"].update(channel_bandwidth_khz=4e11, num_prbs=5 * 10**8)
    for cls in raw["classes"]:
        cls["service_rate"] = 1e-9
    raw["classes"][1].update(max_sessions=10**9, downgraded_service_rate=1e-9)
    tracemalloc.start()
    try:
        code, err = _exit_code(raw, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_VALIDATION
    record = json.loads(err)
    assert record["error"] == "validation"
    assert f"1 to {MAX_CAPACITY_BLOCKS} blocks, got 1000000000" in record["message"]
    assert peak < 2**25


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
    for traj in run_experiment(sc):
        write_trajectory_csv(tmp_path / "cols.csv", traj, "h")
        event_writer(tmp_path / "events.csv", traj, "h")
        assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "events.csv").read_bytes()
