"""Tests of the benchmark itself, on workloads shrunk to a few seconds."""

import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import workloads
from perfbench.tracer import Tracer

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

# Same code paths, far less work: few replications, and a ten-block NC3 pool
# whose slowest mode has relaxed well before the last transient instant.
SMOKE = workloads.Sizes(
    grid_replications=10,
    pool_replications=6,
    replays=2,
    exact_scenario="demo_nc3_small",
    transient_times_s=(1.0, 60.0),
)


def smoke(workload, traced, tmp_path):
    return workloads.measure(workload, seed=5, seconds=0, traced=traced, sizes=SMOKE,
                             out_root=tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, tmp_path):
    for traced, listed in ((False, "end_to_end"), (True, "per_layer")):
        m = smoke(workload, traced, tmp_path)
        expected = {d["name"]: d["unit"] for d in BENCHMARK[listed]}
        assert {name: unit for name, (_, unit) in m.metrics.items()} == expected
        assert all(math.isfinite(value) for value, _ in m.metrics.values())
        assert m.tally.attempted >= 1
        assert m.tally.failed == 0, m.tally.problems
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_perturbed_steady_state_raises_failed_frac(tmp_path, monkeypatch):
    rb = workloads.import_ranburst()
    solve = rb.analytic.steady_state

    def perturbed(q, *args, **kwargs):
        pi = solve(q, *args, **kwargs).copy()
        pi[0] += 1e-3
        return pi / pi.sum()

    monkeypatch.setattr(rb.analytic, "steady_state", perturbed)
    m = smoke("nc3_exact", False, tmp_path)
    assert m.tally.failed >= 1
    assert m.record["failed_frac"] > 0
    assert any("pi Q" in p for p in m.tally.problems)


def test_truncated_summary_raises_failed_frac(tmp_path, monkeypatch):
    rb = workloads.import_ranburst()
    write = rb.cli.write_summary_csv

    def truncated(path, *args, **kwargs):
        write(path, *args, **kwargs)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))

    monkeypatch.setattr(rb.cli, "write_summary_csv", truncated)
    m = smoke("grid_serial", False, tmp_path)
    assert m.tally.failed == m.tally.attempted == len(workloads.GRID_SCENARIOS)
    assert all("summary.csv" in p for p in m.tally.problems)


def test_tracer_self_times_add_up():
    tracer = Tracer()
    leaf = tracer.leaf("traffic.step", lambda: sum(range(1000)))
    inner = tracer.span("metrics.inner", lambda: [leaf() for _ in range(3)])
    outer = tracer.span("cli.outer", lambda: inner())
    outer()
    self_s = tracer.self_seconds()
    assert tracer.totals("traffic.step")[0] == 3
    assert [s[3] for s in tracer.spans] == [None, 0]
    assert sum(self_s.values()) == pytest.approx(tracer.totals("cli.outer")[1])
    assert min(self_s["cli"], self_s["metrics"], self_s["traffic"]) > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(workloads.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", "grid_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        executable=sys.executable,
    )
    assert done.returncode != 0
    assert done.stdout == ""
