"""Run one ranburst benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid_serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. Each metric is printed as ``name value unit``; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record of the run (seed, held-out seed,
versions, pass samples, problems) and, when traced, the spans of the last
traced pass are written under ``.perfbench-out/``. ``--workload all`` runs
every workload, untraced and traced, each in a fresh process.

The exit code is 0 when the run completed, even if a check failed (then
``correct`` is false), and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

# In-process set-up plus this many fresh interpreters give the setup_s samples.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


def probe_setup(workload: str, seed: int) -> dict:
    """Time the set-up in a fresh interpreter: import plus scenario loads."""
    code = (
        "import json, sys\n"
        "from perfbench.workloads import setup\n"
        "st = setup(sys.argv[1], int(sys.argv[2]))\n"
        "print(json.dumps(st.sample()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args) -> int:
    started = perf_counter()
    samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    m = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                          setup_samples=samples, started=started)
    out = workloads.ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    stem = f"{m.workload}-seed{m.seed}-trace{int(m.traced)}"
    (out / f"{stem}.json").write_text(json.dumps(
        {"record": m.record, "metrics": m.metrics}, indent=2) + "\n")
    if m.trace is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(m.trace) + "\n")
    for problem in m.tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"# {m.workload} seed={m.seed} trace={int(m.traced)} "
          f"passes={m.record['plain_passes']}+{m.record['traced_passes']}")
    for name, (value, unit) in m.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {m.tally.failed_frac:.6g} 1")
    print(result_line(m.tally.failed == 0, m.tally.attempted, m.tally.failed, m.metrics))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    attempted = failed = 0
    metrics = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{workload} --trace {trace} exited with {done.returncode}",
                      file=sys.stderr)
                return 2
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, v in result["metrics"].items():
                metrics[f"{workload}.{name}"] = (v["value"], v["unit"])
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        workloads.source_package()
    except workloads.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
