"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-http --seeds 1-10

Each run is ``perfbench/run.py`` in a fresh process with BENCHMARK.json's
``run_seconds``.  Every run's raw values are kept in
``.perfbench/spread-<workload>.json``; the table gives each end-to-end
metric's median and its spread, the quartile distance over the median as
``statistics.quantiles(values, n=4)`` gives them, beside the metric's bound,
and names every metric whose spread exceeds it.  ``setup_s`` has no spread
verdict: its bound applies to the shift of its median only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``"1-5"`` or ``"1,4,9"`` to a list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if completed.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {completed.returncode}: {completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, benchmark["run_seconds"])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
    out = ROOT / ".perfbench" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "runs": runs}, indent=1))

    exceeded = []
    print(f"{'metric':36s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for name, values in _values(runs).items():
        median = statistics.median(values)
        spread = quartile_spread(values)
        bound = bounds[name]
        verdict = ""
        if name != "setup_s":
            verdict = "ok" if spread <= bound else "EXCEEDS"
            if spread > bound:
                exceeded.append(name)
            if spread > bound / 3:
                verdict += " (above a third of the bound)"
        print(f"{name:36s} {median:12.6g} {spread:8.4f} {bound:6.2f}  {verdict}")
    print("spread exceeds bound: " + (", ".join(exceeded) if exceeded else "none"))
    return 1 if exceeded else 0


def _values(runs: list[dict]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, entry in run["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    return values


if __name__ == "__main__":
    sys.exit(main())
