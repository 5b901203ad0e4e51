"""qkdnet benchmark: one command for every end-to-end and per-layer metric.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json; bench/README.md says
why each workload exists and which metric each layer should move.

1. Set-up: a fresh interpreter imports ``qkdnet.cli`` from the checkout's
   ``src`` several times; ``setup_s`` is the median wall time.
2. The workload runs in a fresh child process (``worker.py``) with
   single-threaded BLAS, for S seconds, and its outputs are checked.
   With ``--trace 1`` it runs S/2 seconds, then replays those ops traced.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it records the seed, versions, sample counts
and the workload-specific figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 9
# Each run must end within 180 s; leave room for set-up and checking.
TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall times of fresh interpreters importing qkdnet.cli. One untimed
    import first writes the bytecode caches, which an installed package has."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import qkdnet.cli"], env=env, cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def selected(metrics: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, in its order; absent ones stay absent."""
    return {m["name"]: metrics[m["name"]] for m in spec if m["name"] in metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "qkdnet" / "__init__.py").is_file():
        print(f"error: no qkdnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    env = child_env()
    setup = measure_setup(env)
    worker = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=TIMEOUT_S - (time.perf_counter() - began),
    )
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr[-4000:])
        print(f"error: worker exited {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.splitlines()[-1])

    metrics = result["metrics"]
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    record = result["record"]
    record.update(git_sha=git_sha(), nproc=os.cpu_count(), setup_samples_s=setup)
    print(json.dumps({"record": record, "metrics": metrics}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": selected(metrics, spec["per_layer" if args.trace else "end_to_end"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
