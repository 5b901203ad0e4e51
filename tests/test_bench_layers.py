"""The benchmark's traced functions still exist under their traced names.

``bench/spans.py`` skips a traced function that no longer exists and
leaves its metrics out, so deleting or renaming one (or
``NetworkSegment.edges``) would silently drop a per-layer metric that
``BENCHMARK.json`` declares.  This runs the benchmark's warm-up ops with
the tracer installed and checks that every traced function was found and
every declared per-layer metric was produced.
"""

import importlib
import json
import sys
from pathlib import Path

import qkdnet.cli

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_traces_every_declared_layer():
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import spans
    import worker

    for layer in spans.LAYERS:  # the tracer wraps only loaded modules
        importlib.import_module(f"qkdnet.{layer}")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in worker.WARMUP:
            code, raised, *_ = worker.run_op(qkdnet.cli.main, argv)
            assert (code, raised) == (0, None), argv
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    metrics = tracer.metrics()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    absent = [m["name"] for m in declared
              if not m["name"].startswith("trace.") and m["name"] not in metrics]
    assert absent == []
