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


def bench_modules():
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import spans
    import worker

    return spans, worker


def test_benchmark_traces_every_declared_layer():
    spans, worker = bench_modules()

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


def test_session_counters_count_the_demo_session():
    # The tracer counts the session from run_session's arguments as the
    # call returns, so the session must run inside that one call.
    spans, worker = bench_modules()
    from qkdnet import protocol, routes  # noqa: F401 (loaded before the tracer wraps it)

    (argv,) = [argv for argv in worker.WARMUP if argv[0] == "demo-protocol"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code, raised, *_ = worker.run_op(qkdnet.cli.main, argv)
    finally:
        tracer.uninstall()
    assert (code, raised) == (0, None)
    metrics = tracer.metrics()
    assert metrics["protocol.run_session.calls"][0] == 1
    seg = qkdnet.make_segment(int(argv[argv.index("--n") + 1]), int(argv[argv.index("--c") + 1]))
    assert metrics["protocol.ciphertext_bits"][0] == 128 * routes.bundle_id_total(seg)
