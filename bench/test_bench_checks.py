"""The op checker accepts the CLI's real output and counts wrong values,
wrong exit codes and raised exceptions as failed.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import itertools
import json

import pytest

import checks
import qkdnet.cli
import worker
import workloads
from workloads import Op

CAPS = worker.edge_cap_commands(qkdnet.cli.main)


def _small_ops() -> list[Op]:
    """Small ops of every kind the workloads generate."""
    ops = list(itertools.islice(workloads.generate("small_queries", 7, CAPS), 30))
    sweep = {"n": 30, "c": 3, "start": 1e-5, "stop": 0.9, "points": 5}
    ops.append(Op("sweep", sweep, ("sweep", "--param", "p", "--spacing", "log", "--points", "5",
                                   "--n", "30", "--c", "3", "--start", "1e-05", "--stop", "0.9")))
    sim = {"n": 20, "c": 3, "p_node": 0.5, "p_link": 0.4, "trials": 5000, "seed": 3}
    ops.append(Op("simulate", sim, ("simulate", "--n", "20", "--c", "3", "--p-node", "0.5",
                                    "--p-link", "0.4", "--trials", "5000", "--seed", "3")))
    ops.append(Op("demo", {"n": 8, "c": 2}, ("demo-protocol", "--n", "8", "--c", "2")))
    return ops


def _output(op: Op) -> str:
    rc, raised, out, *_ = worker.run_op(qkdnet.cli.main, op.argv)
    assert (rc, raised) == (0, None), op.argv
    return out


def _first(kind: str, mode: str | None = None) -> Op:
    return next(op for op in _small_ops() if op.kind == kind and op.params.get("mode") == mode)


def _perturb_json(key):
    def perturb(out: str) -> str:
        d = json.loads(out)
        d[key] *= 1 + 1e-6
        return json.dumps(d)
    return perturb


def _perturb_csv(out: str) -> str:
    lines = out.splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_correct_outputs_pass():
    kinds = set()
    for op in _small_ops():
        assert checks.check(op, 0, None, _output(op)) is None, op.argv
        kinds.add(op.kind)
    assert kinds == set(checks.CHECKERS)


@pytest.mark.parametrize("kind,mode,perturb", [
    ("analyze", "exact", _perturb_json("eps1_exact")),
    ("analyze", "exact", _perturb_json("eps2_exact")),
    ("analyze", "approx", _perturb_json("eps1_approx")),
    ("sweep", None, _perturb_csv),
    ("optimize", None, _perturb_json("factor")),
])
def test_value_perturbed_by_1e6_relative_fails(kind, mode, perturb):
    op = _first(kind, mode)
    assert checks.check(op, 0, None, perturb(_output(op))) is not None


def test_wrong_exit_code_fails():
    op = _first("analyze", "exact")
    out = _output(op)
    assert checks.check(op, 3, None, out) == "exit code 3"


def _recursing_main(argv):
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize("main", [qkdnet.cli.main, _recursing_main])
def test_raised_exception_fails(main):
    op = _first("routes")
    # An unknown flag makes argparse raise SystemExit.
    rc, raised, out, *_ = worker.run_op(main, op.argv + ("--no-such-flag",))
    assert raised is not None
    assert checks.check(op, rc, raised, out) == raised


def test_failures_count_in_failed_ratio():
    op = _first("analyze", "exact")
    calls = []

    def flaky_main(argv):
        calls.append(argv)
        if len(calls) == 2:
            return 3
        if len(calls) == 3:
            raise RecursionError("maximum recursion depth exceeded")
        return qkdnet.cli.main(argv)

    outcomes, loop = worker.run_loop(flaky_main, [op] * 3)
    _, details = worker.e2e_metrics(outcomes, loop)
    assert details["failed_ratio"] == pytest.approx(2 / 3)
