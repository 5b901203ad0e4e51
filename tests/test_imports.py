"""The import graph: a command loads only what it runs.  numpy is loaded
by sweep, exact analysis and simulate, and fractions by no command."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qkdnet

SRC = str(Path(qkdnet.__file__).resolve().parents[1])


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this
    checkout's qkdnet."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_cli_loads_neither_numpy_nor_fractions():
    out = run_fresh(
        "import sys, qkdnet.cli\n"
        "print(sorted(m for m in ('numpy', 'fractions') if m in sys.modules))"
    )
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--n", "20", "--c", "3", "--eps-auth", "1e-3", "--eps-qkd", "1e-3"],
        ["optimize-c", "--n", "20"],
        ["routes", "--n", "6", "--c", "2", "--scheme"],
        ["demo-protocol", "--n", "6", "--c", "2"],
    ],
)
def test_pure_python_commands_do_not_load_numpy(argv):
    out = run_fresh(
        "import contextlib, io, sys\n"
        "from qkdnet.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'numpy' in sys.modules)"
    )
    assert out.split() == ["0", "False"]


def test_simulator_names_load_on_access():
    from qkdnet import CompromiseScenario, TrialStats, node_attack_succeeds, run_trials
    from qkdnet import simulator, topology

    assert run_trials is simulator.run_trials
    assert TrialStats is simulator.TrialStats
    assert node_attack_succeeds is simulator.node_attack_succeeds
    assert qkdnet.link_attack_succeeds is simulator.link_attack_succeeds
    assert CompromiseScenario is topology.CompromiseScenario
    with pytest.raises(AttributeError, match="no_such_name"):
        qkdnet.no_such_name
