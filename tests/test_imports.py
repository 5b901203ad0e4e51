"""The import graph: a command loads only what it runs.  numpy is loaded
by exact eps2 (exact analysis, sweep --param eps_qkd) and simulate, the
chain driver by sweep and exact analysis, routes by routes and
demo-protocol, protocol and hashlib by demo-protocol, and fractions and
dataclasses by no command."""

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
    # nor anything else that only some commands run
    out = run_fresh(
        "import sys, qkdnet.cli\n"
        "print(sorted(m for m in ('numpy', 'fractions', 'dataclasses', 'hashlib',\n"
        "    'qkdnet.chains', 'qkdnet.routes', 'qkdnet.protocol', 'qkdnet.simulator')\n"
        "    if m in sys.modules))"
    )
    assert out.strip() == "[]"


def test_import_simulator_loads_no_exact_kernel():
    out = run_fresh(
        "import sys, qkdnet.simulator\n"
        "print([m for m in ('qkdnet.combinatorics', 'qkdnet.chains') if m in sys.modules])"
    )
    assert out.strip() == "[]"


NOT_ROUTES = ("numpy", "qkdnet.chains", "qkdnet.routes", "qkdnet.protocol", "hashlib")


@pytest.mark.parametrize(
    "argv",
    [
        (["analyze", "--n", "20", "--c", "3", "--eps-auth", "1e-3", "--eps-qkd", "1e-3"],
         NOT_ROUTES),
        (["optimize-c", "--n", "20"], NOT_ROUTES),
        (["routes", "--n", "6", "--c", "2", "--scheme"], ("numpy", "qkdnet.protocol", "hashlib")),
        (["demo-protocol", "--n", "6", "--c", "2"], ("numpy",)),
        (["demo-protocol", "--n", "6", "--c", "2", "--json-out", os.devnull], ("numpy",)),
        (["routes", "--n", "6", "--c", "2", "--enumerate"],
         ("numpy", "qkdnet.protocol", "hashlib")),
        (["routes", "--n", "6", "--c", "2", "--count-only"],
         ("numpy", "qkdnet.protocol", "hashlib")),
        # numpy.ma (loaded by np.unique, for one) costs about 1.3 MB of RSS
        (["simulate", "--n", "30", "--c", "3", "--p-node", "0.4", "--p-link", "0.3",
          "--trials", "2000", "--seed", "1"],
         ("numpy.ma", "qkdnet.routes", "qkdnet.protocol", "qkdnet.chains")),
        (["sweep", "--param", "p", "--spacing", "log", "--start", "1e-4", "--stop", "0.5",
          "--points", "5", "--n", "40", "--c", "4"],
         ("numpy", "qkdnet.routes", "qkdnet.protocol", "hashlib")),
    ],
)
def test_pure_python_commands_do_not_load_numpy(argv):
    """Each command exits 0 without loading the modules listed with it."""
    argv, absent = argv
    out = run_fresh(
        "import contextlib, io, sys\n"
        "from qkdnet.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(code, [m for m in {absent!r} if m in sys.modules])"
    )
    assert out.strip() == "0 []"


def test_no_command_loads_dataclasses():
    out = run_fresh(
        "import contextlib, io, sys\n"
        "from qkdnet.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv.split()) for argv in (\n"
        "        'analyze --n 8 --c 2 --eps-auth 0.1 --eps-qkd 0.1 --mode exact',\n"
        "        'sweep --param p --start 0.01 --stop 0.5 --points 2 --n 8 --c 2',\n"
        "        'routes --n 8 --c 2 --scheme',\n"
        "        'optimize-c --n 8',\n"
        "        'simulate --n 8 --c 2 --p-node 0.3 --p-link 0.3 --trials 100 --seed 1',\n"
        "        'demo-protocol --n 6 --c 2')]\n"
        "print(codes, 'dataclasses' in sys.modules)"
    )
    assert out.strip() == "[0, 0, 0, 0, 0, 0] False"


# Every name qkdnet exported when its submodules were imported eagerly, by
# home module; each must still resolve to that module's object.
EXPORTS = {
    "combinatorics": ("AttackProbability", "binomial", "f_inclusion_exclusion",
                      "p_success_approx", "p_success_exact"),
    "errors": ("CapExceededError", "InconsistencyError", "QkdNetError", "ValidationError"),
    "protocol": ("adversary_view", "reconstruct_at_endpoint", "run_session"),
    "routes": ("RouteSet", "RoutingScheme", "build_routing_scheme", "cannacci_count",
               "enumerate_routes"),
    "security": ("SecurityParams", "SecurityReport", "epsilon1_approx", "epsilon1_exact",
                 "epsilon2_approx", "epsilon2_exact", "epsilon_qn", "hash_reduction_factor",
                 "optimal_c_integer", "optimal_c_root"),
    "simulator": ("TrialStats", "run_trials", "node_attack_succeeds", "link_attack_succeeds"),
    "topology": ("CompromiseScenario", "Link", "NetworkSegment", "make_segment"),
}


def test_exported_names_load_on_access():
    import importlib

    for home, names in EXPORTS.items():
        module = importlib.import_module(f"qkdnet.{home}")
        assert getattr(qkdnet, home) is module
        for name in names:
            assert getattr(qkdnet, name) is getattr(module, name), name
            assert name in dir(qkdnet)
    assert qkdnet.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        qkdnet.no_such_name


def test_package_import_loads_no_submodule():
    out = run_fresh(
        "import sys, qkdnet\n"
        "print(sorted(m for m in sys.modules if m.startswith('qkdnet.')))\n"
        "qkdnet.run_session\n"
        "print(sorted(m for m in sys.modules if m.startswith('qkdnet.')))"
    )
    assert out.splitlines() == [
        "[]", "['qkdnet.errors', 'qkdnet.protocol', 'qkdnet.routes', 'qkdnet.topology']"
    ]
