import argparse
import contextlib
import decimal
import hashlib
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from test_routes import DEMO_SEGMENTS

import qkdnet
from qkdnet.cli import SUBCOMMANDS, build_parser, main

# The largest sweep --points, as documented in --help and the README.
MAX_SWEEP_POINTS = 10**5


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*args, **kwargs):
    """Run ``python *args`` in a fresh interpreter that imports this
    checkout's qkdnet, capturing its output unless ``kwargs`` say
    otherwise; a command that hangs fails after 60 s."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qkdnet.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    options = {"env": env, "capture_output": True, "text": True, "timeout": 60, **kwargs}
    return subprocess.run([sys.executable, *args], **options)


def run_cli_fresh(*argv, **kwargs):
    """``python -m qkdnet.cli *argv`` run by ``run_fresh``."""
    return run_fresh("-m", "qkdnet.cli", *argv, **kwargs)


def load_schema(name):
    path = resources.files("qkdnet.schemas").joinpath(name)
    return json.loads(path.read_text())


def test_analyze_spot_value(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--n", "20", "--c", "3",
        "--eps-auth", "1e-3", "--eps-qkd", "1e-3",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("analyze.schema.json"))
    assert payload["eps_qn"] == pytest.approx(1.8e-8, rel=1e-9)


def test_analyze_zero(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--n", "20", "--c", "3",
        "--eps-auth", "0", "--eps-qkd", "0",
    )
    assert code == 0
    assert json.loads(out)["eps_qn"] == 0.0


def test_analyze_validation_error(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--n", "20", "--c", "25",
        "--eps-auth", "1e-3", "--eps-qkd", "1e-3",
    )
    assert code == 2
    assert "density" in err


def test_analyze_exact_mode_cap(capsys):
    # 54 edges: only the window density limits exact evaluation
    code, out, _ = run_cli(
        capsys, "analyze", "--n", "20", "--c", "3", "--mode", "exact",
        "--eps-auth", "1e-3", "--eps-qkd", "1e-3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eps1_exact"] == pytest.approx(1.6e-8, rel=0.01)


def test_sweep_two_points(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "p", "--start", "0.01", "--stop", "0.1",
        "--points", "2", "--n", "20", "--c", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == "p,p_s_exact,p_s_approx,regime_valid"


def test_sweep_fig5_shape(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "p", "--start", "1e-3", "--stop", "1",
        "--points", "13", "--spacing", "log", "--n", "20", "--c", "3",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    exact = [float(r[1]) for r in rows]
    approx = [float(r[2]) for r in rows]
    assert exact[0] == pytest.approx(approx[0], rel=0.02)  # small-p agreement
    assert exact[-1] > 0.99  # exact saturates near 1


def test_sweep_c_monotone(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "c", "--start", "1", "--stop", "5",
        "--points", "5", "--n", "20", "--p", "0.1",
    )
    assert code == 0
    exact = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert all(a >= b - 1e-15 for a, b in zip(exact, exact[1:]))


def test_sweep_invalid_spec(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--param", "p", "--start", "0.5", "--stop", "0.1",
        "--points", "5",
    )
    assert code == 2


def test_routes_count_only(capsys):
    code, out, _ = run_cli(capsys, "routes", "--n", "6", "--c", "2")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("routes.schema.json"))
    assert payload["count"] == "8"


def test_routes_big_count_and_cap(capsys):
    code, out, _ = run_cli(capsys, "routes", "--n", "200", "--c", "3")
    assert code == 0
    assert int(json.loads(out)["count"]) > 1 << 20
    code, _, err = run_cli(capsys, "routes", "--n", "200", "--c", "3", "--enumerate")
    assert code == 3


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_routes_count_past_int_str_limit(capsys):
    # At c = 2 the route counts are Fibonacci numbers (8 = F(6) at N = 6).
    # F(30000) has 6,270 digits, past CPython's int-to-str limit of 4,300,
    # which the command leaves in place.
    code, out, err = run_cli(capsys, "routes", "--n", "30000", "--c", "2", "--count-only")
    assert code == 0, err
    count = json.loads(out)["count"]
    assert len(count) == 6270
    assert int(decimal.Decimal(count)) == fibonacci(30000)


def test_route_count_memory_is_linear_in_n():
    # Keeping every intermediate count takes O(N^2) bits, about 467 MB
    # here; the last c counts take O(cN).
    limit = 300_000_000
    proc = run_cli_fresh(
        "routes", "--n", "100000", "--c", "2", "--count-only",
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["count"]) == 20899


def test_routes_enumerate_serial(capsys):
    code, out, _ = run_cli(capsys, "routes", "--n", "3", "--c", "1", "--enumerate")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("routes.schema.json"))
    assert payload["routes"] == [[1, 2, 3]]


def test_routes_enumerate_long_serial_chain(capsys):
    # one route of 2000 nodes, longer than the interpreter's recursion limit
    code, out, _ = run_cli(capsys, "routes", "--n", "2000", "--c", "1", "--enumerate")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "1"
    assert payload["routes"] == [list(range(1, 2001))]


def test_routes_scheme_and_edges(capsys):
    code, out, _ = run_cli(capsys, "routes", "--n", "6", "--c", "2", "--scheme")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("routes.schema.json"))
    assert sorted(payload["scheme"]["1-2"] + payload["scheme"]["1-3"]) == list(range(1, 9))

    code, out, _ = run_cli(capsys, "routes", "--n", "6", "--c", "2", "--edges")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "from,to"
    assert len(lines) == 10
    assert lines[1] == "1,2"


def test_routes_edges_streams_its_rows(tmp_path):
    # Written to a file, the rows at (5e4, 4) peaked (tracemalloc) at
    # 21.6 MB when every Link was held at once, and at 0.7 MB streamed.
    path = tmp_path / "edges.csv"
    with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            code = main(["routes", "--n", "50000", "--c", "4", "--edges"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20
    rows = [f"{link.src},{link.dst}" for link in qkdnet.make_segment(50000, 4).edges()]
    assert path.read_text(encoding="utf-8").splitlines() == ["from,to", *rows]


def test_routes_enumerate_streams_its_routes():
    # 196,418 routes: building the whole payload and one JSON string
    # peaked at 425 MB of RSS and ran out of this address space; written
    # one route at a time, the command peaks near 16 MB.
    limit = 256 * 2**20
    proc = run_cli_fresh(
        "routes", "--n", "27", "--c", "2", "--enumerate",
        capture_output=False, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_simulate_deterministic(capsys):
    args = ["simulate", "--n", "10", "--c", "2", "--p-node", "0.3",
            "--p-link", "0.1", "--trials", "2000", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    jsonschema.validate(payload, load_schema("simulate.schema.json"))


def test_simulate_certain_attack(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "10", "--c", "2", "--p-node", "1",
        "--trials", "100", "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)["estimate_auth"] == 1.0


def test_simulate_progress_csv(capsys, tmp_path):
    target = tmp_path / "progress.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "10", "--c", "2", "--p-node", "0.3",
        "--trials", "1000", "--seed", "3", "--progress-csv", str(target),
    )
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "trials,estimate_auth,estimate_link"
    assert lines[-1].startswith("1000,")


def test_simulate_progress_csv_ends_at_reported_result(capsys, tmp_path):
    target = tmp_path / "progress.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "20", "--c", "3", "--p-node", "0.6",
        "--p-link", "0.3", "--trials", "15", "--seed", "7",
        "--progress-csv", str(target),
    )
    assert code == 0
    payload = json.loads(out)
    rows = [line.split(",") for line in target.read_text().strip().split("\n")[1:]]
    assert [int(row[0]) for row in rows] == [1, 3, 4, 6, 7, 9, 10, 12, 13, 15]
    assert float(rows[-1][1]) == payload["estimate_auth"]
    assert float(rows[-1][2]) == payload["estimate_link"]


def test_simulate_negative_seed_is_validation_error(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "20", "--c", "3", "--trials", "10", "--seed", "-1",
    )
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("n,trials", [(10**12, 10), (10**19, 10), (5, 10**15)])
def test_simulate_past_work_cap_exits_3(n, trials):
    # Without the cap, N = 10^12 fails to allocate, N = 10^19 passes
    # numpy's largest dimension, both with a traceback, and 10^15 trials
    # would run for years.  The child runs under an address-space limit,
    # so a run that tries the allocation fails there instead of
    # exhausting the host's memory.
    limit = 1_000_000_000
    proc = run_cli_fresh(
        "simulate", "--n", str(n), "--c", "2", "--trials", str(trials), "--seed", "1",
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: simulation work ")


def test_routes_bad_route_cap_env_is_validation_error(capsys, monkeypatch):
    monkeypatch.setenv("QKDNET_ROUTE_CAP", "abc")
    code, _, err = run_cli(capsys, "routes", "--n", "6", "--c", "2", "--enumerate")
    assert code == 2
    assert "QKDNET_ROUTE_CAP" in err


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_routes_cap_below_one_is_validation_error(capsys, monkeypatch, cap):
    code, _, err = run_cli(capsys, "routes", "--n", "6", "--c", "2", "--enumerate", "--cap", cap)
    assert code == 2
    assert "route cap must be >= 1" in err
    monkeypatch.setenv("QKDNET_ROUTE_CAP", cap)
    code, _, err = run_cli(capsys, "routes", "--n", "6", "--c", "2", "--enumerate")
    assert code == 2
    assert "route cap must be >= 1" in err


def test_routes_cap_at_and_below_route_count(capsys):
    # (6, 2) has 8 routes
    code, _, _ = run_cli(capsys, "routes", "--n", "6", "--c", "2", "--enumerate", "--cap", "8")
    assert code == 0
    code, _, err = run_cli(capsys, "routes", "--n", "6", "--c", "2", "--enumerate", "--cap", "7")
    assert code == 3
    assert "exceeds materialization cap 7" in err


def test_simulate_unwritable_progress_csv_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "progress.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--n", "6", "--c", "2", "--trials", "10", "--seed", "1",
        "--progress-csv", str(target),
    )
    assert code == 2
    assert err.startswith("error: cannot write")


def test_demo_protocol_unwritable_json_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "transcript.json"
    code, out, err = run_cli(
        capsys, "demo-protocol", "--n", "6", "--c", "2", "--json-out", str(target),
    )
    assert code == 2
    assert out.endswith("endpoint reconstruction: PASS\n")
    assert err.startswith("error: cannot write")


def test_readme_cli_examples_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands
    for argv in commands:
        assert argv[0] == "qkdnet"
        assert main(argv[1:]) == 0, argv


def test_optimize_c(capsys):
    code, out, _ = run_cli(capsys, "optimize-c", "--n", "20")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("optimize_c.schema.json"))
    assert 12 < payload["c_root"] < 13

    code, _, err = run_cli(capsys, "optimize-c", "--n", "4")
    assert code == 2


HUGE_N = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ("optimize-c", "--n", HUGE_N),
        ("analyze", "--n", HUGE_N, "--c", "2", "--eps-auth", "0.1", "--eps-qkd", "0.1"),
        ("analyze", "--n", HUGE_N, "--c", "2", "--eps-auth", "0.1", "--eps-qkd", "0.1",
         "--mode", "exact"),
        # the exact chains would run N steps; eps_qkd used to hang here
        *(("sweep", "--param", param, "--start", start, "--stop", stop, "--points", "2",
           "--n", HUGE_N)
          for param, start, stop in [("p", "0.01", "0.1"), ("eps_auth", "0.01", "0.1"),
                                     ("c", "1", "3"), ("eps_qkd", "0.01", "0.1")]),
        # the segment refuses N, so these end neither in a traceback nor in
        # an endless stream of rows
        ("routes", "--n", HUGE_N, "--c", "2", "--count-only"),
        ("routes", "--n", HUGE_N, "--c", "2", "--scheme"),
        ("demo-protocol", "--n", HUGE_N, "--c", "2"),
        ("simulate", "--n", HUGE_N, "--c", "2", "--trials", "10", "--seed", "1"),
    ],
)
def test_n_past_float_range_exits_2(argv):
    proc = run_cli_fresh(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: N must convert to a finite float (at most about 1.8e308), "
        "got an integer of 1329 bits\n"
    )


@pytest.mark.parametrize("n", [10**7, 10**12])
def test_optimize_c_large_n_returns(n):
    # Once adjacent floats near the root are more than the bisection
    # tolerance apart, a width test alone never ends; a fresh process
    # makes such a regression fail instead of hanging the suite.
    proc = run_cli_fresh("optimize-c", "--n", str(n))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, load_schema("optimize_c.schema.json"))
    assert payload["n"] == n
    assert abs(payload["c_integer"] - payload["c_root"]) <= 2


def reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


# About 2.556e305 is the largest N whose (N-1) ln(N-1) is a finite float.
@pytest.mark.parametrize(
    "n", [25 * 10**304, 26 * 10**304, 10**306], ids=["2.5e305", "2.6e305", "1e306"]
)
def test_optimize_c_prints_only_finite_numbers(n):
    proc = run_cli_fresh("optimize-c", "--n", str(n))
    if n < 2556 * 10**302:
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout, parse_constant=reject_constant)
        assert payload["n"] == n
        assert payload["c_integer"] / payload["c_root"] == pytest.approx(1, rel=1e-11)
        return
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: N must be at most about 2.556e305, ")


def test_analyze_exact_at_n_1e300_returns():
    # The exact chains used to step N times; they now stop once settled.
    proc = run_cli_fresh("analyze", "--n", str(10**300), "--c", "3", "--eps-auth", "1e-101",
                         "--eps-qkd", "1e-3", "--mode", "exact")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout, parse_constant=reject_constant)
    jsonschema.validate(payload, load_schema("analyze.schema.json"))
    # about 1 - exp(-N p^c) with N p^c = 1e-3
    assert payload["eps1_exact"] == pytest.approx(-math.expm1(-1e-3), rel=1e-9)


def test_sweep_n_near_float_max_returns():
    # This sweep never returned while the exact chain stepped N times.
    proc = run_cli_fresh("sweep", "--param", "N", "--start", "1e300", "--stop", "2e300",
                         "--points", "2")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "N,p_s_exact,p_s_approx,regime_valid"
    assert [row.split(",")[1] for row in rows] == ["1", "1"]


def test_optimize_c_factor_baseline(capsys):
    code, out, _ = run_cli(capsys, "optimize-c", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["factor"] >= 1.0


def test_demo_protocol(capsys, tmp_path):
    target = tmp_path / "transcript.json"
    args = ["demo-protocol", "--n", "6", "--c", "2", "--seed", "5",
            "--json-out", str(target)]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # deterministic given the seed
    assert out1.count("message ") == 9
    assert "PASS" in out1
    transcript = json.loads(target.read_text())
    assert len(transcript["messages"]) == 9


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def masked(out):
    """demo-protocol stdout with every ciphertext digest replaced by ``*``:
    the bytes that do not depend on the keystream."""
    return re.sub(r"digest=[0-9a-f]+", "digest=*", out)


# Each demo-protocol pin below is a pair.  The sha256 of the masked stdout
# was recorded before the keystream became one SHAKE-256 call, and holds
# across that change.  The sha256 of the full stdout, whose digest fields
# cover the ciphertexts, was recorded after it.
PINNED_DEMO_STDOUT = {
    ("--n", "20", "--c", "2", "--seed", "3"): (
        "daf9fcfaaba49ae2e3ab5d97f7063ea030298a4dd85742ae74d83b895da67eb3",
        "f1b46e270bf32a47fc35c60583b4321794aa1833360cf5097d01763c777029fd",
    ),
    ("--n", "12", "--c", "4", "--key-len", "7", "--seed", "5"): (
        "e5f33aab988b7e5a5a04530538be8deddf51da5f8f18a99915b8b4b122d32d27",
        "c3e06823a508016ee53c75cb2364f4dab91e14363e266f1cd313b16a27738dfd",
    ),
}


@pytest.mark.parametrize("args", list(PINNED_DEMO_STDOUT))
def test_demo_protocol_pinned_bytes(capsys, args):
    code, out, _ = run_cli(capsys, "demo-protocol", *args)
    assert code == 0
    assert (sha256(out), sha256(masked(out))) == PINNED_DEMO_STDOUT[args]


# The stdout of demo-protocol at each of the benchmark's segments, with
# seed i for the i-th, concatenated in that order; the masked digest was
# also unchanged when bundles were stored as blocks of consecutive ids.
PINNED_BENCH_DEMO_STDOUT = (
    "936457a307c941549f2829e2f5f2ceef9a6b5cd65a5e15b06e26fd142dd9ef07",
    "d28b5e70b73efd925206ba405f51859e8481643602cdcad43672e935aabe82ae",
)


def test_demo_protocol_at_benchmark_sizes_pinned_bytes(capsys):
    outs = []
    for seed, (n, c) in enumerate(DEMO_SEGMENTS):
        code, out, err = run_cli(
            capsys, "demo-protocol", "--n", str(n), "--c", str(c), "--seed", str(seed)
        )
        assert code == 0, err
        outs.append(out)
    out = "".join(outs)
    assert (sha256(out), sha256(masked(out))) == PINNED_BENCH_DEMO_STDOUT


# A byte-aligned key length above 512 bits (once the pre-hashed link
# keys), and a corrupted session; the masked digests were also unchanged
# when messages were packed and split on bytes.
PINNED_DEMO_LONG_KEY_STDOUT = (
    "2a60276f1978c9ccea42b3d93c91cdcba5a9f3290ee3198eee0a6727f3b546a7",
    "479985853d4c2f6cb886fcf630c3473e3c019ddf43d54fe3561c3f6536a431fa",
)
PINNED_DEMO_CORRUPT_STDOUT = (
    "dfbcde37edef053af039f8fd2f21e710e7d4edbef076911bd694b9a9e529d1ac",
    "db2164ee5cf8e0fba3868e89eddf4c26210fbdc471b177080ea97bbbc5c94931",
)


def test_demo_protocol_pinned_bytes_long_key_and_corrupt(capsys):
    code, out, _ = run_cli(
        capsys, "demo-protocol", "--n", "13", "--c", "4", "--key-len", "1024", "--seed", "11"
    )
    assert code == 0
    assert (sha256(out), sha256(masked(out))) == PINNED_DEMO_LONG_KEY_STDOUT
    code, out, _ = run_cli(
        capsys, "demo-protocol", "--n", "12", "--c", "4", "--seed", "2", "--corrupt"
    )
    assert code == 4
    assert out.endswith("endpoint reconstruction: FAIL\n")
    assert (sha256(out), sha256(masked(out))) == PINNED_DEMO_CORRUPT_STDOUT


# sha256 recorded before the routing scheme was built from prefix ranks;
# the transcript's, which holds the ciphertexts, after the keystream became
# one SHAKE-256 call, and its stdout's masked digest before.
PINNED_SCHEME_STDOUT = "9f53853dbf2721e978d447469f09639f44f4eee722cce4173880ad2ef9dc2127"
PINNED_DEMO_JSON_OUT = "671abe5f88682760021e76c45336c2fbee08461179b4c411eac8702f8f5e0cf2"
PINNED_DEMO_JSON_MASKED_STDOUT = "85ad74ae6a88444a95dd0b3710d90a0f96b6974d19217036a1734964b459c46a"


def test_routes_scheme_and_transcript_pinned_bytes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "routes", "--n", "12", "--c", "4", "--scheme")
    assert code == 0
    assert sha256(out) == PINNED_SCHEME_STDOUT
    target = tmp_path / "transcript.json"
    code, out, _ = run_cli(
        capsys, "demo-protocol", "--n", "16", "--c", "3", "--seed", "9",
        "--json-out", str(target),
    )
    assert code == 0
    assert sha256(masked(out)) == PINNED_DEMO_JSON_MASKED_STDOUT
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PINNED_DEMO_JSON_OUT


def test_demo_protocol_keeps_only_the_messages_into_node_n():
    # At (24, 2) a fresh process peaked at 46.8 MB of RSS holding every
    # ciphertext until the last line was printed, and at 31.8 MB printing
    # each message as it is sent; importing qkdnet takes about 18 MB.
    # A forked child's ru_maxrss starts at its parent's RSS, so the command
    # runs as the child of a small interpreter, not of the test process.
    code = (
        "import resource, subprocess, sys\n"
        "argv = ['-m', 'qkdnet.cli', 'demo-protocol', '--n', '24', '--c', '2']\n"
        "proc = subprocess.run([sys.executable, *argv], stdout=subprocess.DEVNULL)\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    proc = run_fresh("-c", code)
    rc, maxrss_kib = map(int, proc.stdout.split())
    assert rc == 0, proc.stderr
    assert maxrss_kib < 38 * 1024


def test_demo_protocol_memory_at_the_largest_benchmark_segment():
    # The command at (20, 2) peaked (tracemalloc) at 3.2 MB when it kept
    # every message, and at 2.0 MB keeping only those into node N.
    with open(os.devnull, "w") as fh, contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            code = main(["demo-protocol", "--n", "20", "--c", "2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2.5 * 2**20


def test_demo_protocol_route_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("QKDNET_ROUTE_CAP", "7")
    code, out, err = run_cli(capsys, "demo-protocol", "--n", "6", "--c", "2")
    assert code == 3
    assert out == ""
    assert "route count 8 exceeds materialization cap 7" in err


@pytest.mark.parametrize("key_len", ["0", "65537", "100000000000"])
def test_demo_protocol_key_len_out_of_range_exits_2(capsys, key_len):
    code, out, err = run_cli(capsys, "demo-protocol", "--n", "6", "--c", "2", "--key-len", key_len)
    assert code == 2
    assert out == ""
    assert "key_len must be in [1, 65536]" in err


@pytest.mark.parametrize(
    "argv", [("--n", "30", "--c", "2"), ("--n", "20", "--c", "2", "--key-len", "65536")]
)
def test_demo_protocol_material_cap_exits_3_before_building(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("routing scheme built past the material cap")

    monkeypatch.setattr("qkdnet.routes.build_routing_scheme", refuse)
    code, out, err = run_cli(capsys, "demo-protocol", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: session key material ")
    assert "exceeds cap 1073741824" in err


def test_demo_protocol_route_cap_fires_before_material_cap(capsys):
    # 102,334,155 routes: both caps are exceeded, the route cap is reported
    code, out, err = run_cli(capsys, "demo-protocol", "--n", "40", "--c", "2")
    assert code == 3
    assert out == ""
    assert err == "error: route count 102334155 exceeds materialization cap 1048576\n"


def test_demo_protocol_route_count_past_int_str_limit_exits_3(capsys):
    # F(30000) routes has 6,270 digits; the message gives its bit length
    code, out, err = run_cli(capsys, "demo-protocol", "--n", "30000", "--c", "2")
    assert code == 3
    assert out == ""
    assert err == "error: route count of 20827 bits exceeds materialization cap 1048576\n"


def test_demo_protocol_negative_seed_exits_2(capsys):
    # random.Random(-3) gives the keys of seed 3, so -3 is refused
    code, out, err = run_cli(capsys, "demo-protocol", "--n", "6", "--c", "2", "--seed", "-3")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be >= 0, got -3\n"


def test_demo_protocol_longest_key_len(capsys):
    code, out, _ = run_cli(capsys, "demo-protocol", "--n", "4", "--c", "2", "--key-len", "65536")
    assert code == 0
    assert "PASS" in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ("--param", "N", "--start", "1e300", "--stop", "inf", "--points", "2"),
        ("--param", "p", "--start", "0", "--stop", "1e400", "--points", "3"),
        ("--param", "p", "--start=-1.5e308", "--stop", "1.5e308", "--points", "3"),
    ],
)
def test_sweep_infinite_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: start and stop must span a finite range")


def test_sweep_points_above_max_exits_2():
    # A grid of 10^9 points would take 7.45 GiB.  The child runs under an
    # address-space limit, so a build that tries to allocate it fails
    # there instead of exhausting the host's memory.
    limit = 1_500_000_000
    proc = run_cli_fresh(
        "sweep", "--param", "p", "--start", "0", "--stop", "1", "--points", "1000000000",
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: points must be <= {MAX_SWEEP_POINTS}, got 1000000000\n"


def test_sweep_max_points_accepted(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--param", "c", "--start", "1", "--stop", "3",
                           "--points", str(MAX_SWEEP_POINTS), "--n", "20")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["c", "1", "2", "3"]


def test_demo_protocol_serial(capsys):
    code, out, _ = run_cli(capsys, "demo-protocol", "--n", "3", "--c", "1")
    assert code == 0
    assert out.count("message ") == 2
    assert "PASS" in out


def test_demo_protocol_corrupt(capsys):
    code, out, _ = run_cli(
        capsys, "demo-protocol", "--n", "6", "--c", "2", "--corrupt"
    )
    assert code == 4
    assert "FAIL" in out


ANALYZE = ["analyze", "--n", "20", "--c", "3", "--eps-auth", "1e-3", "--eps-qkd", "1e-3"]
PARSER_CASES = [
    [], ["-h"], ["--help"], ["-h", "analyze"], ["--"], ["--", "analyze"],
    ["bogus"], ["analyz"], ["-"], ["-1"],
    *([name, "-h"] for name in SUBCOMMANDS),
    [*ANALYZE, "extra"],
    # a valid argv with a trailing word is an error of the top-level parser
    *([*argv.split(), "extra"] for argv in (
        "sweep --param c --start 1 --stop 3 --points 3",
        "routes --n 6 --c 2 --edges",
        "simulate --n 6 --c 2 --trials 10 --seed 1",
        "optimize-c --n 20",
        "demo-protocol --n 4 --c 2",
    )),
    ANALYZE[:-2],
    ["analyze", "--n", "twenty", *ANALYZE[3:]],
    [*ANALYZE, "--mode", "fast"],
    [*ANALYZE, "--mo", "exact"],
    ["routes", "--n", "6", "--c", "2", "--scheme", "--edges"],
    ["optimize-c", "--n", "20", "--nn", "3"],
    ["analyze", "--", *ANALYZE[1:]],
]


def outcome(run, argv, capsys):
    try:
        result = ("returned", run(argv))
    except SystemExit as exc:
        result = ("exited", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def full_parser_main(argv):
    args = build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_main_matches_full_parser(capsys, argv):
    expected = outcome(full_parser_main, list(argv), capsys)
    assert outcome(main, list(argv), capsys) == expected


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_one_subcommand_parser_has_the_full_usage_line(name):
    assert build_parser(name).format_usage() == build_parser().format_usage()


def test_main_builds_only_the_invoked_subcommand(capsys, monkeypatch):
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting_add_argument(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting_add_argument)
    assert main(["optimize-c", "--n", "20"]) == 0
    help_option = ("-h", "--help")
    assert calls == [help_option, help_option, ("--n",)]

    own = {}
    for name in SUBCOMMANDS:
        calls.clear()
        build_parser(name)
        assert calls[:2] == [help_option, help_option]
        own[name] = calls[1:]
        assert len(own[name]) > 1, name
    calls.clear()
    build_parser()
    assert calls == [help_option] + [args for name in SUBCOMMANDS for args in own[name]]


# Analysis commands at benchmark sizes, one per line; the sha256 of their
# stdout, concatenated in this order, was recorded before the ε1 term and
# its guards moved into one function.
PINNED_ANALYSIS_ARGV = [
    "analyze --n 50 --c 5 --eps-auth 0.0123 --eps-qkd 0.00456",
    "analyze --n 57 --c 6 --eps-auth 0.31 --eps-qkd 2.5e-05 --mode exact",
    "analyze --n 11 --c 3 --eps-auth 0.047 --eps-qkd 0.19 --mode exact",
    "analyze --n 9000 --c 9 --eps-auth 3e-06 --eps-qkd 0.4",
    "sweep --param p --spacing log --points 5 --n 160 --c 4 --start 3e-06 --stop 0.7",
    "sweep --param eps_auth --points 4 --n 40 --c 5 --start 0.001 --stop 0.5",
    "sweep --param eps_qkd --spacing log --points 5 --n 30 --c 4 --start 1e-06 --stop 0.5",
    "sweep --param c --points 6 --n 60 --p 0.05 --start 1 --stop 12",
    "sweep --param N --points 5 --c 3 --p 0.02 --start 5 --stop 200",
    "optimize-c --n 1234",
    "optimize-c --n 5",
    "routes --n 400 --c 8 --count-only",
    "routes --n 37 --c 1 --count-only",
]
PINNED_ANALYSIS_STDOUT = "f25194c9825f4f1d2167730cf55c25705bf03d18c9da7b485d67a36b5eb67161"


def test_analysis_commands_pinned_bytes(capsys):
    outputs = []
    for line in PINNED_ANALYSIS_ARGV:
        code, out, err = run_cli(capsys, *line.split())
        assert code == 0, (line, err)
        outputs.append(out)
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    assert digest == PINNED_ANALYSIS_STDOUT


# Commands whose output goes through the shared JSON and CSV writers, with
# the option (if any) that names their output file.  The sha256 of each
# stdout, followed by the file it wrote, in this order, was recorded before
# the writers were merged, for the simulate lines again when the simulate
# draw last changed, and for the demo-protocol line (whose file holds
# ciphertexts) again when the keystream last changed; that line's masked
# stdout is pinned from before the keystream change.
PINNED_SIMULATE_ARGV = [
    ("simulate --n 20 --c 3 --p-node 0.6 --p-link 0.3 --trials 15 --seed 7",
     "--progress-csv"),
    ("simulate --n 10 --c 2 --p-node 1 --p-link 0.25 --trials 100 --seed 1",
     "--progress-csv"),
    ("simulate --n 40 --c 4 --p-node 0.5 --p-link 0.4 --trials 20000 --seed 11",
     "--progress-csv"),
]
PINNED_SIMULATE_BYTES = "dcb89c4ca6cdedd79202dd74c939a13d951fa4a9873841675f27c96fdada0729"
PINNED_WRITER_ARGV = [
    ("routes --n 9 --c 3 --edges", None),
    ("routes --n 8 --c 3 --enumerate", None),
]
PINNED_WRITER_BYTES = "9e9335dc0f93e6440f328becef78ab06056e425787234e0d938618fbd20f7797"
PINNED_DEMO_WRITER_ARGV = [("demo-protocol --n 9 --c 3 --key-len 13 --seed 4", "--json-out")]
PINNED_DEMO_WRITER_BYTES = "8f32ffa3beeb1b3e04eb03ffdafef2b08f5ed09e146cef6ba770902b6cd15fba"
PINNED_DEMO_WRITER_MASKED_STDOUT = "1b34db3373022918ff3f3eeb03d10edc4bf525bbd30c6afbccd7119f9f898090"


def writer_outputs(capsys, tmp_path, pinned_argv):
    """The sha256 of each line's stdout followed by the file it wrote, and
    each line's stdout."""
    digest, outs = hashlib.sha256(), []
    target = tmp_path / "out"
    for line, file_option in pinned_argv:
        argv = line.split() + ([file_option, str(target)] if file_option else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (line, err)
        digest.update(out.encode())
        outs.append(out)
        if file_option:
            digest.update(target.read_bytes())
            target.unlink()
    return digest.hexdigest(), outs


def test_writer_commands_pinned_bytes(capsys, tmp_path):
    assert writer_outputs(capsys, tmp_path, PINNED_WRITER_ARGV)[0] == PINNED_WRITER_BYTES
    digest, (out,) = writer_outputs(capsys, tmp_path, PINNED_DEMO_WRITER_ARGV)
    assert sha256(masked(out)) == PINNED_DEMO_WRITER_MASKED_STDOUT
    assert digest == PINNED_DEMO_WRITER_BYTES


def test_simulate_pinned_bytes_agree_with_exact_values(capsys, tmp_path):
    digest, outs = writer_outputs(capsys, tmp_path, PINNED_SIMULATE_ARGV)
    for (line, _), out in zip(PINNED_SIMULATE_ARGV, outs):
        args = dict(zip(*[iter(line.split()[1:])] * 2))
        n, c, trials = int(args["--n"]), int(args["--c"]), int(args["--trials"])
        stats = json.loads(out)
        for successes, exact in (
            (stats["successes_auth"], qkdnet.p_success_exact(n, c, float(args["--p-node"]))),
            (stats["successes_link"],
             qkdnet.epsilon2_exact(qkdnet.make_segment(n, c), float(args["--p-link"]))),
        ):
            sigma = math.sqrt(trials * exact * (1 - exact))
            assert abs(successes - trials * exact) <= 5 * sigma, line
    assert digest == PINNED_SIMULATE_BYTES


# Every (N, c) with 3 <= N <= 14, and a few segments run with --corrupt
# (which exits 4 and writes no file).  The sha256 below covers, in this
# order, the stdout of routes --enumerate and --scheme at each segment,
# then the stdout and --json-out file of demo-protocol at --key-len 128
# and 13, then each --corrupt stdout.  It was recorded before these
# outputs were streamed.
PARITY_SEGMENTS = [(n, c) for n in range(3, 15) for c in range(1, n)]
PARITY_CORRUPT = [(3, 1), (5, 2), (9, 3), (12, 4), (14, 13)]
PINNED_PARITY_GRID = "da4f2865cef120dff3ef830bbced07be260fef1cb7f827b72a111fa903818a92"


def test_routes_and_demo_protocol_bytes_on_the_parity_grid(capsys, tmp_path):
    digest = hashlib.sha256()
    target = tmp_path / "transcript.json"
    schema = load_schema("routes.schema.json")
    for n, c in PARITY_SEGMENTS:
        seg = ["--n", str(n), "--c", str(c)]
        for mode in ("--enumerate", "--scheme"):
            code, out, err = run_cli(capsys, "routes", *seg, mode)
            assert code == 0, err
            if n <= 8:
                jsonschema.validate(json.loads(out), schema)
            digest.update(out.encode())
        for key_len in ("128", "13"):
            code, out, err = run_cli(capsys, "demo-protocol", *seg, "--key-len", key_len,
                                     "--seed", str(n * c), "--json-out", str(target))
            assert code == 0, err
            digest.update(out.encode())
            digest.update(target.read_bytes())
            target.unlink()
    for n, c in PARITY_CORRUPT:
        code, out, _ = run_cli(capsys, "demo-protocol", "--n", str(n), "--c", str(c),
                               "--key-len", "13", "--corrupt", "--json-out", str(target))
        assert code == 4
        assert not target.exists()
        digest.update(out.encode())
    assert digest.hexdigest() == PINNED_PARITY_GRID
