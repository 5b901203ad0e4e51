import hashlib
import json
import shlex
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from qkdnet.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, _, err = run_cli(
        capsys, "demo-protocol", "--n", "6", "--c", "2", "--json-out", str(target),
    )
    assert code == 2
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


# sha256 of stdout, recorded before the key packing became linear; every
# ciphertext digest line depends on the packed route keys.
PINNED_DEMO_STDOUT = {
    ("--n", "20", "--c", "2", "--seed", "3"):
        "b18c5c7d00553805f6b655e38b2a762d2249bd694bddbb1541241e3ff0f35e97",
    ("--n", "12", "--c", "4", "--key-len", "7", "--seed", "5"):
        "ed99f080cda00a4f120ed335d1edb7c3aa465f6f0c356e8b67043cb5a0e42c84",
}


@pytest.mark.parametrize("args", list(PINNED_DEMO_STDOUT))
def test_demo_protocol_pinned_bytes(capsys, args):
    code, out, _ = run_cli(capsys, "demo-protocol", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DEMO_STDOUT[args]


# sha256 recorded before the routing scheme was built from prefix ranks.
PINNED_SCHEME_STDOUT = "9f53853dbf2721e978d447469f09639f44f4eee722cce4173880ad2ef9dc2127"
PINNED_DEMO_JSON_OUT = "c940fd4d6ecf3757409ddff325e8c67722ecbff68f7ac4b6df88e0f12f263be2"


def test_routes_scheme_and_transcript_pinned_bytes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "routes", "--n", "12", "--c", "4", "--scheme")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SCHEME_STDOUT
    target = tmp_path / "transcript.json"
    code, _, _ = run_cli(
        capsys, "demo-protocol", "--n", "16", "--c", "3", "--seed", "9",
        "--json-out", str(target),
    )
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PINNED_DEMO_JSON_OUT


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
