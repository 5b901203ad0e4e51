"""Output checks for benchmark ops: each op's printed result against the
float oracle, closed forms, recurrences and argmaxes in ``oracle``.

``check`` returns None for a correct op and a one-line reason otherwise.
Seeded output is never compared byte for byte: Monte Carlo counts are
accepted within five standard deviations of the oracle probability.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle

# The CLI prints 12 significant digits.
REL_TOL = 1e-9


class Mismatch(Exception):
    pass


def _close(name: str, got, want: float, rel: float = REL_TOL) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise Mismatch(f"{name}: expected a number, got {got!r}")
    if got == want:
        return
    if not abs(got - want) <= rel * max(abs(got), abs(want)):
        raise Mismatch(f"{name}: got {got!r}, oracle {want!r}")


def _equal(name: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{name}: got {got!r}, expected {want!r}")


def _flag(name: str, got, value: float, bound: float) -> None:
    """A flag that reads ``value <= bound``; not checked within rounding of
    the boundary, where the library and the oracle may round differently."""
    if abs(value - bound) > REL_TOL * abs(bound):
        _equal(name, got, value <= bound)


def _analyze(p: dict, out: str) -> None:
    d = json.loads(out)
    n, c, ea, eq = p["n"], p["c"], p["eps_auth"], p["eps_qkd"]
    for key in ("n", "c", "mode"):
        _equal(key, d[key], p[key])
    approx1, approx2 = oracle.eps1_approx(n, c, ea), oracle.eps2_approx(n, c, eq)
    _close("eps1_approx", d["eps1_approx"], approx1)
    _close("eps2_approx", d["eps2_approx"], approx2)
    if p["mode"] == "exact":
        exact1, exact2 = oracle.eps1(n, c, ea), oracle.eps2(n, c, eq)
        _close("eps1_exact", d["eps1_exact"], exact1)
        _close("eps2_exact", d["eps2_exact"], exact2)
        raw = exact1 + exact2
    else:
        _equal("eps1_exact", d["eps1_exact"], None)
        _equal("eps2_exact", d["eps2_exact"], None)
        raw = approx1 + approx2
    _close("eps_qn", d["eps_qn"], min(raw, 1.0))
    _flag("saturated", not d["saturated"], raw, 1.0)  # saturated iff raw > 1
    _flag("regime_auth_valid", d["regime_auth_valid"], ea, oracle.regime_bound_auth(n, c))
    _flag("regime_qkd_valid", d["regime_qkd_valid"], eq, oracle.regime_bound_qkd(c))


def _sweep(p: dict, out: str) -> None:
    lines = out.splitlines()
    _equal("header", lines[0], "p,p_s_exact,p_s_approx,regime_valid")
    grid = np.geomspace(p["start"], p["stop"], p["points"])
    _equal("rows", len(lines) - 1, len(grid))
    n, c = p["n"], p["c"]
    for line, x in zip(lines[1:], grid):
        x = float(x)
        cells = line.split(",")
        _equal("columns", len(cells), 4)
        _close("p", float(cells[0]), x)
        _close("p_s_exact", float(cells[1]), oracle.eps1(n, c, x))
        _close("p_s_approx", float(cells[2]), oracle.eps1_approx(n, c, x))
        if cells[3] not in ("true", "false"):
            raise Mismatch(f"regime_valid: got {cells[3]!r}")
        _flag("regime_valid", cells[3] == "true", x, oracle.regime_bound_auth(n, c))


def _routes(p: dict, out: str) -> None:
    d = json.loads(out)
    _equal("n", d["n"], p["n"])
    _equal("c", d["c"], p["c"])
    _equal("count", d["count"], str(oracle.cannacci(p["n"], p["c"])))


def _optimize(p: dict, out: str) -> None:
    d = json.loads(out)
    n = p["n"]
    _equal("n", d["n"], n)
    c_int = oracle.optimal_c_integer(n)
    _equal("c_integer", d["c_integer"], c_int)
    _close("factor", d["factor"], oracle.hash_factor(n, c_int))
    _close("c_root", d["c_root"], oracle.optimal_c_root(n), rel=1e-8 / n)
    _close("c_root_approx", d["c_root_approx"], oracle.optimal_c_root_approx(n))


def _successes(name: str, k, trials: int, prob: float) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise Mismatch(f"{name}: expected an integer, got {k!r}")
    prob = min(prob, 1.0)  # a sum of absorbed mass near 1 can round one ulp above
    slack = 5 * math.sqrt(trials * prob * (1 - prob)) + 1
    if abs(k - trials * prob) > slack:
        raise Mismatch(f"{name}: {k} of {trials}, oracle p={prob!r}")


def _simulate(p: dict, out: str) -> None:
    d = json.loads(out)
    n, c, trials = p["n"], p["c"], p["trials"]
    _equal("trials", d["trials"], trials)
    _equal("seed", d["seed"], p["seed"])
    _successes("successes_auth", d["successes_auth"], trials, oracle.eps1(n, c, p["p_node"]))
    _successes("successes_link", d["successes_link"], trials, oracle.eps2(n, c, p["p_link"]))
    _close("estimate_auth", d["estimate_auth"], d["successes_auth"] / trials)
    _close("estimate_link", d["estimate_link"], d["successes_link"] / trials)


def _demo(p: dict, out: str) -> None:
    if "endpoint reconstruction: PASS" not in out.splitlines():
        raise Mismatch("no 'endpoint reconstruction: PASS' line")


CHECKERS = {
    "analyze": _analyze,
    "sweep": _sweep,
    "routes": _routes,
    "optimize": _optimize,
    "simulate": _simulate,
    "demo": _demo,
}


def check(op, rc, raised: str | None, out: str) -> str | None:
    """None when the op exited 0 without raising and printed a correct
    result; otherwise why it failed."""
    if raised is not None:
        return raised
    if rc != 0:
        return f"exit code {rc!r}"
    try:
        CHECKERS[op.kind](op.params, out)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {exc!r}"
    return None
