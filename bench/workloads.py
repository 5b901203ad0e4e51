"""Seeded op generators for the benchmark workloads.

A workload is an endless stream of ``Op``s, each one CLI invocation of
``qkdnet``. The stream depends only on the workload seed; the program sees
only the generated argv.

Op costs within a workload span a factor of fifty, and a run is cut after a
fixed time, so plain random draws would make a run's throughput depend on
the seed more than on the code. The streams are therefore built so that
every prefix has nearly the same mix: op kinds and discrete sizes follow a
fixed cycle, and continuous parameters are randomly shifted Halton points,
which cover their ranges evenly from the first few ops on. The seed sets
the shifts and the simulation seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

# Passed with --edge-cap where the CLI still has that flag; above the edge
# count of every segment generated here.
EDGE_CAP = 10**6

SIM_TRIALS = 20_000

# (N, c) of the demo-protocol segments, 500 to 7,000 routes each, in an
# order that spreads the costly ones over the cycle.
DEMO_SEGMENTS = ((16, 2), (13, 3), (12, 4), (17, 2), (14, 3), (18, 2),
                 (13, 4), (15, 3), (19, 2), (16, 3), (20, 2))


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the parameters its output is checked against."""

    kind: str  # analyze | sweep | routes | optimize | simulate | demo
    params: dict
    argv: tuple[str, ...]


class Halton:
    """Points of the Halton sequence in [0, 1)^dims, shifted by a random
    vector modulo 1, so that every prefix covers the cube evenly."""

    BASES = (2, 3, 5, 7)

    def __init__(self, rng: random.Random, dims: int):
        self.shift = [rng.random() for _ in range(dims)]
        self.i = 0

    def __call__(self) -> list[float]:
        self.i += 1
        return [(_radical_inverse(self.i, b) + s) % 1.0 for b, s in zip(self.BASES, self.shift)]


def _radical_inverse(i: int, base: int) -> float:
    inv, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * scale
        scale /= base
    return inv


def _int(u: float, lo: int, hi: int) -> int:
    return min(lo + int(u * (hi - lo + 1)), hi)


def _log(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _fmt(x: float) -> str:
    return repr(float(x))


def _analyze(n: int, c: int, eps_auth: float, eps_qkd: float, mode: str, edge_cap: bool) -> Op:
    argv = ["analyze", "--n", str(n), "--c", str(c), "--eps-auth", _fmt(eps_auth),
            "--eps-qkd", _fmt(eps_qkd), "--mode", mode]
    if edge_cap and mode == "exact":
        argv += ["--edge-cap", str(EDGE_CAP)]
    params = {"n": n, "c": c, "eps_auth": eps_auth, "eps_qkd": eps_qkd, "mode": mode}
    return Op("analyze", params, tuple(argv))


def exact_analysis(rng: random.Random, edge_cap_cmds: set[str]) -> Iterator[Op]:
    analyze_n = {c: Halton(rng, 1) for c in (5, 6)}
    sweep_n = {c: Halton(rng, 1) for c in (4, 5)}
    eps, grid = Halton(rng, 2), Halton(rng, 2)
    for a_c, s_c in itertools.cycle(((5, 4), (6, 5), (6, 4), (5, 5))):
        (u_n,), (u_auth, u_qkd) = analyze_n[a_c](), eps()
        yield _analyze(_int(u_n, 40, 60), a_c, _log(u_auth, 1e-6, 0.5), _log(u_qkd, 1e-6, 0.5),
                       "exact", "analyze" in edge_cap_cmds)
        (u_n,), (u_start, u_stop) = sweep_n[s_c](), grid()
        n, start, stop = _int(u_n, 120, 200), _log(u_start, 1e-6, 1e-3), 0.2 + 0.7 * u_stop
        argv = ["sweep", "--param", "p", "--spacing", "log", "--points", "5", "--n", str(n),
                "--c", str(s_c), "--start", _fmt(start), "--stop", _fmt(stop)]
        params = {"n": n, "c": s_c, "start": start, "stop": stop, "points": 5}
        yield Op("sweep", params, tuple(argv))


def small_queries(rng: random.Random, edge_cap_cmds: set[str]) -> Iterator[Op]:
    mix = ("approx", "exact", "optimize", "approx", "routes",
           "exact", "approx", "optimize", "exact", "routes")
    points = {k: Halton(rng, 4) for k in set(mix)}
    for k in itertools.cycle(mix):
        u = points[k]()
        if k == "approx":
            n = int(_log(u[0], 5, 10_001))
            yield _analyze(n, min(_int(u[1], 1, 10), n - 2), _log(u[2], 1e-6, 0.5),
                           _log(u[3], 1e-6, 0.5), "approx", False)
        elif k == "exact":
            n = _int(u[0], 5, 12)
            yield _analyze(n, min(_int(u[1], 1, 3), n - 2), _log(u[2], 1e-6, 0.5),
                           _log(u[3], 1e-6, 0.5), "exact", "analyze" in edge_cap_cmds)
        elif k == "optimize":
            n = _int(u[0], 5, 2000)
            yield Op("optimize", {"n": n}, ("optimize-c", "--n", str(n)))
        else:
            n = _int(u[0], 3, 400)
            c = min(_int(u[1], 1, 8), n - 1)
            yield Op("routes", {"n": n, "c": c},
                     ("routes", "--n", str(n), "--c", str(c), "--count-only"))


def validation(rng: random.Random, edge_cap_cmds: set[str]) -> Iterator[Op]:
    # Memory peaks with the largest N at c=8; a stream of N per c reaches
    # the top of the range within a few ops of each c.
    sim_n = {c: Halton(rng, 1) for c in range(2, 9)}
    probs = Halton(rng, 2)
    sim_c = itertools.cycle((2, 6, 3, 8, 4, 7, 5))
    demos = itertools.cycle(DEMO_SEGMENTS)
    for kind in itertools.cycle(("simulate", "demo", "simulate", "demo", "simulate")):
        if kind == "demo":
            n, c = next(demos)
            seed = rng.randrange(1 << 31)
            yield Op("demo", {"n": n, "c": c, "seed": seed},
                     ("demo-protocol", "--n", str(n), "--c", str(c), "--seed", str(seed)))
            continue
        c = next(sim_c)
        (u_n,), (u_node, u_link) = sim_n[c](), probs()
        n, p_node, p_link = _int(u_n, 30, 150), 0.3 + 0.4 * u_node, 0.2 + 0.4 * u_link
        seed = rng.randrange(1 << 31)
        argv = ["simulate", "--n", str(n), "--c", str(c), "--p-node", _fmt(p_node),
                "--p-link", _fmt(p_link), "--trials", str(SIM_TRIALS), "--seed", str(seed)]
        params = {"n": n, "c": c, "p_node": p_node, "p_link": p_link,
                  "trials": SIM_TRIALS, "seed": seed}
        yield Op("simulate", params, tuple(argv))


WORKLOADS: dict[str, Callable[[random.Random, set[str]], Iterator[Op]]] = {
    "exact_analysis": exact_analysis,
    "small_queries": small_queries,
    "validation": validation,
}


def generate(workload: str, seed: int, edge_cap_cmds: set[str]) -> Iterator[Op]:
    """The op stream of ``workload`` for ``seed``. ``edge_cap_cmds`` names the
    subcommands that accept --edge-cap."""
    return WORKLOADS[workload](random.Random(seed), edge_cap_cmds)
