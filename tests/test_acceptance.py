"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete)."""

import itertools
import math
import time

import numpy as np
import pytest
from rational_oracle import f_bruteforce, f_generating_function, has_run_of_c, reaches_last

from qkdnet import (
    build_routing_scheme,
    cannacci_count,
    enumerate_routes,
    epsilon1_approx,
    epsilon2_approx,
    epsilon2_exact,
    f_inclusion_exclusion,
    link_attack_succeeds,
    make_segment,
    node_attack_succeeds,
    p_success_exact,
    run_session,
    run_trials,
    reconstruct_at_endpoint,
    adversary_view,
    CompromiseScenario,
    Link,
)
from qkdnet.cli import main as cli_main
from qkdnet.combinatorics import regime_bound
from qkdnet.security import optimal_c_root, optimal_c_root_approx


class timed:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(idx, label, elapsed, budget):
    print(f"ACCEPTANCE {idx}: PASS  {label}  ({elapsed * 1000:.1f} ms, budget {budget})")


def test_criterion_1_route_count_reproduction():
    with timed() as t:
        count = cannacci_count(6, 2)
        rs = enumerate_routes(make_segment(6, 2))
    assert count == 8
    assert len(set(rs.routes)) == 8
    assert t.elapsed < 1e-3
    report(1, "F^(2)_6 = 8, enumeration distinct", t.elapsed, "1 ms")


def test_criterion_2_combinatorics_triple_agreement():
    with timed() as t:
        for n in range(4, 17):
            interior = n - 2
            # histogram of (m, max run) over all interior masks
            hist = np.zeros((interior + 1, interior + 1), dtype=np.int64)
            for bits in itertools.product((0, 1), repeat=interior):
                m = sum(bits)
                best = run = 0
                for b in bits:
                    run = run + 1 if b else 0
                    best = max(best, run)
                hist[m, best] += 1
            for c in range(1, n - 1):
                for m in range(0, n - 1):
                    brute = int(hist[m, c:].sum())
                    assert f_inclusion_exclusion(n, m, c) == brute
                    assert f_generating_function(n, m, c) == brute
                    assert f_bruteforce(n, m, c) == brute
    assert t.elapsed < 120
    report(2, "f agreement for N in [4,16], all c, m", t.elapsed, "2 min")


@pytest.mark.parametrize("c", [3, 5])
def test_criterion_3_fig5_reproduction(c):
    """The lowest-order term approx = (N-c-1) p^c tracks the exact value.

    Let A_i be "a run of c compromised nodes starts at interior position i
    (and position i-1, if interior, is uncompromised)".  The attack
    succeeds iff some A_i occurs; there are K = N-c-1 such events, one
    with P = p^c and K-1 with P = (1-p) p^c.  The union bound gives

        exact <= p^c (1 + (K-1)(1-p)) = approx - (K-1) p^(c+1) <= approx,

    and Bonferroni's lower bound subtracts the pair term, at most
    C(K, 2) p^(2c) <= approx^2 / 2.  Hence

        0 <= approx - exact <= approx * (p + approx / 2),

    whose leading gap (K-1)/K * p depends on p itself, not on how far p
    lies below regime_bound.  At c=5 the grid point p=0.1259 sits under
    the cutoff with a gap of 11.70% (first order: 13/14 * p = 11.69%).
    The bound p + approx/2 (rather than the sharper (K-1)/K * p) keeps a
    margin of about p/K so float rounding cannot flip it.
    """
    n = 20
    with timed() as t:
        cutoff = regime_bound(n, c) / 4
        failures = []
        for p in np.geomspace(1e-3, 1.0, 41):
            p = float(p)
            exact = p_success_exact(n, c, p)
            approx = (n - c - 1) * p**c
            if p <= cutoff and not (
                exact <= approx and (approx - exact) / approx <= p + approx / 2
            ):
                failures.append((p, exact, approx))
            if p >= 0.9:
                assert exact >= 0.99
    assert t.elapsed < 1
    assert not failures, (
        f"exact outside [approx * (1 - p - approx/2), approx] "
        f"inside p <= {cutoff:.4f}: {failures}"
    )
    report(3, f"Fig.5 N=20 c={c} exact vs approx", t.elapsed, "1 s")


def test_criterion_4_predicate_equivalence():
    with timed() as t:
        for n in range(3, 13):
            for c in range(1, min(n - 1, 5)):
                seg = make_segment(n, c)
                interior = list(seg.interior_nodes)
                for r in range(len(interior) + 1):
                    for subset in itertools.combinations(interior, r):
                        by_run = has_run_of_c(seg, subset)
                        by_path = not reaches_last(seg, lambda i, j: j not in subset)
                        assert by_run == by_path, (n, c, subset)
                        assert node_attack_succeeds(seg, subset) == by_run, (n, c, subset)
    assert t.elapsed < 60
    report(4, "run-of-c <=> no clean path, N <= 12, c <= 4", t.elapsed, "1 min")


def test_criterion_5_minimal_link_cut():
    with timed() as t:
        for n in range(3, 10):
            for c in range(1, min(n - 1, 4)):
                seg = make_segment(n, c)
                for size in range(c):
                    for subset in itertools.combinations(seg.edges(), size):
                        assert not link_attack_succeeds(seg, subset)
                assert link_attack_succeeds(seg, [Link(1, j) for j in seg.out_neighbors(1)])
                assert link_attack_succeeds(seg, [Link(i, n) for i in seg.in_neighbors(n)])
    assert t.elapsed < 60
    report(5, "no cut below size c; endpoint cuts work", t.elapsed, "1 min")


def test_criterion_6_monte_carlo_vs_exact():
    with timed() as t:
        seg = make_segment(20, 3)
        stats = run_trials(seg, p_node=0.3, p_link=0.0, trials=100_000, seed=424242)
        exact_auth = p_success_exact(20, 3, 0.3)
        assert abs(stats.estimate_auth - exact_auth) <= 4 * stats.stderr_auth

        seg2 = make_segment(6, 2)
        stats2 = run_trials(seg2, p_node=0.0, p_link=0.2, trials=100_000, seed=424242)
        exact_link = epsilon2_exact(seg2, 0.2)
        assert abs(stats2.estimate_link - exact_link) <= 4 * stats2.stderr_link
    assert t.elapsed < 10
    report(6, "MC estimates within 4 sigma of exact", t.elapsed, "10 s")


def test_criterion_7_protocol_round_trip():
    with timed() as t:
        for n in range(3, 10):
            for c in range(1, min(n - 1, 4)):
                seg = make_segment(n, c)
                scheme = build_routing_scheme(seg)
                for key_len in (1, 8, 128):
                    keys, transcript, final_key = run_session(
                        seg, scheme, key_len, seed=n * 1000 + c * 10 + key_len
                    )
                    endpoint = {
                        link: k for link, k in keys.link_keys.items()
                        if link.dst == n
                    }
                    assert reconstruct_at_endpoint(seg, scheme, transcript, endpoint) == final_key
                    if c >= 2:
                        for node in seg.interior_nodes:
                            view = adversary_view(
                                seg, scheme, CompromiseScenario.of(seg, nodes={node})
                            )
                            assert not view.knows_final_key
    assert t.elapsed < 10
    report(7, "round trip + single-node secrecy (c >= 2)", t.elapsed, "10 s")


def test_criterion_8_security_spot_values():
    with timed() as t:
        seg = make_segment(20, 3)
        eps1 = epsilon1_approx(seg, 1e-3)
        eps2 = epsilon2_approx(seg, 1e-3)
        assert eps1 == pytest.approx(1.6e-8, rel=1e-12)
        assert eps2 == pytest.approx(2e-9, rel=1e-12)
        assert eps1 + eps2 == pytest.approx(1.8e-8, rel=1e-12)
        # in-regime exact counterparts within a factor of 2
        eps1_exact_val = p_success_exact(20, 3, 1e-3)
        eps2_exact_val = epsilon2_exact(seg, 1e-3)
        assert 0.5 <= eps1_exact_val / eps1 <= 2.0
        assert 0.5 <= eps2_exact_val / eps2 <= 2.0
    assert t.elapsed < 1
    report(8, "eps1=1.6e-8, eps2=2e-9, exact within x2", t.elapsed, "1 s")


@pytest.mark.parametrize("part", ["root-residual", "paper-approx-band"])
def test_criterion_9_optimal_c_solver(part):
    with timed() as t:
        if part == "root-residual":
            root = optimal_c_root(20)
            assert 12 < root < 13
            rem = 20 - root - 1
            assert abs(rem * math.log(rem) - root) < 1e-8
        else:
            # The closed form solves the linearised equation
            # (N-1)L - c(L+2) = 0, L = ln(N-1), which drops a c^2/(N-1)
            # term.  With c* ~ 0.6-0.75 N that term grows linearly in N,
            # so the absolute error does too (-6.3 at N=100); the relative
            # error stays at -8% to -9%, always below the root.
            bad = {}
            for n in range(6, 101):
                root = optimal_c_root(n)
                est = optimal_c_root_approx(n)
                log_term = math.log(n - 1)
                linear = (n - 1) * log_term - est * (log_term + 2)
                if not (
                    est < root
                    and (root - est) / root <= 0.10
                    and abs(linear) <= 1e-12 * (n - 1) * log_term
                ):
                    bad[n] = (round(est, 3), round(root, 3), linear)
            assert not bad, (
                f"closed form not within 10% below the root, or off the "
                f"linearised equation: {bad}"
            )
    assert t.elapsed < 1
    report(9, f"optimal-c solver ({part})", t.elapsed, "1 s")


def test_criterion_10_determinism(capsys, tmp_path):
    with timed() as t:
        sim_args = ["simulate", "--n", "20", "--c", "3", "--p-node", "0.3",
                    "--trials", "10000", "--seed", "31337"]
        assert cli_main(sim_args) == 0
        first = capsys.readouterr().out
        assert cli_main(sim_args) == 0
        second = capsys.readouterr().out
        assert first == second

        demo_args = ["demo-protocol", "--n", "6", "--c", "2", "--seed", "31337"]
        assert cli_main(demo_args) == 0
        first = capsys.readouterr().out
        assert cli_main(demo_args) == 0
        second = capsys.readouterr().out
        assert first == second
    report(10, "simulate and demo-protocol byte-identical", t.elapsed, "n/a")
