"""Command-line front-end.

Subcommands: analyze, sweep, routes, simulate, optimize-c, demo-protocol.
All outputs are machine-readable (JSON or CSV); probabilities are printed
with 12 significant digits, route counts as decimal strings.

Exit codes: 0 success, 2 validation error or unwritable output file,
3 resource-cap error, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import combinatorics, protocol, routes, security, simulator
from .errors import CapExceededError, InconsistencyError, ValidationError
from .topology import make_segment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_INCONSISTENT = 4


def _sig(x: float | None) -> float | None:
    """Round to 12 significant digits for printing."""
    if x is None:
        return None
    return float(f"{x:.12g}")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _csv_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _print_csv(header: list[str], rows: list[list]) -> None:
    out = sys.stdout
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_csv_value(v) for v in row) + "\n")


def cmd_analyze(args) -> int:
    seg = make_segment(args.n, args.c)
    params = security.SecurityParams(eps_auth=args.eps_auth, eps_qkd=args.eps_qkd)
    report = security.epsilon_qn(seg, params, mode=args.mode)
    payload = {"n": args.n, "c": args.c}
    payload.update(report.to_dict())
    for key in ("eps1_approx", "eps2_approx", "eps1_exact", "eps2_exact", "eps_qn"):
        payload[key] = _sig(payload[key])
    _print_json(payload)
    return EXIT_OK


def _sweep_grid(args) -> list[float]:
    if not args.start < args.stop:
        raise ValidationError(f"start must be < stop, got [{args.start}, {args.stop}]")
    # start < stop rules out NaN, so inf is the only span that is not finite
    if args.stop - args.start == float("inf"):
        raise ValidationError(
            f"start and stop must span a finite range, got [{args.start}, {args.stop}]"
        )
    if args.points < 2:
        raise ValidationError(f"points must be >= 2, got {args.points}")
    if args.spacing == "log":
        if args.start <= 0:
            raise ValidationError("log spacing requires start > 0")
        grid = np.geomspace(args.start, args.stop, args.points)
    else:
        grid = np.linspace(args.start, args.stop, args.points)
    return [float(v) for v in grid]


def cmd_sweep(args) -> int:
    grid = _sweep_grid(args)
    rows: list[list] = []
    if args.param in ("p", "eps_auth"):
        make_segment(args.n, args.c)
        prefix = "p_s" if args.param == "p" else "eps1"
        header = [args.param, f"{prefix}_exact", f"{prefix}_approx", "regime_valid"]
        for p in grid:
            res = combinatorics.p_success_approx(args.n, args.c, p)
            rows.append([p, res.exact, res.approx, res.regime_valid])
    elif args.param == "eps_qkd":
        seg = make_segment(args.n, args.c)
        header = ["eps_qkd", "eps2_exact", "eps2_approx", "regime_valid"]
        for q in grid:
            rows.append(
                [
                    q,
                    security.epsilon2_exact(seg, q),
                    security.epsilon2_approx(seg, q),
                    security.epsilon2_regime_valid(seg, q),
                ]
            )
    else:  # c or N: integer grid, node-attack probability at fixed p
        values = sorted({int(round(v)) for v in grid})
        header = [args.param, "p_s_exact", "p_s_approx", "regime_valid"]
        for v in values:
            n, c = (args.n, v) if args.param == "c" else (v, args.c)
            make_segment(n, c)
            res = combinatorics.p_success_approx(n, c, args.p)
            rows.append([v, res.exact, res.approx, res.regime_valid])
    _print_csv(header, rows)
    return EXIT_OK


def cmd_routes(args) -> int:
    seg = make_segment(args.n, args.c)
    if args.edges:
        _print_csv(["from", "to"], [[link.src, link.dst] for link in seg.edges()])
        return EXIT_OK
    payload: dict = {
        "n": args.n,
        "c": args.c,
        "count": str(routes.cannacci_count(args.n, args.c)),
    }
    if args.enumerate:
        rs = routes.enumerate_routes(seg, cap=args.cap)
        payload["routes"] = [list(r) for r in rs.routes]
    elif args.scheme:
        scheme = routes.build_routing_scheme(seg, cap=args.cap)
        payload["scheme"] = {
            f"{link.src}-{link.dst}": list(bundle)
            for link, bundle in scheme.per_link_bundles.items()
        }
    _print_json(payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    seg = make_segment(args.n, args.c)
    stats = simulator.run_trials(seg, args.p_node, args.p_link, args.trials, args.seed)
    if args.progress_csv:
        _write_progress_csv(args.progress_csv, stats)
    payload = stats.to_dict()
    for key in ("estimate_auth", "estimate_link", "stderr_auth", "stderr_link"):
        payload[key] = _sig(payload[key])
    _print_json(payload)
    return EXIT_OK


def _write_progress_csv(path, stats) -> None:
    """Running estimates after each tenth of the trials, from the same draw
    as the reported result."""
    lines = ["trials,estimate_auth,estimate_link"]
    lines += [
        f"{done},{auth / done:.12g},{link / done:.12g}"
        for done, auth, link in stats.progress
    ]
    _write_file(path, "\n".join(lines) + "\n")


def _write_file(path, text: str) -> None:
    """Write an output file; an unwritable path is a ValidationError (exit 2)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_optimize_c(args) -> int:
    if args.n < 5:
        raise ValidationError(f"n must be >= 5, got {args.n}")
    c_root = security.optimal_c_root(args.n)
    c_int = security.optimal_c_integer(args.n)
    _print_json(
        {
            "n": args.n,
            "c_root": _sig(c_root),
            "c_root_approx": _sig(security.optimal_c_root_approx(args.n)),
            "c_integer": c_int,
            "factor": _sig(security.hash_reduction_factor(args.n, c_int)),
        }
    )
    return EXIT_OK


def cmd_demo_protocol(args) -> int:
    seg = make_segment(args.n, args.c)
    scheme = routes.build_routing_scheme(seg)
    keys, transcript, final_key = protocol.run_session(
        seg, scheme, args.key_len, args.seed
    )
    messages = list(transcript.messages)
    if args.corrupt:
        link, ciphertext = messages[-1]
        messages[-1] = (link, ciphertext ^ 1)
        transcript = protocol.SessionTranscript(
            messages=tuple(messages), key_len=args.key_len
        )

    print(f"segment n={args.n} c={args.c}: {scheme.route_count} routes, "
          f"{seg.edge_count} links, key_len={args.key_len}")
    for i, (link, ciphertext) in enumerate(messages, start=1):
        bundle = scheme.per_link_bundles[link]
        nbits = len(bundle) * args.key_len
        digest = hashlib.blake2b(
            ciphertext.to_bytes(max((nbits + 7) // 8, 1), "big"), digest_size=8
        ).hexdigest()
        ids = "K" + " K".join(map(str, bundle))
        print(f"message {i}: link {link.src}->{link.dst}  ({ids}) XOR k_{link.src}{link.dst}  digest={digest}")

    last = seg.n_nodes
    endpoint_keys = {
        link: keys.link_keys[link] for link in seg.edges() if link.dst == last
    }
    try:
        recovered = protocol.reconstruct_at_endpoint(seg, scheme, transcript, endpoint_keys)
    except ValidationError:
        recovered = None
    if recovered == final_key:
        print("endpoint reconstruction: PASS")
        if args.json_out:
            _write_transcript_json(args.json_out, seg, scheme, transcript)
        return EXIT_OK
    print("endpoint reconstruction: FAIL")
    return EXIT_INCONSISTENT


def _write_transcript_json(path, seg, scheme, transcript) -> None:
    payload = {
        "segment": seg.to_dict(),
        "key_len": transcript.key_len,
        "messages": [
            {
                "link": f"{link.src}-{link.dst}",
                "bundle": list(scheme.per_link_bundles[link]),
                "ciphertext": format(ciphertext, "x"),
            }
            for link, ciphertext in transcript.messages
        ],
    }
    _write_file(path, json.dumps(payload, indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdnet",
        description="Security analysis of banded trusted-node QKD network segments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="eps1/eps2/eps_qn security report as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--eps-auth", type=float, required=True)
    p.add_argument("--eps-qkd", type=float, required=True)
    p.add_argument("--mode", choices=("approx", "exact"), default="approx")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="parameter sweep as CSV on stdout")
    p.add_argument("--param", choices=("p", "eps_auth", "eps_qkd", "c", "N"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--spacing", choices=("log", "linear"), default="linear")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--c", type=int, default=3)
    p.add_argument("--p", type=float, default=0.01)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("routes", help="route count/enumeration/scheme as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count-only", action="store_true")
    mode.add_argument("--enumerate", action="store_true")
    mode.add_argument("--scheme", action="store_true")
    mode.add_argument("--edges", action="store_true", help="emit edge list as CSV")
    p.add_argument("--cap", type=int, default=None,
                   help="route materialization cap (default 2^20 or QKDNET_ROUTE_CAP)")
    p.set_defaults(func=cmd_routes)

    p = sub.add_parser("simulate", help="Monte Carlo attack trials as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--p-node", type=float, default=0.0)
    p.add_argument("--p-link", type=float, default=0.0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--progress-csv", type=str, default=None,
                   help="write per-batch running estimates to this file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize-c", help="optimal connection density as JSON")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_optimize_c)

    p = sub.add_parser("demo-protocol", help="run one key-transport session")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--key-len", type=int, default=128,
                   help=f"bits per key, 1..{protocol.MAX_KEY_LEN}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="flip one ciphertext bit to demonstrate FAIL detection")
    p.add_argument("--json-out", type=str, default=None,
                   help="write the transcript as JSON to this file")
    p.set_defaults(func=cmd_demo_protocol)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
