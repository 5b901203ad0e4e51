"""Command-line front-end.

Subcommands: analyze, sweep, routes, simulate, optimize-c, demo-protocol.
All outputs are machine-readable (JSON or CSV); probabilities are printed
with 12 significant digits, route counts as decimal strings.  ``main``
parses its argv once, building only the parser of the subcommand it names.

Exit codes: 0 success, 2 validation error or unwritable output file,
3 resource-cap error, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

# routes, protocol and hashlib are imported by the commands that use them,
# so that analyze, sweep and optimize-c do not load them.
from . import security
from .errors import InconsistencyError, QkdNetError, ValidationError
from .topology import make_segment

# Most grid points one sweep evaluates; the grid is built before any row.
MAX_SWEEP_POINTS = 10**5


def _json_text(payload: dict) -> str:
    """``payload`` as indented JSON plus a newline, each float value rounded
    to 12 significant digits (the values of nested lists and dicts are
    never floats)."""
    payload = {
        key: float(f"{value:.12g}") if isinstance(value, float) else value
        for key, value in payload.items()
    }
    return json.dumps(payload, indent=2) + "\n"


@contextlib.contextmanager
def _json_stream(write, head: dict, key: str, pairs: bool = False):
    """Write ``_json_text({**head, key: items})`` with ``write``, taking the
    items of the last field one at a time, so that only one is in memory.

    Yields ``put``, which writes one item: a list's item, or with ``pairs``
    an object's ``(name, value)`` pair.  Each is laid out as the whole text
    would lay it out, ``json.dumps(item, indent=2)`` indented by 4 spaces.
    The end of the text is written when the block exits without an error.
    """
    text = _json_text({**head, key: {} if pairs else []})
    # text ends with the empty value, "[]" or "{}", and then "\n}\n"
    write(text[:-5])
    encode = json.JSONEncoder(indent=2).encode
    sep, end = text[-5] + "\n    ", text[-5:]

    def put(item) -> None:
        nonlocal sep, end
        piece = f"{json.dumps(item[0])}: {encode(item[1])}" if pairs else encode(item)
        write(sep + piece.replace("\n", "\n    "))
        sep, end = ",\n    ", "\n  " + text[-4:]

    yield put
    write(end)


def _csv_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _csv_lines(header: list[str], rows):
    """CSV lines, each ending in a newline: ``header``, then one per row,
    floats to 12 significant digits and booleans as true/false."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(_csv_value, row)) + "\n"


def cmd_analyze(args) -> int:
    seg = make_segment(args.n, args.c)
    params = security.SecurityParams(eps_auth=args.eps_auth, eps_qkd=args.eps_qkd)
    report = security.epsilon_qn(seg, params, mode=args.mode)
    sys.stdout.write(_json_text({"n": args.n, "c": args.c, **report.to_dict()}))
    return 0


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
    if args.points > MAX_SWEEP_POINTS:
        raise ValidationError(f"points must be <= {MAX_SWEEP_POINTS}, got {args.points}")
    import numpy as np

    if args.spacing == "log":
        if args.start <= 0:
            raise ValidationError("log spacing requires start > 0")
        grid = np.geomspace(args.start, args.stop, args.points)
    else:
        grid = np.linspace(args.start, args.stop, args.points)
    return [float(v) for v in grid]


def cmd_sweep(args) -> int:
    grid = _sweep_grid(args)
    if args.param in ("c", "N"):  # integer grid, node-attack probability at fixed p
        grid = sorted({int(round(v)) for v in grid})
    approx, exact, valid = (
        (security.epsilon2_approx, security.epsilon2_exact, security.epsilon2_regime_valid)
        if args.param == "eps_qkd"
        else (security.epsilon1_approx, security.epsilon1_exact, security.epsilon1_regime_valid)
    )
    prefix = {"eps_auth": "eps1", "eps_qkd": "eps2"}.get(args.param, "p_s")
    axis = {"c": "c", "N": "n"}.get(args.param, "p")  # the argument a grid point replaces
    rows = []
    for x in grid:
        n, c, p = (x if name == axis else getattr(args, name) for name in ("n", "c", "p"))
        seg = make_segment(n, c)
        approx_x = approx(seg, p)  # first, so that its errors come before the chain's
        rows.append([x, exact(seg, p), approx_x, valid(seg, p)])
    header = [args.param, f"{prefix}_exact", f"{prefix}_approx", "regime_valid"]
    sys.stdout.writelines(_csv_lines(header, rows))
    return 0


def _decimal_string(value: int) -> str:
    """``str(value)``, also past CPython's int-to-str digit limit.

    The limit (``sys.set_int_max_str_digits``) is process-wide and guards
    against CVE-2020-10735, so it is left as it is; a longer count is
    formatted through ``decimal``, whose conversion it does not cover.
    """
    try:
        return str(value)
    except ValueError:
        from decimal import MAX_EMAX, MAX_PREC, Context

        return format(Context(prec=MAX_PREC, Emax=MAX_EMAX).create_decimal(value), "f")


def cmd_routes(args) -> int:
    from . import routes

    seg = make_segment(args.n, args.c)
    if args.edges:
        pairs = ((i, j) for i in range(1, seg.n_nodes) for j in seg.out_neighbors(i))
        sys.stdout.writelines(_csv_lines(["from", "to"], pairs))
        return 0
    count = routes.cannacci_count(args.n, args.c)
    head = {"n": args.n, "c": args.c, "count": _decimal_string(count)}
    # Each route or bundle is written as it comes; the cap is checked first,
    # so that a refusal prints nothing.
    if args.enumerate:
        routes.check_route_cap(count, args.cap)
        with _json_stream(sys.stdout.write, head, "routes") as put:
            for route in routes.iter_routes(seg):
                put(route)
    elif args.scheme:
        scheme = routes.build_routing_scheme(seg, cap=args.cap)
        with _json_stream(sys.stdout.write, head, "scheme", pairs=True) as put:
            for link, bundle in scheme.per_link_bundles.items():
                put((f"{link.src}-{link.dst}", list(bundle)))
    else:
        sys.stdout.write(_json_text(head))
    return 0


def cmd_simulate(args) -> int:
    from . import simulator

    seg = make_segment(args.n, args.c)
    stats = simulator.run_trials(seg, args.p_node, args.p_link, args.trials, args.seed)
    if args.progress_csv:
        _write_progress_csv(args.progress_csv, stats)
    sys.stdout.write(_json_text(stats.to_dict()))
    return 0


def _write_progress_csv(path, stats) -> None:
    """Running estimates after each tenth of the trials, from the same draw
    as the reported result."""
    rows = ((done, auth / done, link / done) for done, auth, link in stats.progress)
    with _output_file(path) as fh:
        fh.writelines(_csv_lines(["trials", "estimate_auth", "estimate_link"], rows))


@contextlib.contextmanager
def _output_file(path):
    """An output file open for writing text.  An unwritable path, or a write
    that fails, is a ValidationError (exit 2); a write that fails part-way
    leaves what was written before it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_optimize_c(args) -> int:
    # optimal_c_integer checks the N range for all four figures
    c_int = security.optimal_c_integer(args.n)
    payload = {
        "n": args.n,
        "c_root": security.optimal_c_root(args.n),
        "c_root_approx": security.optimal_c_root_approx(args.n),
        "c_integer": c_int,
        "factor": security.hash_reduction_factor(args.n, c_int),
    }
    sys.stdout.write(_json_text(payload))
    return 0


def cmd_demo_protocol(args) -> int:
    import hashlib
    from itertools import accumulate, count

    from . import protocol, routes

    seg = make_segment(args.n, args.c)
    # Refuse before the scheme is built: the route cap first, then the key
    # length, the seed and the session's key material.
    routes.check_route_cap(routes.cannacci_count(args.n, args.c), None)
    protocol.check_session(seg, args.key_len, args.seed)
    scheme = routes.build_routing_scheme(seg)
    bundles, last = scheme.per_link_bundles, seg.n_nodes
    print(f"segment n={args.n} c={args.c}: {scheme.route_count} routes, "
          f"{seg.edge_count} links, key_len={args.key_len}")
    # Every label, each after a space, in one text; label i starts at at[i],
    # so each block of a bundle is one slice of the text.
    labels = [f" K{i}" for i in range(scheme.route_count + 1)]
    text, at = "".join(labels), [0, *accumulate(map(len, labels))]
    del labels
    numbers = count(1)
    endpoint = []  # the messages into node N, the only ones kept

    def show(message) -> None:
        link, ciphertext = message
        i = next(numbers)
        if args.corrupt and i == seg.edge_count:  # the last message, into node N
            ciphertext ^= 1
        bundle = bundles[link]
        nbits = len(bundle) * args.key_len
        digest = hashlib.blake2b(
            ciphertext.to_bytes(max((nbits + 7) // 8, 1), "big"), digest_size=8
        ).hexdigest()
        ids = "".join(bundle.slices(text, at))[1:]
        print(f"message {i}: link {link.src}->{link.dst}  ({ids}) XOR k_{link.src}{link.dst}  digest={digest}")
        if link.dst == last:
            endpoint.append((link, ciphertext))

    keys, _, final_key = protocol.run_session(seg, scheme, args.key_len, args.seed, show)
    transcript = protocol.SessionTranscript(messages=tuple(endpoint), key_len=args.key_len)
    endpoint_keys = {link: key for link, key in keys.link_keys.items() if link.dst == last}
    if protocol.reconstruct_at_endpoint(seg, scheme, transcript, endpoint_keys) == final_key:
        print("endpoint reconstruction: PASS")
        if args.json_out:
            _write_transcript_json(args.json_out, seg, scheme, args.key_len, args.seed)
        return 0
    print("endpoint reconstruction: FAIL")
    return InconsistencyError.exit_code


def _write_transcript_json(path, seg, scheme, key_len: int, seed: int) -> None:
    """The session's transcript as JSON, written one message at a time as a
    second session with the same seed, which draws the same keys, sends it."""
    from . import protocol

    bundles = scheme.per_link_bundles
    head = {"segment": seg.to_dict(), "key_len": key_len}
    with _output_file(path) as fh, _json_stream(fh.write, head, "messages") as put:
        def send(message) -> None:
            link, ciphertext = message
            put({"link": f"{link.src}-{link.dst}", "bundle": list(bundles[link]),
                 "ciphertext": format(ciphertext, "x")})

        protocol.run_session(seg, scheme, key_len, seed, send)


def _add_analyze(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--eps-auth", type=float, required=True)
    p.add_argument("--eps-qkd", type=float, required=True)
    p.add_argument("--mode", choices=("approx", "exact"), default="approx")


def _add_sweep(p: argparse.ArgumentParser) -> None:
    p.add_argument("--param", choices=("p", "eps_auth", "eps_qkd", "c", "N"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True,
                   help=f"grid points, 2..{MAX_SWEEP_POINTS}")
    p.add_argument("--spacing", choices=("log", "linear"), default="linear")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--c", type=int, default=3)
    p.add_argument("--p", type=float, default=0.01)


def _add_routes(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count-only", action="store_true")
    mode.add_argument("--enumerate", action="store_true")
    mode.add_argument("--scheme", action="store_true")
    mode.add_argument("--edges", action="store_true", help="emit edge list as CSV")
    p.add_argument("--cap", type=int, default=None,
                   help="route materialization cap (default 2^20 or QKDNET_ROUTE_CAP)")


def _add_simulate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--p-node", type=float, default=0.0)
    p.add_argument("--p-link", type=float, default=0.0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--progress-csv", type=str, default=None,
                   help="write the running estimates after each tenth of the "
                        "trials to this file")


def _add_optimize_c(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)


def _add_demo_protocol(p: argparse.ArgumentParser) -> None:
    from .protocol import MAX_KEY_LEN

    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--key-len", type=int, default=128,
                   help=f"bits per key, 1..{MAX_KEY_LEN}")
    p.add_argument("--seed", type=int, default=0, help="key seed, >= 0")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one ciphertext bit to demonstrate FAIL detection")
    p.add_argument("--json-out", type=str, default=None,
                   help="write the transcript as JSON to this file")


# Subcommand name -> (help, function adding its arguments, command), in the
# order --help lists them.
SUBCOMMANDS = {
    "analyze": ("eps1/eps2/eps_qn security report as JSON", _add_analyze, cmd_analyze),
    "sweep": ("parameter sweep as CSV on stdout", _add_sweep, cmd_sweep),
    "routes": ("route count/enumeration/scheme as JSON", _add_routes, cmd_routes),
    "simulate": ("Monte Carlo attack trials as JSON", _add_simulate, cmd_simulate),
    "optimize-c": ("optimal connection density as JSON", _add_optimize_c, cmd_optimize_c),
    "demo-protocol": ("run one key-transport session", _add_demo_protocol, cmd_demo_protocol),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``qkdnet`` argument parser.

    With no ``command``, every subcommand is added.  With a name from
    SUBCOMMANDS, only that subcommand is, under the full parser's usage
    line, so an argv that starts with that name gets the same help, error
    messages and exit codes from either parser.
    """
    parser = argparse.ArgumentParser(
        prog="qkdnet",
        description="Security analysis of banded trusted-node QKD network segments.",
    )
    # The full parser keeps no metavar: argparse would name the action by
    # it, in place of "command", in its invalid-choice and missing-command
    # errors.
    metavar = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in SUBCOMMANDS if command is None else (command,):
        help_text, add_arguments, func = SUBCOMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        add_arguments(subparser)
        subparser.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one ``qkdnet`` command; returns its exit code.

    ``argv`` defaults to ``sys.argv[1:]``, and it is parsed once.  When its
    first word names a subcommand, only that subcommand's parser is built;
    anything else (no arguments, an option or ``--`` first, an unknown
    name) goes to the full parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except QkdNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
