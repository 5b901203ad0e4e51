"""Command-line front-end.

Subcommands: analyze, sweep, routes, simulate, optimize-c, demo-protocol.
All outputs are machine-readable (JSON or CSV); probabilities are printed
with 12 significant digits, route counts as decimal strings.  ``main``
builds one parser per call: the named subcommand's own parser, or, for
any other argv or one with words left over, the full parser.

Exit codes: 0 success, 2 validation error or unwritable output file,
3 resource-cap error, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
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


def _json_ints(ids) -> str:
    """``json.dumps(list(ids), indent=2)`` for a sequence of ints, each line
    after the first indented by 4 more spaces, as ``_json_stream`` lays out
    an item, without the pure-Python encoder."""
    if not ids:
        return "[]"
    return "[\n      " + ",\n      ".join(map(str, ids)) + "\n    ]"


@contextlib.contextmanager
def _json_stream(write, head: dict, key: str, pairs: bool = False):
    """Write ``_json_text({**head, key: items})`` with ``write``, taking the
    items of the last field one at a time, so that only one is in memory.

    Yields ``put``, which writes one item: a list's item, or with ``pairs``
    an object's ``(name, value)`` pair.  Each is laid out as the whole text
    would lay it out, ``json.dumps(item, indent=2)`` indented by 4 spaces.
    An item or value that is a dict goes through ``json``'s encoder; any
    other is a sequence of ints (a route or a bundle), laid out directly.
    The end of the text is written when the block exits without an error.
    """
    text = _json_text({**head, key: {} if pairs else []})
    # text ends with the empty value, "[]" or "{}", and then "\n}\n"
    write(text[:-5])
    encode = json.JSONEncoder(indent=2).encode
    sep, end = text[-5] + "\n    ", text[-5:]

    def lay_out(value) -> str:
        if isinstance(value, dict):
            return encode(value).replace("\n", "\n    ")
        return _json_ints(value)

    def put(item) -> None:
        nonlocal sep, end
        write(sep + (f"{json.dumps(item[0])}: {lay_out(item[1])}" if pairs else lay_out(item)))
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
    if args.spacing == "linear":
        return _linspace(args.start, args.stop, args.points)
    if args.start <= 0:
        raise ValidationError("log spacing requires start > 0")
    # numpy.geomspace's rule: a linear grid of exponents, with both ends set
    exponents = _linspace(math.log10(args.start), math.log10(args.stop), args.points)
    return [args.start, *map(_exp10, exponents[1:-1]), args.stop]


def _exp10(y: float) -> float:
    """``10.0 ** y``, or inf where that overflows, as numpy's power gives."""
    try:
        return 10.0**y
    except OverflowError:
        return math.inf


def _linspace(start: float, stop: float, points: int) -> list[float]:
    """``numpy.linspace(start, stop, points)`` as floats, by numpy's rule:
    ``i * step + start``, or ``i / div * delta + start`` where the step
    underflows to 0, with the last point set to ``stop``."""
    div = points - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        grid = [i / div * delta + start for i in range(points)]
    else:
        grid = [i * step + start for i in range(points)]
    grid[-1] = stop
    return grid


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
    if args.cap is not None:
        # a given cap is validated in every mode; no count of 0 exceeds it
        routes.check_route_cap(0, args.cap)
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


def _add_subcommand(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, add_arguments, func = SUBCOMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=func, command=name)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``qkdnet`` argument parser, or one subcommand's.

    With no ``command``, the full parser, with every subcommand as a
    subparser.  With a name from SUBCOMMANDS, that subcommand's own parser,
    ``qkdnet <name>``, built as the full parser builds its subparser: it
    takes the words after the name and gives the same namespace, help and
    errors, ``command`` included.
    """
    if command is not None:
        return _add_subcommand(argparse.ArgumentParser(prog=f"qkdnet {command}"), command)
    parser = argparse.ArgumentParser(
        prog="qkdnet",
        description="Security analysis of banded trusted-node QKD network segments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in SUBCOMMANDS.items():
        _add_subcommand(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    """Run one ``qkdnet`` command; returns its exit code.

    ``argv`` defaults to ``sys.argv[1:]``.  When its first word names a
    subcommand, that subcommand's own parser parses the words after it, and
    no other parser is built.  Anything else (no arguments, an option or
    ``--`` first, an unknown name), or words that parser leaves over, goes
    to the full parser, which prints its own usage and error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = rest = None
    if argv and argv[0] in SUBCOMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QkdNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
