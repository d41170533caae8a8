"""Command-line interface.

Subcommands: analyze (full pipeline), example (built-in families with their
certificates), search (destabilization search only), criteria (closed-form
evaluators from flags), oracle (brute-force enumeration cross-checked against
the LP), certify (verify a certificate file).

A run parses with the parser of the command named by its first argument,
built from the ``COMMANDS`` table on that command's first run in the process
and kept for later runs; none is built at import.  Only a command line that
names no command (``-h``, ``--version``, a missing or unknown command) or
that gives the command an argument it does not take builds the full parser,
the command listing with every command's arguments, which prints help,
usage and errors exactly as before.

JSON output is ``json.dumps(payload, indent=2, sort_keys=True)``, byte for
byte, from :func:`indented_json`.

Exit codes, one rule for every command: each first reads and checks its
input, then works.  A ``ValueError`` or ``OSError`` from the check or from
writing the output, or an ``--s`` that the analysis contradicts, exits 2
(``error: ...``); any other exception exits 3 with one line
``internal consistency failure: <type>: <message>``, as does an oracle that
disagrees with the LP.  Only :func:`main` maps exceptions to exit codes.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from typing import Callable

from . import __version__
from .certificates import Certificate, check_weight_count, verify_certificate
from .criteria import ProfileError, SingularityProfile, check_shape, combined_verdict
from .families import FAMILIES, family_certificate
from .local_analysis import (
    PointError,
    ProjectivePoint,
    analyze_point,
    check_scan_options,
    scan_singular_points,
)
from .polynomials import HomogeneousPoly, PolyError, format_poly, parse_poly_infer
from .report import AnalysisOptions, AssertedProfileError, analyze
from .search import SearchConfig, search_destabilization
from .torus import enumerate_weight_oracle, torus_destabilize
from .verdicts import InternalConsistencyError, Status
from .weights import WeightError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_INFINITY = float("inf")


def _read_poly_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = [line.split("#", 1)[0] for line in raw.splitlines()]
    text = " ".join(lines).strip()
    if not text:
        raise PolyError(f"no polynomial found in {path}")
    return parse_poly_infer(text)


def _read_points_file(path: str) -> tuple[ProjectivePoint, ...]:
    """The points of a JSON list of coordinate lists; a coordinate is a
    number or a string such as "1/2"."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not all(isinstance(coords, list) for coords in data):
        raise PointError(f"bad points file {path}: expected a list of coordinate lists")
    points = []
    for coords in data:
        try:
            values = [Fraction(str(v)) for v in coords]
        except (ValueError, ZeroDivisionError) as exc:
            raise PointError(f"bad point {coords} in {path}: {exc}") from exc
        points.append(ProjectivePoint.make(values))
    return tuple(points)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _scalar_text(value) -> str:
    """A value that is neither a string nor a container, as ``json`` writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _put_container(value, newline: str, put: Callable[[str], None]) -> None:
    """Put the pieces of a dict, list or tuple that starts after ``newline``'s
    indentation; its items go one level deeper."""
    inner = newline + "  "
    separator = inner
    if isinstance(value, dict):
        if not value:
            put("{}")
            return
        put("{")
        for key, item in sorted(value.items()):
            put(separator + _escape(key) + ": ")
            separator = "," + inner
            if isinstance(item, str):
                put(_escape(item))
            elif isinstance(item, (dict, list, tuple)):
                _put_container(item, inner, put)
            else:
                put(_scalar_text(item))
        put(newline + "}")
        return
    if not value:
        put("[]")
        return
    put("[")
    for item in value:
        put(separator)
        separator = "," + inner
        if isinstance(item, str):
            put(_escape(item))
        elif isinstance(item, (dict, list, tuple)):
            _put_container(item, inner, put)
        else:
            put(_scalar_text(item))
    put(newline + "]")


def indented_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, for
    payloads of dicts with string keys, lists, tuples, strings, ints,
    floats, booleans and None; any other type, or key, raises ``TypeError``.

    ``json`` indents only in its pure-Python encoder (Python 3.11), which
    runs a generator per container and a call per value; this one escapes
    strings with the C helper, writes a container's strings and scalars in
    its own loop and appends every piece to one list, in about 0.6 of the
    time on analyze reports.
    """
    if isinstance(payload, str):
        return _escape(payload)
    if not isinstance(payload, (dict, list, tuple)):
        return _scalar_text(payload)
    pieces: list[str] = []
    _put_container(payload, "\n", pieces.append)
    return "".join(pieces)


def _render(payload: dict, text: str | Callable[[], str], json_path: str | None):
    """(stdout text, ``--json`` file document or None): the payload's JSON
    for ``--json -``, else the text, which may be given as a function that
    builds it."""
    if json_path == "-":
        return indented_json(payload), None
    shown = text() if callable(text) else text
    return shown, (indented_json(payload) + "\n" if json_path else None)


def _search_config(args) -> SearchConfig:
    return SearchConfig(budget=args.budget, seed=args.seed, bound=args.bound)


def _analysis_input(args) -> tuple[HomogeneousPoly, AnalysisOptions]:
    """The polynomial and options of an ``analyze`` command line, with every
    check that needs no analysis: the files, the search flags, the height
    and field sizes, n, d and ``--s``, and each point's coordinate count."""
    f = _read_poly_file(args.file)
    extra = _read_points_file(args.points) if args.points else ()
    fields = tuple(int(p) for p in args.fields.split(",") if p) if args.fields else ()
    options = AnalysisOptions(
        s=args.s,
        extra_points=extra,
        height=args.height,
        field_sizes=fields,
        search=_search_config(args),
        timestamp=not args.no_timestamp,
    )
    check_scan_options(options.height, options.field_sizes)
    check_shape(f.n, f.d, options.s)
    for p in extra:
        if len(p.coords) != f.n + 1:
            raise PointError(
                f"bad point {p} in {args.points}: {len(p.coords)} coordinates, expected {f.n + 1}"
            )
    return f, options


def cmd_analyze(args, f, options):
    report = analyze(f, options)
    return report.to_json(), report.to_text, None


def cmd_example(args, f, cert):
    verdict = verify_certificate(f, cert)
    if verdict.status != Status.NOT_SEMISTABLE:
        raise InternalConsistencyError(
            f"built-in certificate for {args.family}, n = {args.n} failed verification"
        )
    payload = {
        "family": args.family,
        "n": args.n,
        "polynomial": format_poly(f),
        "certificate": cert.to_json(),
        "verdict": verdict.to_json(),
    }
    edge = " (edge case: empty middle block)" if args.family == "gn" and args.n == 2 else ""
    text = (
        f"{args.family}, n = {args.n}{edge}\npolynomial: {format_poly(f)}\n"
        f"weights: {cert.r}\nverdict: {verdict.status.value}"
    )
    return payload, text, None


def _search_input(args) -> tuple[HomogeneousPoly, SearchConfig]:
    f = _read_poly_file(args.file)
    check_scan_options(args.height, ())
    return f, _search_config(args)


def cmd_search(args, f, cfg):
    scan = scan_singular_points(f, args.height)
    # F and its gradient vanish at every scan point: multiplicity >= 2.
    local = tuple(analyze_point(f, p) for p in scan.points)
    outcome = search_destabilization(f, cfg, local)
    payload = {
        "polynomial": format_poly(f),
        "frames_tried": outcome.frames_tried,
        "strict_certificate": outcome.strict.to_json() if outcome.strict else None,
        "nonstrict_certificate": outcome.nonstrict.to_json() if outcome.nonstrict else None,
    }
    if outcome.strict:
        text = f"strict certificate found: r = {outcome.strict.r} (NotSemiStable)"
    elif outcome.nonstrict:
        text = f"non-strict certificate found: r = {outcome.nonstrict.r} (NotStable); no strict certificate within budget"
    else:
        text = f"no certificate found within budget ({outcome.frames_tried} frames); this is not a stability claim"
    return payload, text, None


def _criteria_input(args) -> tuple[SingularityProfile]:
    if args.rank is not None and args.corank is not None:
        raise ProfileError("give --rank or --corank, not both")
    rank = args.rank if args.corank is None else args.n - args.corank
    return (SingularityProfile(args.n, args.d, args.s, args.delta, rank),)


def cmd_criteria(args, profile):
    verdict = combined_verdict(profile, args.cone_free or None)
    payload = {"profile": profile.to_json(), "verdict": verdict.to_json()}
    return payload, str(verdict), None


def _oracle_input(args) -> tuple[HomogeneousPoly]:
    f = _read_poly_file(args.file)
    if args.bound < 1:
        raise WeightError("bound must be >= 1")
    return (f,)


def cmd_oracle(args, f):
    witness = enumerate_weight_oracle(f, args.bound, args.strict)
    decision = torus_destabilize(f, args.strict)
    # The oracle walks only the box, so it may miss an LP witness outside it.
    outside = decision.witness is not None and max(map(abs, decision.witness)) > args.bound
    agree = decision.feasible if witness is not None else not decision.feasible or outside
    lp = "feasible" if decision.feasible else "infeasible"
    if witness is None and outside:
        lp += f", witness {decision.witness} outside the box"
    payload = {
        "polynomial": format_poly(f),
        "strict": args.strict,
        "bound": args.bound,
        "oracle_witness": list(witness.r) if witness else None,
        "lp": decision.to_json(),
        "agree": agree,
    }
    text = (
        f"oracle: {'feasible, witness ' + str(witness) if witness else 'infeasible'}; "
        f"LP: {lp}; {'agree' if agree else 'DISAGREE'}"
    )
    return payload, text, None if agree else "oracle and LP disagree; this is a bug"


def _certify_input(args) -> tuple[HomogeneousPoly, Certificate]:
    f = _read_poly_file(args.file)
    with open(args.cert, "r", encoding="utf-8") as fh:
        cert = Certificate.from_json(json.load(fh))
    check_weight_count(f, cert)
    return f, cert


def cmd_certify(args, f, cert):
    verdict = verify_certificate(f, cert)
    payload = {
        "polynomial": format_poly(f),
        "certificate": cert.to_json(),
        "verdict": verdict.to_json(),
    }
    return payload, str(verdict), None


def _arg(*flags, **kwargs):
    return flags, kwargs


_SEARCH_FLAGS = (
    _arg("--budget", type=int, default=50, help="coordinate frames to try"),
    _arg("--seed", type=int, default=0, help="RNG seed for frame generation"),
    _arg("--bound", type=int, default=2, help="matrix entry bound for random frames"),
)

# name -> (help, input check, handler, arguments); the order is the order of
# the listing.  The check returns the checked input as a tuple; the handler
# takes the arguments and that tuple's items and returns (payload, text,
# fault), fault being None or the stderr line of a run that exits 3.
COMMANDS = {
    "analyze": ("full analysis pipeline for a polynomial file", _analysis_input, cmd_analyze, (
        _arg("file"),
        _arg("--s", type=int, default=None, help="asserted singular-locus dimension"),
        _arg("--points", default=None, help="JSON file with extra points to analyze"),
        _arg("--height", type=int, default=3, help="height bound for the singular scan"),
        _arg("--fields", default="", help="comma-separated primes for heuristic counts"),
        *_SEARCH_FLAGS,
        _arg("--json", default=None, help="write JSON report here ('-' for stdout)"),
        _arg("--no-timestamp", action="store_true", help="omit timestamp (reproducible output)"),
    )),
    "example": ("emit a built-in family member and its certificate",
                lambda args: family_certificate(args.family, args.n), cmd_example, (
        _arg("family", choices=FAMILIES),
        _arg("--n", type=int, required=True),
        _arg("--json", default=None),
    )),
    "search": ("destabilization search only", _search_input, cmd_search, (
        _arg("file"),
        *_SEARCH_FLAGS,
        _arg("--height", type=int, default=3),
        _arg("--json", default=None),
    )),
    "criteria": ("evaluate sufficient criteria from singularity data", _criteria_input, cmd_criteria, (
        _arg("--n", type=int, required=True),
        _arg("--d", type=int, required=True),
        _arg("--s", type=int, required=True),
        _arg("--delta", type=int, required=True),
        _arg("--rank", type=int, default=None, help="minimum Hessian rank"),
        _arg("--corank", type=int, default=None, help="maximum Hessian corank"),
        _arg("--cone-free", action="store_true", dest="cone_free",
             help="assert that no tangent cone is a cone over a hyperplane hypersurface"),
        _arg("--json", default=None),
    )),
    "oracle": ("brute-force oracle cross-checked against the LP", _oracle_input, cmd_oracle, (
        _arg("file"),
        _arg("--bound", type=int, required=True),
        _arg("--strict", action="store_true"),
        _arg("--json", default=None),
    )),
    "certify": ("verify a certificate JSON file", _certify_input, cmd_certify, (
        _arg("file"),
        _arg("--cert", required=True),
        _arg("--json", default=None),
    )),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flags, kwargs in COMMANDS[name][3]:
        parser.add_argument(*flags, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the command listing with every command's arguments."""
    parser = argparse.ArgumentParser(
        prog="hypstab",
        description="Exact stability analysis of projective hypersurfaces.",
    )
    parser.add_argument("--version", action="version", version=f"hypstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, built on its first use in a process.
    Parsing leaves it unchanged: each run's values go to a new namespace."""
    return _add_arguments(argparse.ArgumentParser(prog=f"hypstab {name}"), name)


def _parse(argv: list[str]):
    """(command name, parsed arguments) of a command line."""
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        args, extra = _command_parser(name).parse_known_args(argv[1:])
        if not extra:
            return name, args
    # -h, --version, a missing or unknown command, or arguments the command
    # does not take: the full parser handles it as it always has.
    args = build_parser().parse_args(argv)
    return args.command, args


def main(argv=None) -> int:
    """Run one command line; the only place an exception becomes an exit
    code.  A ``ValueError`` or ``OSError`` while the input is checked or the
    output written is the user's (exit 2), as is an ``--s`` that the
    analysis contradicts; anything else is the program's (exit 3)."""
    name, args = _parse(sys.argv[1:] if argv is None else list(argv))
    _, check, handler, _ = COMMANDS[name]
    stage = "input"
    try:
        checked = check(args)
        stage = "work"
        payload, text, fault = handler(args, *checked)
        shown, document = _render(payload, text, args.json)
        stage = "output"
        print(shown)
        if document is not None:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(document)
    except Exception as exc:
        if isinstance(exc, AssertedProfileError) or (
            stage != "work" and isinstance(exc, (ValueError, OSError))
        ):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"internal consistency failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if fault is not None:
        print(fault, file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())
