"""Command-line surface: network file ingestion, dispatch, report emission.

Network files are UTF-8 JSON documents shaped as NETWORK_SCHEMA says; vertex
order is array order, parallel indices follow order of appearance. Each
``verify`` check is a subcommand that declares only the options it reads
(VERIFY_CHECKS). Reports print as text with 10 significant digits, or as
JSON under ``--format json``.

Exit codes: 0 all checks pass, 1 a verified inequality failed beyond
tolerance, 2 usage error (an option the command does not read included) or
malformed input (a file that is not UTF-8 or not JSON included), 3
semantically invalid input (self-loop, a resistance that is not finite or
is below MIN_RESISTANCE, disconnected graph).
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import verify
from .electric import (
    ResistiveNetwork,
    dissipated_power,
    effective_resistance,
    kcl_residual,
    kvl_residual,
    thomson_flow,
)
from .errors import GffResistError, ParseError, ValidationError
from .gaussian import DegenerateEntropy
from .gff import build_free_field, potential_difference_variance
from .graph import build_multigraph
from .verify import VerificationReport

DEFAULT_SUITE_SEED = 12345
SEED_ENV_VAR = "GFFRESIST_SEED"
LN2 = math.log(2.0)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INVALID_NETWORK = 3

# Shape of a network document; parse_network enforces it through _check_shape.
NETWORK_SCHEMA = {
    "type": "object",
    "required": ["vertices", "edges"],
    "additionalProperties": False,
    "properties": {
        "vertices": {
            "type": "array",
            "minItems": 2,
            "items": {"type": "string"},
        },
        "edges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["u", "v", "r"],
                "additionalProperties": False,
                "properties": {
                    "u": {"type": "string"},
                    "v": {"type": "string"},
                    "r": {"type": "number"},
                },
            },
        },
    },
}

# Shape of every report emitted under --format json. Degenerate entropies
# and non-finite margins serialize as null.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["name", "quantities", "inequalities", "tolerance", "pass"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "quantities": {
            "type": "object",
            "additionalProperties": {"type": ["number", "null"]},
        },
        "inequalities": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["lhs", "rel", "rhs", "margin", "holds"],
                "additionalProperties": False,
                "properties": {
                    "lhs": {"type": "string"},
                    "rel": {"enum": [">=", "<=", "=="]},
                    "rhs": {"type": "string"},
                    "margin": {"type": ["number", "null"]},
                    "holds": {"type": "boolean"},
                },
            },
        },
        "tolerance": {"type": "number"},
        "pass": {"type": "boolean"},
    },
}


# JSON types as json.load(..., parse_int=float) returns them; a boolean is
# not a float, so ``"r": true`` is no number.
_JSON_TYPES = {"object": dict, "array": list, "string": str, "number": float}


def _check_shape(value, schema, where: str) -> None:
    """Raise ParseError, located at ``where``, unless ``value`` matches ``schema``.

    Reads only the keywords NETWORK_SCHEMA uses: type, required, properties,
    items and minItems; every object is closed (additionalProperties: false).
    """
    kind = schema["type"]
    if not isinstance(value, _JSON_TYPES[kind]):
        raise ParseError(f"{where} must be a JSON {kind}")
    if kind == "array":
        if len(value) < schema.get("minItems", 0):
            raise ParseError(f"{where} needs at least {schema['minItems']} items")
        for i, item in enumerate(value):
            _check_shape(item, schema["items"], f"{where}[{i}]")
    elif kind == "object":
        for key in schema["required"]:
            if key not in value:
                raise ParseError(f"{where} is missing field {key!r}")
        for key, item in value.items():
            if key not in schema["properties"]:
                raise ParseError(f"{where} has unknown field {key!r}")
            _check_shape(item, schema["properties"][key], f"{where}: {key}")


def parse_network(path: str) -> ResistiveNetwork:
    """Load and validate a network document.

    Raises ParseError, located in the file, for a file that cannot be read
    or decoded as UTF-8, a document that is not JSON or is nested too deeply
    to parse, or one that does not match NETWORK_SCHEMA; and
    ValidationError for a well-formed document that violates a network
    invariant (ResistiveNetwork checks the resistances).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            # Integers parse as floats: one too large for a double is inf, like 1e400.
            doc = json.load(fh, parse_int=float)
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc

    _check_shape(doc, NETWORK_SCHEMA, path)

    edges = doc["edges"]
    try:
        graph = build_multigraph(doc["vertices"],
                                 [(rec["u"], rec["v"]) for rec in edges])
        return ResistiveNetwork(graph, np.array([rec["r"] for rec in edges]))
    except GffResistError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def serialize_network(n: ResistiveNetwork) -> dict:
    """Document form of a network, edges in canonical id order; vertex
    names are written as strings, as NETWORK_SCHEMA requires."""
    names = [str(v) for v in n.graph.vertices]
    return {
        "vertices": names,
        "edges": [
            {"u": names[rec.tail], "v": names[rec.head],
             "r": float(n.resistances[e])}
            for e, rec in enumerate(n.graph.edges)
        ],
    }


def fmt(x) -> str:
    """10 significant digits, locale-independent."""
    return format(float(x), ".10g")


def _fmt_value(value) -> str:
    if isinstance(value, DegenerateEntropy):
        return "degenerate"
    if isinstance(value, float) and not math.isfinite(value):
        return "degenerate-comparison"
    return fmt(value)


def to_bits(report: VerificationReport) -> VerificationReport:
    """Rescale entropy-valued quantities (h_* labels) from nats to bits."""
    def bits(label, value):
        entropy = label.startswith("h_") and isinstance(value, float)
        return value / LN2 if entropy else value

    return VerificationReport(
        report.name,
        tuple((label, bits(label, v)) for label, v in report.quantities),
        # A relation compares like with like: an entropy margin is in nats.
        tuple(dataclasses.replace(iq, margin=bits(iq.lhs, iq.margin))
              for iq in report.inequalities),
        report.tolerance,
    )


def render_report(report: VerificationReport) -> str:
    lines = [f"check: {report.name}"]
    for label, value in report.quantities:
        lines.append(f"  {label} = {_fmt_value(value)}")
    for iq in report.inequalities:
        status = "ok" if iq.holds else "FAILED"
        lines.append(
            f"  {iq.lhs} {iq.rel} {iq.rhs}  margin={_fmt_value(iq.margin)}  {status}")
    lines.append(f"  tolerance = {fmt(report.tolerance)}")
    lines.append(f"  result: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def _emit_report(report: VerificationReport, args) -> int:
    if getattr(args, "bits", False):
        report = to_bits(report)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(render_report(report))
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def _load_pair(network: ResistiveNetwork, pair: str, parser) -> tuple:
    parts = pair.split(",")
    if len(parts) != 2:
        parser.error("--pair must look like NAME,NAME")
    a, b = (network.graph.vertex_index(p) for p in parts)
    if a == b:
        parser.error("--pair needs two distinct vertices")
    return a, b


def _require_same_topology(n1: ResistiveNetwork, n2: ResistiveNetwork, parser):
    if n1.graph != n2.graph:
        parser.error("topology mismatch: --network and --bar-network must "
                     "share the same vertex list and edge multiset")


def _simple_report(name: str, quantities) -> VerificationReport:
    return VerificationReport(name, tuple(quantities), (), 0.0)


def _cmd_reff(args, parser) -> int:
    net = parse_network(args.network)
    a, b = _load_pair(net, args.pair, parser)
    reff = effective_resistance(net, a, b)
    if args.format == "json":
        return _emit_report(_simple_report("effective_resistance",
                                           [("reff", reff)]), args)
    print(fmt(reff))
    return EXIT_PASS


def _cmd_gff(args, parser) -> int:
    net = parse_network(args.network)
    a, b = _load_pair(net, args.pair, parser)
    var = potential_difference_variance(build_free_field(net), a, b)
    reff = effective_resistance(net, a, b)
    if args.format == "json":
        return _emit_report(_simple_report("gff_variance",
                                           [("var_u", var), ("reff", reff)]),
                            args)
    print(f"var_u = {fmt(var)}")
    print(f"reff  = {fmt(reff)}")
    return EXIT_PASS


def _cmd_thomson(args, parser) -> int:
    net = parse_network(args.network)
    a, b = _load_pair(net, args.pair, parser)
    flow = thomson_flow(net, a, b)
    g = net.graph
    quantities = [(f"current[{e}]", float(flow.currents[e]))
                  for e in range(g.n_edges)]
    quantities += [
        ("power", dissipated_power(net, flow)),
        ("kcl_residual", kcl_residual(net, flow, a, b)),
        ("kvl_residual", kvl_residual(net, flow)),
    ]
    if args.format == "json":
        return _emit_report(_simple_report("thomson_flow", quantities), args)
    names = g.vertices
    print(f"thomson flow, unit current {names[a]} -> {names[b]}")
    for e, rec in enumerate(g.edges):
        print(f"  edge {e}  {names[rec.tail]} -> {names[rec.head]}"
              f"  (parallel {rec.parallel_index})  I = {fmt(flow.currents[e])}")
    for label, value in quantities[g.n_edges:]:
        print(f"  {label} = {fmt(value)}")
    return EXIT_PASS


def _cmd_verify(args, parser) -> int:
    """Run ``verify <check>``. Its subparser declared only the options the
    check reads; ``args.keywords`` lists those its function takes, each
    stored under the function's parameter name."""
    kwargs = {dest: getattr(args, dest) for dest in args.keywords}
    if args.check == "appendix":
        instance = verify.random_appendix_instance(kwargs.pop("dim"),
                                                   kwargs.pop("seed"))
        return _emit_report(verify.appendix_check(instance, **kwargs), args)
    net = parse_network(args.network)
    kwargs["a"], kwargs["b"] = _load_pair(net, args.pair, parser)
    resistances = [net.resistances]
    if "bar_network" in args:
        net_bar = parse_network(args.bar_network)
        _require_same_topology(net, net_bar, parser)
        resistances.append(net_bar.resistances)
    if "edge" in kwargs and kwargs["edge"] >= net.graph.n_edges:
        parser.error(f"--edge must be below the edge count {net.graph.n_edges}")
    # Looked up per call, so that a wrapper bound in ``verify`` sees it.
    report = getattr(verify, args.run)(net.graph, *resistances, **kwargs)
    return _emit_report(report, args)


def _cmd_suite(args, parser) -> int:
    summary = verify.run_suite(args.seed, args.instances, args.tol)
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(f"suite seed={args.seed} instances={args.instances} "
              f"tol={fmt(args.tol)}")
        for name, entry in summary["checks"].items():
            status = "pass" if entry["failures"] == 0 else \
                f"FAIL ({entry['failures']} instances)"
            print(f"  {name}: {status}  worst_margin={fmt(entry['worst_margin'])}")
        print(f"  overall: {'pass' if summary['pass'] else 'FAIL'}")
    return EXIT_PASS if summary["pass"] else EXIT_CHECK_FAILED


def _at_least(kind, low, strict=False):
    """Argument type: a finite ``kind`` (int or float) >= ``low``, or > ``low``
    when ``strict``. NaN fails both comparisons."""
    def parse(text: str):
        value = kind(text)
        if not (low < value if strict else low <= value) or value == math.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it: "invalid int value"
    return parse


# Per verify check: the verify function that runs it, and the options it
# reads besides --format, and --network and --pair for every check but
# appendix. Argparse rejects any other option.
VERIFY_CHECKS = {
    "superadd": ("check_superadditivity", "--bar-network", "--tol"),
    "melvin": ("melvin_chain", "--bar-network", "--tol"),
    "entropy": ("entropy_chain", "--bar-network", "--tol", "--bits"),
    "concavity": ("check_concavity_segment", "--bar-network", "--tol", "--grid"),
    "scaling": ("check_scaling", "--tol", "--scale"),
    "monotone": ("check_monotonicity", "--tol", "--edge", "--delta"),
    "appendix": ("appendix_check", "--tol", "--dim", "--seed", "--bits"),
    "mc": ("monte_carlo_variance_check", "--samples", "--seed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gffresist",
        description="Effective resistance by three routes, with machine-"
                    "checked concavity, power-chain, and entropy-chain "
                    "verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    tol_args = dict(type=_at_least(float, 0), default=verify.DEFAULT_TOL,
                    help="relative to the larger operand; entropy relations "
                         "absolute, in nats; concavity relative to max|f|")
    positive = _at_least(float, 0, strict=True)

    def add_common(p):
        p.add_argument("--network", required=True, help="network JSON file")
        p.add_argument("--pair", required=True, help="vertex pair NAME,NAME")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_reff = sub.add_parser("reff", help="effective resistance (Laplacian route)")
    add_common(p_reff)

    p_gff = sub.add_parser("gff", help="free-field variance beside the "
                                       "effective resistance")
    add_common(p_gff)

    p_thomson = sub.add_parser("thomson", help="minimum-energy unit flow, "
                                               "power, and law residuals")
    add_common(p_thomson)

    p_verify = sub.add_parser("verify", help="run one theorem check")
    checks = p_verify.add_subparsers(dest="check", required=True)
    check_options = {
        "--bar-network": dict(required=True, help="second resistance "
                              "assignment, same topology"),
        "--tol": tol_args,
        "--grid": dict(dest="grid_points", metavar="N", type=_at_least(int, 3),
                       default=21, help="concavity grid points"),
        "--seed": dict(type=_at_least(int, 0), default=0),
        "--samples": dict(dest="count", metavar="N", type=_at_least(int, 1),
                          default=1_000_000),
        "--scale": dict(dest="t", type=positive, default=2.0),
        "--edge": dict(type=_at_least(int, 0), default=0),
        "--delta": dict(type=positive, default=1.0),
        "--dim": dict(type=_at_least(int, 1), default=4),
        "--bits": dict(action="store_true",
                       help="report entropies in bits instead of nats"),
    }
    for check, (run, *flags) in VERIFY_CHECKS.items():
        p = checks.add_parser(check)
        if check == "appendix":
            p.add_argument("--format", choices=("text", "json"), default="text")
        else:
            add_common(p)
        dests = [p.add_argument(flag, **check_options[flag]).dest
                 for flag in flags]
        p.set_defaults(run=run, keywords=[
            d for d in dests if d not in ("bar_network", "bits")])

    p_suite = sub.add_parser("suite", help="randomized property battery")
    # A string default goes through ``type`` too, so a bad $GFFRESIST_SEED
    # is a usage error like a bad --seed.
    p_suite.add_argument("--seed", type=_at_least(int, 0),
                         default=os.environ.get(SEED_ENV_VAR,
                                                str(DEFAULT_SUITE_SEED)),
                         help=f"suite seed (default ${SEED_ENV_VAR}, "
                              f"else {DEFAULT_SUITE_SEED})")
    p_suite.add_argument("--instances", type=_at_least(int, 1), default=200)
    p_suite.add_argument("--tol", **tol_args)
    p_suite.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def run_command(argv) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    handlers = {
        "reff": _cmd_reff,
        "gff": _cmd_gff,
        "thomson": _cmd_thomson,
        "verify": _cmd_verify,
        "suite": _cmd_suite,
    }
    try:
        return handlers[args.command](args, parser)
    except SystemExit as exc:  # parser.error inside a handler
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_NETWORK
    except GffResistError as exc:  # ParseError and other usage errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
