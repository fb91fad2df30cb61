"""Command-line interface.

Subcommands: family, chambers, edges, det, formula, zagier, verify.
Exit codes: 0 success / verification PASS, 1 verification FAIL, 2 usage or
input error.  All machine-readable output is JSON on stdout; family,
chambers and edges also have a plain-text form (the default), and the text
form of `family` is itself a valid arrangement file.

`COMMANDS` is the one place where a command's name, help, arguments and
handler live.  A call parses its arguments with the parser of the command it
runs alone, the one the full parser's subparser would be.  The full parser is
built only for -h, a missing or unknown command and arguments the command's
parser leaves over, so its own messages and exits stay the CLI's.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from functools import partial
from pathlib import Path

from .closedform import formula, printed_edges, zagier
from .exactalg import DEFAULT_PRIME, PrimeField, factored_specialize_all
from .families import FamilyKind, build_family
from .geometry import (Arrangement, enumerate_chambers,
                       factored_determinant_general, relevant_edges)
from .harness import (DEFAULT_SEED, DEFAULT_TRIALS, SOURCES, DetSource,
                      _assignment_digest, parse_arrangement_file, source,
                      trial_assignment, verify_identity)


class CliError(ValueError):
    pass


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _load_arrangement(args) -> tuple[Arrangement, str]:
    kind = getattr(args, "kind", None)
    file = getattr(args, "file", None)
    if (kind is None) == (file is None):
        raise CliError("exactly one of --kind and --file is required")
    if kind is not None:
        k = FamilyKind.parse(kind)
        return build_family(k), str(k)
    A = parse_arrangement_file(Path(file).read_text())
    return A, file


def _prime_chambers(A: Arrangement, args) -> None:
    enumerate_chambers(A,
                       max_hyperplanes=getattr(args, "max_hyperplanes", None),
                       max_chambers=getattr(args, "max_chambers", None))


def _guard_limit(text: str) -> int:
    # argparse prefixes the message with the flag's name
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_subject_args(sub, with_guards: bool = True) -> None:
    sub.add_argument("--kind", help="family selector A:n, B:n, D:n or I2:m")
    sub.add_argument("--file", help="arrangement file path")
    if with_guards:
        sub.add_argument("--max-hyperplanes", type=_guard_limit, dest="max_hyperplanes",
                         help="override the hyperplane-count guard")
        sub.add_argument("--max-chambers", type=_guard_limit, dest="max_chambers",
                         help="override the chamber-count guard")


def _hyperplane_text(h) -> str:
    coeffs = " ".join(str(c) for c in h.normal)
    return f"hyperplane {coeffs} {h.offset} {h.weight}"


def cmd_family(args) -> int:
    A, _ = _load_arrangement(args)
    if args.emit == "json":
        _emit_json({
            "dimension": A.dimension,
            "hyperplanes": [
                {"normal": [str(c) for c in h.normal],
                 "offset": str(h.offset),
                 "weight": h.weight}
                for h in A.hyperplanes
            ],
        })
    else:
        print(f"dim {A.dimension}")
        for h in A.hyperplanes:
            print(_hyperplane_text(h))
    return 0


def cmd_chambers(args) -> int:
    A, _ = _load_arrangement(args)
    _prime_chambers(A, args)
    chambers = enumerate_chambers(A)
    if args.emit == "json":
        _emit_json({
            "count": len(chambers),
            "chambers": [
                {"signs": c.sign_string(), "witness": [str(x) for x in c.witness]}
                for c in chambers
            ],
        })
    else:
        for c in chambers:
            print(c.sign_string(), " ".join(str(x) for x in c.witness))
        print(f"# {len(chambers)} chambers")
    return 0


def cmd_edges(args) -> int:
    if args.combinatorial:
        if args.kind is None:
            raise CliError("--combinatorial needs --kind")
        kind = FamilyKind.parse(args.kind)
        edges = printed_edges(kind)
        if args.emit == "json":
            _emit_json({"kind": str(kind), "edges": [
                {"variant": e.variant, "entries": list(e.entries),
                 "weight": str(e.monomial), "multiplicity": e.exponent}
                for e in edges]})
        else:
            for e in edges:
                print(f"{e.variant:13s} {str(list(e.entries)):24s} "
                      f"weight {e.monomial}  multiplicity {e.exponent}")
        return 0
    A, _ = _load_arrangement(args)
    _prime_chambers(A, args)
    rows = [{
        "hyperplanes": sorted(e.containing),
        "dim": e.dim,
        "weight": str(e.weight_monomial),
        "multiplicity": e.multiplicity,
    } for e in relevant_edges(A)]
    if args.emit == "json":
        _emit_json({"edges": rows})
    else:
        for r in rows:
            print(f"{str(r['hyperplanes']):24s} dim {r['dim']}  "
                  f"weight {r['weight']}  multiplicity {r['multiplicity']}")
    return 0


def cmd_det(args) -> int:
    A, subject = _load_arrangement(args)
    _prime_chambers(A, args)
    if args.mode == "factored":
        _emit_json(factored_determinant_general(A).to_json_obj())
        return 0
    field = PrimeField(args.prime)
    if args.assign is not None:
        raw = json.loads(Path(args.assign).read_text())
        if not isinstance(raw, dict):
            raise CliError("assignment file must be a JSON object")
        weights = set(A.weight_names())
        assignment = {}
        for name, value in raw.items():
            if name not in weights:
                raise CliError(f"assignment names {name!r}, which is not a weight "
                               "of the arrangement")
            # bool is a subclass of int, but true/false are not weights
            if isinstance(value, bool) or not isinstance(value, int):
                raise CliError(f"assignment for {name!r} must be an integer")
            assignment[name] = value % field.p
    else:
        assignment = trial_assignment(A.weight_names(), args.seed, 0, field.p)
    _emit_json({
        "subject": subject,
        "prime": str(field.p),
        "assignment": _assignment_digest(assignment),
        "value": str(source("bruteforce", A).value_at(assignment, field)),
    })
    return 0


def cmd_formula(args) -> int:
    kind = FamilyKind.parse(args.kind)
    f = formula(kind)
    if args.specialize is not None:
        f = factored_specialize_all(f, args.specialize)
    _emit_json(f.to_json_obj())
    return 0


def cmd_zagier(args) -> int:
    _emit_json(zagier(args.n).to_json_obj())
    return 0


def _source(role: str, name: str, args, A: Arrangement) -> DetSource:
    if name == "formula":
        if args.kind is None:
            raise CliError(f"--{role} formula needs --kind")
        return source(name, A, FamilyKind.parse(args.kind))
    _prime_chambers(A, args)
    return source(name, A)


def cmd_verify(args) -> int:
    A, subject = _load_arrangement(args)
    report = verify_identity(
        _source("lhs", args.lhs, args, A),
        _source("rhs", args.rhs, args, A),
        trials=args.trials, prime=args.prime, seed=args.seed, subject=subject)
    sys.stdout.write(report.to_json())
    return 0 if report.passed() else 1


def _add_family(p) -> None:
    _add_subject_args(p, with_guards=False)
    p.add_argument("--emit", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_family)


def _add_chambers(p) -> None:
    _add_subject_args(p)
    p.add_argument("--emit", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_chambers)


def _add_edges(p) -> None:
    _add_subject_args(p)
    p.add_argument("--combinatorial", action="store_true",
                   help="family model with the printed multiplicities "
                        "(default: the face-scan engine)")
    p.add_argument("--emit", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_edges)


def _add_det(p) -> None:
    _add_subject_args(p)
    p.add_argument("--mode", choices=("factored", "bruteforce"), required=True)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--assign", help="JSON file mapping weight names to integers")
    p.set_defaults(func=cmd_det)


def _add_formula(p) -> None:
    p.add_argument("--kind", required=True)
    p.add_argument("--specialize", metavar="VAR",
                   help="collapse all weights to one variable")
    p.set_defaults(func=cmd_formula)


def _add_zagier(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_zagier)


def _add_verify(p) -> None:
    _add_subject_args(p)
    p.add_argument("--lhs", choices=SOURCES, required=True)
    p.add_argument("--rhs", choices=SOURCES, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)


# name -> (help, function adding the subparser's arguments and handler);
# the order is the order of the full parser's help
COMMANDS = {
    "family": ("describe an arrangement", _add_family),
    "chambers": ("list chambers with sign vectors", _add_chambers),
    "edges": ("list relevant edges with multiplicities", _add_edges),
    "det": ("determinant, factored or one evaluation", _add_det),
    "formula": ("closed-form factored determinant", _add_formula),
    "zagier": ("single-variable specialized formula", _add_zagier),
    "verify": ("compare two determinant representations", _add_verify),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with every command, or `command`'s parser alone, the same
    as the full parser's subparser for it."""
    # argparse's own width, queried once per build, not once per argument
    formatter = partial(argparse.HelpFormatter,
                        width=shutil.get_terminal_size().columns - 2)
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"varchenko {command}",
                                         formatter_class=formatter)
        COMMANDS[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="varchenko", formatter_class=formatter,
        description="Exact toolkit for weighted hyperplane arrangements and "
                    "their factored matrix determinants.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(subs.add_parser(name, help=help_text, formatter_class=formatter))
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = rest = None
    if argv and argv[0] in COMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
    # -h, a missing or unknown command and leftover arguments take the full
    # parser, so its own help, usage and errors are the CLI's
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
