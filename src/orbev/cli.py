"""Batch command-line front end.

Commands: compute, mirror-check, duality-check, closed-form, cross-validate.
Output is deterministic for identical configuration, as JSON or text encoding
the same data.  Exit codes: 0 on success and on verified equalities, 2 when a
verification command finds an inequality (a counterexample report is a
successful run), 1 on usage or validation errors.

Each command is one `_COMMANDS` entry: its function, its help and its
`config_echo` fields in output order, parsed as their `_OPTIONS` except `d`
and `space`, which `--surface` gives (`_option_fields`).

`main` reads an argv that starts with a command name in one pass over that
command's `_OPTIONS` (`_read`): exact option names, each once, with values
that do not start with "-", converted and checked as argparse would.  It
returns the namespace argparse would return and builds no parser.  An argv
it does not read cleanly (an abbreviation, --opt=value, a repeated option,
a value starting with "-", a missing, extra or invalid value, -h or --help)
goes to that command's own argparse parser, which prints the same help and
usage errors as the whole tree's subparser; an argv without a command name
(--help, no command, an unknown command) goes to the whole tree.  So
argparse alone writes help and usage errors, a valid command builds no
parser, and each parser is built at most once per process.

A command function is a generator of its body (what follows `config_echo`)
with its exit code, then of its text lines, so a JSON run renders no text.
`main` writes through `dumps_canonical` or `"\\n".join`.  Command functions
look the engine's entry points up as module globals when they run, so
perfbench's tracer can replace them.

JSON output is written by `dumps_canonical`, which reproduces
`json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"` byte for byte for
dict, list, str, int, bool and None, and raises TypeError for any other type
(float and tuple included).  Three report types are values too, written as
json.dumps writes their plain form:

- a `BivariatePolynomial` as the list of its terms `{"p": p, "q": q,
  "coeff": str(c)}` in sorted (p, q) order, each one %-format of a term
  template built once per indent, with the int coefficient written by `%d`,
  which needs no escaping;
- an `IntegerMatrix` as the list of its rows;
- a `ClassContribution` as its class row, from `class_rep` to
  `weighted_poly`, rendered once per process for each distinct term and
  indent (`_class_row`), since a sweep writes the same rows again and again.

Reports put these values into the document as they are, so no term dict or
row list is built before the text.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from functools import lru_cache

from .epoly import BivariatePolynomial, SPACES
from .lattice_core import IntegerMatrix, LatticeError
from .orbifold_engine import ClassContribution, duality_check, mirror_check, orbifold_e_polynomial
from .root_data import RootDatum, classical_datum, custom_datum, sl_quotient_datum
from .sln_formula import closed_form_eorb, partitions, tau
from .weyl import DEFAULT_CAP

# E(A), the U(1)-factor count d and the engine's space for each surface covered
# by the closed form.
_UV = BivariatePolynomial.monomial(1, 1)
_ONE = BivariatePolynomial.one()
_U = BivariatePolynomial.monomial(1, 0)
_V = BivariatePolynomial.monomial(0, 1)
SURFACES: dict[str, tuple[BivariatePolynomial, int, str]] = {
    "betti": ((_UV - _ONE) ** 2, 2, "betti"),
    "abelian": (((_ONE - _U) * (_ONE - _V)) ** 2, 4, "abelian-surface"),
}

_FORM_ALIASES = {
    "sc": "simply_connected",
    "simply_connected": "simply_connected",
    "ad": "adjoint",
    "adjoint": "adjoint",
}


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise CliUsageError(message)


def _resolve_datum(selector: list[str]) -> RootDatum:
    if not selector:
        raise CliUsageError("empty group selector")
    kind = selector[0]
    if kind == "sl":
        if len(selector) != 3:
            raise CliUsageError(f"group selector 'sl' needs N and M, got {selector[1:]}")
        try:
            n, m = int(selector[1]), int(selector[2])
        except ValueError:
            raise CliUsageError(f"non-integer sl parameters: {selector[1:]}") from None
        return sl_quotient_datum(n, m)
    if kind == "classical":
        if len(selector) != 4:
            raise CliUsageError(f"group selector 'classical' needs FAMILY N FORM, got {selector[1:]}")
        family = selector[1].upper()
        try:
            n = int(selector[2])
        except ValueError:
            raise CliUsageError(f"non-integer rank: {selector[2]}") from None
        form = _FORM_ALIASES.get(selector[3])
        if form is None:
            raise CliUsageError(f"unknown form {selector[3]!r}; use sc or adjoint")
        return classical_datum(family, n, form)
    if kind == "custom":
        if len(selector) != 2:
            raise CliUsageError("group selector 'custom' needs a file path")
        path = selector[1]
        try:
            return custom_datum(path)
        except OSError as exc:
            raise CliUsageError(f"cannot read datum file {path}: {exc.strerror}") from None
    raise CliUsageError(f"unknown group selector {kind!r}; use sl, classical, or custom")


def _classes_text(report) -> Iterator[str]:
    for i, c in enumerate(report.contributions):
        rep = json.dumps(c.representative.entries, separators=(",", ":"))
        yield (
            f"class {i}: rep={rep} size={c.class_size}"
            f" centralizer={c.centralizer_order} shift={c.shift} pi0={list(c.pi0_divisors)}"
        )
        yield f"  average: {c.average.to_text()}"
        yield f"  weighted: {c.weighted.to_text()}"


def _verdict_text(verdict: bool) -> str:
    return f"verdict: {'equal' if verdict else 'NOT EQUAL'}"


_encode_str = json.encoder.encode_basestring  # json's own string encoder for ensure_ascii=False


@lru_cache(maxsize=None)
def _term_layout(newline: str) -> tuple[str, str, str]:
    """(opening, one term's %-template, separator) of a term list whose lines start at newline."""
    inner = newline + "  "
    field = inner + "  "
    term = "{" + field + '"p": %d,' + field + '"q": %d,' + field + '"coeff": "%d"' + inner + "}"
    return "[" + inner, term, "," + inner


def _int_list(items, newline: str) -> str:
    """A nonempty sequence of ints, one per line, inside brackets whose lines start at newline."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(int.__repr__, items)) + newline + "]"


@lru_cache(maxsize=None)
def _class_row(c: ClassContribution, newline: str) -> str:
    """A class term's plain row in json.dumps's layout, rendered once per process for each term and indent."""
    return _encode({"class_rep": c.representative, "class_size": c.class_size, "centralizer_order": c.centralizer_order,
                    "shift": c.shift, "pi0_divisors": list(c.pi0_divisors), "average_poly": c.average,
                    "weighted_poly": c.weighted}, newline)


def _encode(obj, newline: str) -> str:
    """obj in json.dumps's indent=2 layout, with its nested lines starting at newline."""
    t = type(obj)
    if t is str:
        return _encode_str(obj)
    if t is int:
        return int.__repr__(obj)
    if t is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if t is BivariatePolynomial:
        if not obj.coeffs:
            return "[]"
        opening, term, sep = _term_layout(newline)
        return opening + sep.join([term % (p, q, c) for (p, q), c in sorted(obj.coeffs.items())]) + newline + "]"
    if t is ClassContribution:
        return _class_row(obj, newline)
    if t is IntegerMatrix:
        if not obj.rows:
            return "[]"
        inner = newline + "  "
        rows = [_int_list(row, inner) if row else "[]" for row in obj.entries]
        return "[" + inner + ("," + inner).join(rows) + newline + "]"
    if t is list:
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            return _int_list(obj, newline)
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in obj]) + newline + "]"
    if t is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for k, v in obj.items():
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            tv = type(v)
            value = int.__repr__(v) if tv is int else _encode_str(v) if tv is str else _encode(v, inner)
            items.append(_encode_str(k) + ": " + value)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def dumps_canonical(obj) -> str:
    """The one JSON encoding used everywhere: json.dumps(obj, indent=2, ensure_ascii=False) + "\\n",
    with each polynomial, matrix and class term in obj written as its plain form (see the module docstring)."""
    return _encode(obj, "\n") + "\n"


def _compute(args) -> Iterator:
    report = orbifold_e_polynomial(_resolve_datum(args.group), SPACES[args.space], args.cap)
    yield {
        "classes": list(report.contributions),
        "total": report.total,
    }, 0
    yield f"group order: {report.group_order}"
    yield from _classes_text(report)
    yield f"total: {report.total.to_text()}"


def _mirror_check(args) -> Iterator:
    report = mirror_check(_resolve_datum(args.group), SPACES[args.space], args.cap)
    verdict = report.equal and report.term_by_term
    yield {
        "classes": list(report.primal.contributions),
        "total": report.primal.total,
        "verdict": verdict,
        "pair_diffs": [
            {
                "primal_class": p.primal_class,
                "dual_class": p.dual_class,
                "difference": p.difference,
            }
            for p in report.pairs
        ],
    }, 0 if verdict else 2
    yield from _classes_text(report.primal)
    yield f"total: {report.primal.total.to_text()}"
    yield f"dual total: {report.dual.total.to_text()}"
    for p in report.pairs:
        yield f"pair {p.primal_class} -> {p.dual_class}: difference: {p.difference.to_text()}"
    yield _verdict_text(verdict)


def _duality_check(args) -> Iterator:
    report = duality_check(_resolve_datum(args.group), args.cap)
    yield {
        "classes": [
            {
                "class_rep": r.representative,
                "pi0_primal": list(r.pi0_primal),
                "pi0_dual": list(r.pi0_dual),
                "orders_agree": r.orders_agree,
                "fixed_counts_agree": r.fixed_counts_agree,
            }
            for r in report.rows
        ],
        "verdict": report.equal,
    }, 0 if report.equal else 2
    for i, r in enumerate(report.rows):
        rep = json.dumps(r.representative.entries, separators=(",", ":"))
        yield (
            f"class {i}: rep={rep} pi0_primal={list(r.pi0_primal)}"
            f" pi0_dual={list(r.pi0_dual)} orders_agree={r.orders_agree}"
            f" fixed_counts_agree={r.fixed_counts_agree}"
        )
    yield _verdict_text(report.equal)


def _closed_form(args) -> Iterator:
    total = closed_form_eorb(args.n, args.m, args.d, SURFACES[args.surface][0])
    terms = [
        {
            "partition": list(alpha.parts),
            "tau": tau(args.n // args.m, args.m, alpha.g, args.d),
            "shift": alpha.n - alpha.size,
        }
        for alpha in partitions(args.n)
    ]
    yield {"classes": terms, "total": total}, 0
    for t in terms:
        yield f"partition {t['partition']}: tau={t['tau']} shift={t['shift']}"
    yield f"total: {total.to_text()}"


def _cross_validate(args) -> Iterator:
    closed = closed_form_eorb(args.n, args.m, args.d, SURFACES[args.surface][0])
    engine = orbifold_e_polynomial(sl_quotient_datum(args.n, args.m), SPACES[args.space], args.cap).total
    difference = engine - closed
    verdict = difference.is_zero()
    yield {
        "total": engine,
        "closed_form_total": closed,
        "difference": difference,
        "verdict": verdict,
    }, 0 if verdict else 2
    yield f"engine total: {engine.to_text()}"
    yield f"closed form total: {closed.to_text()}"
    yield f"difference: {difference.to_text()}"
    yield _verdict_text(verdict)


# Each command's function, help, and config_echo fields after "command", in output order.
_COMMANDS = {
    "compute": (_compute, "orbifold E-polynomial of one quotient", ("group", "space", "format", "cap")),
    "mirror-check": (_mirror_check, "compare a datum with its Langlands dual", ("group", "space", "format", "cap")),
    "duality-check": (_duality_check, "component-group duality per class", ("group", "format", "cap")),
    "closed-form": (_closed_form, "type-A closed form via partitions and tau counts", ("n", "m", "d", "surface", "format")),
    "cross-validate": (_cross_validate, "closed form against the general engine", ("n", "m", "surface", "space", "format", "cap")),
}

# The option behind each parsed config_echo field.
_OPTIONS = {
    "group": dict(nargs="+", required=True, metavar="SELECTOR", help="sl N M | classical FAMILY N FORM | custom PATH"),
    "space": dict(choices=sorted(SPACES), required=True),
    "n": dict(type=int, required=True),
    "m": dict(type=int, required=True),
    "surface": dict(choices=sorted(SURFACES), required=True),
    "format": dict(choices=["json", "text"], default="json"),
    "cap": dict(type=int, default=DEFAULT_CAP),
}

# The config_echo fields that `main` reads off SURFACES for a command with --surface.
_SURFACE_FIELDS = ("d", "space")

# The option spec keys `_read` applies or may ignore; an option with any other key is left to argparse.
_READ_KEYS = {"nargs", "type", "choices", "required", "default", "metavar", "help"}


def _option_fields(name: str) -> tuple[str, ...]:
    """Command name's parsed config_echo fields, each an option from `_OPTIONS`: all but those --surface gives."""
    fields = _COMMANDS[name][2]
    return tuple(f for f in fields if f not in _SURFACE_FIELDS) if "surface" in fields else fields


def _add_options(parser: _Parser, name: str) -> _Parser:
    """parser with an option from `_OPTIONS` for each parsed config_echo field of command name."""
    for field in _option_fields(name):
        parser.add_argument("--" + field, **_OPTIONS[field])
    return parser


def _read(name: str, argv: list[str]) -> argparse.Namespace | None:
    """The namespace command name's parser returns for argv, read in one pass, or None to leave argv to it.

    It reads exact option names, each at most once, with one value, or one
    or more for nargs="+", none of which starts with "-"; it applies type
    and choices to each value, then required and default.  Anything else
    returns None: an abbreviation, --opt=value, a repeated option, a value
    starting with "-", a missing, extra or invalid value, -h or --help, an
    option spec key or nargs it does not know.
    """
    specs = {field: _OPTIONS[field] for field in _option_fields(name)}
    if any(spec.keys() - _READ_KEYS or spec.get("nargs") not in (None, "+") for spec in specs.values()):
        return None
    parsed = {}
    i, end = 0, len(argv)
    while i < end:
        field = argv[i][2:]
        if argv[i][:2] != "--" or field not in specs or field in parsed:
            return None
        spec = specs[field]
        many = spec.get("nargs") == "+"
        j = i + 1
        while j < end and argv[j][:1] != "-" and (many or j == i + 1):
            j += 1
        if j == i + 1:
            return None
        convert, choices = spec.get("type"), spec.get("choices")
        try:
            values = argv[i + 1 : j] if convert is None else [convert(value) for value in argv[i + 1 : j]]
        except (TypeError, ValueError):
            return None
        if choices is not None and not all(value in choices for value in values):
            return None
        parsed[field] = values if many else values[0]
        i = j
    for field, spec in specs.items():
        if field not in parsed:
            if spec.get("required"):
                return None
            parsed[field] = spec.get("default")
    return argparse.Namespace(command=name, **parsed)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The whole argument tree, built once per process: parsing leaves it unchanged.

    `main` reads it only when argv does not start with a command name: for
    --help, no command or an unknown command.
    """
    parser = _Parser(prog="orbev", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), name)
    return parser


@lru_cache(maxsize=None)
def _command_parser(name: str) -> _Parser:
    """One command's parser, the same as the whole tree's subparser for it, built once per process."""
    return _add_options(_Parser(prog=f"orbev {name}"), name)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv read by `_read` when it starts with a command name; else parsed by its command's parser or the tree."""
    if argv and argv[0] in _COMMANDS:
        args = _read(argv[0], argv[1:])
        if args is None:
            args = _command_parser(argv[0]).parse_args(argv[1:])
            args.command = argv[0]
        return args
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if hasattr(args, "surface"):
            _, args.d, args.space = SURFACES[args.surface]
        run, _, fields = _COMMANDS[args.command]
        lines = run(args)
        body, code = next(lines)
    except (CliUsageError, LatticeError) as exc:
        print(f"orbev: error: {exc}", file=sys.stderr)
        return 1
    echo = {"command": args.command, **{field: getattr(args, field) for field in fields}}
    if args.format == "json":
        out.write(dumps_canonical({"config_echo": echo, **body}))
    else:
        out.write("\n".join([*(f"{k}: {v}" for k, v in echo.items()), *lines]) + "\n")
    return code


def console_main() -> None:
    sys.exit(main())
