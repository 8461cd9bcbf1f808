"""Batch command-line front end.

Commands: compute, mirror-check, duality-check, closed-form, cross-validate.
Output is deterministic for identical configuration, as JSON or text encoding
the same data.  Exit codes: 0 on success and on verified equalities, 2 when a
verification command finds an inequality (a counterexample report is a
successful run), 1 on usage or validation errors.

JSON output is written by `dumps_canonical`, which reproduces
`json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"` byte for byte for
dict, list, str, int, bool and None, and raises TypeError for any other type
(float and tuple included).  Two report types are values too, written as
json.dumps writes their plain form:

- a `BivariatePolynomial` as `p.to_json_terms()`: its terms in sorted (p, q)
  order, each one %-format of a term template built once per indent, with
  the coefficient as `str(c)` (an int or `a/b`, which needs no escaping);
- an `IntegerMatrix` as the list of its rows.

Reports put their polynomials and matrices into the document as they are,
so no term dict or row list is built before the text.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .epoly import BivariatePolynomial, SPACES
from .lattice_core import IntegerMatrix, LatticeError
from .orbifold_engine import (
    DualityReport,
    MirrorReport,
    OrbifoldReport,
    duality_check,
    mirror_check,
    orbifold_e_polynomial,
)
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


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged.

    This saves work only for a process that calls `main` more than once;
    a single `python -m orbev` run builds it once either way.
    """
    parser = _Parser(prog="orbev", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_space=True):
        p.add_argument(
            "--group",
            nargs="+",
            required=True,
            metavar="SELECTOR",
            help="sl N M | classical FAMILY N FORM | custom PATH",
        )
        if with_space:
            p.add_argument("--space", choices=sorted(SPACES), required=True)
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    add_common(sub.add_parser("compute", help="orbifold E-polynomial of one quotient"))
    add_common(sub.add_parser("mirror-check", help="compare a datum with its Langlands dual"))
    add_common(sub.add_parser("duality-check", help="component-group duality per class"), with_space=False)

    cf = sub.add_parser("closed-form", help="type-A closed form via partitions and tau counts")
    cf.add_argument("--n", type=int, required=True)
    cf.add_argument("--m", type=int, required=True)
    cf.add_argument("--surface", choices=sorted(SURFACES), required=True)
    cf.add_argument("--format", choices=["json", "text"], default="json")

    cv = sub.add_parser("cross-validate", help="closed form against the general engine")
    cv.add_argument("--n", type=int, required=True)
    cv.add_argument("--m", type=int, required=True)
    cv.add_argument("--surface", choices=sorted(SURFACES), required=True)
    cv.add_argument("--format", choices=["json", "text"], default="json")
    cv.add_argument("--cap", type=int, default=DEFAULT_CAP)
    return parser


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


def _class_json(c) -> dict:
    return {
        "class_rep": c.representative,
        "class_size": c.class_size,
        "centralizer_order": c.centralizer_order,
        "shift": c.shift,
        "pi0_divisors": list(c.pi0_divisors),
        "average_poly": c.average,
        "weighted_poly": c.weighted,
    }


def _class_text(i: int, c) -> list[str]:
    rep = json.dumps(c.representative.entries, separators=(",", ":"))
    return [
        f"class {i}: rep={rep} size={c.class_size} centralizer={c.centralizer_order}"
        f" shift={c.shift} pi0={list(c.pi0_divisors)}",
        f"  average: {c.average.to_text()}",
        f"  weighted: {c.weighted.to_text()}",
    ]


_encode_str = json.encoder.encode_basestring  # json's own string encoder for ensure_ascii=False


@lru_cache(maxsize=None)
def _term_layout(newline: str) -> tuple[str, str, str]:
    """(opening, one term's %-template, separator) of a term list whose lines start at newline."""
    inner = newline + "  "
    field = inner + "  "
    term = "{" + field + '"p": %d,' + field + '"q": %d,' + field + '"coeff": "%s"' + inner + "}"
    return "[" + inner, term, "," + inner


def _int_list(items, newline: str) -> str:
    """A nonempty sequence of ints, one per line, inside brackets whose lines start at newline."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(int.__repr__, items)) + newline + "]"


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
    with each polynomial and matrix in obj written as its plain form (see the module docstring)."""
    return _encode(obj, "\n") + "\n"


def _emit_compute(report: OrbifoldReport, echo: dict, fmt: str, out) -> int:
    if fmt == "json":
        doc = {
            "config_echo": echo,
            "classes": [_class_json(c) for c in report.contributions],
            "total": report.total,
        }
        out.write(dumps_canonical(doc))
    else:
        lines = [f"{k}: {v}" for k, v in echo.items()]
        lines.append(f"group order: {report.group_order}")
        for i, c in enumerate(report.contributions):
            lines.extend(_class_text(i, c))
        lines.append(f"total: {report.total.to_text()}")
        out.write("\n".join(lines) + "\n")
    return 0


def _emit_mirror(report: MirrorReport, echo: dict, fmt: str, out) -> int:
    verdict = report.equal and report.term_by_term
    if fmt == "json":
        doc = {
            "config_echo": echo,
            "classes": [_class_json(c) for c in report.primal.contributions],
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
        }
        out.write(dumps_canonical(doc))
    else:
        lines = [f"{k}: {v}" for k, v in echo.items()]
        for i, c in enumerate(report.primal.contributions):
            lines.extend(_class_text(i, c))
        lines.append(f"total: {report.primal.total.to_text()}")
        lines.append(f"dual total: {report.dual.total.to_text()}")
        for p in report.pairs:
            lines.append(
                f"pair {p.primal_class} -> {p.dual_class}: difference: {p.difference.to_text()}"
            )
        lines.append(f"verdict: {'equal' if verdict else 'NOT EQUAL'}")
        out.write("\n".join(lines) + "\n")
    return 0 if verdict else 2


def _emit_duality(report: DualityReport, echo: dict, fmt: str, out) -> int:
    if fmt == "json":
        doc = {
            "config_echo": echo,
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
        }
        out.write(dumps_canonical(doc))
    else:
        lines = [f"{k}: {v}" for k, v in echo.items()]
        for i, r in enumerate(report.rows):
            rep = json.dumps(r.representative.entries, separators=(",", ":"))
            lines.append(
                f"class {i}: rep={rep} pi0_primal={list(r.pi0_primal)}"
                f" pi0_dual={list(r.pi0_dual)} orders_agree={r.orders_agree}"
                f" fixed_counts_agree={r.fixed_counts_agree}"
            )
        lines.append(f"verdict: {'equal' if report.equal else 'NOT EQUAL'}")
        out.write("\n".join(lines) + "\n")
    return 0 if report.equal else 2


def _run_closed_form(args, echo: dict, out) -> int:
    e_a, d_surface, _ = SURFACES[args.surface]
    total = closed_form_eorb(args.n, args.m, d_surface, e_a)
    l = args.n // args.m
    terms = []
    for alpha in partitions(args.n):
        t = tau(l, args.m, alpha.g, d_surface)
        terms.append(
            {
                "partition": list(alpha.parts),
                "tau": t,
                "shift": alpha.n - alpha.size,
            }
        )
    if args.format == "json":
        doc = {"config_echo": echo, "classes": terms, "total": total}
        out.write(dumps_canonical(doc))
    else:
        lines = [f"{k}: {v}" for k, v in echo.items()]
        for t in terms:
            lines.append(f"partition {t['partition']}: tau={t['tau']} shift={t['shift']}")
        lines.append(f"total: {total.to_text()}")
        out.write("\n".join(lines) + "\n")
    return 0


def _run_cross_validate(args, echo: dict, out) -> int:
    e_a, d_surface, space = SURFACES[args.surface]
    closed = closed_form_eorb(args.n, args.m, d_surface, e_a)
    datum = sl_quotient_datum(args.n, args.m)
    engine = orbifold_e_polynomial(datum, SPACES[space], args.cap)
    difference = engine.total - closed
    verdict = difference.is_zero()
    if args.format == "json":
        doc = {
            "config_echo": echo,
            "total": engine.total,
            "closed_form_total": closed,
            "difference": difference,
            "verdict": verdict,
        }
        out.write(dumps_canonical(doc))
    else:
        lines = [f"{k}: {v}" for k, v in echo.items()]
        lines.append(f"engine total: {engine.total.to_text()}")
        lines.append(f"closed form total: {closed.to_text()}")
        lines.append(f"difference: {difference.to_text()}")
        lines.append(f"verdict: {'equal' if verdict else 'NOT EQUAL'}")
        out.write("\n".join(lines) + "\n")
    return 0 if verdict else 2


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "compute":
            datum = _resolve_datum(args.group)
            echo = {
                "command": args.command,
                "group": args.group,
                "space": args.space,
                "format": args.format,
                "cap": args.cap,
            }
            report = orbifold_e_polynomial(datum, SPACES[args.space], args.cap)
            return _emit_compute(report, echo, args.format, out)
        if args.command == "mirror-check":
            datum = _resolve_datum(args.group)
            echo = {
                "command": args.command,
                "group": args.group,
                "space": args.space,
                "format": args.format,
                "cap": args.cap,
            }
            report = mirror_check(datum, SPACES[args.space], args.cap)
            return _emit_mirror(report, echo, args.format, out)
        if args.command == "duality-check":
            datum = _resolve_datum(args.group)
            echo = {
                "command": args.command,
                "group": args.group,
                "format": args.format,
                "cap": args.cap,
            }
            report = duality_check(datum, args.cap)
            return _emit_duality(report, echo, args.format, out)
        if args.command == "closed-form":
            echo = {
                "command": args.command,
                "n": args.n,
                "m": args.m,
                "d": SURFACES[args.surface][1],
                "surface": args.surface,
                "format": args.format,
            }
            return _run_closed_form(args, echo, out)
        if args.command == "cross-validate":
            echo = {
                "command": args.command,
                "n": args.n,
                "m": args.m,
                "surface": args.surface,
                "space": SURFACES[args.surface][2],
                "format": args.format,
                "cap": args.cap,
            }
            return _run_cross_validate(args, echo, out)
        raise CliUsageError(f"unknown command {args.command!r}")
    except CliUsageError as exc:
        print(f"orbev: error: {exc}", file=sys.stderr)
        return 1
    except LatticeError as exc:
        print(f"orbev: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
