"""Batch command-line front end.

Commands: compute, mirror-check, duality-check, closed-form, cross-validate.
Output is deterministic for identical configuration, as JSON or text encoding
the same data.  Exit codes: 0 on success and on verified equalities, 2 when a
verification command finds an inequality (a counterexample report is a
successful run), 1 on usage or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _build_parser() -> _Parser:
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


def _poly_json(p: BivariatePolynomial) -> list[dict]:
    return p.to_json_terms()


def _matrix_json(m: IntegerMatrix) -> list[list[int]]:
    return [list(row) for row in m.entries]


def _class_json(c) -> dict:
    return {
        "class_rep": _matrix_json(c.representative),
        "class_size": c.class_size,
        "centralizer_order": c.centralizer_order,
        "shift": c.shift,
        "pi0_divisors": list(c.pi0_divisors),
        "average_poly": _poly_json(c.average),
        "weighted_poly": _poly_json(c.weighted),
    }


def _class_text(i: int, c) -> list[str]:
    rep = json.dumps(_matrix_json(c.representative), separators=(",", ":"))
    return [
        f"class {i}: rep={rep} size={c.class_size} centralizer={c.centralizer_order}"
        f" shift={c.shift} pi0={list(c.pi0_divisors)}",
        f"  average: {c.average.to_text()}",
        f"  weighted: {c.weighted.to_text()}",
    ]


def dumps_canonical(obj) -> str:
    """The one JSON encoding used everywhere, so output round-trips byte-for-byte."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _emit_compute(report: OrbifoldReport, echo: dict, fmt: str, out) -> int:
    if fmt == "json":
        doc = {
            "config_echo": echo,
            "classes": [_class_json(c) for c in report.contributions],
            "total": _poly_json(report.total),
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
            "total": _poly_json(report.primal.total),
            "verdict": verdict,
            "pair_diffs": [
                {
                    "primal_class": p.primal_class,
                    "dual_class": p.dual_class,
                    "difference": _poly_json(p.difference),
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
                    "class_rep": _matrix_json(r.representative),
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
            rep = json.dumps(_matrix_json(r.representative), separators=(",", ":"))
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
        doc = {"config_echo": echo, "classes": terms, "total": _poly_json(total)}
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
            "total": _poly_json(engine.total),
            "closed_form_total": _poly_json(closed),
            "difference": _poly_json(difference),
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
