#!/usr/bin/env python3
"""Tabulate closed-form orbifold series for SL(n)/Z_m and cross-check the engine.

For each n up to the bound and each m dividing n, prints the partition count,
the closed-form polynomial on the chosen surface, and whether the general
engine reproduces it. Exits 1 on any mismatch.
"""

import argparse
import sys
from dataclasses import dataclass

from orbev.cli import SURFACES
from orbev.epoly import SPACES, BivariatePolynomial
from orbev.orbifold_engine import orbifold_e_polynomial
from orbev.root_data import sl_quotient_datum
from orbev.sln_formula import closed_form_eorb, partitions


@dataclass(frozen=True)
class TableConfig:
    max_n: int = 6
    surface: str = "betti"
    cross_check: bool = True


def compact(poly: BivariatePolynomial) -> str:
    # group by total degree when every term is a power of uv
    terms = sorted(poly.coeffs.items())
    if all(a == b for (a, b), _ in terms):
        parts = []
        for (a, _), c in reversed(terms):
            if a == 0:
                parts.append(str(c))
            elif a == 1:
                parts.append(f"{c}*uv" if c != 1 else "uv")
            else:
                parts.append(f"{c}*(uv)^{a}" if c != 1 else f"(uv)^{a}")
        return " + ".join(parts)
    return poly.to_text()


def run_table(config: TableConfig) -> int:
    e_a, d, space_name = SURFACES[config.surface]
    mismatches = 0
    print(f"surface: {config.surface} (weight {d})")
    header = f"{'n':>2} {'m':>2} {'parts':>5} {'engine':>7}  closed form"
    print(header)
    print("-" * 72)
    for n in range(2, config.max_n + 1):
        for m in range(1, n + 1):
            if n % m:
                continue
            closed = closed_form_eorb(n, m, d, e_a)
            if config.cross_check:
                engine = orbifold_e_polynomial(sl_quotient_datum(n, m), SPACES[space_name]).total
                ok = engine == closed
                mismatches += 0 if ok else 1
                mark = "agree" if ok else "DIFFER"
            else:
                mark = "-"
            print(f"{n:>2} {m:>2} {len(partitions(n)):>5} {mark:>7}  {compact(closed)}")
    print()
    if mismatches:
        print(f"{mismatches} mismatch(es) against the engine")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=6, help="largest n to tabulate")
    parser.add_argument("--surface", choices=sorted(SURFACES), default="betti")
    parser.add_argument(
        "--no-cross-check",
        action="store_true",
        help="skip the engine comparison, print the closed form only",
    )
    args = parser.parse_args()
    config = TableConfig(
        max_n=args.max_n, surface=args.surface, cross_check=not args.no_cross_check
    )
    return run_table(config)


if __name__ == "__main__":
    sys.exit(main())
