"""The three workloads: the `orbev` argv of every operation, built from a seed.

Only `mirror-sweep` uses the seed: it draws a small unimodular change of basis
T for two of its built-ins and writes each re-based datum (basis·T, generators
T⁻¹gT, gram TᵀGT) as a datum file, which the sweep then runs through
`--group custom`.  The other two workloads are the same for every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("mirror-sweep", "duality-sweep", "closed-form")

SPACES = ("betti", "dolbeault", "derham", "abelian-surface", "mixed")
G2_DATUM = "tests/data/g2.datum"

# Built-ins re-based by the seeded T, and the one space each is checked on.
# `mixed` tensors with Λ and Λ̂, so the dual side of the new basis is used too.
REBASED = ((("sl", "4", "2"), "mixed"), (("classical", "C", "2", "ad"), "mixed"))
REBASE_STEPS = 4  # elementary column operations in T, so its entries stay small


def mirror_selectors() -> list[list[str]]:
    """SL(2..4) with every m | n, B2 and C2 in both forms, then the G2 datum file."""
    selectors = [["sl", str(n), str(m)] for n in range(2, 5) for m in range(1, n + 1) if n % m == 0]
    selectors += [["classical", family, "2", form] for family in "BC" for form in ("sc", "ad")]
    selectors.append(["custom", G2_DATUM])
    return selectors


def duality_selectors() -> list[list[str]]:
    """SL(2..5) with every m | n, then B and C of rank 2 and 3 and D3, in both forms."""
    selectors = [["sl", str(n), str(m)] for n in range(2, 6) for m in range(1, n + 1) if n % m == 0]
    selectors += [["classical", family, str(n), form] for family in "BC" for n in (2, 3) for form in ("sc", "ad")]
    selectors += [["classical", "D", "3", form] for form in ("sc", "ad")]
    return selectors


def closed_form_cases() -> list[tuple[int, int, str]]:
    return [
        (n, m, surface)
        for n in range(2, 9)
        for m in range(1, n + 1)
        if n % m == 0
        for surface in ("betti", "abelian")
    ]


def build_ops(workload: str, seed: int, workdir: Path) -> list[list[str]]:
    """The argv of each operation, in order.  Writes the mirror sweep's datum files into workdir."""
    if workload == "mirror-sweep":
        ops = [["mirror-check", "--group", *sel, "--space", space] for sel in mirror_selectors() for space in SPACES]
        for i, (selector, space) in enumerate(REBASED):
            path = workdir / f"rebased-{i}.datum"
            path.write_text(rebased_datum_text(selector, random.Random(f"{seed}:{i}")), encoding="utf-8")
            ops.append(["mirror-check", "--group", "custom", path.as_posix(), "--space", space])
        return ops
    if workload == "duality-sweep":
        return [["duality-check", "--group", *selector] for selector in duality_selectors()]
    if workload == "closed-form":
        return [
            ["closed-form", "--n", str(n), "--m", str(m), "--surface", surface]
            for n, m, surface in closed_form_cases()
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# --- seeded change of basis ------------------------------------------------


def matmul(a, b) -> tuple[tuple, ...]:
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def random_unimodular(rank: int, rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """(T, T⁻¹) as a product of column additions with ±1 and one sign flip."""
    t = [list(row) for row in identity(rank)]
    t_inv = [list(row) for row in identity(rank)]
    for _ in range(REBASE_STEPS):
        i, j = rng.sample(range(rank), 2)
        k = rng.choice((-1, 1))
        # T ← T·E with E = 1 + k·e_{ij}; T⁻¹ ← E⁻¹·T⁻¹ with E⁻¹ = 1 - k·e_{ij}.
        for row in t:
            row[j] += k * row[i]
        t_inv[i] = [a - k * b for a, b in zip(t_inv[i], t_inv[j])]
    flip = rng.randrange(rank)
    for row in t:
        row[flip] = -row[flip]
    t_inv[flip] = [-x for x in t_inv[flip]]
    return t, t_inv


def rebased_datum_text(selector: tuple[str, ...], rng: random.Random) -> str:
    """Datum file of a built-in in the basis basis·T."""
    from orbev.root_data import classical_datum, sl_quotient_datum

    if selector[0] == "sl":
        datum = sl_quotient_datum(int(selector[1]), int(selector[2]))
    else:
        form = {"sc": "simply_connected", "ad": "adjoint"}[selector[3]]
        datum = classical_datum(selector[1], int(selector[2]), form)
    t, t_inv = random_unimodular(datum.rank, rng)
    if matmul(t, t_inv) != identity(datum.rank):
        raise AssertionError("T·T⁻¹ is not the identity")
    basis = matmul(datum.basis.entries, t)
    gram = matmul(matmul(tuple(zip(*t)), datum.gram), t)
    generators = [matmul(matmul(t_inv, g.entries), t) for g in datum.generators]
    lines = [f"rank {datum.rank}", f"denominator {datum.denominator}", "label rebased", "basis"]
    lines += [" ".join(map(str, col)) for col in zip(*basis)]
    lines.append("gram")
    lines += [" ".join(str(Fraction(x)) for x in row) for row in gram]
    lines.append("generators")
    for g in generators:
        lines += [" ".join(map(str, row)) for row in g] + [""]
    return "\n".join(lines)
