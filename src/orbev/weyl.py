"""Finite matrix-group machinery: generation, conjugacy classes, centralizers.

Groups are enumerated fully (practical through rank-6 classical Weyl groups);
element order is the deterministic breadth-first insertion order with sorted
generator application, so class representatives and reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice_core import IntegerMatrix, LatticeError

DEFAULT_CAP = 10_000_000


class GroupError(LatticeError):
    """Invalid group operation."""


class CapExceededError(GroupError):
    """Group generation exceeded the element cap."""

    def __init__(self, cap: int, partial_count: int):
        super().__init__(f"group generation exceeded cap {cap} (at least {partial_count} elements)")
        self.cap = cap
        self.partial_count = partial_count


class MatrixGroup:
    """Finite group of unimodular integer matrices, closed under the product."""

    __slots__ = ("elements", "generators", "index")

    def __init__(self, elements: tuple[IntegerMatrix, ...], generators: tuple[IntegerMatrix, ...]):
        self.elements = elements
        self.generators = generators
        self.index = {m: i for i, m in enumerate(elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, m: IntegerMatrix) -> bool:
        return m in self.index

    def __iter__(self):
        return iter(self.elements)


def _sorted_generators(generators: tuple[IntegerMatrix, ...]) -> tuple[IntegerMatrix, ...]:
    return tuple(sorted(set(generators), key=lambda g: g.entries))


def generate_group(generators: tuple[IntegerMatrix, ...] | list[IntegerMatrix], cap: int = DEFAULT_CAP) -> MatrixGroup:
    """Close the generators under multiplication by breadth-first search."""
    generators = tuple(generators)
    if cap < 1:
        raise GroupError("cap must be at least 1")
    if not generators:
        raise GroupError("generate_group requires at least one generator")
    n = generators[0].rows
    for g in generators:
        if g.rows != n or g.cols != n:
            raise GroupError("generators must be square matrices of equal size")
        if not g.is_unimodular():
            raise GroupError("generators must be unimodular")
    gens = _sorted_generators(generators)
    identity = IntegerMatrix.identity(n)
    elements: list[IntegerMatrix] = [identity]
    seen = {identity}
    head = 0
    while head < len(elements):
        x = elements[head]
        head += 1
        for g in gens:
            y = x * g
            if y not in seen:
                if len(elements) >= cap:
                    raise CapExceededError(cap, len(elements) + 1)
                seen.add(y)
                elements.append(y)
    return MatrixGroup(tuple(elements), generators)


@dataclass(frozen=True)
class ConjugacyClassTable:
    representatives: tuple[IntegerMatrix, ...]
    sizes: tuple[int, ...]
    class_index: dict[IntegerMatrix, int]

    def __post_init__(self):
        if len(self.representatives) != len(self.sizes):
            raise GroupError("class table shape mismatch")

    @property
    def count(self) -> int:
        return len(self.representatives)

    def class_of(self, m: IntegerMatrix) -> int:
        try:
            return self.class_index[m]
        except KeyError:
            raise GroupError("matrix is not an element of the group") from None


def conjugacy_classes(group: MatrixGroup) -> ConjugacyClassTable:
    """Orbit refinement under conjugation; representative = least element
    in the group's deterministic element order."""
    conjugators = group.generators if group.generators else group.elements
    pairs = [(g, g.inverse_unimodular()) for g in conjugators]
    class_index: dict[IntegerMatrix, int] = {}
    representatives: list[IntegerMatrix] = []
    sizes: list[int] = []
    for seed in group.elements:
        if seed in class_index:
            continue
        cls = len(representatives)
        orbit = [seed]
        class_index[seed] = cls
        head = 0
        while head < len(orbit):
            x = orbit[head]
            head += 1
            for g, ginv in pairs:
                y = g * x * ginv
                if y not in class_index:
                    class_index[y] = cls
                    orbit.append(y)
        representatives.append(seed)
        sizes.append(len(orbit))
    if sum(sizes) != group.order:
        raise GroupError("conjugacy classes do not partition the group")
    return ConjugacyClassTable(tuple(representatives), tuple(sizes), class_index)


def centralizer(group: MatrixGroup, w: IntegerMatrix) -> MatrixGroup:
    """Subgroup of all elements commuting with w (w must lie in the group)."""
    if w not in group:
        raise GroupError("matrix is not an element of the group")
    fixed = tuple(c for c in group.elements if c * w == w * c)
    return MatrixGroup(fixed, ())
