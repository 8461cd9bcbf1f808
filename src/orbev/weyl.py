"""Finite matrix groups held as permutations: generation, conjugacy classes, centralizers.

A group W of unimodular r x r integer matrices permutes the finite W-orbit O of
the standard basis vectors e_0, ..., e_{r-1}.  The orbit is enumerated first,
with e_j as point j, and every element w is stored as its key, the permutation
p with w·O[i] = O[p[i]].  The key is faithful: column j of w is O[p[j]], so a
matrix is rebuilt by reading r points, and only for the elements whose
matrices are asked for (class representatives and the centralizer elements the
engine reads).  The product x·g has the key i ↦ x[g[i]].

Key kinds.  When |O| ≤ BYTES_KEY_DEGREE (256), a key is the byte string p:
x·g is then `g.translate(x.ljust(256))`, one C-level pass, and g·x·g⁻¹ two;
bytes also cache their hash, which the element and class dicts read often.  A
larger orbit keeps keys as int tuples.  The kind is chosen once per orbit
(`_key_kind`), and every algorithm below is written once over its primitives
(product, inverse and identity), so the two kinds give the same element
order, classes and centralizers.
Indexing either kind gives ints, so readers of single points need not know it.

Order bound.  |O| ≤ r·|W|, so an orbit of more than r·cap points proves
|W| > cap.  Otherwise |W| is computed by the deterministic Schreier–Sims
algorithm on the permutation action (Sims 1970; Seress, *Permutation Group
Algorithms*, 2003) before any element is enumerated, and a group larger than
the cap is refused without spending memory on it.

Element order is the breadth-first insertion order of x·g over generators
sorted by their matrix entries, so class representatives (the first element of
each class in that order) and reports are reproducible.  The Langlands dual
Ŵ = {(w⁻¹)ᵀ} is the same abstract group, and a key names w in W and (w⁻¹)ᵀ in
Ŵ at once (`MatrixGroup.dual_matrix`).  Conjugacy in Ŵ is conjugacy in W read
through the same keys, so Ŵ's classes are W's; `dual_class_order` lists them
in Ŵ's order, without a second group, class table or conjugation walk.
"""

from __future__ import annotations

from itertools import islice, product
from math import prod
from operator import attrgetter, methodcaller, mul
from typing import Callable, Iterator, NamedTuple

from .lattice_core import IntegerMatrix, LatticeError

DEFAULT_CAP = 10_000_000

# Orbits of at most this many points hold their keys as bytes, larger ones as tuples.
BYTES_KEY_DEGREE = 256

# The key of an element: its permutation of the orbit, as bytes or as an int tuple.
Key = bytes | tuple[int, ...]


class GroupError(LatticeError):
    """Invalid group operation."""


class CapExceededError(GroupError):
    """The group has more elements than the cap allows."""

    def __init__(self, cap: int, partial_count: int):
        super().__init__(f"group generation exceeded cap {cap} (at least {partial_count} elements)")
        self.cap = cap
        self.partial_count = partial_count


class _KeyKind(NamedTuple):
    """How the keys of permutations of range(degree) are held, and the primitives on them.

    `table(a)` prepares a as the left factor of products: `apply(b, table(a))`
    is the key i ↦ a[b[i]] of a·b, so g·x·g⁻¹ is apply(apply(g⁻¹, table(x)),
    table(g)).  `of` is the key type, and builds a key from a sequence of ints.
    """

    of: type
    identity: Key
    table: Callable
    apply: Callable
    inverse: Callable


def _key_kind(degree: int) -> _KeyKind:
    """Bytes keys up to BYTES_KEY_DEGREE points, tuple keys beyond."""
    if degree <= BYTES_KEY_DEGREE:
        identity = bytes(range(degree))
        # maketrans(a, identity) maps a[i] to i: its first `degree` bytes are a⁻¹.
        return _KeyKind(
            bytes,
            identity,
            methodcaller("ljust", 256),
            bytes.translate,
            lambda a: bytes.maketrans(a, identity)[:degree],
        )
    return _KeyKind(tuple, tuple(range(degree)), attrgetter("__getitem__"), _apply_tuple, _inverse_tuple)


def _apply_tuple(b: tuple[int, ...], a_getitem) -> tuple[int, ...]:
    return tuple(map(a_getitem, b))


def _inverse_tuple(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


class _Action:
    """The orbit O that keys index, and how a key reads as a matrix.

    The key of w reads as w (`matrix(key)`) or as (w⁻¹)ᵀ (`matrix(key,
    dual=True)`), whose rows are the columns of w⁻¹, with one cache for each.
    A group and its subgroups share one action and its caches.  The key of a
    matrix is read by applying it to the orbit.  A key of the other kind is
    refused, so it cannot miss a dict of keys unseen.
    """

    __slots__ = ("points", "point_index", "rank", "kind", "matrices", "dual_matrices")

    def __init__(self, points: list[tuple[int, ...]], point_index: dict, rank: int, kind: _KeyKind):
        self.points = points
        self.point_index = point_index
        self.rank = rank
        self.kind = kind
        self.matrices: dict[Key, IntegerMatrix] = {}
        self.dual_matrices: dict[Key, IntegerMatrix] = {}

    def matrix(self, key: Key, dual: bool = False) -> IntegerMatrix:
        cache = self.dual_matrices if dual else self.matrices
        m = cache.get(key)
        if m is None:
            if type(key) is not self.kind.of:
                raise GroupError(f"a {type(key).__name__} key on a group of {self.kind.of.__name__} keys")
            r, points = self.rank, self.points
            if dual:
                inv = self.kind.inverse(key)
                m = IntegerMatrix._of(r, r, tuple(points[inv[j]] for j in range(r)))
            else:
                m = IntegerMatrix._of(r, r, tuple(zip(*(points[key[j]] for j in range(r)))))
            cache[key] = m
        return m

    def key(self, m: IntegerMatrix) -> Key:
        """The key of m; GroupError if m does not permute the orbit."""
        if m.rows != self.rank or m.cols != self.rank:
            raise GroupError("matrix is not an element of the group")
        try:
            return self.kind.of([self.point_index[_apply(m.entries, v)] for v in self.points])
        except KeyError:
            raise GroupError("matrix is not an element of the group") from None


def _apply(rows: tuple[tuple[int, ...], ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in rows])


class MatrixGroup:
    """Finite group of unimodular integer matrices, held as keys in element order."""

    __slots__ = ("action", "keys", "generators", "generator_keys")

    def __init__(
        self,
        action: _Action,
        keys: tuple[Key, ...],
        generators: tuple[IntegerMatrix, ...],
        generator_keys: tuple[Key, ...],
    ):
        self.action = action
        self.keys = keys
        self.generators = generators
        self.generator_keys = generator_keys

    @property
    def order(self) -> int:
        return len(self.keys)

    def matrix(self, key: Key) -> IntegerMatrix:
        return self.action.matrix(key)

    def dual_matrix(self, key: Key) -> IntegerMatrix:
        """(w⁻¹)ᵀ for the element w that key names, read from the orbit without inverting."""
        return self.action.matrix(key, dual=True)

    def key(self, m: IntegerMatrix) -> Key:
        """The key of m, scanned from the orbit; GroupError unless m is in the group."""
        key = self.action.key(m)
        if key not in self.keys:
            raise GroupError("matrix is not an element of the group")
        return key


def _orbit(generators: tuple[IntegerMatrix, ...], rank: int, cap: int) -> tuple[list, dict, list[list[int]]]:
    """Points of the orbit of e_0..e_{r-1}, their index, and each generator's images of the points."""
    points = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    point_index = {v: j for j, v in enumerate(points)}
    images: list[list[int]] = [[] for _ in generators]
    limit = cap * rank
    for v in points:  # grows while it is read
        for g, image in zip(generators, images):
            w = _apply(g.entries, v)
            j = point_index.get(w)
            if j is None:
                if len(points) >= limit:
                    # |O| ≤ rank·|W|, so |W| ≥ ⌈|O| / rank⌉ > cap.
                    raise CapExceededError(cap, -(-(len(points) + 1) // rank))
                j = point_index[w] = len(points)
                points.append(w)
            image.append(j)
    return points, point_index, images


def schreier_sims_order(generator_keys: list[Key] | tuple[Key, ...], degree: int) -> int:
    """|⟨generators⟩| for permutations of range(degree), by deterministic Schreier–Sims.

    The generators may be keys of either kind; they are read as `_key_kind(degree)`'s.

    Builds a base b_0, b_1, ... and strong generators S_i fixing b_0..b_{i-1},
    with a transversal of the orbit of b_i under S_i at each level, and checks
    every Schreier generator of each level from the bottom up, sifting it
    through the levels below (Seress 2003, §4.2).  A residue that does not
    sift to the identity joins the strong generators of the levels it reached,
    and the check restarts at the lowest of them.  The order is the product of
    the orbit lengths.
    """
    kind = _key_kind(degree)
    identity, table, apply, inverse = kind.identity, kind.table, kind.apply, kind.inverse
    gens = [g for g in dict.fromkeys(map(kind.of, generator_keys)) if g != identity]
    base: list[int] = []
    for g in gens:
        if all(g[b] == b for b in base):
            base.append(next(i for i in range(degree) if g[i] != i))
    # Strong generators as (s, table(s)).
    strong = [[(g, table(g)) for g in gens if all(g[b] == b for b in base[:i])] for i in range(len(base))]

    def transversal(i: int) -> dict:
        """Point -> (u, table(u⁻¹)) with u in ⟨S_i⟩ taking b_i to the point."""
        out = {base[i]: (identity, table(identity))}
        queue = [base[i]]
        for p in queue:
            u = out[p][0]
            for s, s_table in strong[i]:
                q = s[p]
                if q not in out:
                    su = apply(u, s_table)
                    out[q] = (su, table(inverse(su)))
                    queue.append(q)
        return out

    trans = [transversal(i) for i in range(len(base))]

    def sift(g: Key, start: int) -> tuple[Key, int]:
        for i in range(start, len(base)):
            entry = trans[i].get(g[base[i]])
            if entry is None:
                return g, i
            g = apply(g, entry[1])
        return g, len(base)

    # done[i]: the first done[i] pairs (p, s) of level i, ordered by point and
    # then generator, have Schreier generators in ⟨S_{i+1}⟩; that stays true
    # while level i is unchanged, as ⟨S_{i+1}⟩ only grows.
    done = [0] * len(base)
    i = len(base) - 1
    while i >= 0:
        restart = None
        pairs = product([(p, u) for p, (u, _) in trans[i].items()], strong[i])
        for n, ((p, u), (s, s_table)) in enumerate(islice(pairs, done[i], None), done[i]):
            su, (v, v_inverse) = apply(u, s_table), trans[i][s[p]]
            # s·u is v on the edges of the transversal's tree: the Schreier generator is 1.
            h, j = (identity, 0) if su == v else sift(apply(su, v_inverse), i + 1)
            if h == identity:
                continue
            if j == len(base):
                base.append(next(x for x in range(degree) if h[x] != x))
                strong.append([])
                trans.append({})
                done.append(0)
            for level in range(i + 1, j + 1):
                strong[level].append((h, table(h)))
                trans[level] = transversal(level)
                done[level] = 0
            done[i], restart = n, j
            break
        i = i - 1 if restart is None else restart
    return prod(len(t) for t in trans)


def _sorted_generators(generators, keys) -> tuple[Key, ...]:
    """Generator keys, duplicates dropped, in the order of their matrices' entries."""
    pairs = dict(zip(generators, keys))
    return tuple(pairs[g] for g in sorted(pairs, key=lambda g: g.entries))


def _breadth_first(generator_keys: tuple[Key, ...], kind: _KeyKind) -> Iterator[Key]:
    """The keys of ⟨generators⟩ in breadth-first order of x·g, each yielded once it is found."""
    table, apply = kind.table, kind.apply
    keys = [kind.identity]
    seen = {kind.identity}
    yield kind.identity
    for x in keys:  # grows while it is read
        x_table = table(x)
        for g in generator_keys:
            y = apply(g, x_table)
            if y not in seen:
                seen.add(y)
                keys.append(y)
                yield y


def generate_group(generators: tuple[IntegerMatrix, ...] | list[IntegerMatrix], cap: int = DEFAULT_CAP) -> MatrixGroup:
    """Enumerate the group the generators generate; CapExceededError when |W| > cap."""
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
    points, point_index, images = _orbit(generators, n, cap)
    kind = _key_kind(len(points))
    keys = tuple(map(kind.of, images))
    order = schreier_sims_order(keys, len(points))
    if order > cap:
        raise CapExceededError(cap, order)
    elements = tuple(_breadth_first(_sorted_generators(generators, keys), kind))
    if len(elements) != order:
        raise GroupError(f"enumeration found {len(elements)} elements, Schreier–Sims {order}")
    return MatrixGroup(_Action(points, point_index, n, kind), elements, generators, keys)


class ConjugacyClassTable:
    """Classes of a group: representative keys, sizes, and the class of every key."""

    __slots__ = ("group", "keys", "sizes", "class_index")

    def __init__(self, group: MatrixGroup, keys: tuple[Key, ...], sizes: tuple[int, ...], class_index: dict[Key, int]):
        if len(keys) != len(sizes):
            raise GroupError("class table shape mismatch")
        self.group = group
        self.keys = keys
        self.sizes = sizes
        self.class_index = class_index

    @property
    def count(self) -> int:
        return len(self.keys)

    @property
    def representatives(self) -> tuple[IntegerMatrix, ...]:
        return tuple(self.group.matrix(k) for k in self.keys)


def conjugacy_classes(group: MatrixGroup) -> ConjugacyClassTable:
    """Orbit refinement under conjugation; representative = least element
    in the group's deterministic element order."""
    conjugators = group.generator_keys or group.keys
    kind = group.action.kind
    table, apply = kind.table, kind.apply
    pairs = [(table(g), kind.inverse(g)) for g in dict.fromkeys(conjugators)]
    class_index: dict[Key, int] = {}
    representatives: list[Key] = []
    sizes: list[int] = []
    for seed in group.keys:
        if seed in class_index:
            continue
        cls = len(representatives)
        orbit = [seed]
        class_index[seed] = cls
        for x in orbit:  # grows while it is read
            x_table = table(x)
            for g_table, ginv in pairs:
                y = apply(apply(ginv, x_table), g_table)  # g·x·g⁻¹
                if y not in class_index:
                    class_index[y] = cls
                    orbit.append(y)
        representatives.append(seed)
        sizes.append(len(orbit))
    if sum(sizes) != group.order:
        raise GroupError("conjugacy classes do not partition the group")
    return ConjugacyClassTable(group, tuple(representatives), tuple(sizes), class_index)


def dual_class_order(table: ConjugacyClassTable) -> dict[int, Key]:
    """Ŵ's classes in Ŵ's order: each W class index mapped to the class's first key in Ŵ's element order.

    w ↦ (w⁻¹)ᵀ is an isomorphism W → Ŵ and a key names both elements, so the
    classes of Ŵ are those of W as key sets, and a class's Ŵ representative is
    (w⁻¹)ᵀ for its first key k, `dual_matrix(k)`.  Ŵ's element order is the
    breadth-first search over the dual generators' own sorted order; when they
    sort into the same key order as W's, it is the same search and W's keys
    are read in place.  Otherwise the search runs until every class is met.
    """
    group, keys = table.group, table.group.generator_keys
    order = _sorted_generators([group.dual_matrix(k) for k in keys], keys)
    same = order == _sorted_generators(group.generators, keys)
    walk = group.keys if same else _breadth_first(order, group.action.kind)
    first: dict[int, Key] = {}
    for k in walk:
        first.setdefault(table.class_index[k], k)
        if len(first) == table.count:
            break
    return first


def centralizer(group: MatrixGroup, k: Key) -> MatrixGroup:
    """Subgroup of all elements commuting with the element that key k names; GroupError if k is not in the group.

    k commutes with itself, so it lies in the group exactly when the scan
    keeps it.  The scan is `commutes_with`'s test, written inline, as a call
    per element would make it half again as slow.
    """
    kind, r = group.action.kind, group.action.rank
    if type(k) is not kind.of:
        raise GroupError(f"a {type(k).__name__} key on a group of {kind.of.__name__} keys")
    if r == 0:
        fixed = group.keys
    else:
        table, apply = kind.table, kind.apply
        head, k_table, first = k[:r], table(k), k[0]
        fixed = tuple(c for c in group.keys if c[first] == k[c[0]] and apply(head, table(c)) == apply(c[:r], k_table))
    if k not in fixed:
        raise GroupError("key is not an element of the group")
    return MatrixGroup(group.action, fixed, (), ())


def commutes_with(action: _Action, k: Key) -> Callable[[Key], bool]:
    """The test c·k = k·c on keys c of the action, for a key k of rank ≥ 1.

    Keys that agree on the first r points are equal: those points are the
    columns.  c·k and k·c are compared on point 0 first, which rejects most c,
    then on all r points, as the keys i ↦ c[k[i]] and i ↦ k[c[i]] for i < r.
    """
    kind, r = action.kind, action.rank
    table, apply = kind.table, kind.apply
    head, k_table, first = k[:r], table(k), k[0]

    def commutes(c: Key) -> bool:
        return c[first] == k[c[0]] and apply(head, table(c)) == apply(c[:r], k_table)

    return commutes
