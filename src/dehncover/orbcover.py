"""
Covers of 2-orbifolds S^2(a,b,c) -> S^2(a',b',c').

Four independent tools live here:

  * the orbifold Euler characteristic / Riemann-Hurwitz degree computation,
  * the combinatorial partition condition (necessary for a cover): the
    partition systems of a cover are built by placing each of its cone orders
    at a base point whose order it divides (at most 27 placements, whatever
    the degree), and are listed in descending order of their partitions,
  * a brute-force oracle that enumerates monodromy permutation triples and
    certifies exactly which branched covers of S^2 orbifolds exist at a given
    degree, and
  * the closed-form classification tables, split by the sign of the orbifold
    Euler characteristic (negative: parametrized families plus sporadic rows;
    zero: quadratic-form degree sets; positive: spherical/bad orbifold rows).

The oracle and the tables are kept independent so they can be checked
against each other (see verify_pair and the verify-tables CLI command).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as iter_permutations
from itertools import product
from math import factorial

from .core import Orbifold2, is_loeschian, is_two_square


class BudgetExceededError(RuntimeError):
    def __init__(self, bound: int):
        super().__init__(f"enumeration budget exceeded (degree bound {bound})")
        self.bound = bound


class Unconstrained:
    """Marker: both orbifolds have chi = 0, so chi forces no degree."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNCONSTRAINED"


UNCONSTRAINED = Unconstrained()


@lru_cache(maxsize=None)
def chi_orb(orb: Orbifold2) -> Fraction:
    """Orbifold Euler characteristic 2 - sum (1 - 1/m) over cone points."""
    return Fraction(2) - sum((1 - Fraction(1, m) for m in orb.cone_orders), Fraction(0))


def riemann_hurwitz_degree(cover: Orbifold2, base: Orbifold2):
    """The degree chi(cover)/chi(base) forced by multiplicativity.

    Returns the exact rational when chi(base) != 0 (callers check it is a
    positive integer), UNCONSTRAINED when both characteristics are zero, and
    None when exactly one is zero (no cover can exist).
    """
    cc, cb = chi_orb(cover), chi_orb(base)
    if cb != 0:
        if cc == 0:
            return None
        return cc / cb
    return UNCONSTRAINED if cc == 0 else None


# ---------------------------------------------------------------------------
# Partition condition


@lru_cache(maxsize=None)
def divisor_partitions(n: int, v: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n into parts dividing v, parts descending."""
    divs = sorted((d for d in range(1, v + 1) if v % d == 0), reverse=True)
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for d in divs:
            if d <= maxpart and d <= remaining:
                acc.append(d)
                rec(remaining - d, d, acc)
                acc.pop()

    rec(n, n, [])
    return tuple(out)


@dataclass(frozen=True)
class PartitionSystem:
    """Branching data of a candidate cover over a 3-cone-point base.

    base_orders is always padded to length 3 with 1s; partitions[i] is a
    partition of the degree by divisors of base_orders[i].  The cone point of
    the cover lying over a part k of the partition at base order v has order
    v/k (dropped when equal to 1).
    """

    degree: int
    base_orders: tuple[int, int, int]
    partitions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.base_orders) != 3 or len(self.partitions) != 3:
            raise ValueError("partition system needs exactly 3 base points (pad with 1s)")
        for v, parts in zip(self.base_orders, self.partitions):
            if sum(parts) != self.degree:
                raise ValueError(f"partition {parts} does not sum to {self.degree}")
            if any(v % k for k in parts):
                raise ValueError(f"parts {parts} must divide the base order {v}")

    def branch_orders(self) -> tuple[int, ...]:
        """Cone orders of the covering orbifold (order-1 points dropped)."""
        out = [
            v // k
            for v, parts in zip(self.base_orders, self.partitions)
            for k in parts
            if v // k > 1
        ]
        return tuple(sorted(out))

    def cover_orbifold(self) -> Orbifold2:
        return Orbifold2(self.branch_orders())


def partition_systems(cover: Orbifold2, base: Orbifold2, n: int) -> list[PartitionSystem]:
    """All partition systems of degree n realizing cover -> base at the level
    of the partition condition.  An empty list certifies non-existence at
    this combinatorial level.  Base points of equal order get their
    partitions enumerated independently, so systems differing by which point
    carries which partition are listed separately.

    The systems are generated from the wanted cover orders: each order w is
    placed at a padded base point whose order v it divides, where it becomes
    the part v/w, and the rest of that point's degree is filled with
    unbranched parts v.  With k cone points on the cover this tries 3^k
    placements whatever n is.  The list is sorted descending by partitions.
    """
    base3 = base.padded(3)
    found = set()
    for placement in product(range(3), repeat=len(cover.cone_orders)):
        branched = ([], [], [])
        for w, i in zip(cover.cone_orders, placement):
            if base3[i] % w:
                break
            branched[i].append(base3[i] // w)
        else:
            combo = []
            for v, parts in zip(base3, branched):
                rest = n - sum(parts)
                if rest < 0 or rest % v:
                    break
                combo.append(tuple(sorted(parts + [v] * (rest // v), reverse=True)))
            else:
                found.add(tuple(combo))
    return [PartitionSystem(n, base3, combo) for combo in sorted(found, reverse=True)]


# ---------------------------------------------------------------------------
# Permutation machinery


def perm_mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Product 'apply x, then y'."""
    return tuple(y[xi] for xi in x)


def perm_inverse(x: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(x)
    for i, xi in enumerate(x):
        inv[xi] = i
    return tuple(inv)


def cycle_type(x: tuple[int, ...]) -> tuple[int, ...]:
    n = len(x)
    seen = [False] * n
    out = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = x[j]
                length += 1
            out.append(length)
    return tuple(sorted(out, reverse=True))


def canonical_perm(n: int, ctype: tuple[int, ...]) -> tuple[int, ...]:
    """The representative of the class with cycles on consecutive points."""
    perm = list(range(n))
    i = 0
    for length in sorted(ctype, reverse=True):
        for j in range(length):
            perm[i + j] = i + (j + 1) % length
        i += length
    return tuple(perm)


def conjugacy_class_size(n: int, ctype: tuple[int, ...]) -> int:
    denom = 1
    for length, count in Counter(ctype).items():
        denom *= length**count * factorial(count)
    return factorial(n) // denom


def perms_of_cycle_type(n: int, ctype: tuple[int, ...]):
    """Generate every permutation of S_n with the given cycle type, once.

    Each cycle is started at the smallest point it moves, which makes the
    enumeration duplicate-free.
    """
    perm = [0] * n

    def rec(avail: tuple[int, ...], counts: Counter):
        if not avail:
            yield tuple(perm)
            return
        start = avail[0]
        rest = avail[1:]
        for length in sorted(k for k, c in counts.items() if c > 0):
            counts[length] -= 1
            if length == 1:
                perm[start] = start
                yield from rec(rest, counts)
            else:
                for tail in iter_permutations(rest, length - 1):
                    prev = start
                    for pt in tail:
                        perm[prev] = pt
                        prev = pt
                    perm[prev] = start
                    chosen = set(tail)
                    yield from rec(tuple(p for p in rest if p not in chosen), counts)
            counts[length] += 1

    yield from rec(tuple(range(n)), Counter(ctype))


def perms_transitive(perms, n: int) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for p in perms:
            j = p[i]
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


@dataclass(frozen=True)
class PermWitness:
    """Monodromy witness of a branched cover of S^2 orbifolds.

    The three permutations are aligned with the padded base orders; their
    product (applied left to right) is the identity, the cycle lengths of
    each divide the matching base order, and together they act transitively.
    """

    degree: int
    base_orders: tuple[int, int, int]
    perms: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        sa, sb, sc = self.perms
        if perm_mul(perm_mul(sa, sb), sc) != tuple(range(self.degree)):
            raise ValueError("monodromy product is not the identity")
        for v, s in zip(self.base_orders, self.perms):
            if any(v % length for length in cycle_type(s)):
                raise ValueError("cycle length does not divide the base cone order")
        if not perms_transitive(self.perms, self.degree):
            raise ValueError("monodromy group is not transitive")

    def cover_orders(self) -> tuple[int, ...]:
        out = []
        for v, s in zip(self.base_orders, self.perms):
            out.extend(v // length for length in cycle_type(s) if v // length > 1)
        return tuple(sorted(out))

    def cover_orbifold(self) -> Orbifold2:
        return Orbifold2(self.cover_orders())

    def partition_system(self) -> PartitionSystem:
        return PartitionSystem(
            self.degree,
            self.base_orders,
            tuple(cycle_type(s) for s in self.perms),
        )


def _solve_third(position: int, known: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Given two of (s0, s1, s2) with s0*s1*s2 = id, return the third."""
    if position == 0:
        return perm_inverse(perm_mul(known[1], known[2]))
    if position == 1:
        return perm_mul(perm_inverse(known[0]), perm_inverse(known[2]))
    return perm_inverse(perm_mul(known[0], known[1]))


def _witness_for_types(n: int, base3, types) -> PermWitness | None:
    """Search for a transitive triple with the given cycle types.

    The largest conjugacy class is pinned to its canonical representative
    (every solution can be conjugated onto it), the smallest class is
    enumerated in full, and the third permutation is solved for and
    type-checked.
    """
    sizes = [conjugacy_class_size(n, t) for t in types]
    order = sorted(range(3), key=lambda i: sizes[i])
    i_small, i_mid, i_big = order
    fixed = canonical_perm(n, types[i_big])
    want_mid = types[i_mid]
    for cand in perms_of_cycle_type(n, types[i_small]):
        known = {i_small: cand, i_big: fixed}
        derived = _solve_third(i_mid, known)
        if cycle_type(derived) != want_mid:
            continue
        if not perms_transitive((cand, fixed), n):
            continue
        known[i_mid] = derived
        return PermWitness(n, tuple(base3), (known[0], known[1], known[2]))
    return None


def perm_cover_oracle(
    base: Orbifold2, n: int, budget: int = 12
) -> list[tuple[Orbifold2, PermWitness]]:
    """Enumerate all branched-cover types of the base orbifold at degree n.

    Returns one (cover orbifold, witness) pair per distinct cover, sorted by
    cover cone orders.  Covers by orbifolds with more than 3 cone points are
    included (callers comparing against the classification tables filter
    them out).  Only genus-0 covers are reported: a transitive triple has
    total cycle count n + 2 exactly when the covering surface is S^2.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n > budget:
        raise BudgetExceededError(budget)
    base3 = base.padded(3)
    found: dict[tuple[int, ...], PermWitness] = {}
    typesets = [divisor_partitions(n, v) for v in base3]
    for types in product(*typesets):
        if sum(len(t) for t in types) != n + 2:
            continue
        witness = _witness_for_types(n, base3, types)
        if witness is None:
            continue
        orders = witness.cover_orders()
        if orders not in found:
            found[orders] = witness
    return [(Orbifold2(orders), w) for orders, w in sorted(found.items())]


# ---------------------------------------------------------------------------
# Closed-form classification tables


@dataclass(frozen=True)
class DegreeSet:
    """A set of covering degrees: a finite part plus quadratic-form families.

    A form entry (m, "loeschian") stands for {m * (x^2 + xy + y^2)} and
    (m, "twosquare") for {m * (x^2 + y^2)}, x, y not both zero.
    """

    finite: frozenset = frozenset()
    forms: tuple = ()

    def __contains__(self, d: int) -> bool:
        if d in self.finite:
            return True
        tests = {"loeschian": is_loeschian, "twosquare": is_two_square}
        for mult, form in self.forms:
            if d >= mult and d % mult == 0 and tests[form](d // mult):
                return True
        return False

    def __bool__(self) -> bool:
        return bool(self.finite) or bool(self.forms)

    def degrees_up_to(self, maxd: int) -> list[int]:
        return [d for d in range(1, maxd + 1) if d in self]


_EMPTY = DegreeSet()

# chi < 0 rows: (cover pattern, base pattern, degree, pattern uses y).
_NEG_ROWS = (
    (lambda x, y: (x, x, y), lambda x, y: (2, x, 2 * y), 2, True),
    (lambda x, y: (2, x, 2 * x), lambda x, y: (2, 3, 2 * x), 3, False),
    (lambda x, y: (x, x, x), lambda x, y: (3, 3, x), 3, False),
    (lambda x, y: (3, x, 3 * x), lambda x, y: (2, 3, 3 * x), 4, False),
    (lambda x, y: (x, 2 * x, 2 * x), lambda x, y: (2, 4, 2 * x), 4, False),
    (lambda x, y: (x, x, x), lambda x, y: (2, 3, 2 * x), 6, False),
    (lambda x, y: (x, 4 * x, 4 * x), lambda x, y: (2, 3, 4 * x), 6, False),
)

_NEG_SPORADIC = (
    ((4, 4, 5), (2, 4, 5), 6),
    ((3, 3, 7), (2, 3, 7), 8),
    ((2, 7, 7), (2, 3, 7), 9),
    ((3, 8, 8), (2, 3, 8), 10),
    ((4, 8, 8), (2, 3, 8), 12),
    ((9, 9, 9), (2, 3, 9), 12),
)

# chi > 0: S^2(d,d) covers of the spherical triangle bases; the degree of
# the d-row is total/d.
_SPHERICAL_DD = {
    (2, 3, 3): (12, (1, 2, 3)),
    (2, 3, 4): (24, (1, 2, 3, 4)),
    (2, 3, 5): (60, (1, 2, 3, 5)),
}

# chi > 0: S^2(2,2,d) covers of the spherical triangle bases.
_SPHERICAL_22D = {
    (2, 3, 3): (6, (2,)),
    (2, 3, 4): (12, (2, 3, 4)),
    (2, 3, 5): (30, (2, 3, 5)),
}

# (base, d) rows of the (2,2,d) family that the abbreviated summary variant
# of the table omits; the verifier reports them as documented, not failures.
_SUMMARY_OMITS = {
    ((2, 3, 3), 2),
    ((2, 3, 4), 2),
    ((2, 3, 4), 4),
    ((2, 3, 5), 2),
}

# Remaining sporadic chi > 0 rows with 3-cone-point covers.
_POS_SPORADIC = (
    ((2, 3, 3), (2, 3, 4), 2),
    ((2, 3, 3), (2, 3, 5), 5),
)


def _as_spindle(orders: tuple[int, ...]) -> tuple[int, int] | None:
    """(x, y) with x <= y if the orbifold has <= 2 cone points, else None."""
    if len(orders) > 2:
        return None
    if len(orders) == 0:
        return (1, 1)
    if len(orders) == 1:
        return (1, orders[0])
    return orders


def _as_dd(orders: tuple[int, ...]) -> int | None:
    """d if orders = S^2(d,d) (d = 1 meaning S^2 itself), else None."""
    if orders == ():
        return 1
    if len(orders) == 2 and orders[0] == orders[1]:
        return orders[0]
    return None


def _as_22d(orders: tuple[int, ...]) -> int | None:
    """d if orders = S^2(2,2,d) (d = 1 meaning S^2(2,2)), else None."""
    if orders == (2, 2):
        return 1
    if len(orders) == 3 and orders[0] == 2 and orders[1] == 2:
        return orders[2]
    return None


def _neg_degrees(cover: tuple[int, ...], base: tuple[int, ...]) -> DegreeSet:
    degs = set()
    cvals = sorted(set(cover))  # x and y always appear among the cover orders
    for cpat, bpat, deg, needs_y in _NEG_ROWS:
        for x in cvals:
            for y in cvals if needs_y else (0,):
                if tuple(sorted(cpat(x, y))) == cover and tuple(sorted(bpat(x, y))) == base:
                    degs.add(deg)
    for c, b, deg in _NEG_SPORADIC:
        if cover == c and base == b:
            degs.add(deg)
    return DegreeSet(frozenset(degs))


def _zero_degrees(cover: tuple[int, ...], base: tuple[int, ...]) -> DegreeSet:
    if cover == base == (2, 3, 6) or cover == base == (3, 3, 3):
        return DegreeSet(forms=((1, "loeschian"),))
    if cover == base == (2, 4, 4):
        return DegreeSet(forms=((1, "twosquare"),))
    if cover == (3, 3, 3) and base == (2, 3, 6):
        return DegreeSet(forms=((2, "loeschian"),))
    return _EMPTY


def _pos_degrees(cover: tuple[int, ...], base: tuple[int, ...]) -> DegreeSet:
    degs = set()
    spindle_c, spindle_b = _as_spindle(cover), _as_spindle(base)
    if spindle_c is not None and spindle_b is not None:
        (cx, cy), (bx, by) = spindle_c, spindle_b
        if bx % cx == 0 and by % cy == 0 and bx // cx == by // cy:
            degs.add(bx // cx)
    x = _as_22d(base)
    if x is not None and x >= 2:
        d = _as_dd(cover)
        if d is not None and x % d == 0:
            degs.add(2 * x // d)
        d = _as_22d(cover)
        if d is not None and x % d == 0:
            degs.add(x // d)
    if base in _SPHERICAL_DD:
        d = _as_dd(cover)
        if d is not None:
            total, allowed = _SPHERICAL_DD[base]
            if d in allowed:
                degs.add(total // d)
        d = _as_22d(cover)
        if d is not None and d >= 2:
            total, allowed = _SPHERICAL_22D[base]
            if d in allowed:
                degs.add(total // d)
    for c, b, deg in _POS_SPORADIC:
        if cover == c and base == b:
            degs.add(deg)
    return DegreeSet(frozenset(degs))


@lru_cache(maxsize=None)
def _classify_orders(cover: tuple[int, ...], base: tuple[int, ...]) -> DegreeSet:
    cc = chi_orb(Orbifold2(cover))
    cb = chi_orb(Orbifold2(base))
    if cc < 0 and cb < 0:
        degs = _neg_degrees(cover, base)
    elif cc == 0 and cb == 0:
        degs = _zero_degrees(cover, base)
    elif cc > 0 and cb > 0:
        degs = _pos_degrees(cover, base)
    else:
        degs = _EMPTY
    if cover == base and 1 not in degs:
        degs = DegreeSet(degs.finite | {1}, degs.forms)
    return degs


def classify_cover(cover: Orbifold2, base: Orbifold2) -> DegreeSet:
    """All degrees in which cover -> base exists, per the classification
    tables.  The chi > 0 part is the complete list; an abbreviated summary
    variant omits four of its rows (see summary_covers for the difference).
    """
    if len(cover.cone_orders) > 3 or len(base.cone_orders) > 3:
        raise ValueError("classification applies to orbifolds with <= 3 cone points")
    return _classify_orders(cover.cone_orders, base.cone_orders)


# ---------------------------------------------------------------------------
# Table inversion: all covers of a base at one degree.


def _neg_covers_of(base: tuple[int, ...], n: int) -> set[tuple[int, ...]]:
    out = set()
    if len(base) != 3:
        return out
    maxv = max(base)
    for cpat, bpat, deg, needs_y in _NEG_ROWS:
        if deg != n:
            continue
        for x in range(2, maxv + 1):
            for y in range(2, maxv + 1) if needs_y else (0,):
                if tuple(sorted(bpat(x, y))) == base:
                    c = tuple(sorted(cpat(x, y)))
                    if chi_orb(Orbifold2(c)) < 0:
                        out.add(c)
    for c, b, deg in _NEG_SPORADIC:
        if b == base and deg == n:
            out.add(c)
    return out


def _zero_covers_of(base: tuple[int, ...], n: int) -> set[tuple[int, ...]]:
    out = set()
    if base in ((2, 3, 6), (3, 3, 3)) and is_loeschian(n):
        out.add(base)
    if base == (2, 4, 4) and is_two_square(n):
        out.add(base)
    if base == (2, 3, 6) and n % 2 == 0 and n >= 2 and is_loeschian(n // 2):
        out.add((3, 3, 3))
    return out


def _pos_covers_of(base: tuple[int, ...], n: int, summary: bool) -> set[tuple[int, ...]]:
    out = set()
    spindle = _as_spindle(base)
    if spindle is not None:
        bx, by = spindle
        if bx % n == 0 and by % n == 0:
            out.add(tuple(v for v in sorted((bx // n, by // n)) if v > 1))
    x = _as_22d(base)
    if x is not None and x >= 2:
        for d in range(1, x + 1):
            if x % d:
                continue
            if 2 * x // d == n:
                out.add((d, d) if d > 1 else ())
            if x // d == n:
                out.add((2, 2, d) if d > 1 else (2, 2))
    if base in _SPHERICAL_DD:
        total, allowed = _SPHERICAL_DD[base]
        for d in allowed:
            if total // d == n:
                out.add((d, d) if d > 1 else ())
        total, allowed = _SPHERICAL_22D[base]
        for d in allowed:
            if summary and (base, d) in _SUMMARY_OMITS:
                continue
            if total // d == n:
                out.add((2, 2, d))
    for c, b, deg in _POS_SPORADIC:
        if b == base and deg == n:
            out.add(c)
    return out


def _covers_at_degree(base: tuple[int, ...], n: int, summary: bool) -> set[tuple[int, ...]]:
    cb = chi_orb(Orbifold2(base))
    if cb < 0:
        out = _neg_covers_of(base, n)
    elif cb == 0:
        out = _zero_covers_of(base, n)
    else:
        out = _pos_covers_of(base, n, summary)
    if n == 1:
        out.add(base)
    return out


def table_covers(base: Orbifold2, n: int) -> set[tuple[int, ...]]:
    """Cover orbifolds (as reduced order tuples) admitted at degree n by the
    classification tables."""
    return _covers_at_degree(base.cone_orders, n, summary=False)


def summary_covers(base: Orbifold2, n: int) -> set[tuple[int, ...]]:
    """Same, restricted to the abbreviated summary variant of the table; the
    difference against table_covers is the documented-discrepancy set."""
    return _covers_at_degree(base.cone_orders, n, summary=True)


def oracle_covers(
    base: Orbifold2, n: int, budget: int = 12
) -> tuple[set[tuple[int, ...]], dict[tuple[int, ...], PermWitness]]:
    """Covers found by the permutation oracle at degree n: the set of covers
    with <= 3 cone points (comparable with the tables) plus the full witness
    map (which may also contain covers with more cone points)."""
    witnesses = {orb.cone_orders: w for orb, w in perm_cover_oracle(base, n, budget)}
    small = {orders for orders in witnesses if len(orders) <= 3}
    return small, witnesses


@dataclass(frozen=True)
class PairReport:
    """Oracle-vs-tables comparison at one (base, degree) pair."""

    base: tuple[int, ...]
    degree: int
    oracle_only: tuple
    table_only: tuple
    documented: tuple
    extra_multicone: tuple

    @property
    def clean(self) -> bool:
        return not self.oracle_only and not self.table_only


def verify_pair(base: Orbifold2, n: int, budget: int = 12) -> PairReport:
    oracle_set, witnesses = oracle_covers(base, n, budget)
    table_set = table_covers(base, n)
    summary_set = summary_covers(base, n)
    return PairReport(
        base=base.cone_orders,
        degree=n,
        oracle_only=tuple(sorted(oracle_set - table_set)),
        table_only=tuple(sorted(table_set - oracle_set)),
        documented=tuple(sorted(table_set - summary_set)),
        extra_multicone=tuple(sorted(o for o in witnesses if len(o) > 3)),
    )
